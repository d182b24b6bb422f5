import numpy as np
import pytest

from germlie.germgroup import GermLieGroup
from germlie.germspace import GermSpace
from germlie.matrixlie import MatrixLieBackend
from germlie.series import matrix_space


@pytest.fixture
def scalar_germspace():
    return GermSpace(anchors=(0.0, 0.4 + 0.1j), base_radius=1.0, ratio=0.1, levels=6)


@pytest.fixture
def germ_group():
    space = GermSpace(anchors=(0.0, 1.5 + 0.5j), base_radius=1.0, ratio=0.1,
                      levels=6, space=matrix_space(2), degree_bound=12)
    return GermLieGroup(space, MatrixLieBackend(2, 8))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
