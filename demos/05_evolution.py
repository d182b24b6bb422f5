"""The evolution map and the left logarithmic derivative.

For a continuous algebra-germ-valued curve gamma the left evolution solves
eta' = eta . gamma with eta(0) = 1; the integrator multiplies Gauss-node
exponentials with a commutator correction, so every iterate stays in the
germ group.  The left logarithmic derivative gamma^{-1} gamma' inverts the
construction, and central difference quotients of the endpoint map converge
at second order -- the finite-difference evidence this package offers in
place of an (untestable) infinite smoothness claim.
"""

import numpy as np

from germlie.evolution import (
    GroupCurve, LieCurve, evol, log_derivative, product_rule_report,
    rk4_pointwise, roundtrip_report, smoothness_report,
)
from germlie.germgroup import GermLieGroup, random_algebra_element
from germlie.germspace import GermSpace, germ_distance
from germlie.series import matrix_space

space = GermSpace(anchors=(0.0, 1.5 + 0.5j), base_radius=1.0, ratio=0.1,
                  levels=6, space=matrix_space(2), degree_bound=12)
group = GermLieGroup(space)
rng = np.random.default_rng(5)

# --- a constant curve evolves to the exponential ------------------------------
xi = random_algebra_element(group, rng, 0.3)
res = evol(LieCurve.constant(group, xi), steps=64)
print("constant curve: endpoint vs exp(xi):",
      germ_distance(res.endpoint.element, group.exp_germ(xi).element))
print("step-doubling error estimate:", res.error_estimate)

# --- a genuinely noncommutative spline curve ------------------------------------
c0 = random_algebra_element(group, rng, 0.12)
c1 = random_algebra_element(group, rng, 0.05)
c2 = random_algebra_element(group, rng, 0.04)
curve = LieCurve(group, (0.0, 1.0), ((c0, c1, c2),))
res = evol(curve, steps=64)

pts = space.sample_points(1, 10, interior=0.4)
y = rk4_pointwise(curve, pts, 640)  # classical RK4 on Y' = Y A(t), pointwise
print("\nspline curve: germ evolution vs pointwise RK4 oracle:",
      np.max(np.abs(res.endpoint.eval(pts) - y)))

# --- the log derivative recovers the curve along its own evolution ----------------
rep = roundtrip_report(group, curve, steps=128)
print("delta^l(evolution trajectory) vs gamma, worst:", rep.extras["worst_err"])

# --- product rule ------------------------------------------------------------------
ident = group.identity(1).element
ga = GroupCurve(group, (0.0, 1.0), ((ident, c1, c2),))
gb = GroupCurve(group, (0.0, 1.0), ((ident, c0.scale(0.5)),))
pr = product_rule_report(group, ga, gb, ts=[0.25, 0.75])
print("product rule worst residual:", pr.extras["worst_err"])
print("delta^l(gamma) at t=0.5 has norm:",
      round(log_derivative(ga, 0.5).norm_upper, 4))

# --- differentiability evidence ------------------------------------------------------
direction = LieCurve(group, (0.0, 1.0),
                     ((random_algebra_element(group, rng, 0.1),),))
sm = smoothness_report(group, curve, direction, steps=32)
print("\ncentral-difference order estimates:", [round(o, 4) for o in sm.extras["orders"]])
