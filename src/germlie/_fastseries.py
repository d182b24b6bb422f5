from .series import SeriesStack  # noqa: F401  (the benchmark tracer's name for the stack type)
