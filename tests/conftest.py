"""Test-suite-wide configuration: deterministic hypothesis runs, and
``pytester`` for tests of the suite's own warning gates."""

from hypothesis import HealthCheck, settings

pytest_plugins = ("pytester",)

settings.register_profile(
    "repro",
    derandomize=True,  # bit-identical property runs, matching the
    deadline=None,     # library's reproducibility policy
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
