"""``benchmarks/perf_smoke.py --require``: floors (``>=``) and ceilings
(``<=``) on measured values, checked without measuring anything."""

import pytest

from benchmarks.perf_smoke import check_requirement, parse_requirement

MEASURED = {
    "kernel_drain_events_per_s": {"bare": 13_000_000.0},
    "experiments_wall_s": {"E19": 0.031},
}


class TestParse:
    def test_floor_and_ceiling(self):
        assert parse_requirement("a.b>=12") == ("a", "b", ">=", 12.0)
        assert parse_requirement(" a.b <= 0.1") == ("a", "b", "<=", 0.1)

    @pytest.mark.parametrize(
        "spec", ["a.b=1", "a.b>1", "ab>=1", ".b>=1", "a.>=1", "a.b<=x"]
    )
    def test_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_requirement(spec)


class TestCheck:
    @pytest.mark.parametrize("spec, passed", [
        ("kernel_drain_events_per_s.bare>=12830857", True),
        ("kernel_drain_events_per_s.bare>=13000001", False),
        ("experiments_wall_s.E19<=0.10", True),
        ("experiments_wall_s.E19<=0.031", True),
        ("experiments_wall_s.E19<=0.030", False),
    ])
    def test_bound(self, spec, passed):
        ok, message = check_requirement(MEASURED, spec)
        assert ok is passed
        assert ("FAILED" in message) is not passed

    @pytest.mark.parametrize("spec", [
        "experiments_wall_s.E07<=1", "serve_rps.unique>=1",
    ])
    def test_missing_value_fails(self, spec):
        ok, message = check_requirement(MEASURED, spec)
        assert not ok and "MISSING" in message
