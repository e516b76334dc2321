"""The suite's warning filters: a leaked coroutine fails its test.

A coroutine that is created and never awaited warns from its finalizer,
where the warning cannot propagate; pytest re-reports it as an
unraisable exception.  ``pyproject.toml`` makes both errors.  These
tests run a small inner suite under exactly those filters.
"""

from __future__ import annotations

import pathlib
import tomllib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

INNER = '''
import asyncio
import gc

import numpy as np


async def work():
    return 1


def test_leaks_a_coroutine():
    work()  # created, dropped at once, never awaited
    gc.collect()


def test_awaited_coroutine():
    assert asyncio.run(work()) == 1


def test_numpy_runtime_warning():
    with np.errstate(divide="warn"):
        with __import__("pytest").warns(RuntimeWarning):
            np.float64(1.0) / np.float64(0.0)
    with np.errstate(invalid="warn"):
        np.float64(0.0) / np.float64(0.0)  # unasserted: still not an error
'''


def _project_filters() -> list:
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["tool"]["pytest"]["ini_options"]["filterwarnings"]


def _run(pytester: pytest.Pytester, filters: list):
    lines = "".join(f"\n    {f}" for f in filters)
    pytester.makeini(f"[pytest]\nfilterwarnings ={lines}\n")
    pytester.makepyfile(test_inner=INNER)
    return pytester.runpytest_subprocess("-p", "no:cacheprovider")


def test_filters_are_targeted():
    filters = _project_filters()
    assert "error:coroutine .* was never awaited:RuntimeWarning" in filters
    assert not any(f.startswith("error::RuntimeWarning") for f in filters)
    assert not any(f in ("error", "error::Warning") for f in filters)


def test_leaked_coroutine_fails_under_project_filters(pytester):
    result = _run(pytester, _project_filters())
    result.assert_outcomes(passed=2, failed=1)
    result.stdout.fnmatch_lines(["*FAILED*test_leaks_a_coroutine*"])
    result.stdout.fnmatch_lines(["*was never awaited*"])


def test_leaked_coroutine_only_warns_without_them(pytester):
    result = _run(pytester, [])
    result.assert_outcomes(passed=3, warnings=2)
