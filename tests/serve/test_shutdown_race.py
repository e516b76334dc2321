"""``ServerThread.stop()`` shutdown: bounded, idempotent, race-free.

The race this pins: a server that is already stopping on its own (the
selftest drains it directly, then calls ``stop()``) used to get a
``drain()`` coroutine submitted to a loop that exited before running
it.  ``stop()`` then waited out ``drain_timeout_s + 10`` and the
coroutine was reported as never awaited.  Every cycle below must finish
within a tight bound and leave no such warning behind.
"""

from __future__ import annotations

import asyncio
import gc
import time
import warnings

import pytest

from repro.serve import ServerThread, build_app

CYCLES = 12
#: Far below the 15 s a lost drain submission costs here.
STOP_BOUND_S = 3.0


@pytest.fixture
def no_unawaited_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    leaks = [str(w.message) for w in caught if "never awaited" in str(w.message)]
    assert not leaks


def _server(tmp_path, i: int) -> ServerThread:
    app = build_app(backend="serial", cache_dir=str(tmp_path / f"c{i}"))
    return ServerThread(app, drain_timeout_s=5.0).start()


def _timed_stop(server: ServerThread, drain: bool) -> bool:
    t0 = time.monotonic()
    drained = server.stop(drain=drain)
    assert time.monotonic() - t0 < STOP_BOUND_S
    assert not server._thread.is_alive()  # noqa: SLF001
    return drained


@pytest.mark.usefixtures("no_unawaited_warnings")
class TestStopRace:
    def test_stop_after_external_drain(self, tmp_path):
        for i in range(CYCLES):
            server = _server(tmp_path, i)
            fut = asyncio.run_coroutine_threadsafe(
                server.app.drain(timeout_s=5.0), server._loop  # noqa: SLF001
            )
            assert fut.result(timeout=STOP_BOUND_S) is True
            # The loop is now exiting by itself: stop() races it.
            assert _timed_stop(server, drain=False) is True

    def test_repeated_start_stop_is_bounded_and_idempotent(self, tmp_path):
        for i in range(CYCLES):
            server = _server(tmp_path, i)
            drain = i % 2 == 0
            assert _timed_stop(server, drain) is True
            assert _timed_stop(server, drain) is True

    def test_stop_before_start_is_a_no_op(self, tmp_path):
        app = build_app(backend="serial", cache_dir=str(tmp_path))
        assert ServerThread(app).stop() is True
