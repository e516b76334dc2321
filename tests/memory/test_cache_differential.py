"""Differential test: the dict-per-set ``Cache`` against the numpy-stamp
implementation it replaced.

The reference keeps per-set tags/valid/dirty/last-use-stamp arrays and
picks the LRU victim by ``argmin`` over stamps.  Both must agree access
by access (hit/miss), in every ``CacheStats`` counter and in
``contents()``, across geometries and write policies, on random and
Zipf address streams.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.memory import Cache, CacheConfig, CacheStats
from repro.processor import zipf_addresses


class NumpyStampCache:
    """The numpy per-set-array cache model, kept as the oracle."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        n_sets, assoc = config.n_sets, config.associativity
        self._tags = np.zeros((n_sets, assoc), dtype=np.int64)
        self._valid = np.zeros((n_sets, assoc), dtype=bool)
        self._dirty = np.zeros((n_sets, assoc), dtype=bool)
        self._stamp = np.zeros((n_sets, assoc), dtype=np.int64)
        self._clock = 0
        self._set_mask = n_sets - 1
        self._line_shift = int(np.log2(config.line_bytes))
        self.stats = CacheStats()

    def reset(self) -> None:
        self._valid[:] = False
        self._dirty[:] = False
        self._clock = 0
        self.stats = CacheStats()

    def access(self, address: int, is_write: bool = False) -> bool:
        line = address >> self._line_shift
        set_idx = line & self._set_mask
        tag = line >> max(int(self._set_mask).bit_length(), 0)
        self._clock += 1
        self.stats.accesses += 1
        tags = self._tags[set_idx]
        valid = self._valid[set_idx]
        hit_ways = np.nonzero(valid & (tags == tag))[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self._stamp[set_idx, way] = self._clock
            if is_write and self.config.write_back:
                self._dirty[set_idx, way] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if is_write and not self.config.write_allocate:
            return False
        invalid = np.nonzero(~valid)[0]
        if invalid.size:
            way = int(invalid[0])
        else:
            way = int(np.argmin(self._stamp[set_idx]))
            self.stats.evictions += 1
            if self._dirty[set_idx, way]:
                self.stats.writebacks += 1
        self._tags[set_idx, way] = tag
        self._valid[set_idx, way] = True
        self._dirty[set_idx, way] = bool(is_write and self.config.write_back)
        self._stamp[set_idx, way] = self._clock
        return False

    def contents(self) -> set[int]:
        lines = set()
        set_bits = int(self._set_mask).bit_length()
        for set_idx in range(self.config.n_sets):
            for way in range(self.config.associativity):
                if self._valid[set_idx, way]:
                    line = (int(self._tags[set_idx, way]) << set_bits) | set_idx
                    lines.add(line << self._line_shift)
        return lines


def _random_stream(seed: int, n: int = 6000):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 64 * 1024, n)
    return addrs.tolist(), (rng.random(n) < 0.3).tolist()


def _zipf_stream(seed: int, n: int = 6000):
    addrs = zipf_addresses(n, unique=2048, exponent=1.1,
                           rng=np.random.default_rng(seed))
    writes = np.random.default_rng(seed + 1).random(n) < 0.3
    return addrs.tolist(), writes.tolist()


STREAMS = {"random": _random_stream, "zipf": _zipf_stream}

#: (size, associativity): direct-mapped, 2-way, 16-way.
GEOMETRIES = [(4096, 1), (4096, 2), (8192, 16)]


def _stats(c) -> tuple:
    s = c.stats
    return (s.accesses, s.hits, s.misses, s.evictions, s.writebacks)


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize(
    "write_back,write_allocate", list(itertools.product([True, False], repeat=2))
)
@pytest.mark.parametrize("size,assoc", GEOMETRIES)
def test_matches_numpy_stamp_reference(size, assoc, write_back, write_allocate,
                                       stream):
    cfg = CacheConfig(size_bytes=size, line_bytes=64, associativity=assoc,
                      write_back=write_back, write_allocate=write_allocate)
    got, want = Cache(cfg), NumpyStampCache(cfg)
    addrs, writes = STREAMS[stream](size + assoc)
    for k, (addr, w) in enumerate(zip(addrs, writes)):
        assert got.access(addr, w) == want.access(addr, w), f"access {k}"
        if k % 997 == 0:
            assert got.contents() == want.contents()
    assert _stats(got) == _stats(want)
    assert got.contents() == want.contents()


def test_reset_matches_reference():
    cfg = CacheConfig(size_bytes=2048, line_bytes=64, associativity=4)
    got, want = Cache(cfg), NumpyStampCache(cfg)
    addrs, writes = _zipf_stream(5, 3000)
    for c in (got, want):
        for addr, w in zip(addrs[:1500], writes[:1500]):
            c.access(addr, w)
        c.reset()
    assert got.contents() == want.contents() == set()
    for addr, w in zip(addrs[1500:], writes[1500:]):
        assert got.access(addr, w) == want.access(addr, w)
    assert _stats(got) == _stats(want)
    assert got.contents() == want.contents()
