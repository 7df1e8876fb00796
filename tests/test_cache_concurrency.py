"""Concurrent multi-process access to the ResultCache.

The cache's correctness story under concurrency is tmp-file +
``os.replace``: a reader sees either a complete old entry, a complete
new entry, or a miss — never a torn pickle. These tests hammer one
cache directory from multiple fork processes simultaneously and assert
exactly that for concurrent writers and readers of the same keys, the
race the serve dedup path exercises.

Every stored value is self-validating (``payload`` must equal a
function of ``n``), so a torn or interleaved read cannot sneak through
as a false pass.
"""

import multiprocessing

import pytest

from repro.experiments.cache import ResultCache

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method required",
)


def _ctx():
    return multiprocessing.get_context("fork")


def _value(key, n):
    return {"key": key, "n": n, "payload": "x" * (200 + n % 97)}


def _consistent(key, value):
    return (
        isinstance(value, dict)
        and value.get("key") == key
        and value.get("payload") == "x" * (200 + value["n"] % 97)
    )


_KEYS = ["{:02x}deadbeef".format(i) for i in range(8)]


def _writer(cache_dir, rounds, out):
    cache = ResultCache(cache_dir)
    for n in range(rounds):
        for key in _KEYS:
            cache.put(key, _value(key, n))
    out.put(("writer-ok", cache.stores))


def _reader(cache_dir, rounds, out):
    cache = ResultCache(cache_dir)
    torn = 0
    hits = 0
    for _ in range(rounds):
        for key in _KEYS:
            value = cache.get(key)
            if value is None:
                continue
            hits += 1
            if not _consistent(key, value):
                torn += 1
    out.put(("reader", hits, torn, cache.errors))


def _run(procs, timeout=60.0):
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout)
    assert all(p.exitcode == 0 for p in procs), [p.exitcode for p in procs]


class TestConcurrentSharded:
    def test_two_writers_one_reader_never_torn(self, tmp_path):
        ctx = _ctx()
        out = ctx.SimpleQueue()
        cache_dir = str(tmp_path / "cache")
        _run([
            ctx.Process(target=_writer, args=(cache_dir, 40, out)),
            ctx.Process(target=_writer, args=(cache_dir, 40, out)),
            ctx.Process(target=_reader, args=(cache_dir, 120, out)),
        ])
        reports = [out.get() for _ in range(3)]
        reader = next(r for r in reports if r[0] == "reader")
        _, hits, torn, errors = reader
        assert torn == 0
        assert errors == 0
        assert hits > 0  # the race was actually exercised
        # Every key converged to a complete, consistent entry.
        cache = ResultCache(cache_dir)
        for key in _KEYS:
            assert _consistent(key, cache.get(key))

    def test_no_tmp_litter_after_the_storm(self, tmp_path):
        ctx = _ctx()
        out = ctx.SimpleQueue()
        cache_dir = str(tmp_path / "cache")
        _run([
            ctx.Process(target=_writer, args=(cache_dir, 30, out))
            for _ in range(3)
        ])
        for _ in range(3):
            out.get()
        leftovers = list((tmp_path / "cache").rglob("*.tmp"))
        assert leftovers == []
