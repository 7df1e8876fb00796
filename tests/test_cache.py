"""Unit tests for the two caches of the system.

Part 1 covers the simulated hardware caches (arrays and the L1/L2
hierarchy); part 2, at the bottom, covers the on-disk experiment
result cache (content keys, hit/miss accounting, corruption
tolerance, eviction).
"""

import dataclasses
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, MachineConfig
from repro.coherence.cache import Cache, CacheHierarchy, LineState
from repro.errors import ConfigError, ProtocolError
from repro.experiments.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    content_key,
    default_cache_dir,
)
from repro.experiments.fsck import fsck_cache


def tiny_cache(ways=2, sets=2):
    config = CacheConfig(
        size_bytes=64 * ways * sets, line_bytes=64, ways=ways,
        round_trip_ns=2, freq_mhz=1000,
    )
    return Cache(config, name="tiny")


class TestCache:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(0) is None
        cache.insert(0, LineState.SHARED)
        assert cache.lookup(0) is LineState.SHARED

    def test_lru_eviction_within_set(self):
        cache = tiny_cache(ways=2, sets=1)
        cache.insert(0, LineState.SHARED)
        cache.insert(1, LineState.SHARED)
        cache.insert(0, LineState.SHARED)  # a re-insert: 1 becomes LRU
        evicted = cache.insert(2, LineState.SHARED)
        assert evicted == (1, LineState.SHARED)
        assert cache.lookup(0) is not None

    def test_insert_existing_line_does_not_evict(self):
        cache = tiny_cache(ways=2, sets=1)
        cache.insert(0, LineState.SHARED)
        cache.insert(1, LineState.SHARED)
        assert cache.insert(0, LineState.MODIFIED) is None
        assert cache.lookup(0) is LineState.MODIFIED

    def test_sets_are_independent(self):
        cache = tiny_cache(ways=1, sets=2)
        cache.insert(0, LineState.SHARED)  # set 0
        cache.insert(1, LineState.SHARED)  # set 1
        assert cache.lookup(0) is not None
        assert cache.lookup(1) is not None

    def test_invalidate(self):
        cache = tiny_cache()
        cache.insert(4, LineState.MODIFIED)
        assert cache.invalidate(4) is LineState.MODIFIED
        assert cache.invalidate(4) is None
        assert cache.lookup(4) is None

    def test_set_state_absent_line_rejected(self):
        with pytest.raises(ProtocolError):
            tiny_cache().set_state(7, LineState.SHARED)

    def test_insert_requires_line_state(self):
        with pytest.raises(ConfigError):
            tiny_cache().insert(0, "M")

    def test_dirty_lines(self):
        cache = tiny_cache(ways=4, sets=1)
        cache.insert(0, LineState.MODIFIED)
        cache.insert(1, LineState.SHARED)
        cache.insert(2, LineState.MODIFIED)
        assert sorted(cache.dirty_lines()) == [0, 2]

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=100))
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = tiny_cache(ways=2, sets=4)
        for line in lines:
            cache.insert(line, LineState.SHARED)
        # Every set obeys its way limit (untouched sets stay unallocated),
        # which bounds the total at ways x sets.
        for cache_set in cache._sets:
            assert cache_set is None or len(cache_set) <= 2

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=60))
    def test_most_recent_insert_always_resident(self, lines):
        cache = tiny_cache(ways=2, sets=2)
        for line in lines:
            cache.insert(line, LineState.SHARED)
            assert cache.lookup(line) is LineState.SHARED


class TestCacheHierarchy:
    def _hierarchy(self):
        return CacheHierarchy(MachineConfig(n_nodes=4), node_id=0)

    def test_l1_hit_latency(self):
        hierarchy = self._hierarchy()
        hierarchy.fill(0, LineState.SHARED)
        latency, state = hierarchy.lookup(0)
        assert latency == 2
        assert state is LineState.SHARED

    def test_l2_hit_latency_after_l1_eviction(self):
        hierarchy = self._hierarchy()
        n_l1_sets = hierarchy.config.l1.n_sets
        # Fill one L1 set past its 2 ways so the first line falls to L2.
        for way in range(3):
            hierarchy.fill(way * n_l1_sets, LineState.SHARED)
        latency, state = hierarchy.lookup(0)
        assert state is LineState.SHARED
        assert latency == 2 + 12

    def test_full_miss_charges_both_lookups(self):
        latency, state = self._hierarchy().lookup(12345)
        assert state is None
        assert latency == 14

    def test_inclusion_l2_eviction_purges_l1(self):
        hierarchy = self._hierarchy()
        n_l2_sets = hierarchy.config.l2.n_sets
        lines = [way * n_l2_sets for way in range(9)]  # 8-way L2 set
        for line in lines:
            hierarchy.fill(line, LineState.SHARED)
        # The LRU line (lines[0]) left both levels.
        assert hierarchy.state(lines[0]) is None
        assert hierarchy.l1.lookup(lines[0]) is None

    def test_dirty_victim_reported_for_writeback(self):
        hierarchy = self._hierarchy()
        n_l2_sets = hierarchy.config.l2.n_sets
        hierarchy.fill(0, LineState.MODIFIED)
        victims = []
        for way in range(1, 9):
            victims += hierarchy.fill(way * n_l2_sets, LineState.SHARED)
        assert victims == [0]

    def test_set_state_propagates_to_both_levels(self):
        hierarchy = self._hierarchy()
        hierarchy.fill(0, LineState.MODIFIED)
        hierarchy.set_state(0, LineState.SHARED)
        assert hierarchy.l1.lookup(0) is LineState.SHARED
        assert hierarchy.l2.lookup(0) is LineState.SHARED

    def test_invalidate_returns_l2_state(self):
        hierarchy = self._hierarchy()
        hierarchy.fill(0, LineState.MODIFIED)
        assert hierarchy.invalidate(0) is LineState.MODIFIED
        assert hierarchy.state(0) is None

    def test_dirty_lines_authoritative_at_l2(self):
        hierarchy = self._hierarchy()
        hierarchy.fill(0, LineState.MODIFIED)
        hierarchy.fill(1, LineState.SHARED)
        assert hierarchy.dirty_lines() == [0]


# ----------------------------------------------------------------------
# Part 2: the on-disk experiment result cache (repro.experiments.cache).


def _key_for(machine, **kwargs):
    params = dict(app="fmm", config="thrifty", threads=64, seed=1)
    params.update(kwargs)
    return content_key(
        params["app"], params["config"], params["threads"],
        params["seed"], machine, params.get("overrides"),
    )


#: Scalar MachineConfig fields safe to perturb by an arbitrary delta.
_INT_FIELDS = (
    "cpu_freq_mhz", "memory_row_miss_ns", "bus_freq_mhz",
    "bus_width_bytes", "page_bytes", "flush_base_ns",
    "flush_per_line_ns", "refill_per_line_ns",
)


class TestContentKey:
    def test_equal_inputs_equal_keys(self):
        assert _key_for(MachineConfig()) == _key_for(MachineConfig())

    def test_override_order_is_irrelevant(self):
        machine = MachineConfig()
        a = _key_for(machine, overrides={"x": 1, "y": 2})
        b = _key_for(machine, overrides={"y": 2, "x": 1})
        assert a == b

    @given(
        field=st.sampled_from(_INT_FIELDS),
        delta=st.integers(min_value=1, max_value=10_000),
    )
    def test_any_int_field_perturbation_changes_key(self, field, delta):
        base = MachineConfig()
        perturbed = dataclasses.replace(
            base, **{field: getattr(base, field) + delta}
        )
        assert _key_for(perturbed) != _key_for(base)

    @given(exponent=st.integers(min_value=1, max_value=8))
    def test_node_count_changes_key(self, exponent):
        base = MachineConfig()
        machine = dataclasses.replace(base, n_nodes=2 ** exponent)
        if machine.n_nodes == base.n_nodes:
            assert _key_for(machine) == _key_for(base)
        else:
            assert _key_for(machine) != _key_for(base)

    def test_nested_field_perturbation_changes_key(self):
        base = MachineConfig()
        slower_l1 = dataclasses.replace(
            base, l1=dataclasses.replace(base.l1, round_trip_ns=3)
        )
        assert _key_for(slower_l1) != _key_for(base)
        slower_hops = dataclasses.replace(
            base,
            network=dataclasses.replace(base.network, pin_to_pin_ns=17),
        )
        assert _key_for(slower_hops) != _key_for(base)

    def test_bool_flip_changes_key(self):
        base = MachineConfig()
        fast = dataclasses.replace(base, detailed_memory=False)
        assert _key_for(fast) != _key_for(base)

    @pytest.mark.parametrize("field,value", [
        ("app", "ocean"), ("config", "baseline"),
        ("threads", 32), ("seed", 2),
    ])
    def test_cell_identity_fields_change_key(self, field, value):
        machine = MachineConfig()
        assert _key_for(machine, **{field: value}) != _key_for(machine)

    def test_package_version_changes_key(self, monkeypatch):
        machine = MachineConfig()
        before = _key_for(machine)
        monkeypatch.setattr(
            "repro.experiments.cache.__version__", "999.0.0"
        )
        assert _key_for(machine) != before

    def test_unhashable_garbage_rejected(self):
        with pytest.raises(ConfigError):
            content_key(
                "fmm", "thrifty", 64, 1, MachineConfig(),
                {"factory": object()},
            )


class TestResultCacheStore:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key_for(MachineConfig())
        assert cache.get(key) is None
        assert cache.misses == 1
        payload = {"energy": 1.25, "stats": {"sleeps": 3}}
        cache.put(key, payload)
        assert key in cache
        assert cache.get(key) == payload
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_corrupted_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key_for(MachineConfig())
        cache.put(key, ["good"])
        path = cache._entry_path(key)
        path.write_bytes(b"\x00not a pickle at all")
        sentinel = object()
        assert cache.get(key, sentinel) is sentinel
        assert cache.errors == 1
        assert not path.exists()  # bad entry evicted

    def test_truncated_entry_is_a_miss_not_a_crash(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key_for(MachineConfig())
        cache.put(key, list(range(1000)))
        path = cache._entry_path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.get(key) is None
        assert cache.errors == 1

    # No deadline: adversarial bytes can hit a pickle GLOBAL opcode,
    # and resolving one imports a module — a first import costs
    # whatever it costs, which is exactly what get() must survive.
    @settings(deadline=None)
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes_never_crash_get(self, blob, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("fuzz"))
        key = _key_for(MachineConfig())
        path = cache._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        got = cache.get(key, "default")
        # Either the bytes happened to unpickle, or it's a clean miss.
        assert cache.hits + cache.misses == 1
        if cache.misses:
            assert got == "default"

    def test_overwrite_is_atomic_and_wins(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key_for(MachineConfig())
        cache.put(key, "old")
        cache.put(key, "new")
        assert cache.get(key) == "new"
        assert len(cache) == 1
        leftovers = [p for p in os.listdir(path=cache._entry_path(key).parent)
                     if p.endswith(".tmp")]
        assert leftovers == []

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(4):
            cache.put(_key_for(MachineConfig(), seed=seed), seed)
        assert len(cache) == 4
        cache.clear()
        assert len(cache) == 0

    def test_stale_tmp_never_shadows_a_good_entry(self, tmp_path):
        # A writer killed mid-put leaves a .tmp file behind; it must be
        # invisible to readers and must not corrupt the real entry.
        cache = ResultCache(tmp_path)
        key = _key_for(MachineConfig())
        cache.put(key, "good")
        torn = cache._entry_path(key).parent / "deadbeef.tmp"
        torn.write_bytes(b"\x00half a pickle")
        assert cache.get(key) == "good"
        assert cache.errors == 0
        assert len(cache) == 1  # the torn tmp is not an entry

    def test_clear_sweeps_stale_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = _key_for(MachineConfig())
        cache.put(key, "entry")
        torn = cache._entry_path(key).parent / "leftover.tmp"
        torn.write_bytes(b"partial")
        cache.clear()
        assert len(cache) == 0
        assert not torn.exists()

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = [_key_for(MachineConfig(), seed=seed) for seed in range(4)]
        for age, key in enumerate(keys):
            cache.put(key, age)
            os.utime(cache._entry_path(key), (1000 + age, 1000 + age))
        assert cache.prune(max_entries=2) == 2
        assert keys[0] not in cache and keys[1] not in cache
        assert keys[2] in cache and keys[3] in cache
        with pytest.raises(ConfigError):
            cache.prune(max_entries=-1)

    def test_stats_dict(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get("0" * 64)
        assert cache.stats() == {
            "hits": 0, "misses": 1, "stores": 0, "errors": 0,
            "write_errors": 0,
        }

    def test_pickle_at_the_root_is_not_an_entry(self, tmp_path, monkeypatch):
        # A key has one path, its shard: a ``<key>.pkl`` at the cache
        # root is a foreign file that no lookup reads, moves or evicts.
        cache = ResultCache(tmp_path)
        key = _key_for(MachineConfig())
        stray = tmp_path / (key + ".pkl")
        stray.write_bytes(pickle.dumps("stray"))
        loads = []
        load = ResultCache._load
        monkeypatch.setattr(
            ResultCache, "_load",
            staticmethod(lambda path: loads.append(path) or load(path)),
        )
        assert cache.get(key) is None
        assert loads == [cache._entry_path(key)]
        assert stray.read_bytes() == pickle.dumps("stray")
        assert key not in cache
        assert len(cache) == 0
        assert fsck_cache(tmp_path).scanned == 0


class TestCoercionAndLocation:
    def test_coerce_none_and_passthrough(self, tmp_path):
        assert ResultCache.coerce(None) is None
        cache = ResultCache(tmp_path)
        assert ResultCache.coerce(cache) is cache

    def test_coerce_path_and_true(self, tmp_path, monkeypatch):
        assert ResultCache.coerce(str(tmp_path)).cache_dir == tmp_path
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert ResultCache.coerce(True).cache_dir == tmp_path / "env"

    def test_coerce_rejects_garbage(self):
        with pytest.raises(ConfigError):
            ResultCache.coerce(3.5)

    def test_default_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert default_cache_dir() == tmp_path
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert default_cache_dir().name == "repro-thrifty"


class TestCachedExperimentResults:
    def test_real_result_survives_the_disk_round_trip(self, tmp_path):
        from repro.experiments.runner import run_experiment

        result = run_experiment("fmm", "thrifty", threads=4, seed=1)
        cache = ResultCache(tmp_path)
        key = _key_for(MachineConfig(n_nodes=4), threads=4)
        cache.put(key, result)
        loaded = cache.get(key)
        assert loaded.identical(result)
        assert loaded.thrifty_stats == result.thrifty_stats
