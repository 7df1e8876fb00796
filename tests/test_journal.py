"""Unit tests for the durable run journal (crash-safe campaigns).

Covers the atomic-write helpers, spec hashing, journal lifecycle
(create / open / verify), the fsynced record stream and its torn-tail-
tolerant replay, and the run's payload store.
"""

import hashlib
import json
import os

import pytest

from repro.errors import ConfigError
from repro.experiments.journal import (
    JOURNAL_DIR_ENV,
    RECORD_KINDS,
    RunJournal,
    atomic_write_bytes,
    atomic_write_text,
    default_journal_root,
    run_id_for,
    spec_hash,
)

SPEC = {"kind": "test", "apps": ["fmm"], "seed": 1}


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "file.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_replace_leaves_no_tmp_files(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []

    def test_failed_write_preserves_old_content(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "good")
        with pytest.raises(TypeError):
            atomic_write_bytes(path, object())  # not bytes
        assert path.read_text() == "good"
        assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


class TestSpecHash:
    def test_key_order_is_irrelevant(self):
        assert spec_hash({"a": 1, "b": 2}) == spec_hash({"b": 2, "a": 1})

    def test_any_field_change_changes_hash(self):
        assert spec_hash(SPEC) != spec_hash(dict(SPEC, seed=2))

    def test_run_id_for_is_short_and_stable(self):
        assert run_id_for(SPEC) == run_id_for(dict(SPEC))
        assert run_id_for(SPEC).startswith("run-")
        assert len(run_id_for(SPEC)) == 4 + 12


class TestLifecycle:
    def test_create_then_open(self, tmp_path):
        journal = RunJournal.create(SPEC, run_id="r1", root=tmp_path)
        assert journal.exists()
        again = RunJournal.open("r1", root=tmp_path)
        assert again.spec()["spec_hash"] == spec_hash(SPEC)

    def test_create_refuses_to_clobber(self, tmp_path):
        RunJournal.create(SPEC, run_id="r1", root=tmp_path)
        with pytest.raises(ConfigError):
            RunJournal.create(SPEC, run_id="r1", root=tmp_path)

    def test_open_requires_existing(self, tmp_path):
        with pytest.raises(ConfigError):
            RunJournal.open("missing", root=tmp_path)

    def test_default_run_id_from_spec(self, tmp_path):
        journal = RunJournal.create(SPEC, root=tmp_path)
        assert journal.run_id == run_id_for(SPEC)

    @pytest.mark.parametrize("bad", ["", "a/b", ".hidden", "x" * 65, "a b"])
    def test_bad_run_ids_rejected(self, bad):
        with pytest.raises(ConfigError):
            RunJournal(bad)

    def test_verify_spec_accepts_same_campaign(self, tmp_path):
        journal = RunJournal.create(SPEC, run_id="r1", root=tmp_path)
        assert journal.verify_spec(dict(SPEC)) == SPEC

    def test_verify_spec_rejects_different_campaign(self, tmp_path):
        journal = RunJournal.create(SPEC, run_id="r1", root=tmp_path)
        with pytest.raises(ConfigError):
            journal.verify_spec(dict(SPEC, seed=99))

    def test_default_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(JOURNAL_DIR_ENV, str(tmp_path / "env"))
        assert default_journal_root() == tmp_path / "env"
        monkeypatch.delenv(JOURNAL_DIR_ENV)
        assert default_journal_root().name == "runs"


class TestRecordStream:
    def _journal(self, tmp_path):
        return RunJournal.create(SPEC, run_id="r1", root=tmp_path)

    def test_unknown_record_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            self._journal(tmp_path).append("exploded")

    def test_records_are_one_json_line_each(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record_dispatched("fmm/thrifty#0", index=0)
        journal.record_completed("fmm/thrifty#0", index=0)
        lines = (journal.run_dir / "journal.jsonl").read_text().splitlines()
        assert len(lines) == 2
        bodies = [json.loads(line) for line in lines]
        assert [b["record"] for b in bodies] == ["dispatched", "completed"]
        assert [b["seq"] for b in bodies] == [1, 2]
        assert all(b["record"] in RECORD_KINDS for b in bodies)

    def test_replay_reconstructs_completed_set(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record_dispatched("a", index=0)
        journal.record_completed("a", index=0, key="k0")
        journal.record_dispatched("b", index=1)
        journal.record_failed("b", index=1, kind="timeout", attempt=1)
        journal.record_failed_permanent(
            "b", index=1, kind="timeout", attempts=2,
            retry_delays=[0.03],
        )
        journal.record_finished(completed=1, failed=1)
        state = RunJournal.open("r1", root=tmp_path).replay()
        assert state.completed_ids == {"a"}
        assert state.completed["a"]["key"] == "k0"
        assert set(state.failed_permanent) == {"b"}
        assert state.failed_permanent["b"]["retry_delays"] == [0.03]
        assert state.dispatches == 2
        assert state.finished
        assert not state.torn_tail

    def test_later_completion_clears_permanent_failure(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record_failed_permanent("a", attempts=3)
        journal.record_completed("a")
        state = journal.replay()
        assert state.completed_ids == {"a"}
        assert state.failed_permanent == {}

    def test_replay_tolerates_torn_tail(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record_completed("a")
        journal.record_completed("b")
        path = journal.run_dir / "journal.jsonl"
        # Simulate a crash mid-append: the final line is truncated.
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        state = RunJournal.open("r1", root=tmp_path).replay()
        assert state.completed_ids == {"a"}
        assert state.torn_tail

    def test_replay_restores_sequence_counter(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record_completed("a")
        journal.record_completed("b")
        reopened = RunJournal.open("r1", root=tmp_path)
        reopened.replay()
        reopened.record_resumed(completed=2, remaining=0)
        lines = (journal.run_dir / "journal.jsonl").read_text().splitlines()
        assert json.loads(lines[-1])["seq"] == 3

    def test_replay_of_empty_journal(self, tmp_path):
        state = self._journal(tmp_path).replay()
        assert state.completed == {}
        assert state.spec == SPEC
        assert state.spec_hash == spec_hash(SPEC)

    def test_lifecycle_counters(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record_worker_stalled(4321, ["a"], 1.5)
        journal.record_interrupted("SIGTERM", completed=1, total=5)
        journal.record_resumed(completed=1, remaining=4)
        state = journal.replay()
        assert (state.stalls, state.interruptions, state.resumes) == (1, 1, 1)


class TestPayloadStore:
    """A run keeps its cell payloads in its result store, a
    :class:`~repro.experiments.cache.ResultCache` under ``results/``."""

    def test_round_trip(self, tmp_path):
        journal = RunJournal.create(SPEC, run_id="r1", root=tmp_path)
        store = journal.result_store()
        assert store.cache_dir == journal.run_dir / "results"
        key = hashlib.sha256(b"fmm/thrifty/plan0").hexdigest()
        assert store.put(key, {"energy": 1.5})
        reopened = RunJournal.open("r1", root=tmp_path).result_store()
        assert reopened.get(key) == {"energy": 1.5}
        assert reopened.get("0" * 64) is None

    def test_corrupted_payload_is_a_miss(self, tmp_path):
        store = RunJournal.create(SPEC, run_id="r1", root=tmp_path) \
            .result_store()
        key = "ab" * 32
        store.put(key, ["good"])
        path = store._entry_path(key)
        path.write_bytes(b"\x00garbage")
        assert store.get(key, "fallback") == "fallback"
        assert store.errors == 1  # counted, not swallowed
        assert not path.exists()  # evicted, so a re-run can re-store
