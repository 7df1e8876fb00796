"""Kill-and-resume acceptance tests for crash-safe campaigns.

The property under test (the PR's acceptance criterion): a sweep
interrupted at an arbitrary point and resumed produces exports
**byte-identical** to an uninterrupted run, with completed cells never
re-executed — verified through the journal's record stream and the
engine/cache counters. Exercised three ways:

* deterministically, via a stub preemption object, for several seeds
  and cut points (serial engine path);
* on the parallel engine path (immediate preemption, drain, resume);
* end-to-end through the CLI, both with a stubbed guard (in-process)
  and with a real SIGTERM delivered to a ``python -m repro``
  subprocess.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.errors import CampaignInterrupted
from repro.experiments.export import matrix_to_json
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import ExperimentEngine

APPS = ("fmm",)
CONFIGS = ("baseline", "thrifty", "oracle-halt")
THREADS = 4


class TriggerAfter:
    """Preemption stub: ``requested`` flips true after ``n`` checks.

    The engine consults ``requested`` once per cell (serial path) /
    once per supervision round (parallel path), so this interrupts a
    campaign at a deterministic point with no real signals involved.
    """

    reason = "SIGTERM"
    drain_deadline_s = 5.0

    def __init__(self, n):
        self._fuse = n

    @property
    def requested(self):
        if self._fuse <= 0:
            return True
        self._fuse -= 1
        return False


def _reference_json(tmp_path, seed, apps=APPS, **engine_kwargs):
    engine = ExperimentEngine(
        cache=tmp_path / "ref-cache-{}".format(seed), **engine_kwargs
    )
    matrix = engine.run_matrix(
        apps, configs=CONFIGS, threads=THREADS, seed=seed,
    )
    return matrix_to_json(matrix)


class TestKillAndResumeProperty:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_interrupted_then_resumed_is_byte_identical(
        self, seed, tmp_path
    ):
        reference = _reference_json(tmp_path, seed)
        total = len(APPS) * len(CONFIGS)
        # Seeded-random cut point: each seed interrupts elsewhere.
        cut = random.Random(seed).randrange(1, total)
        root = tmp_path / "runs"
        cache_dir = tmp_path / "cache"
        journal = RunJournal.create(
            {"seed": seed}, run_id="acceptance", root=root,
        )
        engine = ExperimentEngine(
            cache=cache_dir, journal=journal, preemption=TriggerAfter(cut),
        )
        with pytest.raises(CampaignInterrupted) as excinfo:
            engine.run_matrix(
                APPS, configs=CONFIGS, threads=THREADS, seed=seed,
            )
        interrupt = excinfo.value
        assert interrupt.run_id == "acceptance"
        assert (interrupt.completed, interrupt.total) == (cut, total)
        # Partial results ride the exception, never discarded.
        assert sum(r is not None for r in interrupt.results) == cut

        state = RunJournal.open("acceptance", root=root).replay()
        assert len(state.completed) == cut
        assert state.interruptions == 1
        assert not state.finished

        resumed = RunJournal.open("acceptance", root=root)
        second = ExperimentEngine(cache=cache_dir, journal=resumed)
        matrix = second.run_matrix(
            APPS, configs=CONFIGS, threads=THREADS, seed=seed,
        )
        # Completed cells were restored from the cache, not re-run.
        assert second.stats.cache_hits == cut
        assert second.stats.executed == total - cut
        assert matrix_to_json(matrix) == reference

        state = resumed.replay()
        assert state.finished
        assert len(state.completed) == total

    def test_exported_files_are_byte_identical(self, tmp_path):
        seed = 1
        reference = _reference_json(tmp_path, seed)
        ref_path = tmp_path / "ref.json"
        out_path = tmp_path / "resumed.json"
        ref_path.write_text(reference + "\n")

        root = tmp_path / "runs"
        cache_dir = tmp_path / "cache"
        journal = RunJournal.create({"seed": seed}, run_id="r", root=root)
        engine = ExperimentEngine(
            cache=cache_dir, journal=journal, preemption=TriggerAfter(1),
        )
        with pytest.raises(CampaignInterrupted):
            engine.run_matrix(
                APPS, configs=CONFIGS, threads=THREADS, seed=seed,
            )
        second = ExperimentEngine(
            cache=cache_dir, journal=RunJournal.open("r", root=root),
        )
        matrix = second.run_matrix(
            APPS, configs=CONFIGS, threads=THREADS, seed=seed,
        )
        matrix_to_json(matrix, path=out_path)
        assert out_path.read_bytes() == ref_path.read_bytes()

    def test_parallel_preemption_drains_then_resumes(self, tmp_path):
        # Two apps: each app's cells form two units (its Baseline with
        # the Oracle-Halt cell replaying it, and Thrifty), so 2 workers
        # leave some units undispatched at the first supervision round.
        apps = APPS + ("radix",)
        seed = 1
        reference = _reference_json(tmp_path, seed, apps=apps)
        total = len(apps) * len(CONFIGS)
        root = tmp_path / "runs"
        cache_dir = tmp_path / "cache"
        journal = RunJournal.create({"seed": seed}, run_id="p", root=root)
        engine = ExperimentEngine(
            workers=2, cache=cache_dir, journal=journal,
            preemption=TriggerAfter(0),
        )
        with pytest.raises(CampaignInterrupted) as excinfo:
            engine.run_matrix(
                apps, configs=CONFIGS, threads=THREADS, seed=seed,
            )
        # In-flight workers drained gracefully: their completions are
        # journaled and cached; only never-dispatched work remains.
        done = excinfo.value.completed
        assert 0 <= done < total
        state = RunJournal.open("p", root=root).replay()
        assert len(state.completed) == done

        second = ExperimentEngine(
            workers=2, cache=cache_dir,
            journal=RunJournal.open("p", root=root),
        )
        matrix = second.run_matrix(
            apps, configs=CONFIGS, threads=THREADS, seed=seed,
        )
        assert second.stats.cache_hits == done
        assert matrix_to_json(matrix) == reference


class _StubGuard:
    """Context-manager guard the CLI can use in place of the real one."""

    reason = "SIGTERM"
    drain_deadline_s = 5.0

    def __init__(self, fuse):
        self._fuse = fuse

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    @property
    def requested(self):
        if self._fuse <= 0:
            return True
        self._fuse -= 1
        return False


class TestCliKillAndResume:
    def test_cli_interrupt_exits_3_then_resume_matches_reference(
        self, tmp_path, capsys, monkeypatch
    ):
        root = str(tmp_path / "runs")
        common = [
            "figure5", "--apps", "fmm", "--threads", "4",
            "--journal-dir", root,
        ]
        ref_json = tmp_path / "ref.json"
        assert main(common + [
            "--cache-dir", str(tmp_path / "ref-cache"),
            "--json", str(ref_json),
        ]) == 0
        capsys.readouterr()

        cache = str(tmp_path / "cache")
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(
                "repro.cli.PreemptionGuard", lambda: _StubGuard(2),
            )
            code = main(common + [
                "--run-id", "clikill", "--cache-dir", cache,
                "--json", str(tmp_path / "never-written.json"),
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert "preempted (2 of 5 cells finished)" in err
        assert "--resume clikill" in err
        # An interrupted run never writes a (partial) export.
        assert not (tmp_path / "never-written.json").exists()

        out_json = tmp_path / "resumed.json"
        assert main(common + [
            "--resume", "clikill", "--cache-dir", cache,
            "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "engine.cache_hits" in out
        assert out_json.read_bytes() == ref_json.read_bytes()

    def test_cli_resume_rejects_different_campaign(self, tmp_path, capsys):
        root = str(tmp_path / "runs")
        ref = [
            "figure5", "--apps", "fmm", "--threads", "4",
            "--journal-dir", root, "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(ref + ["--run-id", "spec"]) == 0
        capsys.readouterr()
        assert main([
            "figure5", "--apps", "ocean", "--threads", "4",
            "--journal-dir", root,
            "--cache-dir", str(tmp_path / "cache"),
            "--resume", "spec",
        ]) == 2
        assert "different campaign spec" in capsys.readouterr().err


class TestSigtermSubprocess:
    def _env(self, tmp_path, cache_name):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p]
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / cache_name)
        env["REPRO_JOURNAL_DIR"] = str(tmp_path / "runs")
        return env

    def _run(self, args, env):
        return subprocess.run(
            [sys.executable, "-m", "repro"] + args,
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_real_sigterm_is_resumable_byte_identically(self, tmp_path):
        # Enough cells (4 apps x 5 configs at 16 threads) that the
        # journal appears long before the sweep finishes.
        args = [
            "figure5", "--apps", "fmm", "ocean", "radix", "fft",
            "--threads", "16",
        ]
        reference = self._run(
            args + ["--json", str(tmp_path / "ref.json")],
            self._env(tmp_path, "ref-cache"),
        )
        assert reference.returncode == 0, reference.stderr

        env = self._env(tmp_path, "cache")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro"] + args + [
                "--run-id", "sig", "--json", str(tmp_path / "killed.json"),
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        journal_file = tmp_path / "runs" / "sig" / "journal.jsonl"
        deadline = time.monotonic() + 60.0
        while not journal_file.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert journal_file.exists(), "sweep never started journaling"
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=300)
        assert process.returncode == 3, stderr
        assert "resume with: repro figure5 --resume sig" in stderr
        assert not (tmp_path / "killed.json").exists()

        resumed = self._run(
            args + ["--resume", "sig", "--json", str(tmp_path / "out.json")],
            env,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "engine.cache_hits" in resumed.stdout
        ref_bytes = (tmp_path / "ref.json").read_bytes()
        assert (tmp_path / "out.json").read_bytes() == ref_bytes
        # The journal agrees: every cell completed exactly once overall.
        records = [
            json.loads(line)
            for line in journal_file.read_text().splitlines()
        ]
        completed = {
            r["cell"] for r in records if r["record"] == "completed"
        }
        assert len(completed) == 20
        assert any(r["record"] == "interrupted" for r in records)
        assert any(r["record"] == "resumed" for r in records)
        assert any(r["record"] == "finished" for r in records)
