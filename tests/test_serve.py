"""The campaign service: specs, pool, dispatcher, recovery, HTTP API.

Fast unit coverage drives the server object synchronously (submit /
tick / cancel are plain methods on one thread — no sockets, no pool),
with injected task functions for the worker pool. One end-to-end class
runs the real thing: a served campaign of real simulator cells over
HTTP, checked for dedup and clean shutdown.
"""

import json
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.errors import ConfigError, ServeError
from repro.experiments.export import matrix_to_records
from repro.experiments.journal import RunJournal
from repro.experiments.parallel import CellFailure
from repro.experiments.preemption import PreemptionGuard
from repro.experiments.runner import run_app
from repro.experiments.watchdog import WatchdogPolicy
from repro.serve.campaigns import (
    CANCELLED,
    DONE,
    RUNNING,
    cells_for,
    normalize_spec,
)
from repro.serve.client import ServeClient
from repro.serve.http import HttpError, Request, Router
from repro.serve.pool import WorkerPool
from repro.serve.server import CampaignServer


class TestNormalizeSpec:
    def test_defaults(self):
        spec = normalize_spec({})
        assert spec["kind"] == "serve"
        assert len(spec["apps"]) == 10
        assert len(spec["configs"]) == 5
        assert spec["threads"] == 64

    def test_preserves_submission_order(self):
        # Byte-identity with the batch CLI depends on running apps in
        # the order given, exactly like `repro figure5 --apps ...`.
        spec = normalize_spec({"apps": ["radix", "fmm", "radix"]})
        assert spec["apps"] == ["radix", "fmm"]

    def test_single_strings_are_lifted(self):
        spec = normalize_spec({"apps": "fmm", "configs": "baseline"})
        assert spec["apps"] == ["fmm"]
        assert spec["configs"] == ["baseline"]

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown spec field"):
            normalize_spec({"app": "fmm"})

    def test_rejects_unknown_app_and_config(self):
        with pytest.raises(ConfigError, match="unknown application"):
            normalize_spec({"apps": ["fnm"]})
        with pytest.raises(ConfigError, match="unknown configuration"):
            normalize_spec({"configs": ["turbo"]})

    def test_rejects_bad_threads_and_seed(self):
        for threads in (0, 1, 2048, "16", True, 3.5):
            with pytest.raises(ConfigError, match="threads"):
                normalize_spec({"threads": threads})
        with pytest.raises(ConfigError, match="seed"):
            normalize_spec({"seed": "one"})

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            normalize_spec(["fmm"])


class TestCellsFor:
    def test_app_major_order(self):
        spec = normalize_spec({
            "apps": ["fmm", "ocean"], "configs": ["baseline", "thrifty"],
            "threads": 16,
        })
        cells = cells_for(spec)
        assert [(c.app, c.config) for c in cells] == [
            ("fmm", "baseline"), ("fmm", "thrifty"),
            ("ocean", "baseline"), ("ocean", "thrifty"),
        ]
        assert all(c.threads == 16 for c in cells)

    def test_keys_are_cache_content_keys(self):
        spec = normalize_spec({"apps": ["fmm"], "configs": ["baseline"]})
        (cell,) = cells_for(spec)
        assert cell.key() == cells_for(spec)[0].key()


class TestRouter:
    def _request(self, method, path):
        return Request(method=method, path=path, query={}, headers={},
                       body=b"")

    def test_param_capture(self):
        router = Router()
        router.add("GET", "/campaigns/{id}/events", "H")
        handler, params = router.dispatch(
            self._request("GET", "/campaigns/c123/events")
        )
        assert handler == "H"
        assert params == {"id": "c123"}

    def test_404_and_405(self):
        router = Router()
        router.add("GET", "/pool", "H")
        with pytest.raises(HttpError) as exc:
            router.dispatch(self._request("GET", "/nope"))
        assert exc.value.status == 404
        with pytest.raises(HttpError) as exc:
            router.dispatch(self._request("DELETE", "/pool"))
        assert exc.value.status == 405

    def test_bad_json_body_is_400(self):
        request = Request(method="POST", path="/", query={}, headers={},
                          body=b"{nope")
        with pytest.raises(HttpError) as exc:
            request.json()
        assert exc.value.status == 400


# -- worker pool -------------------------------------------------------

def _double(cell):
    return cell * 2


def _crash_on_die(cell):
    if cell == "die":
        os._exit(1)
    return cell


def _exit_on_three(cell):
    if cell == 3:
        os._exit(1)
    return cell


def _sleep(seconds):
    time.sleep(seconds)
    return seconds


def _hang_on_hang(cell):
    if cell == "hang":
        os.kill(os.getpid(), signal.SIGSTOP)
    return cell


_FAST_WATCHDOG = WatchdogPolicy(beat_interval_s=0.02, stale_after_s=0.3)


def _poll_until(pool, predicate, timeout=10.0):
    """Collect pool events until the predicate holds (or fail)."""
    events = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        events.extend(pool.poll())
        if predicate(events):
            return events
        time.sleep(0.01)
    raise AssertionError("pool never produced the expected events; "
                         "got {!r}".format(events))


def _results(events):
    return [e for e in events if e[0] == "result"]


def _gone_or_zombie(pid):
    """True once ``pid`` has exited: no such process, or a zombie its
    new parent never reaps (not every init waits for orphans)."""
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            stat = handle.read()
    except OSError:
        return True
    # The state letter follows the parenthesised command name.
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _guarded_supervisor(write_fd):
    """Forked child body: own a watchdog pool behind a PreemptionGuard,
    as ``repro serve`` does, report the worker pids, wait to be killed."""
    try:
        with PreemptionGuard():
            pool = WorkerPool(2, watchdog=True)
            pids = pool.start()
            os.write(write_fd, " ".join(map(str, pids)).encode() + b"\n")
            while True:
                time.sleep(1.0)
    finally:
        os._exit(1)


class TestWorkerPool:
    def test_roundtrip(self):
        pool = WorkerPool(2, task=_double, watchdog=None)
        try:
            pool.start()
            for pid, n in zip(pool.idle_workers(), (2, 3)):
                assert pool.dispatch(pid, [("k{}".format(n), n)])
            events = _poll_until(
                pool, lambda evs: len(_results(evs)) == 2,
            )
            got = {e[2]: e[4] for e in _results(events)}
            assert got == {"k2": 4, "k3": 6}
        finally:
            pool.stop()

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkerPool(0)
        pool = WorkerPool(1, watchdog=None)
        with pytest.raises(ConfigError):
            pool.resize(0)

    def test_hotplug_grow_and_shrink(self):
        pool = WorkerPool(1, task=_double, watchdog=None)
        try:
            pool.start()
            pool.resize(3)
            _poll_until(
                pool,
                lambda evs: sum(1 for e in evs if e[0] == "joined") == 2,
            )
            assert len(pool.idle_workers()) == 3
            pool.resize(1)
            _poll_until(
                pool,
                lambda evs: sum(
                    1 for e in evs
                    if e[0] == "left" and e[2] == "retired"
                ) == 2,
            )
            assert len(pool.idle_workers()) == 1
        finally:
            pool.stop()

    def test_shrink_drains_busy_worker(self):
        pool = WorkerPool(2, task=_double, watchdog=None)
        try:
            pool.start()
            busy = pool.idle_workers()[0]
            assert pool.dispatch(busy, [("k", 21)])
            retired = pool.resize(1)
            # The idle worker is retired first; the busy one keeps its
            # cell and still posts the result.
            assert busy not in retired
            events = _poll_until(
                pool, lambda evs: len(_results(evs)) == 1,
            )
            assert _results(events)[0][2:] == ("k", "ok", 42)
        finally:
            pool.stop()

    def test_crashed_worker_is_reported_and_replaced(self):
        pool = WorkerPool(2, task=_crash_on_die, watchdog=None)
        try:
            pool.start()
            victim = pool.idle_workers()[0]
            assert pool.dispatch(victim, [("kd", "die")])
            events = _poll_until(
                pool,
                lambda evs: any(e[0] == "crashed" for e in evs)
                and any(e[0] == "joined" for e in evs),
            )
            crash = next(e for e in events if e[0] == "crashed")
            assert crash[1] == victim
            assert crash[2] == ["kd"]
            assert len(pool.idle_workers()) == 2
        finally:
            pool.stop()

    def test_crash_mid_unit_reports_only_unfinished_cells(self):
        pool = WorkerPool(1, task=_exit_on_three, watchdog=None)
        try:
            pool.start()
            (pid,) = pool.idle_workers()
            assert pool.dispatch(pid, [("k1", 1), ("k2", 2), ("k3", 3)])
            events = _poll_until(
                pool, lambda evs: any(e[0] == "crashed" for e in evs),
            )
            crash = events.index(("crashed", pid, ["k3"]))
            assert [e[2:] for e in _results(events[:crash])] == [
                ("k1", "ok", 1), ("k2", "ok", 2),
            ]
            assert not _results(events[crash:])
        finally:
            pool.stop()

    def test_unit_overrunning_timeout_is_killed_and_reported(self):
        pool = WorkerPool(1, task=_sleep, watchdog=None, timeout=0.3)
        try:
            pool.start()
            (pid,) = pool.idle_workers()
            assert pool.dispatch(pid, [("k1", 0.0), ("k2", 30.0), ("k3", 0)])
            events = _poll_until(
                pool, lambda evs: any(e[0] == "joined" for e in evs),
            )
            assert [e[2:] for e in _results(events)] == [("k1", "ok", 0.0)]
            assert ("timeout", pid, ["k2", "k3"]) in events
            assert ("left", pid, "timeout") in events
            assert pid not in pool.idle_workers()
        finally:
            pool.stop()

    def test_stalled_worker_is_killed_and_replaced(self):
        pool = WorkerPool(2, task=_hang_on_hang, watchdog=_FAST_WATCHDOG)
        try:
            pool.start()
            victim = pool.idle_workers()[0]
            assert pool.dispatch(victim, [("kh", "hang")])
            events = _poll_until(
                pool,
                lambda evs: any(e[0] == "stalled" for e in evs)
                and any(e[0] == "joined" for e in evs),
            )
            stall = next(e for e in events if e[0] == "stalled")
            assert stall[1] == victim
            assert stall[2] == ["kh"]
            assert stall[3] >= _FAST_WATCHDOG.stale_after_s
            left = next(e for e in events if e[0] == "left")
            assert left[2] == "stalled"
            assert pool.monitor.stalls == 1
        finally:
            pool.stop()

    def test_child_setup_closes_inherited_listener(self):
        # Fork copies the supervisor's descriptors: a worker spawned
        # while the server is listening inherits the listening socket,
        # and an orphaned worker would keep the port bound after a
        # server SIGKILL, blocking the restart. The child_setup hook
        # must close the listener inside the child.
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        pool = WorkerPool(1, task=_double, watchdog=None)
        pool.child_setup = listener.close
        try:
            pool.start()
            # A completed roundtrip proves the worker ran child_setup
            # (it runs before the serve loop).
            pid = pool.idle_workers()[0]
            assert pool.dispatch(pid, [("k", 4)])
            _poll_until(pool, lambda evs: len(_results(evs)) == 1)
            listener.close()
            # With the worker's inherited copy closed, the port must
            # be immediately rebindable while the worker still lives.
            probe = socket.socket()
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                probe.bind(("127.0.0.1", port))
                probe.listen()
            finally:
                probe.close()
        finally:
            pool.stop()

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc",
    )
    def test_workers_exit_when_their_supervisor_is_killed(self):
        # A SIGKILLed supervisor runs no cleanup: its workers must see
        # their inbox reach EOF and leave on their own, even though the
        # supervisor's guard latches the SIGTERM they inherit.
        read_fd, write_fd = os.pipe()
        supervisor = os.fork()
        if supervisor == 0:
            os.close(read_fd)
            _guarded_supervisor(write_fd)
        os.close(write_fd)
        workers = []
        try:
            with os.fdopen(read_fd) as reader:
                workers = [int(pid) for pid in reader.readline().split()]
            assert len(workers) == 2
            os.kill(supervisor, signal.SIGKILL)
            os.waitpid(supervisor, 0)
            supervisor = None
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if all(_gone_or_zombie(pid) for pid in workers):
                    break
                time.sleep(0.05)
            assert [p for p in workers if not _gone_or_zombie(p)] == []
        finally:
            if supervisor is not None:
                os.kill(supervisor, signal.SIGKILL)
                os.waitpid(supervisor, 0)
            for pid in workers:
                if not _gone_or_zombie(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_describe_shape(self):
        pool = WorkerPool(2, task=_double, watchdog=_FAST_WATCHDOG)
        try:
            pool.start()
            snapshot = pool.describe()
            assert snapshot["target"] == 2
            assert len(snapshot["workers"]) == 2
            for worker in snapshot["workers"]:
                assert worker["alive"]
                assert not worker["busy"]
        finally:
            pool.stop()


# -- the dispatcher, driven synchronously ------------------------------

def _server(tmp_path, **kwargs):
    kwargs.setdefault("pool_size", 2)
    kwargs.setdefault("task", _double)
    return CampaignServer(
        port=0,
        cache=str(tmp_path / "cache"),
        journal_root=str(tmp_path / "runs"),
        **kwargs,
    )


_SMALL = {"apps": ["fmm"], "configs": ["baseline", "thrifty"],
          "threads": 16}


def _stub_pool(monkeypatch, server, pid=101):
    """Drive ``server`` without forking: its pool always has worker
    ``pid`` idle, accepts every unit, and polls the events a test
    appends. Returns the list of dispatched key lists and that event
    list."""
    dispatched, events = [], []

    def dispatch(worker, unit):
        dispatched.append([key for key, _ in unit])
        return True

    def poll():
        drained = list(events)
        events.clear()
        return drained

    monkeypatch.setattr(server.pool, "idle_workers", lambda: [pid])
    monkeypatch.setattr(server.pool, "dispatch", dispatch)
    monkeypatch.setattr(server.pool, "poll", poll)
    return dispatched, events


class TestDispatcher:
    def test_submit_enqueues_jobs(self, tmp_path):
        server = _server(tmp_path)
        campaign = server.submit(_SMALL)
        assert campaign.state == RUNNING
        assert campaign.total == 2
        assert len(server.jobs) == 2
        queued = [
            key for unit in iter(server.units.pop, None) for key, _ in unit
        ]
        assert queued == campaign.keys

    def test_overlapping_submission_dedups(self, tmp_path):
        server = _server(tmp_path)
        first = server.submit(_SMALL)
        second = server.submit(_SMALL)
        assert second.run_id != first.run_id
        assert second.deduped == 2
        assert len(server.jobs) == 2  # no new work
        for job in server.jobs.values():
            assert len(job.waiters) == 2

    def test_cache_hits_settle_at_submission(self, tmp_path):
        server = _server(tmp_path)
        spec = normalize_spec(_SMALL)
        for cell in cells_for(spec):
            server.cache.put(cell.key(), {"fake": cell.config})
        campaign = server.submit(_SMALL)
        assert campaign.state == DONE
        assert campaign.cached == 2
        assert server.jobs == {}
        state = campaign.journal.replay()
        assert state.finished
        assert len(state.completed) == 2
        kinds = [e["kind"] for e in campaign.events]
        assert kinds[0] == "serve.campaign_submitted"
        assert kinds[-1] == "serve.campaign_finished"
        assert kinds.count("serve.cell_resolved") == 2

    def test_cancel_withdraws_orphaned_jobs(self, tmp_path):
        server = _server(tmp_path)
        campaign = server.submit(_SMALL)
        server.cancel(campaign.run_id)
        assert campaign.state == CANCELLED
        assert server.jobs == {}
        assert campaign.journal.replay().cancellations == 1
        assert campaign.events[-1]["kind"] == "serve.campaign_cancelled"

    def test_cancel_keeps_jobs_other_campaigns_need(self, tmp_path):
        server = _server(tmp_path)
        first = server.submit(_SMALL)
        second = server.submit(_SMALL)
        server.cancel(second.run_id)
        assert len(server.jobs) == 2
        for job in server.jobs.values():
            assert [c.run_id for c, _ in job.waiters] == [first.run_id]

    def test_cancel_is_idempotent_and_unknown_is_404(self, tmp_path):
        server = _server(tmp_path)
        campaign = server.submit(_SMALL)
        server.cancel(campaign.run_id)
        assert server.cancel(campaign.run_id).state == CANCELLED
        with pytest.raises(ServeError) as exc:
            server.cancel("nope")
        assert exc.value.status == 404

    def test_strike_requeues_then_fails_permanently(
        self, tmp_path, monkeypatch
    ):
        server = _server(tmp_path, retries=1)
        dispatched, events = _stub_pool(monkeypatch, server)
        campaign = server.submit(
            {"apps": ["fmm"], "configs": ["baseline"], "threads": 16}
        )
        (key,) = list(server.jobs)
        server.tick()
        assert dispatched == [[key]]
        events.append(("crashed", 101, [key]))
        server.tick()
        assert campaign.state == RUNNING
        deadline = time.monotonic() + 10.0
        while len(dispatched) < 2:  # one retry left, after its backoff
            assert time.monotonic() < deadline
            server.tick()
            time.sleep(0.01)
        assert dispatched == [[key], [key]]
        events.append(("stalled", 101, [key], 1.5))
        server.tick()
        assert campaign.state == DONE
        assert campaign.failed == 1
        (result,) = campaign.results
        assert isinstance(result, CellFailure)
        assert result.kind == "stalled"
        assert result.attempts == 2
        state = campaign.journal.replay()
        assert len(state.failed_permanent) == 1
        records = campaign.records()
        assert records[0]["failed"] is True

    def test_deterministic_error_result_strikes(self, tmp_path, monkeypatch):
        server = _server(tmp_path, retries=0)
        _, events = _stub_pool(monkeypatch, server)
        campaign = server.submit(
            {"apps": ["fmm"], "configs": ["baseline"], "threads": 16}
        )
        (key,) = list(server.jobs)
        server.tick()
        events.append(("result", 101, key, "error", ("ValueError", "boom")))
        server.tick()
        assert campaign.failed == 1
        (result,) = campaign.results
        assert result.kind == "error"
        assert result.error_type == "ValueError"

    def test_result_with_no_waiters_is_still_cached(
        self, tmp_path, monkeypatch
    ):
        server = _server(tmp_path)
        dispatched, events = _stub_pool(monkeypatch, server)
        campaign = server.submit(_SMALL)
        keys = list(server.jobs)
        server.tick()
        assert dispatched == [keys[:1]]
        server.cancel(campaign.run_id)
        events.append(("result", 101, keys[0], "ok", {"late": True}))
        server.tick()
        assert server.cache.get(keys[0]) == {"late": True}

    def test_raising_cell_runs_once_whatever_the_retries(self, tmp_path):
        # An exception is deterministic: the served cell fails after
        # one run, exactly as a batch one does, not after every retry.
        runs = tmp_path / "runs.log"

        def boom(cell):
            with open(runs, "a") as fh:
                fh.write("run\n")
            raise ValueError("boom")

        server = _server(tmp_path, pool_size=1, retries=2, task=boom)
        campaign = server.submit(
            {"apps": ["fmm"], "configs": ["baseline"], "threads": 16}
        )
        server.pool.start()
        try:
            deadline = time.monotonic() + 60.0
            while campaign.state != DONE:
                assert time.monotonic() < deadline, campaign.status_payload()
                server.tick()
                time.sleep(0.01)
        finally:
            server.pool.stop()
        assert campaign.results == [CellFailure(
            cell=campaign.cells[0], kind="error", error_type="ValueError",
            message="boom", attempts=1,
        )]
        assert runs.read_text() == "run\n"
        records = [
            json.loads(line) for line in
            (campaign.journal.run_dir / "journal.jsonl").read_text()
            .splitlines()
        ]
        kinds = [record["record"] for record in records]
        assert kinds.count("dispatched") == 1
        (permanent,) = [
            r for r in records if r["record"] == "failed-permanent"
        ]
        assert permanent["message"] == "ValueError: boom"


class TestUnitDispatch:
    def test_served_app_simulates_its_baseline_once(
        self, tmp_path, count_simulations
    ):
        # The Baseline job goes out with the queued Oracle-Halt and
        # Ideal jobs replaying it: five cells, three simulations.
        server = _server(tmp_path, task=None)
        campaign = server.submit({"apps": ["fmm"], "threads": 8})
        server.pool.start()
        try:
            deadline = time.monotonic() + 120.0
            while campaign.state != DONE:
                assert time.monotonic() < deadline, campaign.status_payload()
                server.tick()
                time.sleep(0.01)
        finally:
            server.pool.stop()
        assert count_simulations() == 3
        assert server.executed == 5
        reference = {"fmm": run_app("fmm", threads=8)}
        assert campaign.records() == matrix_to_records(reference)


class TestRecovery:
    def test_killed_server_resumes_in_flight_campaign(self, tmp_path):
        server1 = _server(tmp_path)
        campaign = server1.submit(_SMALL)
        # One cell "finished" before the kill: its result is durable in
        # the cache (the journal's completed record rides on that).
        key0 = campaign.keys[0]
        server1.cache.put(key0, {"fake": 1})
        del server1  # simulate SIGKILL: nothing flushed, no finished

        server2 = _server(tmp_path)
        server2.recover()
        recovered = server2.store.get(campaign.run_id)
        assert recovered.resumed
        assert recovered.state == RUNNING
        assert recovered.completed == 1
        assert recovered.cached == 1
        assert list(server2.jobs) == [campaign.keys[1]]
        assert recovered.journal.replay().resumes == 1

    def test_finished_and_cancelled_campaigns_are_not_resumed(
            self, tmp_path):
        server1 = _server(tmp_path)
        spec = normalize_spec(_SMALL)
        for cell in cells_for(spec):
            server1.cache.put(cell.key(), {"fake": cell.config})
        done = server1.submit(_SMALL)
        cancelled = server1.submit(
            {"apps": ["ocean"], "configs": ["baseline"], "threads": 16}
        )
        server1.cancel(cancelled.run_id)
        del server1

        server2 = _server(tmp_path)
        server2.recover()
        assert server2.store.get(done.run_id).state == DONE
        assert server2.store.get(cancelled.run_id).state == CANCELLED
        assert server2.jobs == {}
        # Done campaigns stay queryable: results reload from the cache.
        assert server2.store.get(done.run_id).completed == 2

    def test_non_serve_journals_are_ignored(self, tmp_path):
        RunJournal.create(
            {"kind": "matrix", "apps": ["fmm"]}, run_id="batch-run",
            root=tmp_path / "runs",
        )
        server = _server(tmp_path)
        server.recover()
        assert len(server.store) == 0

    def test_unique_run_ids_for_identical_specs(self, tmp_path):
        server = _server(tmp_path)
        first = server.submit(_SMALL)
        second = server.submit(_SMALL)
        third = server.submit(_SMALL)
        assert len({first.run_id, second.run_id, third.run_id}) == 3
        assert second.run_id.startswith(first.run_id)


class TestServerValidation:
    def test_retries_must_be_non_negative(self, tmp_path):
        with pytest.raises(ConfigError):
            _server(tmp_path, retries=-1)

    def test_bad_specs_are_config_errors(self, tmp_path):
        server = _server(tmp_path)
        with pytest.raises(ConfigError):
            server.submit({"apps": ["nope"]})


# -- end to end over HTTP ----------------------------------------------

@pytest.fixture
def live_server(tmp_path):
    """A real CampaignServer (real simulator cells) on a free port."""
    server = CampaignServer(
        port=0, pool_size=2,
        cache=str(tmp_path / "cache"),
        journal_root=str(tmp_path / "runs"),
    )
    exit_code = []
    thread = threading.Thread(
        target=lambda: exit_code.append(server.run(banner=False)),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while server.port == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert server.port != 0, "server never started listening"
    client = ServeClient(port=server.port)
    yield server, client, exit_code
    if thread.is_alive():
        try:
            client.shutdown()
        except ServeError:
            pass
        thread.join(10.0)


class TestHttpEndToEnd:
    def test_campaign_lifecycle(self, live_server):
        server, client, exit_code = live_server
        health = client.health()
        assert health["ok"] and health["campaigns"] == 0

        status = client.submit(
            {"apps": ["fmm"], "configs": ["baseline", "thrifty"],
             "threads": 8}
        )
        run_id = status["run_id"]
        final = client.wait(run_id, timeout=120.0)
        assert final["state"] == "done"
        assert final["completed"] == 2 and final["failed"] == 0

        document = client.results(run_id)
        assert len(document["records"]) == 2
        apps = {r["app"] for r in document["records"]}
        assert apps == {"fmm"}

        # Overlapping resubmission: every cell is a cache hit, no
        # recomputation (executed count unchanged).
        executed = client.health()["executed_cells"]
        again = client.submit(
            {"apps": ["fmm"], "configs": ["baseline", "thrifty"],
             "threads": 8}
        )
        assert again["state"] == "done"
        assert again["cached"] == 2
        assert client.health()["executed_cells"] == executed

        # The event stream of a finished campaign replays its backlog.
        events = list(client.events(run_id))
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "serve.campaign_submitted"
        assert kinds[-1] == "serve.campaign_finished"

        # Pool introspection + hotplug.
        pool = client.pool()
        assert pool["target"] == 2
        assert client.set_pool(3)["target"] == 3

        assert len(client.campaigns()) == 2

        client.shutdown()
        deadline = time.monotonic() + 10.0
        while not exit_code and time.monotonic() < deadline:
            time.sleep(0.05)
        assert exit_code == [0]

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="needs /proc introspection"
    )
    def test_respawned_worker_does_not_hold_the_listener(self, live_server):
        # Workers forked while the server is listening inherit its
        # descriptors; unless the pool's child_setup closes the
        # listening socket, orphans of a SIGKILLed server keep the
        # port bound and block the restart that resumes campaigns.
        server, client, _ = live_server
        # The listener's socket inode, from the kernel's TCP table
        # (state 0A = LISTEN on our port).
        port_hex = "{:04X}".format(server.port)
        inodes = set()
        with open("/proc/net/tcp") as table:
            for line in list(table)[1:]:
                fields = line.split()
                if fields[1].endswith(":" + port_hex) and fields[3] == "0A":
                    inodes.add("socket:[{}]".format(fields[9]))
        assert inodes, "listener not found in /proc/net/tcp"

        before = {w["pid"] for w in client.pool()["workers"]}
        victim = sorted(before)[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        fresh = set()
        while time.monotonic() < deadline:
            alive = {w["pid"] for w in client.pool()["workers"]}
            fresh = alive - before
            if fresh:
                break
            time.sleep(0.05)
        assert fresh, "no replacement worker appeared"

        # The replacement was forked while the listener existed; its
        # fd table must not (durably) reference any of our listening
        # sockets. The child closes the inherited copy first thing in
        # its bootstrap, so poll briefly: the pid shows up in /pool as
        # soon as the parent forks, possibly before the child has run
        # child_setup.
        pid = fresh.pop()
        deadline = time.monotonic() + 30.0
        held = set()
        while time.monotonic() < deadline:
            held = set()
            for fd in os.listdir("/proc/{}/fd".format(pid)):
                try:
                    target = os.readlink(
                        "/proc/{}/fd/{}".format(pid, fd)
                    )
                except OSError:
                    continue
                if target.startswith("socket:["):
                    held.add(target)
            if not (held & inodes):
                break
            time.sleep(0.05)
        # The worker legitimately holds its queue pipes but must not
        # share a socket inode with the supervisor.
        assert not (held & inodes), (
            "respawned worker kept supervisor sockets: "
            "{}".format(held & inodes)
        )

    def test_api_errors(self, live_server):
        _, client, _ = live_server
        with pytest.raises(ServeError) as exc:
            client.status("nope")
        assert exc.value.status == 404
        with pytest.raises(ServeError) as exc:
            client.submit({"apps": ["not-an-app"]})
        assert exc.value.status == 400
        with pytest.raises(ServeError) as exc:
            client._request("PUT", "/pool")
        assert exc.value.status == 405

    def test_results_conflict_while_running_and_cancel(self, live_server):
        server, client, _ = live_server
        # A big-enough campaign that it is still running when we probe.
        status = client.submit({"apps": ["ocean", "barnes"], "threads": 8})
        run_id = status["run_id"]
        if client.status(run_id)["state"] == "running":
            with pytest.raises(ServeError) as exc:
                client.results(run_id)
            assert exc.value.status == 409
        cancelled = client.cancel(run_id)
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServeError) as exc:
            client.results(run_id)
        assert exc.value.status == 409


class TestClientTransport:
    def test_connection_refused_is_serve_error(self):
        client = ServeClient(port=1, timeout=0.5)
        with pytest.raises(ServeError, match="cannot reach"):
            client.health()


# -- hostile-peer hardening --------------------------------------------

def _hardened_server(tmp_path, **kwargs):
    """A live CampaignServer with hardening knobs; returns
    ``(server, client, stop)`` — call ``stop()`` in a finally."""
    server = CampaignServer(
        port=0, pool_size=1,
        cache=str(tmp_path / "cache"),
        journal_root=str(tmp_path / "runs"),
        **kwargs,
    )
    thread = threading.Thread(
        target=lambda: server.run(banner=False), daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while server.port == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert server.port != 0, "server never started listening"
    client = ServeClient(port=server.port, timeout=5.0)

    def stop():
        try:
            client.shutdown()
        except ServeError:
            pass
        thread.join(10.0)

    return server, client, stop


def _raw_exchange(port, payload, timeout=5.0):
    """Send raw bytes, read until the server closes; returns the bytes."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        if payload:
            sock.sendall(payload)
        received = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk
    finally:
        sock.close()


class TestHostileClients:
    def test_stalled_socket_gets_408_not_a_pinned_slot(self, tmp_path):
        server, client, stop = _hardened_server(
            tmp_path, idle_timeout_s=0.3,
        )
        try:
            # The slowloris move: open a connection, send half a
            # request head, and go quiet.
            response = _raw_exchange(
                server.port, b"GET / HTTP/1.1\r\nHost: x\r\n",
            )
            assert b"408" in response.split(b"\r\n", 1)[0]
            assert b"no complete request" in response
            # The server is fine afterwards; a real client still works.
            assert client.health()["ok"]
        finally:
            stop()

    def test_connection_cap_sheds_load_with_503(self, tmp_path):
        server, client, stop = _hardened_server(
            tmp_path, max_connections=1, idle_timeout_s=10.0,
        )
        try:
            # Occupy the single slot with a connection that never
            # completes its request.
            hog = socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0,
            )
            try:
                hog.sendall(b"GET / HTTP/1.1\r\n")
                time.sleep(0.2)  # let the server pick the handler up
                response = _raw_exchange(
                    server.port,
                    b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
                )
                head = response.split(b"\r\n\r\n", 1)[0]
                assert b"503" in head.split(b"\r\n", 1)[0]
                assert b"Retry-After: 1" in head
                assert b"connection cap" in response
            finally:
                hog.close()
            time.sleep(0.2)  # slot frees once the hog is gone
            assert client.health()["ok"]
        finally:
            stop()

    def test_hardening_knobs_are_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="idle_timeout_s"):
            CampaignServer(port=0, idle_timeout_s=0)
        with pytest.raises(ConfigError, match="max_connections"):
            CampaignServer(port=0, max_connections=0)


class TestWaitBackoff:
    def test_wait_backs_off_exponentially_with_jitter(self, monkeypatch):
        client = ServeClient(port=1, timeout=0.1)
        states = iter(["running"] * 6 + ["done"])
        monkeypatch.setattr(client, "status", lambda run_id: {
            "state": next(states), "completed": 0, "total": 1,
        })
        sleeps = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", lambda s: sleeps.append(s),
        )
        status = client.wait("r", timeout=600.0, poll_s=0.2, poll_cap_s=2.0)
        assert status["state"] == "done"
        # Six polls saw "running": delays double from the floor to the
        # cap, each drawn from [delay/2, delay] by the seeded jitter.
        expected = [0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        assert len(sleeps) == len(expected)
        for observed, delay in zip(sleeps, expected):
            assert 0.5 * delay <= observed <= delay
        assert len(set(sleeps)) > 1, "jitter must actually vary"

    def test_wait_timeout_raises_with_progress(self, monkeypatch):
        client = ServeClient(port=1, timeout=0.1)
        monkeypatch.setattr(client, "status", lambda run_id: {
            "state": "running", "completed": 3, "total": 10,
        })
        with pytest.raises(ServeError, match="3 of 10"):
            client.wait("r", timeout=0.05, poll_s=0.01)
