"""The campaign server: asyncio loop, dispatcher, and HTTP API.

``repro serve`` runs one :class:`CampaignServer`: a single-threaded
asyncio process supervising a :class:`~repro.experiments.pool.WorkerPool`
and serving the HTTP+JSON API. Everything mutable lives on the one
event loop — HTTP handlers and the supervision tick interleave but
never run concurrently — so the server needs no locks.

The supervisor ticks when there is something to do, not on a timer:
the event loop watches the pool's doorbell, which a worker rings after
each result it posts, and a submission, a ``POST /pool`` and a stop
request wake it too. Only what nothing announces (a worker's death or
stall, an expiring retry backoff, a preemption signal) waits for the
pool's fallback interval, :attr:`~repro.experiments.pool.WorkerPool.
FALLBACK_S`.

Dispatch is **job-based, not campaign-based**: every unsettled cell
has one job, filed under the cell's content-address (the same key the
result cache uses): the list of campaigns waiting on it. Overlapping
campaigns that share a cell share its job — the cell computes once and
every waiter settles from the single result. The cells themselves wait
in the batch engine's
:class:`~repro.experiments.parallel.UnitQueue` under the same key, so
a worker takes the head-of-queue cell together with every queued cell
that reads the same Baseline simulation, and a Baseline cell and its
Oracle-Halt and Ideal cells simulate the Baseline once. Submission
dedups at three levels:

1. cache hit — the cell already has a durable result; settle now;
2. job hit — the cell is queued or running for another campaign;
   attach this campaign as a waiter;
3. miss — enqueue a fresh job.

Crash safety mirrors the batch engine exactly: every campaign is
journaled (dispatch/completion/failure per cell, fsynced), so a
SIGKILLed server replays its journals on restart, restores completed
cells from the result cache, and re-enqueues only the remainder.
Failures follow the engine's one policy, applied by the shared
:class:`~repro.experiments.parallel.UnitQueue`: a cell that raises
fails at once; a crashed or stalled worker costs one attempt on the
cell it was running, which is retried after a seeded backoff delay
until its retries run out, and the cells of its unit behind that one
are requeued uncharged.

API surface (all JSON; exit codes match the batch CLI):

====== ============================ =====================================
Method Path                         Meaning
====== ============================ =====================================
GET    /                            health + version + counts
POST   /campaigns                   submit a spec; 201 with status
GET    /campaigns                   status of every campaign
GET    /campaigns/{id}              one campaign's status
GET    /campaigns/{id}/results      final records (409 until done)
GET    /campaigns/{id}/events       ndjson progress stream (live tail)
DELETE /campaigns/{id}              graceful cancel
GET    /pool                        worker-pool snapshot
POST   /pool                        hotplug: ``{"workers": N}``
POST   /shutdown                    graceful stop (in-flight journaled)
====== ============================ =====================================
"""

import asyncio
import os
import sys
from dataclasses import asdict

from repro import __version__
from repro.errors import ConfigError, ServeError
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    CellFailure,
    RetryBackoff,
    UnitQueue,
    cell_id,
)
from repro.experiments.pool import WorkerPool
from repro.experiments.preemption import EXIT_RESUMABLE, PreemptionGuard
from repro.serve.campaigns import (
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    STREAM_END,
    CampaignStore,
    normalize_spec,
)
from repro.serve import DEFAULT_PORT
from repro.serve.http import (
    HttpError,
    JsonResponse,
    NdjsonStream,
    Router,
    make_connection_handler,
)
from repro.telemetry.events import (
    CampaignCancelled,
    CampaignFinished,
    CampaignSubmitted,
    CellResolved,
    ResumeStarted,
    WorkerJoined,
    WorkerLeft,
    WorkerStalled,
)
from repro.telemetry.metrics import MetricsRegistry

#: Clean-exit status (mirrors the CLI constant without importing it).
EXIT_OK = 0


class CampaignServer:
    """The long-running campaign service.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (published on
        :attr:`port` once listening — tests use this).
    pool_size:
        Initial worker count (hotpluggable at runtime).
    cache:
        Result-cache directory (or None for the default). The cache
        is *required* — cross-campaign dedup and restart recovery are
        built on it — so there is deliberately no way to disable it.
    journal_root:
        Run-journal root (or None for the default).
    watchdog / retries:
        Worker-liveness policy and per-cell retry budget, with the
        batch engine's semantics.
    idle_timeout_s:
        Per-connection read deadline in seconds; a client that opens
        a socket and stalls gets 408 instead of pinning a connection
        (None disables).
    max_connections:
        Load-shedding cap on concurrent connections; beyond it new
        requests get an immediate 503 + ``Retry-After`` (None
        disables).
    task:
        Injectable per-cell function for tests.
    """

    def __init__(self, host="127.0.0.1", port=DEFAULT_PORT, pool_size=2,
                 cache=None, journal_root=None, watchdog=True, retries=1,
                 idle_timeout_s=30.0, max_connections=128,
                 task=None):
        if retries < 0:
            raise ConfigError("retries must be >= 0")
        if idle_timeout_s is not None and idle_timeout_s <= 0:
            raise ConfigError("idle_timeout_s must be positive or None")
        if max_connections is not None and max_connections < 1:
            raise ConfigError("max_connections must be >= 1 or None")
        self.idle_timeout_s = idle_timeout_s
        self.max_connections = max_connections
        self.host = host
        self.port = port
        self.cache = ResultCache.coerce(cache if cache is not None else True)
        self.store = CampaignStore(journal_root=journal_root)
        self.pool = WorkerPool(pool_size, task=task, watchdog=watchdog)
        self.units = UnitQueue(self.pool, retries, RetryBackoff())
        self.metrics = MetricsRegistry()
        #: Unsettled cell key -> the ``(campaign, index)`` pairs to
        #: settle when it resolves, one per campaign that needs the
        #: cell. The cell itself waits in :attr:`units`.
        self.jobs = {}
        self.executed = 0
        self._stopping = False
        self._stop_reason = "shutdown"
        #: Set to wake the supervisor; made inside the running loop
        #: (an asyncio.Event binds to a loop at construction on 3.9).
        self._wake = None

    # ------------------------------------------------------------------
    # event plumbing

    def _emit(self, event, campaigns):
        """Record an event in the metrics and stream it to campaigns."""
        event.record(self.metrics)
        payload = {"kind": event.kind}
        payload.update(asdict(event))
        for campaign in campaigns:
            campaign.publish(payload)

    def _wake_supervisor(self):
        if self._wake is not None:
            self._wake.set()

    def _live_campaigns(self):
        return [
            c for c in self.store.all() if c.state in (QUEUED, RUNNING)
        ]

    # ------------------------------------------------------------------
    # submission and dedup

    def submit(self, payload):
        """Validate, journal, and enqueue one campaign submission."""
        spec = normalize_spec(payload)
        campaign = self.store.create(spec)
        hits = self._enqueue_campaign(campaign)
        self._emit(
            CampaignSubmitted(
                ts=0, run_id=campaign.run_id, cells=campaign.total,
                cached=campaign.cached, deduped=campaign.deduped,
            ),
            [campaign],
        )
        self._publish_cache_hits(campaign, hits)
        self._check_done(campaign)
        self._wake_supervisor()
        return campaign

    def _enqueue_campaign(self, campaign, resumed=False):
        """Route each pending cell: cache hit, job attach, or new job.

        Returns the cache-hit ``(cell, index)`` pairs; the caller
        publishes their events *after* its campaign-level event so a
        stream always opens with submitted/resumed. With ``resumed``
        the campaign's completed cells were already restored (and
        journaled by the previous server life); only the rest is
        routed.
        """
        campaign.state = RUNNING
        hits = []
        for index in campaign.pending_indices():
            key = campaign.keys[index]
            cell = campaign.cells[index]
            cached = self.cache.get(key)
            if cached is not None:
                campaign.results[index] = cached
                campaign.cached += 1
                campaign.journal.record_completed(
                    cell_id(cell, index), index=index, key=key,
                    cached=True,
                )
                hits.append((cell, index))
                continue
            waiters = self.jobs.get(key)
            if waiters is not None:
                waiters.append((campaign, index))
                campaign.deduped += 1
                continue
            self.jobs[key] = [(campaign, index)]
            self.units.push(key, cell)
        return hits

    def _publish_cache_hits(self, campaign, hits):
        for cell, index in hits:
            self._emit(
                CellResolved(
                    ts=0, run_id=campaign.run_id,
                    cell="{}/{}".format(cell.app, cell.config),
                    index=index, cached=True, failed=False,
                ),
                [campaign],
            )

    # ------------------------------------------------------------------
    # settlement

    def _settle(self, campaign, index, result, cached=False):
        """Finalize one cell of one campaign (result or failure)."""
        if campaign.results[index] is not None:
            return  # cancelled-then-settled race; first write wins
        campaign.results[index] = result
        cell = campaign.cells[index]
        failed = isinstance(result, CellFailure)
        if failed:
            campaign.failed += 1
            campaign.journal.record_failed_permanent(
                cell_id(cell, index), index=index, kind=result.kind,
                message=result.detail, attempts=result.attempts,
            )
        else:
            campaign.journal.record_completed(
                cell_id(cell, index), index=index,
                key=campaign.keys[index], cached=cached,
            )
        self._emit(
            CellResolved(
                ts=0, run_id=campaign.run_id,
                cell="{}/{}".format(cell.app, cell.config),
                index=index, cached=cached, failed=failed,
            ),
            [campaign],
        )
        self._check_done(campaign)

    def _check_done(self, campaign):
        if campaign.state != RUNNING or not campaign.done():
            return
        campaign.state = DONE
        campaign.journal.record_finished(
            completed=campaign.completed - campaign.failed,
            failed=campaign.failed,
        )
        self._emit(
            CampaignFinished(
                ts=0, run_id=campaign.run_id,
                completed=campaign.completed - campaign.failed,
                failed=campaign.failed,
            ),
            [campaign],
        )
        campaign.end_stream()

    # ------------------------------------------------------------------
    # cancellation

    def cancel(self, run_id, reason="cancelled"):
        """Cancel a campaign; orphaned jobs are withdrawn."""
        campaign = self.store.get(run_id)
        if campaign.state in (DONE, CANCELLED):
            return campaign
        campaign.state = CANCELLED
        campaign.journal.record_cancelled(
            reason=reason, completed=campaign.completed,
            total=campaign.total,
        )
        for key, waiters in list(self.jobs.items()):
            waiters[:] = [(c, i) for (c, i) in waiters if c is not campaign]
            if not waiters and self.units.withdraw(key):
                # Nobody needs it and it is not running: withdrawn.
                del self.jobs[key]
        self._emit(
            CampaignCancelled(
                ts=0, run_id=campaign.run_id,
                completed=campaign.completed, total=campaign.total,
            ),
            [campaign],
        )
        campaign.end_stream()
        return campaign

    # ------------------------------------------------------------------
    # the supervision tick

    def tick(self):
        """One supervision round: absorb pool events, then dispatch."""
        for event in self.pool.poll():
            kind = event[0]
            if kind == "crashed":
                self._emit(
                    WorkerLeft(ts=0, worker=event[1],
                               pool_size=len(self.pool), reason="crashed"),
                    self._live_campaigns(),
                )
            elif kind == "stalled":
                _, pid, keys, stale_s = event
                stalled = {}  # campaign -> its cells on the worker
                for key in filter(self.jobs.__contains__, keys):
                    for campaign, index in self.jobs[key]:
                        stalled.setdefault(campaign, []).append(
                            cell_id(campaign.cells[index], index)
                        )
                for campaign, cells in stalled.items():
                    campaign.journal.record_worker_stalled(
                        worker=pid, cells=cells, stale_s=stale_s,
                    )
                self._emit(
                    WorkerStalled(
                        ts=0, worker=pid, cells=len(keys),
                        stale_s=round(stale_s, 3),
                    ),
                    list(stalled),
                )
            elif kind == "left":
                _, pid, reason = event
                self._emit(
                    WorkerLeft(ts=0, worker=pid, pool_size=len(self.pool),
                               reason=reason),
                    self._live_campaigns(),
                )
            elif kind == "joined":
                _, pid = event
                self._emit(
                    WorkerJoined(ts=0, worker=pid,
                                 pool_size=len(self.pool)),
                    self._live_campaigns(),
                )
            for key, outcome, final in self.units.settle(event):
                self._resolve(key, outcome, final)
        if self._stopping:
            return
        for key in self.units.dispatch():
            for campaign, index in self.jobs[key]:
                campaign.journal.record_dispatched(
                    cell_id(campaign.cells[index], index), index=index,
                    attempt=self.units.attempts[key], key=key,
                )

    def _resolve(self, key, outcome, final):
        """Journal a failed attempt, or settle every waiter of a job."""
        waiters = self.jobs[key]
        if not final:
            for campaign, index in waiters:
                campaign.journal.record_failed(
                    cell_id(campaign.cells[index], index), index=index,
                    kind=outcome.kind, message=outcome.message,
                    attempt=outcome.attempts,
                )
            return
        del self.jobs[key]
        if not isinstance(outcome, CellFailure):
            # Banked even when every waiter cancelled while the cell
            # ran: a future campaign gets it as a cache hit.
            self.cache.put(key, outcome)
            self.executed += 1
        for campaign, index in waiters:
            self._settle(campaign, index, outcome)

    # ------------------------------------------------------------------
    # recovery

    def recover(self):
        """Replay on-disk journals; re-enqueue in-flight campaigns."""
        for campaign in self.store.recover(cache=self.cache):
            campaign.journal.record_resumed(
                completed=campaign.completed,
                remaining=campaign.total - campaign.completed,
            )
            self._emit(
                ResumeStarted(
                    ts=0, run_id=campaign.run_id,
                    completed=campaign.completed,
                    remaining=campaign.total - campaign.completed,
                ),
                [campaign],
            )
            hits = self._enqueue_campaign(campaign, resumed=True)
            self._publish_cache_hits(campaign, hits)
            self._check_done(campaign)

    # ------------------------------------------------------------------
    # HTTP API

    def _router(self):
        router = Router()
        router.add("GET", "/", self._h_health)
        router.add("POST", "/campaigns", self._h_submit)
        router.add("GET", "/campaigns", self._h_list)
        router.add("GET", "/campaigns/{id}", self._h_status)
        router.add("GET", "/campaigns/{id}/results", self._h_results)
        router.add("GET", "/campaigns/{id}/events", self._h_events)
        router.add("DELETE", "/campaigns/{id}", self._h_cancel)
        router.add("GET", "/pool", self._h_pool)
        router.add("POST", "/pool", self._h_resize)
        router.add("POST", "/shutdown", self._h_shutdown)
        return router

    def _campaign_or_404(self, request):
        try:
            return self.store.get(request.params["id"])
        except ServeError as exc:
            raise HttpError(404, str(exc))

    async def _h_health(self, request):
        return JsonResponse({
            "ok": True,
            "version": __version__,
            "campaigns": len(self.store),
            "pool": self.pool.target,
            "queued_cells": len(self.jobs),
            "executed_cells": self.executed,
        })

    async def _h_submit(self, request):
        try:
            campaign = self.submit(request.json())
        except ConfigError as exc:
            raise HttpError(400, str(exc))
        return JsonResponse(campaign.status_payload(), status=201)

    async def _h_list(self, request):
        return JsonResponse(
            [c.status_payload() for c in self.store.all()]
        )

    async def _h_status(self, request):
        campaign = self._campaign_or_404(request)
        return JsonResponse(campaign.status_payload())

    async def _h_results(self, request):
        campaign = self._campaign_or_404(request)
        if campaign.state == CANCELLED:
            raise HttpError(409, "campaign {} was cancelled after {} of "
                            "{} cells".format(campaign.run_id,
                                              campaign.completed,
                                              campaign.total))
        if campaign.state != DONE:
            raise HttpError(409, "campaign {} is {} ({} of {} cells "
                            "done)".format(campaign.run_id, campaign.state,
                                           campaign.completed,
                                           campaign.total))
        return JsonResponse({
            "run_id": campaign.run_id,
            "failed": campaign.failed,
            "records": campaign.records(),
        })

    async def _h_events(self, request):
        campaign = self._campaign_or_404(request)

        async def stream():
            # Snapshot + subscribe with no await in between, so no
            # event can fall between the backlog and the live tail.
            backlog = list(campaign.events)
            live = campaign.state in (QUEUED, RUNNING)
            queue = asyncio.Queue()
            if live:
                campaign.subscribers.append(queue)
            try:
                for item in backlog:
                    yield item
                while live:
                    item = await queue.get()
                    if item is STREAM_END:
                        break
                    yield item
            finally:
                if live:
                    try:
                        campaign.subscribers.remove(queue)
                    except ValueError:
                        pass

        return NdjsonStream(stream())

    async def _h_cancel(self, request):
        campaign = self._campaign_or_404(request)
        return JsonResponse(
            self.cancel(campaign.run_id).status_payload()
        )

    async def _h_pool(self, request):
        return JsonResponse(self.pool.describe())

    async def _h_resize(self, request):
        body = request.json()
        workers = body.get("workers")
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 1:
            raise HttpError(400, "workers must be a positive integer")
        try:
            self.pool.resize(workers)
        except ConfigError as exc:
            raise HttpError(400, str(exc))
        self._wake_supervisor()
        return JsonResponse(self.pool.describe())

    async def _h_shutdown(self, request):
        self.request_stop("shutdown requested")
        return JsonResponse({"ok": True, "stopping": True})

    # ------------------------------------------------------------------
    # lifecycle

    def request_stop(self, reason="shutdown"):
        self._stop_reason = reason
        self._stopping = True
        self._wake_supervisor()

    async def _supervise(self, guard):
        """Tick, then sleep until the doorbell, a request or the
        fallback timer wakes the loop, until a stop is requested."""
        loop = asyncio.get_running_loop()
        wake = self._wake = asyncio.Event()
        loop.add_reader(self.pool.fileno(), wake.set)
        try:
            while not self._stopping:
                if guard is not None and guard.requested:
                    self.request_stop(guard.reason)
                    break
                wake.clear()
                self.tick()
                fallback = loop.call_later(self.pool.FALLBACK_S, wake.set)
                await wake.wait()
                fallback.cancel()
        finally:
            loop.remove_reader(self.pool.fileno())
            self._wake = None

    async def _main(self, guard=None, banner=True):
        self.recover()
        self.pool.start()
        server = await asyncio.start_server(
            make_connection_handler(
                self._router(),
                idle_timeout_s=self.idle_timeout_s,
                max_connections=self.max_connections,
            ),
            host=self.host, port=self.port,
        )
        self.port = server.sockets[0].getsockname()[1]
        # Workers forked from here on (watchdog replacements, hotplug
        # growth) would inherit the listening socket; a SIGKILLed
        # server would then leave orphans holding the port, blocking
        # the restart that resumes its campaigns. Close it in every
        # fresh child — by descriptor, because asyncio hands out
        # TransportSocket wrappers without a close() method.
        listeners = list(server.sockets)

        def _close_inherited_listeners():
            for sock in listeners:
                try:
                    os.close(sock.fileno())
                except OSError:
                    pass

        self.pool.child_setup = _close_inherited_listeners
        if banner:
            print(
                "repro serve listening on http://{}:{} "
                "(pool={}, cache={})".format(
                    self.host, self.port, self.pool.target,
                    self.cache.cache_dir,
                ),
                flush=True,
            )
        try:
            await self._supervise(guard)
        finally:
            server.close()
            await server.wait_closed()
            interrupted = False
            for campaign in self._live_campaigns():
                interrupted = True
                campaign.journal.record_interrupted(
                    reason=self._stop_reason,
                    completed=campaign.completed,
                    total=campaign.total,
                )
                campaign.end_stream()
            self.pool.stop()
        return EXIT_RESUMABLE if interrupted else EXIT_OK

    def run(self, banner=True):
        """Serve until stopped; returns the process exit status.

        SIGTERM/SIGINT latch through a
        :class:`~repro.experiments.preemption.PreemptionGuard` — the
        same graceful-preemption machinery batch campaigns use — so a
        preempted server journals every in-flight campaign and exits
        :data:`~repro.experiments.preemption.EXIT_RESUMABLE`; its next
        start resumes them.
        """
        with PreemptionGuard() as guard:
            try:
                return asyncio.run(self._main(guard, banner=banner))
            except KeyboardInterrupt:
                # Second signal: the loop was torn down mid-flight;
                # journals are fsynced per record, so resume still works.
                print("killed; in-flight campaigns remain resumable",
                      file=sys.stderr)
                return EXIT_RESUMABLE
