"""Campaign model for the service: specs, state, and recovery.

A *campaign* is one submitted sweep — the serve-side analogue of a
``repro figure5`` invocation: a set of applications crossed with a set
of configurations at one thread count and seed. This module owns the
parts that are independent of the HTTP layer and the worker pool:

* :func:`normalize_spec` — validate a client payload into the
  canonical spec dict that is hashed, journaled, and compared;
* :func:`cells_for` — expand a spec into its
  :class:`~repro.experiments.parallel.ExperimentCell` list in the same
  app-major order the batch CLI uses, so a served campaign's results
  are byte-identical to ``repro figure5 --json`` of the same spec;
* :class:`Campaign` — per-campaign state: results slots, progress
  counters, the event backlog + live subscriber queues behind
  ``GET /campaigns/{id}/events``;
* :class:`CampaignStore` — the id-keyed registry, including
  :meth:`~CampaignStore.recover`: on startup the store replays every
  ``kind: "serve"`` journal on disk, reconstructs finished and
  cancelled campaigns, and returns the in-flight ones so a killed
  server resumes them exactly like ``repro figure5 --resume`` resumes
  a batch run.
"""

from repro import __version__
from repro.errors import ConfigError, ServeError
from repro.experiments.configs import CONFIG_NAMES, check_configs
from repro.experiments.export import matrix_to_records
from repro.experiments.journal import (
    RunJournal,
    list_run_ids,
    spec_hash,
)
from repro.experiments.parallel import CellFailure, ExperimentCell
from repro.experiments.runner import DEFAULT_SEED
from repro.workloads.splash2 import SPLASH2_NAMES

#: Campaign lifecycle states (reported verbatim by the status API).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"

#: Sentinel object closing an event stream (never serialized).
STREAM_END = object()


def normalize_spec(payload):
    """Validate a submission payload into the canonical spec dict.

    Accepts ``apps`` (default: all ten), ``configs`` (default: all
    five), ``threads``, ``seed``. Raises
    :class:`~repro.errors.ConfigError` with a message naming the bad
    field — the server maps that to a 400.
    """
    if not isinstance(payload, dict):
        raise ConfigError("campaign spec must be a JSON object")
    known = {"apps", "configs", "threads", "seed"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(
            "unknown spec field(s) {}; allowed: {}".format(
                ", ".join(unknown), ", ".join(sorted(known))
            )
        )
    apps = payload.get("apps") or list(SPLASH2_NAMES)
    if isinstance(apps, str):
        apps = [apps]
    bad = sorted(set(apps) - set(SPLASH2_NAMES))
    if bad:
        raise ConfigError(
            "unknown application(s) {}; choose from {}".format(
                ", ".join(bad), ", ".join(SPLASH2_NAMES)
            )
        )
    configs = payload.get("configs") or list(CONFIG_NAMES)
    if isinstance(configs, str):
        configs = [configs]
    check_configs(configs)
    threads = payload.get("threads", 64)
    if not isinstance(threads, int) or isinstance(threads, bool) \
            or not 2 <= threads <= 1024:
        raise ConfigError(
            "threads must be an integer in [2, 1024], got {!r}".format(
                threads
            )
        )
    seed = payload.get("seed", DEFAULT_SEED)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed must be an integer, got {!r}".format(seed))
    return {
        "kind": "serve",
        # Order is preserved (duplicates dropped): the batch CLI runs
        # apps in invocation order, and matching it keeps a served
        # export byte-identical to the equivalent figure5 --json.
        "apps": list(dict.fromkeys(apps)),
        "configs": list(dict.fromkeys(configs)),
        "threads": threads,
        "seed": seed,
        "version": __version__,
    }


def cells_for(spec):
    """Expand a canonical spec into its cell list, app-major.

    The order matches the batch path (``run_matrix`` iterates apps
    outer, configs inner), which is what makes a served campaign's
    export byte-identical to the equivalent ``repro figure5 --json``.
    """
    return [
        ExperimentCell.make(
            app, config, threads=spec["threads"], seed=spec["seed"],
        )
        for app in spec["apps"]
        for config in spec["configs"]
    ]


class Campaign:
    """All per-campaign state the server tracks.

    ``results[i]`` is ``None`` while cell ``i`` is pending, then the
    cell's :class:`~repro.experiments.runner.ExperimentResult` or a
    :class:`~repro.experiments.parallel.CellFailure`. Event streaming
    is backlog + fan-out: every event is appended to ``events`` (so a
    subscriber arriving late replays the full history) and pushed to
    each live subscriber queue.
    """

    def __init__(self, run_id, spec, journal=None):
        self.run_id = run_id
        self.spec = spec
        self.cells = cells_for(spec)
        self.keys = [cell.key() for cell in self.cells]
        self.results = [None] * len(self.cells)
        self.journal = journal
        self.state = QUEUED
        self.events = []       # serialized event dicts, append-only
        self.subscribers = []  # live asyncio.Queue fan-out targets
        self.cached = 0        # cells served straight from the cache
        self.deduped = 0       # cells attached to another campaign's job
        self.failed = 0
        self.resumed = False

    # -- progress ------------------------------------------------------

    @property
    def total(self):
        return len(self.cells)

    @property
    def completed(self):
        return sum(1 for r in self.results if r is not None)

    def done(self):
        return self.completed == self.total

    def pending_indices(self):
        return [i for i, r in enumerate(self.results) if r is None]

    # -- events --------------------------------------------------------

    def publish(self, payload):
        """Append to the backlog and wake every live subscriber."""
        self.events.append(payload)
        for queue in self.subscribers:
            queue.put_nowait(payload)

    def end_stream(self):
        for queue in self.subscribers:
            queue.put_nowait(STREAM_END)

    # -- reporting -----------------------------------------------------

    def status_payload(self):
        total = self.total
        completed = self.completed
        return {
            "run_id": self.run_id,
            "state": self.state,
            "spec": self.spec,
            "total": total,
            "completed": completed,
            "percent": round(100.0 * completed / total, 1) if total else
            100.0,
            "cached": self.cached,
            "deduped": self.deduped,
            "failed": self.failed,
            "resumed": self.resumed,
        }

    def matrix(self):
        """The batch-shaped ``{app: {config: result}}`` mapping.

        Only meaningful once every cell resolved; failures are left
        out (the caller checks ``failed`` first).
        """
        matrix = {}
        for cell, result in zip(self.cells, self.results):
            if isinstance(result, CellFailure) or result is None:
                continue
            matrix.setdefault(cell.app, {})[cell.config] = result
        return matrix

    def records(self):
        """Flattened result records, identical to the batch export.

        The happy path goes through
        :func:`~repro.experiments.export.matrix_to_records` — the same
        function behind ``repro figure5 --json`` — so the serialized
        records match byte for byte. Specs that the batch exporter
        cannot normalize (no baseline configuration) or campaigns with
        failures fall back to raw per-cell records.
        """
        if self.failed == 0 and "baseline" in self.spec["configs"]:
            return matrix_to_records(self.matrix())
        records = []
        for cell, result in zip(self.cells, self.results):
            if isinstance(result, CellFailure):
                records.append({
                    "app": cell.app, "config": cell.config,
                    "threads": cell.threads, "failed": True,
                    "failure": result.describe(),
                })
            elif result is not None:
                records.append({
                    "app": cell.app, "config": cell.config,
                    "threads": result.n_threads,
                    "execution_time_ns": result.execution_time_ns,
                    "energy_joules": result.energy_joules,
                    "barrier_imbalance": result.barrier_imbalance,
                })
        return records


class CampaignStore:
    """The run-id-keyed campaign registry, with durable recovery."""

    def __init__(self, journal_root=None):
        self.journal_root = journal_root
        self._campaigns = {}

    def __contains__(self, run_id):
        return run_id in self._campaigns

    def __len__(self):
        return len(self._campaigns)

    def get(self, run_id):
        try:
            return self._campaigns[run_id]
        except KeyError:
            raise ServeError(
                "no such campaign: {}".format(run_id), status=404
            )

    def all(self):
        return [self._campaigns[k] for k in sorted(self._campaigns)]

    def create(self, spec):
        """Register a new journaled campaign for a canonical spec.

        Run ids are content-derived (``c<spec-hash prefix>``) with a
        ``-2``, ``-3``… suffix when the same spec is submitted again
        while the original still exists — each submission is its own
        campaign even if every cell dedups against the first.
        """
        base = "c" + spec_hash(spec)[:10]
        run_id = base
        suffix = 1
        existing = set(list_run_ids(self.journal_root))
        while run_id in self._campaigns or run_id in existing:
            suffix += 1
            run_id = "{}-{}".format(base, suffix)
        journal = RunJournal.create(
            spec, run_id=run_id, root=self.journal_root,
        )
        campaign = Campaign(run_id, spec, journal=journal)
        self._campaigns[run_id] = campaign
        return campaign

    def recover(self, cache=None):
        """Rebuild campaigns from on-disk journals; return resumables.

        For every ``kind: "serve"`` journal under the root: a
        ``finished`` record makes it a :data:`DONE` campaign (results
        reloaded from the cache so status/results endpoints keep
        working across restarts, when the entries are still cached); a
        ``cancelled`` record makes it :data:`CANCELLED`; anything else
        was in flight when the server died — completed cells are
        restored from the cache and the campaign is returned for the
        server to re-enqueue.
        """
        resumable = []
        for run_id in list_run_ids(self.journal_root):
            if run_id in self._campaigns:
                continue
            try:
                journal = RunJournal.open(run_id, root=self.journal_root)
                spec = journal.spec().get("spec")
            except (OSError, ValueError, ConfigError):
                continue
            if not isinstance(spec, dict) or spec.get("kind") != "serve":
                continue
            state = journal.replay()
            campaign = Campaign(run_id, spec, journal=journal)
            self._fill_from_cache(campaign, cache)
            if state.finished:
                campaign.state = DONE
                self._campaigns[run_id] = campaign
            elif state.cancellations:
                campaign.state = CANCELLED
                self._campaigns[run_id] = campaign
            else:
                campaign.resumed = True
                self._campaigns[run_id] = campaign
                resumable.append(campaign)
        return resumable

    @staticmethod
    def _fill_from_cache(campaign, cache):
        if cache is None:
            return
        for index, key in enumerate(campaign.keys):
            value = cache.get(key)
            if value is not None:
                campaign.results[index] = value
                campaign.cached += 1
