"""Long-running campaign service over the experiment engine.

``repro serve`` turns the batch experiment machinery into a local
service: submit sweep campaigns over HTTP+JSON, watch their progress
stream live, and share one content-addressed result cache across every
campaign so overlapping submissions never recompute a cell.

The package deliberately *reuses* the batch layers instead of
paralleling them — cells run on the engine's own
:class:`~repro.experiments.pool.WorkerPool`, one unit per job (a
Baseline cell travels with the Oracle-Halt and Ideal cells replaying
it), liveness rides the :mod:`~repro.experiments.watchdog`
heartbeats, durability rides
:class:`~repro.experiments.journal.RunJournal`, and shutdown rides the
preemption protocol — so a served campaign is bit-identical,
journal-compatible, and resume-compatible with its ``repro figure5``
equivalent.

* :mod:`repro.serve.http` — minimal stdlib asyncio HTTP/1.1;
* :mod:`repro.serve.pool` — the engine's hotplug worker pool;
* :mod:`repro.serve.campaigns` — specs, campaign state, recovery;
* :mod:`repro.serve.server` — the dispatcher + API endpoint;
* :mod:`repro.serve.client` — the blocking client the CLI uses.
"""

from repro.serve.campaigns import (
    Campaign,
    CampaignStore,
    cells_for,
    normalize_spec,
)
from repro.serve.client import ServeClient
from repro.serve.pool import WorkerPool
from repro.serve.server import DEFAULT_PORT, CampaignServer

__all__ = [
    "Campaign",
    "CampaignServer",
    "CampaignStore",
    "DEFAULT_PORT",
    "ServeClient",
    "WorkerPool",
    "cells_for",
    "normalize_spec",
]
