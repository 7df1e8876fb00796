"""The campaign service's hotplug worker pool.

The service runs its cells on the batch engine's
:class:`~repro.experiments.pool.WorkerPool`, re-exported here under the
service's own path (the benchmark harness in ``perfbench/layers.py``
imports and patches it from here): the same class, so the same
workers, unit dispatch, queue protocol and watchdog supervision, and a
served cell computes exactly what a batch cell does. The pool lives
under :mod:`repro.experiments` so batch runs never import this asyncio
and HTTP package.
"""

from repro.experiments.pool import WorkerPool

__all__ = ["WorkerPool"]
