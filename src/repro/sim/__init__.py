"""Discrete-event simulation kernel.

A tiny, deterministic, generator-based process simulator in the style of
SimPy, specialized for this project:

* simulated time is **integer nanoseconds** (1 cycle at the nominal 1 GHz
  clock of the modeled machine equals 1 ns);
* events fire in (time, insertion-order) order, so runs are reproducible;
* processes are plain generators that ``yield`` :class:`Event` objects
  (most commonly :class:`Timeout`, or an :class:`AnyOf` race such as a
  wake-up's timer against its invalidation), and compose with
  ``yield from``.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> def hello(sim, log):
...     yield sim.timeout(5)
...     log.append(sim.now)
>>> log = []
>>> _ = sim.spawn(hello(sim, log))
>>> sim.run()
>>> log
[5]
"""

from repro.sim.core import Handle, Simulator
from repro.sim.events import AnyOf, Event, Timeout
from repro.sim.process import Process

__all__ = [
    "AnyOf",
    "Event",
    "Handle",
    "Process",
    "Simulator",
    "Timeout",
]
