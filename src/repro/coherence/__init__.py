"""Directory-based cache coherence (DASH-style, Table 1).

The protocol is invalidation-based MESI-without-E (M/S/I) with a full
sharer vector per line at the home node, the classic DASH organization
the paper assumes. The pieces:

* :mod:`repro.coherence.cache` — set-associative L1/L2 arrays with LRU;
* :mod:`repro.coherence.directory` — per-home-node line states and the
  per-line serialization locks;
* :mod:`repro.coherence.protocol` — the transaction engine (loads,
  stores, atomics, write-backs) that moves simulated time; a message
  is timed by its size alone (one-flit control, or a line of data);
* :mod:`repro.coherence.controller` — the on-chip cache controller,
  including the paper's thrifty extensions: the programmable barrier-flag
  monitor (external wake-up) and the countdown timer (internal wake-up).
"""

from repro.coherence.cache import Cache, CacheHierarchy, LineState
from repro.coherence.controller import CacheController
from repro.coherence.directory import Directory, DirState
from repro.coherence.protocol import MemorySystem

__all__ = [
    "Cache",
    "CacheController",
    "CacheHierarchy",
    "Directory",
    "DirState",
    "LineState",
    "MemorySystem",
]
