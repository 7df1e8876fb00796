"""Hypercube interconnect (Table 1: wormhole-routed, 250 MHz routers).

:mod:`repro.interconnect.topology` gives the graph structure (hop
counts are Hamming distances, the length of any minimal route) and
:mod:`repro.interconnect.network` the uncontended timing model used by
coherence transactions.
"""

from repro.interconnect.network import Network
from repro.interconnect.topology import Hypercube

__all__ = ["Hypercube", "Network"]
