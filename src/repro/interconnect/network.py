"""Timing model of the wormhole hypercube network.

Table 1 gives a 16 ns pin-to-pin hop latency, 16 ns of (un)marshaling at
each endpoint, and pipelined 250 MHz routers with a 16-byte datapath.
With wormhole switching the head flit pays the full hop path while the
body streams behind it, so a message of ``size`` bytes delivers after::

    2 * marshal + hops * pin_to_pin + serialization(size)

where serialization is the extra flits behind the head at the router
clock. Node-local "messages" (a node talking to its own directory) skip
the network entirely.

Contention is not modeled (a documented simplification — the paper's
barrier traffic is latency-, not bandwidth-bound). A message only bumps
the count of its route; :class:`NetworkStats` derives every total from
those counts when read.
"""

import math

from repro.errors import ConfigError
from repro.interconnect.topology import Hypercube


class _Route:
    """One ``(src, dst, size)`` route: its constants and message count."""

    __slots__ = ("hops", "latency", "messages")

    def __init__(self, hops, latency):
        self.hops = hops
        self.latency = latency
        self.messages = 0


class NetworkStats:
    """A :class:`Network`'s message counters, derived when read from the
    per-route counts it keeps (node-local messages are not counted)."""

    def __init__(self, routes):
        self._routes = routes

    @property
    def messages(self):
        return sum(
            route.messages for route in self._routes.values() if route.hops
        )

    @property
    def total_hops(self):
        return sum(
            route.messages * route.hops for route in self._routes.values()
        )


class Network:
    """Latency model bound to a :class:`~repro.sim.Simulator`."""

    def __init__(self, sim, topology, config):
        if not isinstance(topology, Hypercube):
            raise ConfigError("Network requires a Hypercube topology")
        self.sim = sim
        self.topology = topology
        self.config = config
        self.flit_bytes = 16
        # 250 MHz -> 4 ns per router cycle; one flit advances per cycle.
        self.flit_cycle_ns = max(1, int(round(1_000 / config.router_freq_mhz)))
        # Packed (src, dst, size) int key -> _Route: the route's hops
        # and latency (a pure function of the topology and config, so
        # memoizing it is safe) and its message count, the one
        # statistic a message updates. The packed key (src and dst
        # below 4096 nodes, size below 8192 bytes) avoids a tuple
        # allocation per message.
        self._routes = {}
        self.stats = NetworkStats(self._routes)

    def latency_ns(self, src, dst, size_bytes=16):
        """One-way delivery latency in ns (the route's constant)."""
        if size_bytes <= 0:
            raise ConfigError("message size must be positive")
        if src == dst:
            return 0
        hops = self.topology.hops(src, dst)
        body_flits = max(0, math.ceil(size_bytes / self.flit_bytes) - 1)
        return (
            2 * self.config.marshal_ns
            + hops * self.config.pin_to_pin_ns
            + body_flits * self.flit_cycle_ns
        )

    def _delivery_latency(self, src, dst, size_bytes):
        """Latency for one concrete message; counts it on its route,
        which the route's first message creates."""
        if size_bytes <= 0:
            raise ConfigError("message size must be positive")
        key = ((src << 12) | dst) << 13 | size_bytes
        route = self._routes.get(key)
        if route is None:
            if src == dst:
                route = _Route(0, 0)
            else:
                route = _Route(
                    self.topology.hops(src, dst),
                    self.latency_ns(src, dst, size_bytes),
                )
            self._routes[key] = route
        route.messages += 1
        return route.latency

    def delivery_ns(self, src, dst, size_bytes=16):
        """Latency of one concrete message in ns; counts it on its route.

        Processes that just wait out the wire ``yield`` this int
        directly. Each call models one message, so call exactly once per
        message.
        """
        # Known-route fast path; the first message of a route (and all
        # validation) takes _delivery_latency.
        try:
            route = self._routes[((src << 12) | dst) << 13 | size_bytes]
        except KeyError:
            return self._delivery_latency(src, dst, size_bytes)
        route.messages += 1
        return route.latency

    def send(self, src, dst, handler, *args, size_bytes=16):
        """Deliver ``handler(*args)`` at ``dst`` after the wire latency."""
        return self.sim.schedule(
            self._delivery_latency(src, dst, size_bytes), handler, *args
        )
