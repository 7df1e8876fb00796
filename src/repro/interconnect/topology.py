"""Hypercube topology.

A ``d``-dimensional hypercube connects ``2**d`` nodes; nodes are adjacent
when their identifiers differ in exactly one bit, and the minimal hop
count between two nodes is the Hamming distance of their identifiers.
"""

from repro.errors import ConfigError


class Hypercube:
    """The node graph of the modeled machine (Table 1: 64 nodes)."""

    def __init__(self, n_nodes):
        if n_nodes < 1 or n_nodes & (n_nodes - 1):
            raise ConfigError(
                "hypercube size must be a power of two, got {}".format(n_nodes)
            )
        self.n_nodes = n_nodes
        self.dimension = n_nodes.bit_length() - 1

    def check_node(self, node):
        """Validate a node identifier, returning it."""
        if not 0 <= node < self.n_nodes:
            raise ConfigError(
                "node {} outside 0..{}".format(node, self.n_nodes - 1)
            )
        return node

    def hops(self, src, dst):
        """Minimal hop count (Hamming distance) between two nodes."""
        self.check_node(src)
        self.check_node(dst)
        return bin(src ^ dst).count("1")

    def __repr__(self):
        return "Hypercube(n_nodes={}, dimension={})".format(
            self.n_nodes, self.dimension
        )
