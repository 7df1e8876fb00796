"""Start ``repro serve`` with the benchmark's layer hooks installed.

``python3 perfbench/serve_host.py FLUSH_DIR TIMERS [serve flags...]``
runs ``repro serve [serve flags...]`` in this process after installing
the counter hooks (and, with ``TIMERS`` = 1, the per-layer timers).
Forked pool workers inherit the hooks and flush their totals into
``FLUSH_DIR`` after every cell; the server flushes its own when it
exits.
"""

import sys

import layers


def main(argv):
    flush_dir, timers = argv[0], argv[1] == "1"
    from repro import cli
    from repro.serve.server import CampaignServer

    ledger = layers.Ledger()
    ledger.flush_dir = flush_dir
    layers.install(ledger)
    if timers:
        layers.install_timers(ledger)

    servers = []
    original_init = CampaignServer.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        servers.append(self)

    CampaignServer.__init__ = init
    try:
        return cli.main(["serve"] + list(argv[2:]))
    finally:
        counts = ledger.counts
        for server in servers:
            stats = server.cache.stats()
            counts["experiments.cache.hits"] += stats["hits"]
            counts["experiments.cache.write_errors"] += stats["write_errors"]
            for campaign in server.store.all():
                counts["experiments.journal.write_errors"] += (
                    campaign.journal.write_errors
                )
        ledger.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
