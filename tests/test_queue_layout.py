"""The calendar queue's layout at 64 threads, pinned.

The golden corpus stops at 16 threads, so no invalidation fan-out in it
has more than 15 victims. These cells run at 64 threads, where a barrier
release fans 63 INVs out, under :class:`FifoTieBreaker`, which leaves
the default order untouched but records every choice point: the realized
arity trace is the number of live entries in each multi-entry bucket, so
its digest pins which events shared a timestamp, in what order they
were queued, and how many there were. ``executed`` pins the dequeue
count.

The values were recorded before the fan-out legs became plain queue
entries (they were one process per victim); a change to the coherence
or sync layers must reproduce them, not re-record them.
"""

import hashlib

import pytest

from repro.check.harness import run_schedule
from repro.check.tiebreak import FifoTieBreaker

#: (app, config) -> (sha256 of the comma-joined arity trace, choice
#: points, executed dequeues), at 64 threads and seed 1.
LAYOUTS = {
    ("fmm", "baseline"): (
        "d508f0e84ac58d4af8e6842baceb77e065239052e1b18d61a61a054c5e4aad8c",
        7071, 23773,
    ),
    ("fmm", "thrifty"): (
        "63ee800998370f3a4338e64e0ad8e7e13263de52b2c0313c1862a4f21dd96061",
        10235, 34508,
    ),
    ("radix", "thrifty-halt"): (
        "b0349a0bc37946fb6bc0f061957ee1d251aacb59b3c797199b309c97b05d3fc3",
        10047, 31210,
    ),
}


def arity_digest(arities):
    return hashlib.sha256(
        ",".join(map(str, arities)).encode("ascii")
    ).hexdigest()


@pytest.mark.parametrize(
    "app, config", sorted(LAYOUTS), ids=lambda value: str(value),
)
def test_layout_at_64_threads(app, config):
    digest, choice_points, executed = LAYOUTS[(app, config)]
    result = run_schedule(
        app, config, threads=64, seed=1, tie_breaker=FifoTieBreaker(),
    )
    assert result.ok
    assert set(result.decisions) == {0}
    assert len(result.arities) == choice_points
    assert arity_digest(result.arities) == digest
    assert result.executed == executed
