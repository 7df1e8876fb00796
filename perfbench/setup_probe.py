"""Set-up probe: a fresh process imports a workload's entry points,
builds its first ``System`` and prints ``ready``.

``python3 perfbench/setup_probe.py {cells|matrix|check}``; the parent
times it from launch to the ``ready`` line.
"""

import sys


def main(workload):
    from repro.config import MachineConfig
    from repro.machine import System

    if workload == "cells":
        from repro.experiments.configs import barrier_factory_for  # noqa: F401
        from repro.workloads import WorkloadRunner, get_model  # noqa: F401

        System(MachineConfig(n_nodes=16))
    elif workload == "matrix":
        from repro.experiments import run_matrix  # noqa: F401

        System(MachineConfig())
    elif workload == "check":
        from repro.check import explore  # noqa: F401

        System(MachineConfig(n_nodes=8))
    else:
        raise SystemExit("unknown workload {!r}".format(workload))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
