"""Which ``src/repro`` functions does the program's own traffic never call?

Runs a declared traffic list -- every entry point that CI, the
benchmark, the paper benches and the examples run -- with a call-level
``sys.settrace`` hook in every process, then prints each ``def`` under
``src/repro`` that none of them called, with its line count. A def
nested in an uncalled def is counted in its parent's lines, not listed.

Usage::

    python benchmarks/reach.py

It takes about 8 minutes on a 2-vCPU VM. The traffic:

* ``perfbench/run.py``'s four workloads at ``--seed 2 --seconds 1``,
  plain and with ``--trace 1``;
* the ``repro`` command lines of CI's chaos, check, resume, serve and
  fault smoke jobs (the servers are stopped with ``repro shutdown``);
* the 13 paper benches and ``bench_scaling.py``, under
  ``--benchmark-disable``;
* every script in ``examples/``.

The hook reaches every process through a throwaway virtual environment
whose ``site-packages`` holds a ``.pth`` file that installs it at
start-up, so children started with ``sys.executable`` (perfbench's
server, forked pool workers) record too, whatever ``PYTHONPATH`` they
are given. Three traps shape it:

* pytest-benchmark turns the hook off inside a timed body, so the
  benches run with ``--benchmark-disable``, which keeps it;
* forked pool workers leave through ``os._exit``, which skips
  ``atexit``, so the hook writes its record before that call;
* a SIGKILLed process records nothing, so no step kills one.

A step whose exit status differs from the one CI expects fails the run.
"""

import ast
import os
import re
import shutil
import signal
import subprocess
import sys
import sysconfig
import tempfile
import time
import urllib.request
import venv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")

#: The hook each traced process loads at start-up; ``{records}`` is the
#: directory it writes to and ``{prefix}`` the package it records.
HOOK = '''\
import atexit
import os
import sys
import threading

_seen = set()


def _hook(frame, event, arg):
    _seen.add(frame.f_code)


def _write():
    sys.settrace(None)
    threading.settrace(None)
    lines = sorted({{
        "{{}}\\t{{}}\\n".format(code.co_filename, code.co_firstlineno)
        for code in _seen if code.co_filename.startswith({prefix!r})
    }})
    path = os.path.join({records!r}, "{{}}.txt".format(os.getpid()))
    with open(path, "a") as fh:
        fh.writelines(lines)


def _exit(status, _exit=os._exit):
    _write()
    _exit(status)


atexit.register(_write)
os._exit = _exit
sys.settrace(_hook)
threading.settrace(_hook)
'''

PAPER_BENCHES = (
    "bench_figure3_fmm_bit.py", "bench_figure5_energy.py",
    "bench_figure6_time.py", "bench_table1_architecture.py",
    "bench_table2_imbalance.py", "bench_table3_sleep_states.py",
    "bench_ablation_cutoff.py", "bench_ablation_predictors.py",
    "bench_ablation_states.py", "bench_baseline_policies.py",
    "bench_ext_message_passing.py", "bench_ext_thrifty_lock.py",
    "bench_ext_timeshare.py", "bench_scaling.py",
)


class Traffic:
    """Runs traffic steps with the hook, in a scratch directory."""

    def __init__(self, work):
        self.work = work
        self.records = os.path.join(work, "records")
        os.makedirs(self.records)
        env_dir = os.path.join(work, "venv")
        venv.create(
            env_dir, system_site_packages=True, symlinks=True,
            with_pip=False,
        )
        site = sysconfig.get_path(
            "purelib", vars={"base": env_dir, "platbase": env_dir})
        with open(os.path.join(site, "_reach_hook.py"), "w") as fh:
            fh.write(HOOK.format(
                records=self.records, prefix=PACKAGE + os.sep))
        with open(os.path.join(site, "_reach_hook.pth"), "w") as fh:
            fh.write("import _reach_hook\n")
        self.python = os.path.join(env_dir, "bin", "python")

    def job(self, name):
        """Give the next steps their own scratch, cache and journal."""
        self.scratch = os.path.join(self.work, name)
        os.makedirs(self.scratch)
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            REPRO_CACHE_DIR=self.path("cache"),
            REPRO_JOURNAL_DIR=self.path("runs"),
        )

    def path(self, *names):
        return os.path.join(self.scratch, *names)

    def start(self, args, env=None, **kwargs):
        return subprocess.Popen(
            [self.python] + args, cwd=ROOT, env=dict(self.env, **(env or {})),
            **kwargs,
        )

    def run(self, args, expect=0, env=None, stdout=subprocess.DEVNULL):
        """Run one step to completion; its stdout when captured."""
        started = time.monotonic()
        process = self.start(args, env, stdout=stdout)
        out, _ = process.communicate()
        self.note(args, process.returncode, expect, started)
        return out

    def note(self, args, status, expect, started):
        print("{:6.1f}s  exit {}  {}".format(
            time.monotonic() - started, status, " ".join(args)),
            file=sys.stderr, flush=True)
        if status != expect and not (expect is None and status != 0):
            raise SystemExit("expected exit {}, got {}: {}".format(
                "non-zero" if expect is None else expect, status,
                " ".join(args)))

    def repro(self, *args, **kwargs):
        return self.run(["-m", "repro"] + list(args), **kwargs)

    def preempt(self, args, journal, env=None):
        """Start ``repro args``, SIGTERM it once ``journal`` exists, and
        expect the resumable exit."""
        started = time.monotonic()
        process = self.start(["-m", "repro"] + args, env,
                             stdout=subprocess.DEVNULL)
        while not os.path.exists(journal) and process.poll() is None:
            time.sleep(0.1)
        process.send_signal(signal.SIGTERM)
        self.note(args, process.wait(), 3, started)


def perfbench(t):
    t.job("perfbench")
    for workload in ("cells", "matrix", "serve", "check"):
        for trace in ("0", "1"):
            t.run(["perfbench/run.py", "--workload", workload, "--seed",
                   "2", "--seconds", "1", "--trace", trace])


def chaos_smoke(t):
    t.job("chaos")
    chaos = ["chaos", "--apps", "fmm", "--threads", "16", "--seed", "7",
             "--plans", "3"]
    t.repro(*chaos, "--workers", "1", "--json", t.path("chaos-w1.json"))
    t.repro(*chaos, "--workers", "2", "--json", t.path("chaos-w2.json"))
    t.repro(*chaos, "--workers", "2", "--run-id", "smoke", "--json",
            t.path("a.json"))
    t.repro(*chaos, "--workers", "2", "--resume", "smoke", "--json",
            t.path("b.json"))


def check_smoke(t):
    t.job("check")
    counterexample = t.path("counterexample.json")
    t.repro("check", "--schedules", "16", "--depth", "12")
    t.repro("check", "--schedules", "8", "--strategy", "random", "--seed",
            "7")
    t.repro("check", "--mutant", "racy-check-in", "--schedules", "16",
            "--depth", "12", "--counterexample", counterexample, expect=1)
    t.repro("check", "--replay", counterexample)


def resume_smoke(t):
    t.job("resume")
    figure5 = ["figure5", "--apps", "fmm", "ocean", "radix", "fft",
               "--threads", "16"]
    t.repro(*figure5, "--json", t.path("reference.json"),
            env={"REPRO_CACHE_DIR": t.path("ref-cache")})
    for run_id, workers in (("smoke", []), ("smoke-parallel", ["--workers",
                                                               "2"])):
        args = figure5 + workers
        env = {"REPRO_CACHE_DIR": t.path(run_id + "-cache")}
        t.preempt(args + ["--run-id", run_id],
                  t.path("runs", run_id, "journal.jsonl"), env)
        t.repro(*args, "--resume", run_id, "--json",
                t.path(run_id + ".json"), env=env)


def serve_smoke(t):
    t.job("serve")
    log = t.path("serve.log")
    started = time.monotonic()
    with open(log, "wb") as out:
        server = t.start(["-m", "repro", "serve", "--port", "0", "--pool",
                          "2"], stdout=out, stderr=subprocess.STDOUT)
    try:
        port = None
        while port is None:
            if server.poll() is not None:
                raise SystemExit(
                    "repro serve exited {}".format(server.returncode))
            with open(log) as fh:
                found = re.search(
                    r"listening on http://[^:]+:(\d+)", fh.read())
            port = found and found.group(1)
            time.sleep(0.1)
        url = "http://127.0.0.1:{}/pool".format(port)
        with urllib.request.urlopen(url) as response:
            response.read()
        address = ("--port", port)
        run1 = t.repro("submit", *address, "--apps", "fmm", "--threads",
                       "16", stdout=subprocess.PIPE).decode().strip()
        t.repro("results", run1, *address, "--json", t.path("run1.json"))
        run2 = t.repro("submit", *address, "--apps", "fmm", "ocean",
                       "radix", "--threads", "16",
                       stdout=subprocess.PIPE).decode().strip()
        t.repro("results", run2, *address, "--json", t.path("run2.json"))
        t.repro("status", run2, *address)
        t.repro("shutdown", *address)
        t.note(["-m", "repro", "serve"], server.wait(), 0, started)
    finally:
        if server.poll() is None:  # a step failed: stop it gracefully
            server.terminate()
            server.wait()


def fault_smoke(t):
    t.job("fault")
    figure5 = ["figure5", "--apps", "fmm", "--threads", "16", "--workers",
               "1"]
    journal, cache = t.env["REPRO_JOURNAL_DIR"], t.env["REPRO_CACHE_DIR"]
    t.repro(*figure5, "--json", t.path("reference.json"),
            env={"REPRO_CACHE_DIR": t.path("ref-cache")})
    t.repro(*figure5, "--run-id", "chaos", "--json", t.path("killed.json"),
            expect=None, env={"REPRO_STORAGE_FAULTS": (
                '{"name":"ci-smoke","seed":3,"torn_write_probability":0.35,'
                '"crash_at_fsync":10}')})
    fsck = ["fsck", "chaos", "--journal-dir", journal, "--cache-dir", cache]
    t.repro(*fsck, expect=1)
    t.repro(*fsck, "--repair")
    t.repro(*fsck)
    t.repro(*figure5, "--resume", "chaos", "--json", t.path("resumed.json"))


def paper_benches(t):
    t.job("benches")
    t.run(["-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--benchmark-disable"]
          + [os.path.join("benchmarks", name) for name in PAPER_BENCHES],
          env={"PYTHONPATH": t.env["PYTHONPATH"] + os.pathsep
               + os.path.join(ROOT, "benchmarks")})


def examples(t):
    t.job("examples")
    for name in sorted(os.listdir(os.path.join(ROOT, "examples"))):
        if name.endswith(".py"):
            t.run([os.path.join("examples", name)])


TRAFFIC = (
    perfbench, chaos_smoke, check_smoke, resume_smoke, serve_smoke,
    fault_smoke, paper_benches, examples,
)


def called(records):
    """``(filename, first line)`` of every code object any process ran."""
    seen = set()
    for name in os.listdir(records):
        with open(os.path.join(records, name)) as fh:
            for line in fh:
                filename, first = line.rstrip("\n").split("\t")
                seen.add((filename, int(first)))
    return seen


def uncalled(seen):
    """``(path, line, qualname, lines)`` of each outermost def under
    :data:`PACKAGE` whose code object never ran."""
    found = []

    def visit(node, filename, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, filename, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [
                    d.lineno for d in child.decorator_list])
                name = prefix + child.name
                if (filename, first) in seen:
                    visit(child, filename, name + ".<locals>.")
                else:
                    found.append((filename, child.lineno, name,
                                  child.end_lineno - first + 1))
            else:
                visit(child, filename, prefix)

    for directory, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(names):
            if name.endswith(".py"):
                filename = os.path.join(directory, name)
                with open(filename) as fh:
                    visit(ast.parse(fh.read()), filename, "")
    return found


def main():
    work = tempfile.mkdtemp(prefix="reach-")
    try:
        traffic = Traffic(work)
        for step in TRAFFIC:
            step(traffic)
        found = uncalled(called(traffic.records))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for filename, line, name, lines in found:
        print("{:5d}  {}:{}  {}".format(
            lines, os.path.relpath(filename, os.path.dirname(PACKAGE)),
            line, name))
    print("{} defs, {} lines never called".format(
        len(found), sum(lines for *_, lines in found)))


if __name__ == "__main__":
    main()
