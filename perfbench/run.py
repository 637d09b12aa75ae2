"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``repro`` from ``src/``
and writes scratch files only under ``.perfbench_work/``.  The
workloads, their metrics and the layer each per-layer metric should
move are described in ``perfbench/README.md``; ``BENCHMARK.json`` at
the root lists the metrics this command must print.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it runs the workload untraced for half the time, then
installs the layer wrappers of :mod:`tracing` and runs it again for
the other half; it reports the per-layer metrics of the traced half
and the tracing overhead.  Every output is checked either way.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every check passed, 1 when an output was wrong, 2 when the
sources are missing and 3 when the printed metrics do not match
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: setup is measured this many times per run, each in a fresh process
SETUP_PROBES = 5

#: share of set-up time spent in interpreter-bound code (imports,
#: instance generation), for the host-speed samples
SETUP_LOOP_SHARE = 0.8


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="set the workload up, print 'ready' and exit (used to time "
        "set-up in a fresh process)",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# host fingerprint
# ----------------------------------------------------------------------
def fingerprint() -> dict[str, object]:
    import numpy

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# ----------------------------------------------------------------------
# peak RSS of this process and its descendants
# ----------------------------------------------------------------------
class RssSampler:
    """Samples the summed peak RSS (VmHWM) of this process tree.

    Pool workers and the daemon come and go, so the tree is polled;
    each process's own high-water mark covers the peaks between polls.
    Where ``/proc`` is missing, only this process's peak is known.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    @staticmethod
    def _children(pid: int) -> list[int]:
        out = []
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    out.extend(int(c) for c in fh.read().split())
        except OSError:
            pass
        return out

    @staticmethod
    def _hwm_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def sample(self) -> None:
        total, todo = 0, [os.getpid()]
        while todo:
            pid = todo.pop()
            total += self._hwm_kb(pid)
            todo.extend(self._children(pid))
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.peak_kb = max(self.peak_kb, total, own)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


# ----------------------------------------------------------------------
# set-up timing
# ----------------------------------------------------------------------
def probe_setup(args: argparse.Namespace, workdir: str) -> float:
    """Seconds from spawning a fresh interpreter to a workload set up."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload",
        args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--probe-setup",
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
    return elapsed


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
SOLVERS = ("greedy-min-fp", "local-search-min-fp", "anneal-min-fp",
           "exhaustive-one-pass")
LAYERS = ("service", "store", "graph", "sweeps", "solve", "bulk", "enum",
          "scalar", "sim")


def layer_metrics(merged: dict, context: dict) -> dict[str, tuple]:
    """Per-layer figures of a traced run, as ``name -> (value, unit)``."""
    calls = merged["calls"]
    counters = merged["counters"]

    def n(name: str) -> int:
        return calls.get(name, [0, 0])[0]

    def busy(name: str) -> float:
        return calls.get(name, [0, 0])[1] / 1e9

    def per_call_ms(name: str) -> float:
        return busy(name) / n(name) * 1e3 if n(name) else 0.0

    def share(a: float, b: float) -> float:
        return a / b if b else 0.0

    ops = context.get("operations", 0)
    out: dict[str, tuple] = {}
    for name, value in context.get("service", {}).items():
        unit = "count" if name in ("service.rejected", "store.records") else (
            "ratio" if name.endswith("ratio") else "ms")
        out[name] = (value, unit)
    for name in ("service.queue_wait_ms", "service.worker_ms",
                 "service.transport_ms", "service.lateness_ms"):
        out.setdefault(name, (0.0, "ms"))
    out.setdefault("service.rejected", (0, "count"))
    out.setdefault("store.hit_ratio", (0.0, "ratio"))
    out.setdefault("store.records", (0, "count"))
    out["store.get_ms"] = (per_call_ms("store.get"), "ms")
    out["store.put_ms"] = (per_call_ms("store.put"), "ms")

    out["graph.pool_start_ms"] = (per_call_ms("graph.pool_start"), "ms")
    out["graph.worker_init_ms"] = (per_call_ms("graph.worker_init"), "ms")
    out["graph.worker_busy_share"] = (
        share(busy("graph.task"),
              context.get("workers", 1) * context.get("sweep_wall", 0.0)),
        "ratio",
    )
    out["sweeps.compile_ms"] = (share(busy("sweeps.compile"), ops) * 1e3,
                                "ms")
    out["sweeps.term_warmup_ms"] = (
        share(busy("sweeps.term_warmup"), ops) * 1e3, "ms")

    solve_names = [k for k in calls if k.startswith("solve.")
                   and k != "solve.anneal-loop"]
    out["solve.calls"] = (sum(n(k) for k in solve_names), "count")
    out["solve.busy_s"] = (sum(busy(k) for k in solve_names), "s")
    for solver in SOLVERS:
        out[f"solve.{solver}.calls"] = (n(f"solve.{solver}"), "count")
        out[f"solve.{solver}.busy_s"] = (busy(f"solve.{solver}"), "s")
    out["anneal.proposals_per_s"] = (
        share(counters.get("anneal.proposals", 0),
              counters.get("anneal.busy_ns", 0) / 1e9), "1/s")

    rows = counters.get("bulk.rows", 0)
    out["bulk.calls"] = (n("bulk.evaluate_block"), "count")
    out["bulk.rows"] = (rows, "count")
    out["bulk.busy_s"] = (busy("bulk.evaluate_block"), "s")
    out["bulk.rows_per_s"] = (share(rows, busy("bulk.evaluate_block")),
                              "1/s")
    out["bulk.bytes_in"] = (counters.get("bulk.bytes_in", 0), "B")
    out["enum.blocks"] = (n("enum.block"), "count")
    out["enum.busy_s"] = (busy("enum.block"), "s")

    out["scalar.calls"] = (n("scalar.eval"), "count")
    out["scalar.busy_s"] = (busy("scalar.eval"), "s")
    hits = counters.get("cache.hits", 0)
    out["cache.hit_ratio"] = (
        share(hits, hits + counters.get("cache.misses", 0)), "ratio")
    out["confirm.ratio"] = (
        share(counters.get("confirm.scalar", 0),
              counters.get("confirm.rows", 0)), "ratio")

    out["sim.events"] = (n("sim.step"), "count")
    out["sim.resolve.calls"] = (n("sim.resolve"), "count")
    out["sim.resolve_s"] = (busy("sim.resolve"), "s")
    out["sim.loop_s"] = (
        max(context.get("sim_wall", 0.0) - busy("sim.resolve"), 0.0)
        if context.get("sim_wall") else 0.0, "s")

    for layer in LAYERS:
        out[f"self.{layer}_s"] = (merged["self_ns"].get(layer, 0) / 1e9, "s")
    return out


def cost_per_work(report) -> float:
    """Time per unit of work: the figure the tracing overhead compares."""
    return 1.0 / report.metrics["ref_work_per_s"].value


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def declared() -> dict | None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def emit(report, metrics: dict[str, tuple], extra: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    for line in report.notes:
        print(f"note {line}")
    for message in report.errors[:20]:
        print(f"failure {message}")
    for message in report.wrong[:20]:
        print(f"WRONG {message}")
    for name, (value, unit, samples, note) in sorted(metrics.items()):
        tag = f" [{note}]" if note else ""
        count = f" (n={samples})" if samples is not None else ""
        print(f"metric {name} = {value:.6g} {unit}{count}{tag}")
    print(json.dumps({"extra": extra}, sort_keys=True))
    return {
        "correct": not report.wrong,
        "attempted": max(report.attempted, 1),
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in sorted(metrics.items())},
    }


def main(argv: list[str]) -> int:
    # SIGTERM unwinds like an exception, so the daemon is stopped and the
    # scratch directory removed on the way out; forked pool workers keep
    # the default action, which their pool's terminate() relies on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(".perfbench_work", str(os.getpid()))
    os.makedirs(os.path.join(ROOT, workdir), exist_ok=True)
    try:
        if args.probe_setup:
            workload = workloads.WORKLOADS[args.workload](args.seed, ROOT,
                                                          workdir)
            print("ready", flush=True)
            workload.close()
            return 0
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)


def run(args: argparse.Namespace, workloads, workdir: str) -> int:
    spec = declared()
    import hostspeed

    setups, rescaled = [], []
    speed = hostspeed.sample(SETUP_LOOP_SHARE, every_cpu=True)
    for _ in range(SETUP_PROBES):
        setups.append(probe_setup(args, workdir))
        after = hostspeed.sample(SETUP_LOOP_SHARE, every_cpu=True)
        rescaled.append(hostspeed.rescale(setups[-1], speed, after))
        speed = after
    report = workloads.Report()
    with RssSampler() as rss:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT,
                                                      workdir)
        try:
            if not args.trace:
                measured = workload.run(args.seconds, report)
            else:
                half = args.seconds / 2
                base = workloads.Report()
                workload.finish(workload.run(half, base), base)
                trace_dir = os.path.join(ROOT, workdir, "trace")
                os.makedirs(trace_dir)
                import tracing

                tracer = tracing.install(trace_dir)
                if isinstance(workload, workloads.ServiceWorkload):
                    workload.restart(trace_dir)
                measured = workload.run(half, report)
        finally:
            workload.close()
    if args.trace:
        merged = tracing.load(trace_dir, own=tracer)
    workload.finish(measured, report)
    if args.trace:
        report.attempted += base.attempted
        report.failed += base.failed
        report.wrong += base.wrong
        report.errors += base.errors
        context = trace_context(workload, measured, workloads)
        before, after = cost_per_work(base), cost_per_work(report)
        figures = layer_metrics(merged, context)
        figures["trace.overhead_pct"] = (100.0 * (after / before - 1), "%")
        metrics = {k: (v, u, None, "") for k, (v, u) in figures.items()}
    else:
        metrics = {k: (m.value, m.unit, m.samples, m.note)
                   for k, m in report.metrics.items()}
        metrics["setup_s"] = (
            statistics.median(rescaled), "s", len(rescaled),
            "median of fresh-process set-ups at the reference speed")
        report.notes.append(
            f"set-up wall-clock median {statistics.median(setups):.6f} s "
            f"(n={len(setups)})")
        metrics["peak_rss_mb"] = (rss.peak_kb / 1024.0, "MB", None,
                                  "process tree")
        metrics["ok_ratio"] = (
            1.0 - report.failed / max(report.attempted, 1), "ratio",
            report.attempted, f"failed={report.failed}")
    extra = {"workload": args.workload, "seed": args.seed,
             "trace": args.trace, "host": fingerprint()}
    result = emit(report, metrics, extra)
    print(json.dumps(result, sort_keys=True))
    if spec is not None:
        key = "per_layer" if args.trace else "end_to_end"
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if wanted != got:
            print(f"error: metrics differ from BENCHMARK.json {key}: "
                  f"missing {sorted(set(wanted) - set(got))}, "
                  f"extra {sorted(set(got) - set(wanted))}, units "
                  f"{sorted(k for k in wanted if k in got and wanted[k] != got[k])}",
                  file=sys.stderr)
            return 3
    return 0 if result["correct"] else 1


def trace_context(workload, measured: dict, workloads) -> dict:
    """What the per-layer figures are normalised by."""
    if isinstance(workload, workloads.ServiceWorkload):
        return {"service": workload.service_layers(measured)}
    walls = sum(r[3] for r in measured["runs"])
    if isinstance(workload, workloads.FrontierWorkload):
        return {"operations": len(measured["runs"]), "sweep_wall": walls,
                "workers": workload.workers or 1}
    return {"operations": len(measured["runs"]), "sim_wall": walls}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
