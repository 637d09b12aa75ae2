"""The benchmark's workloads, their output checks and their metrics.

Each workload turns ``--seed`` into its inputs, drives the public
surface (``repro.api``, the ``repro serve`` daemon through
``repro.service.ServiceClient``) for a fixed number of seconds, checks
every output, and reports the same end-to-end metrics:

* ``ref_work_per_s`` — grid points, simulated items or daemon
  requests per second at the reference host speed: each operation's
  wall time is divided by the host's slowdown sampled right before and
  after it (:mod:`hostspeed`), and each distinct operation counts with
  the mean of its repeats;
* ``slo_ratio`` — share of operations (a sweep from spec to its last
  cell, a request from its due time to its ``done`` event, a
  simulation run) that succeed within the workload's latency limit,
  their latencies rescaled to the reference speed the same way;
* ``fp_ratio`` — geometric mean, over feasible answers, of the answer's
  failure probability divided by that of the best single-interval
  mapping under the same threshold (lower is better; the ratio, unlike
  the raw probability, does not swing by orders of magnitude between
  seeds);
* ``completed_ratio`` — feasible grid points, successful outcomes or
  completed items over all of them (deterministic for a seed);
* ``ok_ratio`` — ``1 - failed / attempted``.

All library knobs stay at their defaults (bulk backend ``auto``,
default shards, ``shared_cache``, daemon settings), so the numbers are
the ones users get.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import hostspeed
from repro import api
from repro.analysis.frontier import latency_grid
from repro.core.metrics import failure_probability, latency
from repro.core.metrics_bulk import BULK_RELATIVE_TOLERANCE
from repro.core.serialization import mapping_from_dict
from repro.service import ServiceClient
from repro.service.protocol import ServiceError

NPROC = os.cpu_count() or 1
HERE = os.path.dirname(os.path.abspath(__file__))

#: outcome kinds that are verdicts about the instance, not failures
ANSWERS = ("infeasible", "unsupported")

#: requests/s the daemon completes in the service workload's closed
#: loop at the reference speed (``ref_work_per_s`` of
#: ``service-mixed``), measured on the 2-core x86-64 host the benchmark
#: was defined on (numpy backend, no numba); it sizes the closed-loop
#: batches, so change it only in a change of its own
SERVICE_CAPACITY = 110.0

#: open-loop arrival rate (requests/s at the reference speed) of the
#: service workload, about half of ``SERVICE_CAPACITY``
SERVICE_RATE = 33.0


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Report:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def failure(self, message: str) -> None:
        """An operation that crashed, timed out or was refused."""
        self.failed += 1
        self.errors.append(message)

    def incorrect(self, message: str) -> None:
        """An output that failed a check."""
        self.failed += 1
        self.wrong.append(message)

    def set(self, name: str, value: float, unit: str, samples: int,
            note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, samples, note)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(ordered: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  A sample too small to have one
    above the median reports the median.
    """
    n = len(ordered)
    rank = max(n - 10, math.ceil(n / 2), 1)
    return ordered[rank - 1], 100.0 * rank / n


def latency_metrics(report: Report, seconds: list[float], attempted: int,
                    limit: float) -> None:
    """``slo_ratio`` of operation latencies; median and tail as notes.

    ``seconds`` holds the latencies, rescaled to the reference speed,
    of the operations that succeeded.  ``slo_ratio`` is the share of
    the ``attempted`` operations that succeeded within ``limit``
    seconds; a failed one misses it.  The median and the tail are
    printed, not gated: on a shared 2-core host they moved by more than
    any allowed bound between runs (see README.md), while the share
    within a limit set well above the median does not.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    within = sum(1 for s in ordered if s <= limit)
    report.set("slo_ratio", within / max(attempted, 1), "ratio", attempted,
               f"limit {limit * 1e3:g} ms")
    if not ordered:
        return
    value, pct = tail(ordered)
    what = ("the highest percentile with ten samples beyond it" if n >= 20
            else "the median: too few operations for a tail")
    report.notes.append(
        f"latency at the reference speed p50="
        f"{percentile(ordered, 50) * 1e3:.3f} ms "
        f"tail p{pct:.1f}={value * 1e3:.3f} ms (n={n}, tail is {what})"
    )


def reference_rate(runs: list[tuple[Any, float, float]]) -> float:
    """Work per second over the distinct operations of a run.

    ``runs`` holds ``(identity, work, seconds)``; a workload cycles
    through a fixed set of operations, so most run several times, and
    a run may end partway through a cycle.  Each distinct operation
    counts with the mean work and the mean seconds of its repeats, so
    the operations weigh the same in every run, and summing both over
    the operations weighs each by its size.  A failed operation does
    work 0.
    """
    repeats: dict[Any, list[tuple[float, float]]] = {}
    for key, work, seconds in runs:
        repeats.setdefault(key, []).append((work, seconds))
    work = sum(statistics.fmean(w for w, _ in r) for r in repeats.values())
    seconds = sum(statistics.fmean(s for _, s in r)
                  for r in repeats.values())
    return work / seconds


def rate_metrics(report: Report,
                 runs: list[tuple[Any, float, float, float]], what: str
                 ) -> None:
    """Set ``ref_work_per_s`` of ``(identity, work, wall, rescaled)``
    runs; the wall-clock rate is printed, not gated."""
    report.set("ref_work_per_s",
               reference_rate([(k, w, r) for k, w, _, r in runs]), "1/s",
               len(runs), f"{what} per second at the reference speed")
    wall = reference_rate([(k, w, s) for k, w, s, _ in runs])
    slowdown = (sum(s for _, _, s, _ in runs)
                / max(sum(r for _, _, _, r in runs), 1e-12))
    report.notes.append(
        f"wall-clock rate {wall:.6g} {what}/s, host slowdown against the "
        f"reference {slowdown:.3f} (n={len(runs)})"
    )


def first_result_note(report: Report, firsts: list[float], what: str
                      ) -> None:
    """Print the median time to an operation's first streamed result."""
    ordered = sorted(firsts)
    if ordered:
        report.notes.append(
            f"first result p50={percentile(ordered, 50):.6f} s "
            f"(n={len(ordered)}, {what})"
        )


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= BULK_RELATIVE_TOLERANCE * max(abs(a), abs(b)) + 1e-300


def check_answer(app, plat, mapping, lat: float, fp: float,
                 threshold: float | None) -> str | None:
    """Re-evaluate a reported mapping with the scalar eqs. (1)/(2)."""
    scalar_lat = latency(mapping, app, plat)
    scalar_fp = failure_probability(mapping, plat)
    if not close(lat, scalar_lat):
        return f"latency {lat!r} != scalar {scalar_lat!r}"
    if not close(fp, scalar_fp):
        return f"failure probability {fp!r} != scalar {scalar_fp!r}"
    if threshold is not None and scalar_lat > threshold * (
        1 + BULK_RELATIVE_TOLERANCE
    ):
        return f"latency {scalar_lat!r} exceeds threshold {threshold!r}"
    return None


class Baselines:
    """Best single-interval failure probability per (instance, threshold).

    Computed after the timed phase, only for the ``fp_ratio`` metric.
    """

    def __init__(self) -> None:
        self._cache: dict[Any, float | None] = {}

    def fp(self, key: Any, app, plat, threshold: float) -> float | None:
        if key not in self._cache:
            try:
                result = api.solve(
                    "single-interval-min-fp", app, plat, threshold=threshold
                )
                self._cache[key] = result.failure_probability
            except api.ReproError:
                self._cache[key] = None
        return self._cache[key]


def ratio(fp: float, base: float | None) -> float | None:
    if base is None or base <= 0 or fp <= 0:
        return None
    return fp / base


# ----------------------------------------------------------------------
# frontier sweeps
# ----------------------------------------------------------------------
def _sweep_plan(seed: int, k: int, heuristic: bool) -> dict[str, Any]:
    """The ``k``-th distinct plan of a seed.

    Heuristic plans hold an instance pair each, the same for every seed:
    the seed drives the solvers' randomness.  How long the heuristics
    take depends on the instance, and over four seeded pairs it moved a
    run's points/s by 30% between seeds.  Exact plans hold one seeded
    n=6, m=6 instance each, so every exact sweep does the same amount
    of enumeration.
    """
    base = seed * 1000
    if heuristic:
        instances = [
            {"scenario": "failure-mix", "seed": 2 * k,
             "params": {"stages": 32, "num_processors": 10}},
            {"scenario": "edge-hub-cloud", "seed": 2 * k + 1,
             "params": {"stages": 24}},
        ]
        return {"schema": 1, "kind": "sweep", "instances": instances,
                "solvers": ["greedy-min-fp", "local-search-min-fp",
                            "anneal-min-fp"],
                "grid": {"num_points": 8}, "warm_start": "chain"}
    instance = {"scenario": "edge-hub-cloud", "seed": base + k,
                "params": {"stages": 6, "num_edge": 2, "num_hub": 2,
                           "num_cloud": 2}}
    return {"schema": 1, "kind": "sweep", "instances": [instance],
            "solvers": ["exhaustive-min-fp"], "grid": {"num_points": 8}}


class FrontierWorkload:
    """One caller sweeping plans back to back (closed loop).

    ``frontier-heuristic`` runs chained heuristic grids over a worker
    pool of ``nproc`` processes; ``frontier-exact`` runs exhaustive
    one-pass grids serially.  The plans cycle, four heuristic ones
    (0.7-1.5 s each) or 24 exact ones (0.2-0.4 s each), so a 20 s run
    repeats each two to six times; a repeated plan must reproduce its
    first results exactly.  Exact plans are many because their
    ``fp_ratio`` depends on the instances: over twelve of them it
    spread by 8% of its median across ten seeds.
    """

    def __init__(self, seed: int, heuristic: bool) -> None:
        self.seed = seed
        self.heuristic = heuristic
        self.workers = NPROC if self.heuristic else None
        #: latency limit of one sweep at the reference speed, about 2.5
        #: times its usual time
        self.limit = 4.0 if self.heuristic else 1.25
        #: share of the time spent in interpreter-bound code: heuristic
        #: loops and scalar evaluations, or bulk numpy blocks (~80% of
        #: an exact sweep)
        self.loop_share = 0.8 if self.heuristic else 0.2
        #: heuristic sweeps compute in pool workers on every CPU, exact
        #: ones in this thread (and its numpy shard threads)
        self.every_cpu = self.heuristic

    def plan(self, k: int) -> tuple[int, dict[str, Any]]:
        """``(identity, spec)`` of the ``k``-th sweep."""
        k %= 4 if self.heuristic else 24
        return k, _sweep_plan(self.seed, k, self.heuristic)

    def close(self) -> None:
        pass

    def run(self, seconds: float, report: Report) -> dict[str, Any]:
        runs: list[tuple[int, Any, list[Any], float, float, float]] = []
        start = time.perf_counter()
        speed = hostspeed.sample(self.loop_share, self.every_cpu)
        k = 0
        while time.perf_counter() - start < seconds:
            index, spec = self.plan(k)
            t0 = time.perf_counter()
            first = None
            cells = []
            try:
                plan = api.load_spec(spec)
                for cell in api.iter_sweep(
                    plan, workers=self.workers, seed=self.seed,
                    in_order=False,
                ):
                    if first is None:
                        first = time.perf_counter() - t0
                    cells.append(cell)
            except api.ReproError as exc:
                report.failure(f"sweep {index}: {exc}")
                plan = None
            wall = time.perf_counter() - t0
            after = hostspeed.sample(self.loop_share, self.every_cpu)
            runs.append((index, plan, cells, wall, first or 0.0,
                         hostspeed.rescale(wall, speed, after)))
            speed = after
            k += 1
        return {"runs": runs}

    def finish(self, measured: dict[str, Any], report: Report) -> None:
        runs = measured["runs"]
        baselines = Baselines()
        ratios: list[float] = []
        # quality counts each plan once, however often the loop repeated it
        points = distinct = feasible = 0
        seen: dict[int, list[Any]] = {}
        for index, plan, cells, *_ in runs:
            if plan is None:
                continue
            first_run = index not in seen
            instances = {inst.tag: inst for inst in plan.instances}
            signature = []
            for cell in sorted(cells, key=lambda c: (c.instance_tag,
                                                     c.solver)):
                inst = instances[cell.instance_tag]
                fps = []
                for threshold, outcome in zip(cell.thresholds,
                                              cell.outcomes):
                    report.attempted += 1
                    points += 1
                    distinct += first_run
                    where = (f"{cell.instance_tag} {cell.solver} "
                             f"threshold={threshold:g}")
                    if not outcome.ok:
                        kind = outcome.error_kind.value
                        signature.append((where, kind))
                        fps.append(None)
                        if kind not in ANSWERS:
                            report.failure(f"{where}: {outcome.error}")
                        continue
                    result = outcome.result
                    signature.append(
                        (where, result.latency, result.failure_probability)
                    )
                    fps.append(result.failure_probability)
                    problem = check_answer(
                        inst.application, inst.platform, result.mapping,
                        result.latency, result.failure_probability,
                        threshold,
                    )
                    if problem:
                        report.incorrect(f"{where}: {problem}")
                        continue
                    if not first_run:
                        continue
                    feasible += 1
                    r = ratio(
                        result.failure_probability,
                        baselines.fp((cell.instance_tag, threshold),
                                     inst.application, inst.platform,
                                     threshold),
                    )
                    if r is not None:
                        ratios.append(r)
                if not self.heuristic:
                    _check_monotone(cell, fps, report)
            if not first_run:
                if signature != seen[index]:
                    report.incorrect(
                        f"plan {index} gave different results when repeated"
                    )
            else:
                seen[index] = signature
        rate_metrics(report, [(r[0], sum(len(c.outcomes) for c in r[2]),
                               r[3], r[5]) for r in runs], "grid points")
        latency_metrics(report, [r[5] for r in runs if r[1] is not None],
                        len(runs), self.limit)
        first_result_note(report, [r[4] for r in runs],
                          "first cell of iter_sweep(in_order=False)")
        report.set("fp_ratio", geomean(ratios), "ratio", len(ratios))
        report.set("completed_ratio", feasible / max(distinct, 1), "ratio",
                   distinct)
        report.notes.append(
            f"sweeps={len(runs)} distinct_plans={len(seen)} "
            f"points={points} workers={self.workers or 1}"
        )


def _check_monotone(cell, fps: list[float | None], report: Report) -> None:
    """Exact min-FP must not increase as the latency threshold grows."""
    order = sorted(range(len(fps)), key=lambda i: cell.thresholds[i])
    previous = None
    for i in order:
        fp = fps[i]
        if fp is None:
            if previous is not None:
                report.incorrect(
                    f"{cell.instance_tag}: infeasible at threshold "
                    f"{cell.thresholds[i]:g} above a feasible one"
                )
            continue
        if previous is not None and fp > previous * (
            1 + BULK_RELATIVE_TOLERANCE
        ):
            report.incorrect(
                f"{cell.instance_tag}: exact min-FP rose from {previous!r} "
                f"to {fp!r} at threshold {cell.thresholds[i]:g}"
            )
        previous = fp


# ----------------------------------------------------------------------
# churn simulation
# ----------------------------------------------------------------------
class ChurnWorkload:
    """One caller running long churn simulations back to back.

    Twelve specs, on twelve fixed churn-pool platforms with seeded
    arrivals and failures, cycle, so each is run more than once and its
    event log must hash the same every time.  Items arrive at half the rate a
    mapping meeting the threshold can serve (its period is at most its
    latency), so queues stay short and a run's cost does not hinge on
    how close one instance comes to saturation.
    """

    ITEMS = 20000
    #: latency limit of one simulation at the reference speed, about 2.5
    #: times its usual time
    LIMIT = 2.5
    #: share of the time spent in interpreter-bound code (the
    #: discrete-event loop and greedy re-solves)
    LOOP_SHARE = 0.8

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = []
        for k in range(12):
            # the platforms are the same for every seed and the arrival
            # trace and failure timeline are drawn from it: a mapping's
            # shape sets the events per item, and over twelve seeded
            # platforms it still moved a run's items/s by 30%
            instance = {"scenario": "churn-pool", "seed": k,
                        "params": {"stages": 8, "num_processors": 12}}
            inst = api.SweepInstance.from_spec(instance, 0)
            threshold = latency_grid(inst.application, inst.platform,
                                     num_points=5)[2]
            self.specs.append({
                "schema": 1, "kind": "simulation", "instance": instance,
                "solver": "greedy-min-fp", "threshold": threshold,
                "policy": "resolve-warm",
                "trace": {"kind": "poisson", "items": self.ITEMS,
                          "rate": 0.5 / threshold},
                "failures": {"model": "iid",
                             "params": {"repair": 50.0 * threshold}},
                "seed": seed * 1000 + k,
            })

    def close(self) -> None:
        pass

    def run(self, seconds: float, report: Report) -> dict[str, Any]:
        runs = []
        start = time.perf_counter()
        speed = hostspeed.sample(self.LOOP_SHARE)
        k = 0
        while time.perf_counter() - start < seconds:
            index = k % len(self.specs)
            t0 = time.perf_counter()
            first = None
            epochs = []
            result = None
            try:
                spec = api.load_spec(self.specs[index])
                for event in api.iter_simulation(spec):
                    if first is None:
                        first = time.perf_counter() - t0
                    if isinstance(event, api.SimulationResult):
                        result = event
                    else:
                        epochs.append(event)
            except api.ReproError as exc:
                report.failure(f"simulation {index}: {exc}")
            wall = time.perf_counter() - t0
            after = hostspeed.sample(self.LOOP_SHARE)
            runs.append((index, result, epochs, wall, first or 0.0,
                         hostspeed.rescale(wall, speed, after)))
            speed = after
            k += 1
        return {"runs": runs}

    def finish(self, measured: dict[str, Any], report: Report) -> None:
        runs = measured["runs"]
        digests: dict[int, str] = {}
        baselines = Baselines()
        ratios: list[float] = []
        items = completed = 0
        for index, result, epochs, *_ in runs:
            report.attempted += 1
            if result is None:
                continue
            items += result.items_total
            completed += result.items_completed
            if result.items_completed + result.items_lost != result.items_total:
                report.incorrect(
                    f"simulation {index}: completed {result.items_completed}"
                    f" + lost {result.items_lost} != {result.items_total}"
                )
            digest = hashlib.sha256(
                json.dumps([dict(e) for e in result.event_log],
                           sort_keys=True).encode()
            ).hexdigest()
            if digests.setdefault(index, digest) != digest:
                report.incorrect(
                    f"simulation {index}: event log differs between runs"
                )
                continue
            if result is not runs[[r[0] for r in runs].index(index)][1]:
                continue  # quality is measured on each spec's first run
            self._check_epochs(index, result, epochs, baselines, ratios,
                               report)
        rate_metrics(report, [(r[0], r[1].items_total if r[1] else 0, r[3],
                               r[5]) for r in runs], "items")
        latency_metrics(report, [r[5] for r in runs if r[1] is not None],
                        len(runs), self.LIMIT)
        first_result_note(report, [r[4] for r in runs], "first epoch")
        report.set("fp_ratio", geomean(ratios), "ratio", len(ratios))
        report.set("completed_ratio", completed / max(items, 1), "ratio",
                   items)
        report.notes.append(
            f"simulations={len(runs)} items={items} completed={completed}"
        )

    def _check_epochs(self, index, result, epochs, baselines, ratios,
                      report) -> None:
        """Check every live epoch's mapping; rate the initial one.

        ``fp_ratio`` uses the initial mapping only: how good a re-solve
        on a depleted platform can be varies so much between instances
        that one bad epoch doubled a run's ratio.
        """
        spec = self.specs[index]
        inst = api.SweepInstance.from_spec(spec["instance"], 0)
        app, plat = inst.application, inst.platform
        threshold = spec["threshold"]
        for epoch in epochs:
            if epoch.down or not epoch.mapping:
                continue
            feasible = not epoch.fell_back
            problem = check_answer(
                app, plat, mapping_from_dict(epoch.mapping),
                epoch.analytic_latency, epoch.analytic_fp,
                threshold if feasible else None,
            )
            if problem:
                report.incorrect(
                    f"simulation {index} epoch {epoch.index}: {problem}"
                )
        initial = epochs[0] if epochs else None
        if initial is not None and initial.mapping and not initial.down:
            r = ratio(initial.analytic_fp,
                      baselines.fp(index, app, plat, threshold))
            if r is not None:
                ratios.append(r)


# ----------------------------------------------------------------------
# the solve daemon
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` subprocess with default settings and a fresh store.

    Started through :mod:`daemon` so a traced run can install the layer
    wrappers inside it.  Socket and store live in ``workdir`` (relative
    to the checkout root, which keeps the socket path short).
    """

    def __init__(self, root: str, workdir: str, tag: str,
                 trace_dir: str | None = None) -> None:
        self.root = root
        self.socket = os.path.join(workdir, f"{tag}.sock")
        store = os.path.join(workdir, f"{tag}.sqlite")
        for stale in (self.socket, store, f"{store}-wal", f"{store}-shm"):
            if os.path.exists(os.path.join(root, stale)):
                os.remove(os.path.join(root, stale))
        command = [sys.executable, os.path.join(HERE, "daemon.py")]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        command += ["--", "serve", "--socket", self.socket, "--store", store]
        self.proc = subprocess.Popen(
            command, cwd=root, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        line = self._readline(timeout=120.0)
        if not line or json.loads(line).get("event") != "serving":
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")

    def _readline(self, timeout: float) -> str:
        box: list[str] = []
        reader = threading.Thread(
            target=lambda: box.append(self.proc.stdout.readline())
        )
        reader.start()
        reader.join(timeout)
        return box[0] if box else ""

    def client(self) -> ServiceClient:
        # a relative path: Unix socket paths are limited to ~100 bytes,
        # and a checkout may live deep in the file system
        return ServiceClient(
            os.path.relpath(os.path.join(self.root, self.socket)),
            timeout=60.0,
        )

    def stop(self) -> None:
        """SIGTERM drain, then wait for the process to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class ServiceWorkload:
    """A ``repro serve`` daemon under an open-loop and a closed-loop phase.

    About 80% of the requests are single ``greedy-min-fp`` solves and 20%
    small sweeps, over a Zipf-distributed key space of edge-hub-cloud
    instances, so most lookups hit the store and the rest solve and
    write.  Requests go out from one process over at most ``nproc``
    connections, in three phases:

    * warm-up: ``WARMUP`` requests sent back to back fill the fresh
      store with the popular keys, as a long-lived daemon's store would
      hold them; checked, not timed;
    * open loop, the first half of the run: seeded Poisson arrivals at
      ``SERVICE_RATE``, each request timed from its due time, so a stalled
      sender counts against the requests queued behind it
      (``slo_ratio``, the latency notes, the service per-layer figures).
      It runs in ``SEGMENTS`` parts; the host's slowdown is sampled
      between them (:mod:`hostspeed`), the gaps between arrivals of a
      part stretch by the slowdown sampled before it, so the daemon
      carries the same share of its capacity whatever the host's
      speed, and latencies are rescaled to the reference speed;
    * closed loop, the second half: ``ROUNDS`` fixed batches, each sent
      back to back over a cold key space of its own with the same
      shape, so the first lookup of each key misses, solves and writes
      while later ones hit.  ``ref_work_per_s`` is the batches'
      requests per second at the reference speed: a slower read or
      write path lowers it.  The batches hold as many requests as the
      daemon completes in half a run at the reference speed, so every
      seed asks for the same work.
    """

    KEYS = 100
    WARMUP = 300
    ROUNDS = 8
    #: keys of each closed-loop batch's own key space
    ROUND_KEYS = 25
    SEGMENTS = 4
    #: host-speed samples averaged between two parts of the open loop
    #: or two batches of the closed loop
    GAP_SAMPLES = 2
    SOLVER = "greedy-min-fp"
    #: request latency limit for ``slo_ratio`` at the reference speed:
    #: store hits and most requests queued behind one make it, fresh
    #: solves do not, so the share mostly counts hits; the daemon's
    #: speed shows in ``ref_work_per_s``
    LIMIT = 0.02
    #: share of the time spent in interpreter-bound code (request
    #: handling, greedy solves, store access)
    LOOP_SHARE = 0.8

    def __init__(self, seed: int, root: str, workdir: str) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        # keys [0, KEYS) serve the warm-up and the open loop, keys
        # KEYS + [r * ROUND_KEYS, (r + 1) * ROUND_KEYS) closed-loop round r
        self.instances = []
        for i in range(self.KEYS + self.ROUNDS * self.ROUND_KEYS):
            spec = {"scenario": "edge-hub-cloud", "seed": seed * 1000 + i,
                    "params": {"stages": 6}}
            inst = api.SweepInstance.from_spec(spec, 0)
            grid = latency_grid(inst.application, inst.platform,
                                num_points=4)
            self.instances.append((spec, inst, grid))
        # popularity ranking within a key space of each size,
        # Zipf-weighted below
        self.rankings = {}
        for size in (self.KEYS, self.ROUND_KEYS):
            self.rankings[size] = list(range(size))
            random.Random(f"perfbench-service-{seed}-{size}").shuffle(
                self.rankings[size])
        self.daemons = 0
        self.daemon = self._start(None)

    def _start(self, trace_dir: str | None) -> Daemon:
        self.daemons += 1
        return Daemon(self.root, self.workdir, f"d{self.daemons}",
                      trace_dir)

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def schedule(self, count: int, seconds: float, stream: str,
                 space: tuple[int, int] = (0, KEYS)
                 ) -> list[tuple[float, str, int, int]]:
        """``count`` arrivals ``(due, kind, key, threshold index)``.

        Given their number, the arrival times of a Poisson process are
        independent and uniform over the window, so drawing exactly
        ``count`` of them keeps the offered load equal for every seed.
        The kinds, the Zipf-distributed keys and the thresholds are
        stratified the same way: seeds change the instances and the
        order of requests, not the mix.  ``space`` is the key space,
        ``(first key, number of keys)``.
        """
        offset, size = space
        rng = random.Random(f"perfbench-service-{self.seed}-{stream}")
        times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        sweeps = round(0.2 * count)
        kinds = ["sweep"] * sweeps + ["solve"] * (count - sweeps)
        rng.shuffle(kinds)
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(size)]
        total = sum(weights)
        cdf = list(itertools.accumulate(w / total for w in weights))
        strata = [(i + rng.random()) / count for i in range(count)]
        rng.shuffle(strata)
        ranking = self.rankings[size]
        keys = [offset + ranking[min(bisect.bisect_left(cdf, u), size - 1)]
                for u in strata]
        thresholds = [i % 4 for i in range(count)]
        rng.shuffle(thresholds)
        return list(zip(times, kinds, keys, thresholds))

    def _send(self, client: ServiceClient, request, due: float | None
              ) -> dict[str, Any]:
        _, kind, key, ti = request
        spec, _, grid = self.instances[key]
        sent = time.perf_counter()
        if due is None:
            due = sent
        record: dict[str, Any] = {"request": request, "due": due,
                                  "sent": sent, "outcomes": []}
        try:
            if kind == "solve":
                events = client.submit(
                    "solve", solver=self.SOLVER, instance=spec,
                    threshold=grid[ti], include_mapping=True,
                )
            else:
                plan = {"schema": 1, "instances": [spec],
                        "solvers": [self.SOLVER],
                        "thresholds": sorted({grid[ti], grid[(ti + 2) % 4]})}
                events = client.submit("sweep", plan=plan,
                                       include_mapping=True)
            for event in events:
                now = time.perf_counter()
                if event["event"] == "outcome":
                    record.setdefault("first", now)
                    record["outcomes"].append(event)
                elif event["event"] == "done":
                    record["done"] = event
                    record["end"] = now
        except ServiceError as exc:
            record["error"] = f"{exc.code}: {exc}"
        except OSError as exc:  # includes socket timeouts
            record["error"] = f"{type(exc).__name__}: {exc}"
        if "error" not in record and "done" not in record:
            record["error"] = "stream ended without a done event"
        return record

    def drive(self, daemon: Daemon, seconds: float) -> dict[str, Any]:
        """Warm the store, run both timed phases, collect the records."""
        client = daemon.client()
        stream = f"daemon-{self.daemons}"
        half = seconds / 2
        warm = self.schedule(self.WARMUP, 1.0, f"warm-{stream}")
        arrivals = self.schedule(round(SERVICE_RATE * half), half, stream)
        size = max(round(SERVICE_CAPACITY * half / self.ROUNDS), 1)
        batches = [self.schedule(size, half, f"closed-{stream}-{r}",
                                 (self.KEYS + r * self.ROUND_KEYS,
                                  self.ROUND_KEYS))
                   for r in range(self.ROUNDS)]
        # the load generator should delay requests as little as it can:
        # hand the interpreter lock between its threads quickly
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-4)
        try:
            return self._drive(client, warm, arrivals, batches, half)
        finally:
            sys.setswitchinterval(interval)

    def _closed_loop(self, pool, client, requests, phase: str
                     ) -> list[dict[str, Any]]:
        """Send ``requests`` back to back, as many in flight as threads."""
        records = list(pool.map(
            lambda request: self._send(client, request, None), requests))
        for record in records:
            record["phase"] = phase
        return records

    def _sample(self) -> float:
        """The host's slowdown, the mean of ``GAP_SAMPLES`` samples."""
        return statistics.fmean(hostspeed.sample(self.LOOP_SHARE, True)
                                for _ in range(self.GAP_SAMPLES))

    def _open_loop(self, pool, client, arrivals, seconds: float
                   ) -> list[dict[str, Any]]:
        """Send ``arrivals`` at their due times, ``SEGMENTS`` parts apart."""
        records = []
        width = seconds / self.SEGMENTS
        speed = self._sample()
        for part in range(self.SEGMENTS):
            start = time.perf_counter() + 0.05
            futures = []
            for request in arrivals:
                if not part * width <= request[0] < (part + 1) * width:
                    continue
                due = start + (request[0] - part * width) * speed
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(self._send, client, request, due))
            done = [future.result() for future in futures]
            after = self._sample()
            for record in done:
                record["phase"] = "open"
                record["slowdown"] = (speed + after) / 2.0
            records += done
            speed = after
        return records

    def _drive(self, client, warm, arrivals, batches, seconds: float
               ) -> dict[str, Any]:
        # the sender threads keep to one CPU, so the daemon, whose
        # affinity stays at the default, is not moved off the others by
        # them; the host's speed is sampled from this thread, which
        # keeps the default affinity
        cpus = sorted(os.sched_getaffinity(0))
        with ThreadPoolExecutor(
            max_workers=NPROC,
            initializer=lambda: os.sched_setaffinity(0, cpus[:1]),
        ) as pool:
            records = self._closed_loop(pool, client, warm, "warmup")
            records += self._open_loop(pool, client, arrivals, seconds)
            rounds = []
            speed = self._sample()
            for r, batch in enumerate(batches):
                t0 = time.perf_counter()
                closed = self._closed_loop(pool, client, batch, "closed")
                wall = time.perf_counter() - t0
                after = self._sample()
                rounds.append((wall, hostspeed.rescale(wall, speed, after)))
                speed = after
                for record in closed:
                    record["round"] = r
                records += closed
        return {"records": records, "rounds": rounds,
                "stats": client.stats()}

    def restart(self, trace_dir: str | None) -> None:
        """Replace the daemon by a fresh one (traced when ``trace_dir``)."""
        self.close()
        self.daemon = self._start(trace_dir)

    def run(self, seconds: float, report: Report) -> dict[str, Any]:
        return self.drive(self.daemon, seconds)

    def finish(self, measured: dict[str, Any], report: Report) -> None:
        records = measured["records"]
        baselines = Baselines()
        latencies, firsts = [], []
        # quality is counted once per distinct (instance, threshold), so
        # the Zipf weights of popular keys do not swing it between seeds
        answered: dict[tuple[int, float], bool] = {}
        ratios: dict[tuple[int, float], float] = {}
        succeeded = {"warmup": 0, "open": 0, "closed": 0}
        for record in records:
            report.attempted += 1
            _, kind, key, ti = record["request"]
            record["ok"] = False
            if "error" in record:
                report.failure(f"{kind} key={key}: {record['error']}")
                continue
            _, inst, grid = self.instances[key]
            bad = False
            for event in record["outcomes"]:
                threshold = event["threshold"]
                answered.setdefault((key, threshold), event["ok"])
                if not event["ok"]:
                    if event.get("error_kind") not in ANSWERS:
                        report.failure(f"{kind} key={key}: {event['error']}")
                        bad = True
                    continue
                problem = check_answer(
                    inst.application, inst.platform,
                    mapping_from_dict(event["mapping"]), event["latency"],
                    event["failure_probability"], threshold,
                )
                if problem:
                    report.incorrect(f"{kind} key={key}: {problem}")
                    bad = True
                    continue
                if (key, threshold) not in ratios:
                    r = ratio(
                        event["failure_probability"],
                        baselines.fp((key, threshold), inst.application,
                                     inst.platform, threshold),
                    )
                    if r is not None:
                        ratios[key, threshold] = r
            if bad:
                continue
            record["ok"] = True
            succeeded[record["phase"]] += 1
            if record["phase"] != "open":
                continue
            latencies.append((record["end"] - record["due"])
                             / record["slowdown"])
            if kind == "sweep":
                firsts.append(record["first"] - record["due"])
        timed = [r for r in records if r["phase"] == "open"]
        closed = [r for r in records if r["phase"] == "closed"]
        # the batches have one shape, so they count as repeats of one
        # operation
        rate_metrics(report, [
            ("batch", sum(c["ok"] for c in closed if c["round"] == r), wall,
             rescaled)
            for r, (wall, rescaled) in enumerate(measured["rounds"])],
            "requests")
        latency_metrics(report, latencies, len(timed), self.LIMIT)
        first_result_note(report, firsts,
                          "first outcome event of a sweep request")
        report.set("fp_ratio", geomean(list(ratios.values())), "ratio",
                   len(ratios), "distinct instance and threshold pairs")
        report.set("completed_ratio",
                   sum(answered.values()) / max(len(answered), 1), "ratio",
                   len(answered), "distinct instance and threshold pairs")
        for phase, how in (("warmup", "closed loop"),
                           ("open", f"Poisson {SERVICE_RATE:g}/s"),
                           ("closed", "closed loop")):
            sent = sum(1 for r in records if r["phase"] == phase)
            report.notes.append(
                f"phase {phase} ({how}) sent={sent} "
                f"succeeded={succeeded[phase]} "
                f"failed={sent - succeeded[phase]}"
            )
        lateness = sorted(r["sent"] - r["due"] for r in timed)
        late_tail, late_pct = tail(lateness)
        report.notes.append(
            f"generator lateness p50={percentile(lateness, 50) * 1e3:.3f} ms "
            f"p{late_pct:.1f}={late_tail * 1e3:.3f} ms "
            f"max={lateness[-1] * 1e3:.3f} ms (n={len(lateness)})"
        )
        for r, (wall, rescaled) in enumerate(measured["rounds"]):
            done = sum(c["ok"] for c in closed if c["round"] == r)
            report.notes.append(
                f"closed loop batch {r}: {done} requests in {wall:.3f} s "
                f"= {done / wall:.2f}/s, {done / rescaled:.2f}/s at the "
                f"reference speed"
            )
        dones = [r["done"] for r in closed if "done" in r]
        for what, picked in (
            ("store hits", [d for d in dones if d["cached"] == d["total"]]),
            ("misses", [d for d in dones if d["cached"] == 0]),
        ):
            elapsed = sorted(d["elapsed"] for d in picked)
            if elapsed:
                report.notes.append(
                    f"closed loop worker time of {what} "
                    f"p50={percentile(elapsed, 50) * 1e3:.3f} ms "
                    f"(n={len(elapsed)})"
                )
        store = measured["stats"].get("store", {})
        report.notes.append(
            f"store hit_rate={store.get('hit_rate', 0):.3f} "
            f"records={store.get('records', 0)} "
            f"rejected={measured['stats']['requests']['rejected']}"
        )

    def service_layers(self, measured: dict[str, Any]) -> dict[str, float]:
        """Per-layer figures of the open loop, off ``done`` and ``stats``."""
        timed = [r for r in measured["records"] if r["phase"] == "open"]
        waits, workers, transports = [], [], []
        for record in timed:
            done = record.get("done")
            if done is None:
                continue
            waits.append(done["queue_wait"])
            workers.append(done["elapsed"])
            transports.append(record["end"] - record["sent"]
                              - done["queue_wait"] - done["elapsed"])
        lateness = [r["sent"] - r["due"] for r in timed]
        stats = measured["stats"]
        store = stats.get("store", {})
        errors = sum(1 for r in timed if "error" in r)
        return {
            "service.queue_wait_ms": _median(waits) * 1e3,
            "service.worker_ms": _median(workers) * 1e3,
            "service.transport_ms": _median(transports) * 1e3,
            "service.lateness_ms": _median(lateness) * 1e3,
            "service.rejected": stats["requests"]["rejected"] + errors,
            "store.hit_ratio": store.get("hit_rate", 0.0),
            "store.records": store.get("records", 0),
        }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


#: workload name -> factory ``(seed, root, workdir)``; building one is
#: its set-up (inputs, and the daemon where it has one)
WORKLOADS: dict[str, Callable[[int, str, str], Any]] = {
    "frontier-heuristic": lambda seed, root, workdir: FrontierWorkload(
        seed, heuristic=True),
    "frontier-exact": lambda seed, root, workdir: FrontierWorkload(
        seed, heuristic=False),
    "service-mixed": ServiceWorkload,
    "churn-sim": lambda seed, root, workdir: ChurnWorkload(seed),
}
