"""Benchmark of the egsplines package: one workload per run, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload zz_session --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): zz_session, flowup_growth,
keyelement_ladder, poly_cli.  The loop is closed, with one caller: each
instance starts when the previous one has finished.  A pass runs the
workload's fixed instance list once; passes repeat until ``--seconds``
would be exceeded (at least one pass).  Within a pass each instance runs
up to three times back to back on freshly built graphs and keeps its
fastest time.  Times are calibrated against a fixed piece of interpreter
work that runs before every attempt (see ``Meter``).  Each attempt runs
under a per-instance time limit, enforced in-process with
``signal.setitimer``; a timed-out instance counts as failed, with the
limit as its time.  The first completed output of every instance is its
reference: later passes must reproduce its digest, and the reference is
cross-checked once, after the timed passes, by methods that share no code
path with the package (``reference.py`` and the brute-force oracle).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
instance once per pass, untraced for the first half of the time and traced
for the rest, and prints per-layer metrics (medians over the traced
passes, per pass) plus ``trace.overhead_frac``, the traced over the
untraced pass time.  The spans of the last traced pass and every row's
outcome are written to ``.bench_out/trace-<workload>-s<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Seeds 0-410 were
used while this benchmark was tuned; check a claim on a held-out seed
above that range as well.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SETUP_REPEATS = 11
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MODULES = ("rings", "graph", "splines", "pid", "cli", "oracle")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ips": "1/s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "solved_frac": "frac",
    "peak_rss_mb": "MB",
}

# (metric name, tracer stat, field, unit); field "self_s" etc. read a Stat,
# "peak" reads a recorded maximum, "ratio" divides two Stat fields.
PER_LAYER = [
    ("graph.trail_constraint.calls", "graph.trail_constraint", "calls", "count"),
    ("graph.trail_constraint.self_s", "graph.trail_constraint", "self_s", "s"),
    ("graph.trail_constraint.cache_hit_ratio", "graph.trail_constraint", ("hits", "calls"), "ratio"),
    ("graph.trail_constraint.failed", "graph.trail_constraint", "failed", "count"),
    ("graph.trail_constraint.bits_max", "graph.trail_constraint.bits", "peak", "bits"),
    ("pid.hermite_triangularize.calls", "pid.hermite_triangularize", "calls", "count"),
    ("pid.hermite_triangularize.self_s", "pid.hermite_triangularize", "self_s", "s"),
    ("pid.hermite_triangularize.h_bits_max", "pid.hermite_triangularize.h_bits", "peak", "bits"),
    ("pid.hermite_triangularize.u_bits_max", "pid.hermite_triangularize.u_bits", "peak", "bits"),
    ("pid.hermite_triangularize.u_deg_max", "pid.hermite_triangularize.u_deg", "peak", "deg"),
    ("pid.kernel_basis.self_s", "pid.kernel_basis", "self_s", "s"),
    ("pid.flow_up_basis.self_s", "pid.flow_up_basis", "self_s", "s"),
    ("pid.verify_flow_up.self_s", "pid.verify_flow_up", "self_s", "s"),
    ("splines.spline_determinant.calls", "splines.spline_determinant", "calls", "count"),
    ("splines.spline_determinant.self_s", "splines.spline_determinant", "self_s", "s"),
    ("splines.spline_determinant.bits_max", "splines.spline_determinant.bits", "peak", "bits"),
    ("splines.spline_determinant.deg_max", "splines.spline_determinant.deg", "peak", "deg"),
    ("splines.qhat.self_s", "splines.qhat", "self_s", "s"),
    ("splines.qhat_component.self_s", "splines.qhat_component", "self_s", "s"),
    ("splines.h_factor.self_s", "splines.h_factor", "self_s", "s"),
    ("splines.classical_qg.self_s", "splines.classical_qg", "self_s", "s"),
    ("splines.certify_basis.self_s", "splines.certify_basis", "self_s", "s"),
    ("splines.express_in_basis.self_s", "splines.express_in_basis", "self_s", "s"),
    ("splines.spline_violations.self_s", "splines.spline_violations", "self_s", "s"),
    ("rings.mul.calls", "rings.mul", "calls", "count"),
    ("rings.addsub.calls", "rings.addsub", "calls", "count"),
    ("rings.gcd.calls", "rings.gcd", "calls", "count"),
    ("rings.gcd.self_s", "rings.gcd", "total_s", "s"),
    ("rings.exact_div.calls", "rings.exact_div", "calls", "count"),
    ("rings.try_exact_div.fail_ratio", "rings.try_exact_div", ("none", "calls"), "ratio"),
    ("rings.divides.calls", "rings.divides", "calls", "count"),
    ("rings.euclidean_xgcd.calls", "rings.euclidean_xgcd", "calls", "count"),
    ("rings.euclidean_divmod.calls", "rings.euclidean_divmod", "calls", "count"),
    ("rings.parse_element.calls", "rings.parse_element", "calls", "count"),
    ("rings.parse_element.self_s", "rings.parse_element", "total_s", "s"),
    ("rings.result_bits_max", "rings", "peak", "bits"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.load_instance.self_s", "cli.load_instance", "self_s", "s"),
]
# Measured while cross-checking, outside the timed region.
ORACLE_LAYER = [
    ("oracle.brute_minimal_leading_entry.self_s", "oracle.brute_minimal_leading_entry"),
    ("oracle.enumerate_small_splines.self_s", "oracle.enumerate_small_splines"),
]


class InstanceTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the package catches it."""


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        raise InstanceTimeout()


def import_fresh():
    """Import the package from src/ as if for the first time."""
    for name in [m for m in sys.modules if m == "egsplines" or m.startswith("egsplines.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = types.SimpleNamespace(egsplines=importlib.import_module("egsplines"))
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"egsplines.{name}"))
    return lib


def timed_call(fn, arg, limit: float):
    """(status, raw result or exception, raw seconds) of one instance."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    _armed[0] = True
    start = perf_counter()
    try:
        raw = fn(arg)
        status = "ok"
    except InstanceTimeout:
        raw, status = None, "timeout"
    except Exception as exc:  # the program's own failure is recorded, not fatal
        raw, status = exc, "error"
    finally:
        _armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, raw, perf_counter() - start


# Calibration.  The speed of a shared machine drifts by tens of percent
# within seconds and between runs (measured: the same loop took 78-166 ms),
# for CPU time as much as for wall time, and it switches between slow and
# fast stretches that last a few tens of milliseconds.  So a fixed piece of
# interpreter work runs before every attempt and once more after the last
# one, and every time is reported as it would read on a machine where that
# work takes CAL_NOMINAL_S: raw time times CAL_NOMINAL_S over the lower
# quartile of the samples taken within CAL_SPAN_S of the attempt, the two
# that enclose it always among them (for a long attempt, the faster of
# those two).  A burst that slows a sample is ignored; a burst that slows
# the attempt but not the samples makes it read slower, and the fastest
# attempt of an instance is kept.  The time limit is calibrated over the
# median of recent samples, so a frontier row is stopped after the same
# amount of work on a fast or a slow machine.  A slower program still
# reads slower; a slower machine does not.
CAL_NOMINAL_S = 1e-3
CAL_SPAN_S = 0.025
CAL_RECENT = 17


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def _calibration_kernel() -> int:
    """Calls, small objects, tuples, a dict and 61-bit integer arithmetic."""
    table = {}
    x = 1
    for i in range(1700):
        cell = _Cell(i % 13, x)
        table[cell.key] = (cell.value, table.get(cell.key, (0, 0))[1] + i)
        x = (x * 1103515245 + 12345) % (1 << 61)
    return len(table)


def calibration_sample() -> float:
    start = perf_counter()
    _calibration_kernel()
    return perf_counter() - start


def speed_factors(samples: List[Tuple[float, float]]) -> List[float]:
    """One factor per attempt, for the len(samples) - 1 attempts that the
    (start stamp, seconds) calibration samples enclose."""
    stamps = [stamp for stamp, _ in samples]
    out = []
    for j in range(len(samples) - 1):
        lo = bisect.bisect_left(stamps, stamps[j] - CAL_SPAN_S)
        hi = bisect.bisect_right(stamps, stamps[j + 1] + CAL_SPAN_S)
        window = sorted(t for _, t in samples[lo:hi])
        out.append(CAL_NOMINAL_S / window[len(window) // 4])
    return out


class Meter:
    """Machine speed and peak memory, shared by the passes of one run.

    Peak memory is read before every instance until the first instance
    that times out, and frozen there: where the limit cuts a frontier row
    decides how much memory it had taken, so that memory is left out."""

    def __init__(self):
        self.recent = collections.deque(maxlen=CAL_RECENT)
        self.rss_mb: Optional[float] = None
        self.frozen = False

    def sample(self) -> float:
        t = calibration_sample()
        self.recent.append(t)
        if not self.frozen:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return t

    def raw_limit(self, limit: float) -> float:
        return limit * statistics.median(self.recent) / CAL_NOMINAL_S

    def peak_rss_mb(self) -> float:
        if self.frozen:
            return self.rss_mb
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(plain) -> str:
    return hashlib.sha256(repr(plain).encode()).hexdigest()


class Row:
    """Everything known about one instance across the passes of a run."""

    def __init__(self, inst):
        self.inst = inst
        self.statuses: List[str] = []
        self.times: List[float] = []  # calibrated seconds, one per pass
        self.digests: List[Optional[str]] = []
        self.reference = None
        self.reference_digest: Optional[str] = None
        self.problems: List[str] = []

    def ok_in(self, p: int) -> bool:
        return (
            self.statuses[p] == "ok"
            and self.digests[p] == self.reference_digest
            and not self.problems
        )

    def wrong_in(self, p: int) -> bool:
        """A wrong answer: not a timeout, a cap or another failure to answer."""
        if self.statuses[p] == "ok":
            return self.digests[p] != self.reference_digest or bool(self.problems)
        return self.statuses[p].startswith("error:") and not self.statuses[p].endswith(
            "TrailCapExceededError"
        )


def run_pass(rows: List[Row], limit: float, repeats: int, meter: Meter):
    """One pass over the instance list.

    Each instance runs `repeats` times back to back, each time on freshly
    built inputs, and its time in the pass is the fastest attempt: bursts
    of machine noise shorter than an instance are filtered out.  It is ok
    in the pass only when every attempt answered the same.  A timed-out
    instance is not repeated; it is failed and counts `limit` calibrated
    seconds.  Returns the summed calibrated instance time and the pass's
    median speed factor."""
    attempts = []  # (row index, raw seconds, timed out)
    samples = []  # (start stamp, seconds) of each calibration sample
    for index, row in enumerate(rows):
        status, seen = "ok", set()
        for _ in range(row.inst.attempts or repeats):
            arg = row.inst.build()  # fresh graphs, untimed
            samples.append((perf_counter(), meter.sample()))
            outcome, raw, elapsed = timed_call(row.inst.solve, arg, meter.raw_limit(limit))
            attempts.append((index, elapsed, outcome == "timeout"))
            if outcome != "ok":
                meter.frozen = meter.frozen or outcome == "timeout"
                status = outcome if outcome == "timeout" else f"error:{type(raw).__name__}"
                break
            plain = row.inst.normalize(arg, raw)
            d = digest(plain)
            if row.reference is None:
                row.reference, row.reference_digest = plain, d
            seen.add(d)
        row.statuses.append(status)
        row.digests.append(seen.pop() if status == "ok" and len(seen) == 1 else None)
    samples.append((perf_counter(), meter.sample()))  # closes the last attempt
    best = [math.inf] * len(rows)
    factors = speed_factors(samples)
    for (index, elapsed, timed_out), factor in zip(attempts, factors):
        best[index] = min(best[index], limit if timed_out else elapsed * factor)
    for row, t in zip(rows, best):
        row.times.append(t)
    return sum(best), statistics.median(factors)


def run_passes(rows: List[Row], limit: float, repeats: int, seconds: float, meter: Meter,
               before=None, after=None) -> List[float]:
    """Passes until the next one would end after `seconds`; at least one.

    Returns the calibrated time of each pass.  before() and after(factor)
    are called around every pass (the tracer's reset and its samples)."""
    totals = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if before:
            before()
        total, factor = run_pass(rows, limit, repeats, meter)
        totals.append(total)
        if after:
            after(factor)
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return totals


def cross_check(rows: List[Row]) -> None:
    """Cross-check every reference once; copies of a row that answered the
    same share one check."""
    done: Dict[tuple, List[str]] = {}
    for row in rows:
        if row.reference is None:
            continue
        key = (id(row.inst.check), row.reference_digest)
        if key not in done:
            try:
                done[key] = row.inst.check(row.reference)
            except Exception as exc:  # a malformed output is a wrong answer
                done[key] = [f"check raised {type(exc).__name__}: {exc}"]
        row.problems = list(done[key])


def tail_percentile(per_pass: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in one pass."""
    return max(p for p in TAIL_LADDER if per_pass * (100.0 - p) / 100.0 >= 10.0 or p == 50.0)


def percentile(values: List[float], p: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def summarize_rows(rows: List[Row], passes: range) -> None:
    """Named rows (fixed and frontier) and every failing row, one line each."""
    for row in rows:
        statuses = [row.statuses[p] for p in passes]
        failing = not all(row.ok_in(p) for p in passes)
        if row.inst.group == "seeded" and not failing:
            continue
        outcome = ", ".join(f"{s} x{statuses.count(s)}" for s in sorted(set(statuses)))
        median_ms = statistics.median(row.times[p] for p in passes) * 1e3
        verdict = "FAILED" if failing else "ok"
        print(f"row {row.inst.name} [{row.inst.group}] {verdict}: {outcome}; median {median_ms:.1f} ms")
        for problem in row.problems[:3]:
            print(f"    wrong: {problem}")


def result_line(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def end_to_end(rows, passes: int, setup_s, rss_mb) -> Dict[str, tuple]:
    """The six end-to-end metrics.

    Each instance's time is its fastest calibrated attempt over all passes
    (a timeout counts the limit).  Throughput divides the median count of
    correct instances per pass by the sum of those times, the time of one
    pass at the nominal machine speed."""
    span = range(passes)
    best = [min(row.times[p] for p in span) for row in rows]
    ok_per_pass = statistics.median(sum(row.ok_in(p) for row in rows) for p in span)
    tail_p = tail_percentile(len(rows))
    tail = percentile(best, tail_p)
    beyond = sum(t > tail for t in best)
    print(f"solve_tail_ms is p{tail_p:g} over {len(best)} instances ({beyond} beyond it), "
          f"each the fastest of {passes} passes")
    values = {
        "setup_s": setup_s,
        "throughput_ips": ok_per_pass / sum(best),
        "solve_p50_ms": statistics.median(best) * 1e3,
        "solve_tail_ms": tail * 1e3,
        "solved_frac": sum(row.ok_in(p) for row in rows for p in span) / (len(rows) * passes),
        "peak_rss_mb": rss_mb,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def layer_value(tracer, stat: str, field) -> float:
    if field == "peak":
        return tracer.peak.get(stat, 0)
    if isinstance(field, tuple):
        den = tracer.metric(stat, field[1])
        return tracer.metric(stat, field[0]) / den if den else 0.0
    return tracer.metric(stat, field)


def write_trace(path: Path, tracer, rows: List[Row], passes: range) -> None:
    doc = {
        "rows": [
            {
                "name": row.inst.name,
                "group": row.inst.group,
                "status": [row.statuses[p] for p in passes],
                "seconds": [row.times[p] for p in passes],
                "problems": row.problems,
            }
            for row in rows
        ],
        "span_fields": ["name", "start", "end", "parent"],
        "spans": tracer.spans,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")


def measure_end_to_end(rows, limit: float, repeats: int, seconds: float, setup_s: float):
    meter = Meter()
    totals = run_passes(rows, limit, repeats, seconds, meter)
    rss_mb = meter.peak_rss_mb()
    cross_check(rows)
    return len(totals), end_to_end(rows, len(totals), setup_s, rss_mb)


def measure_layers(lib, rows, limit: float, seconds: float, trace_path: Path):
    """Untraced passes for the first half of the time, traced for the rest.

    Each instance runs once per pass here, so a per-pass count is the work
    of one pass over the instance list."""
    from tracing import Tracer

    meter = Meter()
    untraced = run_passes(rows, limit, 1, seconds / 2, meter)
    tracer = Tracer(lib)
    samples: Dict[str, List[float]] = {name: [] for name, *_ in PER_LAYER}

    def collect(factor):
        for name, stat, field, unit in PER_LAYER:
            value = layer_value(tracer, stat, field)
            samples[name].append(value * factor if unit == "s" else value)

    tracer.install()
    try:
        traced = run_passes(rows, limit, 1, seconds / 2, meter, tracer.reset, collect)
        spans = tracer.spans
        tracer.reset()
        cross_check(rows)
        oracle = {name: (tracer.metric(stat, "self_s"), "s") for name, stat in ORACLE_LAYER}
    finally:
        tracer.uninstall()
    tracer.spans = spans
    write_trace(trace_path, tracer, rows, range(len(untraced), len(untraced) + len(traced)))
    metrics = {name: (statistics.median(samples[name]), unit) for name, _, _, unit in PER_LAYER}
    metrics.update(oracle)
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return len(untraced) + len(traced), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "egsplines" / "__init__.py").is_file():
        print(f"bench: no egsplines package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    build, limit, repeats = workloads.WORKLOADS[args.workload]
    try:
        setup_times, setup_samples = [], []
        for _ in range(SETUP_REPEATS):
            setup_samples.append((perf_counter(), calibration_sample()))
            start = perf_counter()
            lib = import_fresh()
            instances = build(lib, args.seed, workdir)
            setup_times.append(perf_counter() - start)
        setup_samples.append((perf_counter(), calibration_sample()))
        setup_s = statistics.median(
            t * f for t, f in zip(setup_times, speed_factors(setup_samples))
        )
        rows = [Row(inst) for inst in instances]
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-s{args.seed}.json"
            passes, metrics = measure_layers(lib, rows, limit, args.seconds, trace_path)
        else:
            passes, metrics = measure_end_to_end(rows, limit, repeats, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    span = range(passes)
    summarize_rows(rows, span)
    failed = sum(not row.ok_in(p) for row in rows for p in span)
    wrong = sum(row.wrong_in(p) for row in rows for p in span)
    print(f"{args.workload}: {passes} passes of {len(rows)} instances, {failed} failed, {wrong} wrong")
    print(result_line(wrong == 0, len(rows) * passes, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
