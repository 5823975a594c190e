"""Run one elabmech benchmark workload and print its metrics.

    python3 bench/run.py --workload dominance --seed 2026 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.  The
workload runs in this one process and thread as repeated passes; each pass
builds fresh inputs (set-up) and then runs every query once, in order, each
query starting when the previous verdict is back (the sweep).  Passes repeat
until ``--seconds`` is used up, and every timing is reported as a median over
passes or queries, scaled to a reference speed (see ``SpeedProbe``).

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` the first half of the time runs
untraced passes and the second half traced ones, and the JSON object holds
the per-layer metrics of ``tracer.py`` instead.  Every query's output is
checked; a query whose verdict, ``checked`` count or first witness is wrong,
or that raised, counts as failed.  ``--record-expected`` runs one pass of the
default seed and rewrites ``expected/<workload>.json`` from it.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

perf = time.perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 2026  # not one of the acceptance-test seeds (301-901, 1000-1299)
MIN_PASSES = 3

# The host's speed drifts by 20% and more over minutes, on every piece of
# code alike.  An untraced pass therefore times a fixed reference workload
# about every REF_EVERY_S seconds of query time (SpeedProbe), and the timings
# of the end-to-end metrics are scaled to the speed at which one reference
# sample takes REF_SECONDS.  Raw wall times are printed beside them.
REF_SECONDS = 0.005
REF_EVERY_S = 0.1

# Exact counts for example1 no-deficit under clarke: the tracer's self-test.
SELF_TEST_QUERY = "example1:no-deficit"
SELF_TEST_COUNTS = {"transfers.transfer_report": 47_923, "engine.plays": 47_923,
                    "engine.advance": 133_868, "engine.feasible_reports": 659_442}


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import elabmech, elabmech.cli, elabmech.verify; "
                "print(time.perf_counter() - start)")


def import_package() -> None:
    """Import the package from ``src/``, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import elabmech
        import elabmech.cli
        import elabmech.verify
    except ImportError as err:
        raise SystemExit(f"error: cannot import elabmech from {SRC}: {err}")
    if os.path.dirname(os.path.dirname(os.path.abspath(elabmech.__file__))) != SRC:
        raise SystemExit(f"error: elabmech was imported from {elabmech.__file__}, not {SRC}")


def import_seconds(samples: int = 5) -> float:
    """Median time to import the package in a fresh interpreter, at the
    reference speed measured around each import."""
    times = []
    for _ in range(samples):
        before = reference_sample()
        probe = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, SRC],
                               capture_output=True, text=True, check=True, timeout=60)
        speed = REF_SECONDS / statistics.median((before, reference_sample(),
                                                 reference_sample()))
        times.append(float(probe.stdout) * speed)
    return statistics.median(times)


def reference_sample() -> float:
    """Seconds taken by a fixed piece of dict, tuple and Fraction work."""
    gc.disable()  # keep the program's heap out of the sample
    try:
        start = perf()
        table: dict[tuple[int, int], int] = {}
        total = Fraction(0)
        for i in range(1500):
            key = (i % 31, i % 17)
            table[key] = table.get(key, 0) + 1
            total += Fraction(i % 13, 1 + i % 7)
        return perf() - start
    finally:
        gc.enable()


class SpeedProbe:
    """Reference samples, about one per REF_EVERY_S of query time.

    Between queries a sample is taken once that much query time has passed
    since the last one.  A query that runs longer is also sampled while it
    runs, from a timer signal, so that long queries are covered and short
    ones are never interrupted.  ``spent`` is the wall time the samples
    took; query and sweep times exclude it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._since = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start = perf()
        self.samples.append(reference_sample())
        self.spent += perf() - start

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, query) -> tuple[dict, float]:
        """The query's record and its time without the samples taken in it."""
        spent = self.spent
        start = perf()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            record = query.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            took = perf() - start - (self.spent - spent)
            self._since += took
            if self._since >= REF_EVERY_S:
                self._sample()
                self._since = 0.0
        return record, took


class Pass:
    """One set-up plus one sweep over every query.

    ``records`` holds every query's record when there is no ``reference``
    pass, and otherwise only the records that differ from the reference's,
    so that a run's memory does not grow with its number of passes.
    Untraced passes time reference samples during the sweep, and ``speed``
    is REF_SECONDS over their median: multiplying a time of this pass by it
    gives that time at the reference speed.  A traced pass takes no samples,
    so that they do not land in the self time of a wrapped function.
    """

    def __init__(self, workload, tracer=None, reference: Pass | None = None):
        self.counts: dict[str, dict[str, int]] = {}
        start = perf()
        queries = workload.build()
        self.build_s = perf() - start
        self.query_s: list[float] = []
        self.records: dict[str, dict] = {}
        with contextlib.nullcontext() if tracer else SpeedProbe() as probe:
            sweep_start = perf()
            for query in queries:
                if tracer is not None:
                    tracer.begin_query()
                    before = tracer.counts()
                start = perf()
                try:
                    record, took = probe.run(query) if probe else (query.run(), None)
                except Exception as err:  # a raising query is a failed query, not a crash
                    record, took = {"error": f"{type(err).__name__}: {err}"}, None
                self.query_s.append(perf() - start if took is None else took)
                self.records[query.qid] = record
                if tracer is not None:
                    tracer.end_query()
                    after = tracer.counts()
                    self.counts[query.qid] = {k: after[k] - before[k] for k in after}
            self.sweep_s = perf() - sweep_start - (probe.spent if probe else 0.0)
        self.speed = REF_SECONDS / statistics.median(probe.samples) if probe else 1.0
        workload.teardown()
        if reference is None:
            self.checks = {query.qid: query.check for query in queries}
        else:
            self.records = {qid: record for qid, record in self.records.items()
                            if record != reference.records[qid]}
        if tracer is not None:
            self.layers = {name: list(rec) for name, rec in tracer.records.items()}
            self.advance_distinct = tracer.advance_distinct
            self.premium_entries = tracer.premium_entries
            self.bound_use_max = tracer.bound_use_max


def run_passes(workload, seconds: float, min_passes: int, min_queries: int,
               tracer=None, reference: Pass | None = None) -> list[Pass]:
    """Passes until ``seconds`` run out; a pass is not started if it would end
    more than half a pass after the deadline.  Without a ``reference`` the
    first pass is the reference of the others."""
    passes: list[Pass] = []
    start = perf()
    while True:
        pass_start = perf()
        if tracer is not None:
            tracer.reset()
        passes.append(Pass(workload, tracer, reference or (passes[0] if passes else None)))
        took = perf() - pass_start
        enough = (len(passes) >= min_passes
                  and sum(len(p.query_s) for p in passes) >= min_queries)
        if enough and perf() - start + took / 2 >= seconds:
            return passes


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_percentile(min_queries: int) -> int:
    """Highest of p99/p95/p90 with at least ten of ``min_queries`` beyond it."""
    for pct in (99, 95, 90):
        if min_queries - math.ceil(pct / 100 * min_queries) >= 10:
            return pct
    raise ValueError(f"{min_queries} queries leave no percentile with ten beyond it")


def problems_of(passes: list[Pass], expected: dict | None) -> list[str]:
    """One line per failed query of every pass.

    A later pass repeats the first pass's verdict on a query whose record is
    unchanged, so it fails there exactly when the first pass did.
    """
    first = passes[0]
    failed: dict[str, str] = {}
    for qid, record in first.records.items():
        why = record.get("error")
        if why is None and expected is not None and record != expected.get(qid):
            why = f"record {record} differs from expected {expected.get(qid)}"
        if why is None:
            why = first.checks[qid](record)
        if why:
            failed[qid] = why
    problems = [f"pass 1 {qid}: {why}" for qid, why in failed.items()]
    for number, p in enumerate(passes[1:], 2):
        for qid, reference in first.records.items():
            if qid in p.records:
                why = f"record {p.records[qid]} differs from pass 1 {reference}"
            else:
                why = failed.get(qid)
            if why:
                problems.append(f"pass {number} {qid}: {why}")
    return problems


def self_test(traced: list[Pass]) -> list[str]:
    problems = []
    for number, p in enumerate(traced, 1):
        counts = p.counts.get(SELF_TEST_QUERY)
        if counts is None:
            continue
        for name, want in SELF_TEST_COUNTS.items():
            if counts[name] != want:
                problems.append(f"trace self-test, traced pass {number}: {name} made "
                                f"{counts[name]} calls, expected {want}")
    return problems


def checked_total(records: dict[str, dict]) -> int:
    total = 0
    for record in records.values():
        total += record.get("checked", 0)
        total += sum(cases for _, _, cases in record.get("verdicts", ()))
    return total


def end_to_end(passes: list[Pass], import_s: float, tail_pct: int) -> dict:
    """The end-to-end metrics, every time at the reference speed."""
    query_s = [t * p.speed for p in passes for t in p.query_s]
    return {
        "setup_s": (import_s + statistics.median(p.build_s * p.speed for p in passes),
                    "s"),
        "sweep_s": (statistics.median(p.sweep_s * p.speed for p in passes), "s"),
        "query_p50_s": (statistics.median(query_s), "s"),
        "query_tail_s": (nearest_rank(query_s, tail_pct), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: list[Pass], traced: list[Pass], wrapper_ns: float) -> dict:
    from tracer import NAMES, PER_CALL
    first = traced[0]
    metrics = {}
    for name in NAMES:
        calls = first.layers[name][0]
        self_s = statistics.median(p.layers[name][1] for p in traced)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        if name in PER_CALL:
            metrics[f"{name}.us"] = (self_s / calls * 1e6 if calls else 0.0, "us")
    advance = first.layers["engine.advance"][0]
    reports = first.layers["transfers.report"][0]
    misses = first.layers["transfers.transfer_report"][0]
    metrics["engine.advance.distinct_ratio"] = (
        first.advance_distinct / advance if advance else 0.0, "ratio")
    metrics["transfers.report.hit_ratio"] = (1 - misses / reports if reports else 0.0, "ratio")
    metrics["engine.bound_use_max"] = (first.bound_use_max, "ratio")
    metrics["transfers.premium.entries"] = (first.premium_entries, "count")
    metrics["verify.checked"] = (checked_total(untraced[0].records), "count")
    metrics["trace.overhead_s"] = (statistics.median(p.sweep_s for p in traced)
                                   - statistics.median(p.sweep_s for p in untraced), "s")
    metrics["trace.wrapper_ns"] = (wrapper_ns, "ns")
    return metrics


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()}"


def main(argv: list[str] | None = None) -> int:
    import_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="run one pass of the default seed and rewrite its expected records")
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    workload = workloads.WORKLOADS[args.workload]()
    workload.select(args.seed)
    expected_path = os.path.join(BENCH, "expected", f"{workload.name}.json")
    if args.record_expected:
        if args.seed != DEFAULT_SEED:
            raise SystemExit("--record-expected records the default seed only")
        records = Pass(workload).records
        with open(expected_path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(records)} records to {expected_path}", file=sys.stderr)
        return 0
    expected = None
    if args.seed == DEFAULT_SEED:
        with open(expected_path, encoding="utf-8") as handle:
            expected = json.load(handle)

    tail_pct = tail_percentile(workload.min_queries)
    if args.trace:
        import tracer
        wrapper_ns = tracer.wrapper_overhead_ns()
        untraced = run_passes(workload, args.seconds / 2, 1, 0)
        active = tracer.Tracer()
        active.install()
        try:
            traced = run_passes(workload, args.seconds / 2, 1, 0, active, untraced[0])
        finally:
            active.uninstall()
        passes = untraced + traced
        metrics = per_layer(untraced, traced, wrapper_ns)
        tracer_problems = self_test(traced)
    else:
        passes = run_passes(workload, args.seconds, MIN_PASSES, workload.min_queries)
        metrics = end_to_end(passes, import_seconds(), tail_pct)
        tracer_problems = []
    problems = problems_of(passes, expected)

    attempted = sum(len(p.query_s) for p in passes)
    failed = len(problems)
    print(f"workload={workload.name} {environment()} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} queries/pass={len(passes[0].query_s)}")
    if not args.trace:
        speed = statistics.median(p.speed for p in passes)
        raw_sweep = statistics.median(p.sweep_s for p in passes)
        print(f"query_tail_s is p{tail_pct} of {attempted} queries and query_p50_s their "
              f"median; times are at the reference speed, and the host ran at {speed:.4g} "
              f"of it (raw median sweep {raw_sweep:.6g} s)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} queries)")
    for line in (problems + tracer_problems)[:20]:
        print(f"  FAILED {line}")
    result = {"correct": not problems and not tracer_problems,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
