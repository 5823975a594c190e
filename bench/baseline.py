"""Reproduce the ROADMAP baseline of example1 dominance from the tracer's counters.

    python3 bench/baseline.py

Runs ``check_conditional_dominance`` on the ``example1`` fixture under its
clarke scheme twice, untraced and then traced (about two minutes in all),
and rewrites ``bench/baseline.json`` with the counts, the wall times and the
environment.  Exits 1 when a count differs from the figure ROADMAP records.
"""
from __future__ import annotations

import json
import os
import sys
import time

import run

ROADMAP = {
    "engine.advance.calls": 1_367_018,
    "engine.advance.distinct": 203_355,
    "engine.plays.calls": 613_684,
    "transfers.report.calls": 736_117,
    "transfers.transfer_report.calls": 25_311,
    "verify.checked": 304_164,
}


def main() -> int:
    run.import_package()
    import tracer
    from elabmech import fixtures, verify

    start = time.perf_counter()
    scenario = fixtures.fixture("example1")
    untraced = verify.check_conditional_dominance(scenario, scenario.scheme)
    untraced_s = time.perf_counter() - start

    active = tracer.Tracer()
    active.install()
    try:
        active.reset()
        start = time.perf_counter()
        scenario = fixtures.fixture("example1")
        traced = verify.check_conditional_dominance(scenario, scenario.scheme)
        traced_s = time.perf_counter() - start
        active.end_query()
    finally:
        active.uninstall()

    counts = {name: active.records[name.rsplit(".", 1)[0]][0]
              for name in ROADMAP if name.endswith(".calls")}
    counts["engine.advance.distinct"] = active.advance_distinct
    counts["verify.checked"] = traced.checked
    result = {
        "query": "example1 dominance under clarke",
        "environment": run.environment(),
        "holds": traced.holds,
        "untraced_s": round(untraced_s, 3),
        "traced_s": round(traced_s, 3),
        "bound_use": active.bound_use_max,
        "counts": counts,
        "roadmap": ROADMAP,
        "reproduced": counts == ROADMAP and traced.holds and untraced.holds
        and untraced.checked == traced.checked,
    }
    with open(os.path.join(run.BENCH, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    print(json.dumps(result, indent=1))
    return 0 if result["reproduced"] else 1


if __name__ == "__main__":
    sys.exit(main())
