"""The benchmark's workloads: corpus selection, inputs, queries and their checks.

A workload is a list of queries run one after another by one caller (a
closed loop with one client): each query is one property on one scenario, or
one ``elabmech`` CLI invocation, and starts when the previous verdict is back.

Corpora come from the package's own generator, ``generate_scenario(seed, k)``.
Generated scenarios differ in cost by three orders of magnitude, and the cost
of an exhaustive check is fixed by the scenario's shape: the lattice and the
size of every agent's type space at every level (scenarios of one shape give
identical ``checked`` counts).  Each workload therefore lists the shapes it
wants, and the seed picks which generated scenarios of those shapes it gets.
Valuations, projections, outcomes and availability still vary with the seed,
while the total work of a sweep stays nearly the same from seed to seed.

The verdicts exhaustive checking must reach on every seed (see
``ROADMAP.md``) are asserted for any seed; the full per-query records are
compared with ``expected/<workload>.json`` for the default seed only.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
from dataclasses import dataclass
from typing import Callable

from elabmech import cli, fixtures, generate, scenario, verify

SHAPES = {generate.CHAIN2: "chain2", generate.CHAIN3: "chain3", generate.DIAMOND: "diamond"}

# Generated candidates scanned per corpus before giving up on a shape.
SCAN_LIMIT = 20_000


def shape_of(s, procurement: bool) -> str:
    """``"<lattice> <sizes>..."``: per agent, its type-space size at each level.

    Agents of a clarke scenario are interchangeable, so their sizes are
    sorted; a procurement scenario lists its two sellers sorted, then the
    buyer as ``b<sizes>``.
    """
    levels = s.lattice.elements
    sizes = ["".join(str(len(s.structure.space(a, level))) for level in levels)
             for a in s.agents]
    if procurement:
        return " ".join([SHAPES[levels], *sorted(sizes[:2]), "b" + sizes[2]])
    return " ".join([SHAPES[levels], *sorted(sizes)])


def select(seed: int, shapes: list[tuple[str, int]], procurement: bool) -> list[int]:
    """Indices ``k`` of ``generate_scenario(seed, k, procurement)`` filling ``shapes``.

    ``shapes`` lists (shape, count); the result keeps that order, and each
    shape takes the lowest indices of that shape.
    """
    wanted = dict(shapes)
    picked: dict[str, list[int]] = {shape: [] for shape in wanted}
    missing = sum(wanted.values())
    for k in range(SCAN_LIMIT):
        if not missing:
            break
        shape = shape_of(generate.generate_scenario(seed, k, procurement), procurement)
        if shape in picked and len(picked[shape]) < wanted[shape]:
            picked[shape].append(k)
            missing -= 1
    if missing:
        short = {s: n - len(picked[s]) for s, n in wanted.items() if len(picked[s]) < n}
        raise RuntimeError(f"seed {seed}: no generated scenario of shape {short} "
                           f"within {SCAN_LIMIT} candidates")
    return [k for shape, _ in shapes for k in picked[shape]]


@dataclass
class Query:
    qid: str
    run: Callable[[], dict]
    # Returns why a record breaks a verdict the theory guarantees, or None.
    check: Callable[[dict], str | None]


def verdict(result) -> dict:
    return {"holds": result.holds, "checked": result.checked,
            "witness": result.witnesses[0].description if result.witnesses else None}


def must_hold(claim: str) -> Callable[[dict], str | None]:
    return lambda record: None if record.get("holds") else f"{claim} does not hold"


class Workload:
    name = ""
    why = ""
    # Queries a run makes at least, so the tail percentile has ten beyond it.
    min_queries = 0
    # (shape, count) of the generated clarke and procurement scenarios.
    CLARKE: list[tuple[str, int]] = []
    PROCUREMENT: list[tuple[str, int]] = []

    def select(self, seed: int) -> None:
        """Pick the corpus for ``seed``; not timed."""
        self.seed = seed
        self.clarke = select(seed, self.CLARKE, False)
        self.procurement = select(seed, self.PROCUREMENT, True)

    def build(self) -> list[Query]:
        """Build fresh inputs and their queries; timed as set-up."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Remove what ``build`` left on disk."""


class Dominance(Workload):
    name = "dominance"
    why = ("conditional dominance over clarke and procurement corpora: engine, plan "
           "replay and lattice accessors, with nearly every Mechanism.report a cache hit")
    # Shapes in cost bands, cheapest first, so that the median and the p90
    # query fall inside a band of like queries rather than between two.
    min_queries = 100
    CLARKE = [(shape, 1) for shape in (
        "chain2 11 13", "chain2 12 22", "chain3 111 112", "chain3 111 222", "chain2 12 23",
        "chain3 111 113")]
    CLARKE += [(shape, 4) for shape in (
        "diamond 1111 1112", "diamond 1111 1212", "diamond 1111 1122")]
    CLARKE += [("chain3 111 111 111", 1), ("chain2 11 12 23", 1),
               ("diamond 1111 1111 1111", 5)]
    PROCUREMENT = [(shape, 1) for shape in (
        "chain2 11 12 b11", "chain2 11 22 b11", "chain2 11 33 b11", "chain2 12 22 b11",
        "chain3 111 111 b111", "chain2 13 33 b11", "chain2 13 23 b11")]

    def build(self) -> list[Query]:
        queries = []
        for ks, procurement, claim in ((self.clarke, False, "clarke dominance"),
                                       (self.procurement, True, "rspa seller dominance")):
            for k in ks:
                s = generate.generate_scenario(self.seed, k, procurement)
                queries.append(Query(
                    f"{s.name}:dominance",
                    lambda s=s: verdict(verify.check_conditional_dominance(s, s.scheme)),
                    must_hold(claim)))
        return queries


class Budget(Workload):
    name = "budget"
    why = ("no-deficit and balance over every stopped transcript: every agent FREE, so "
           "transfer_report misses the cache and Fraction sums dominate")
    # Cost bands as in Dominance; example1 alone costs more than the rest.
    min_queries = 147
    CLARKE = [(shape, 1) for shape in (
        "chain2 11 11", "chain2 11 12", "chain2 11 22", "chain2 11 13", "chain2 11 33",
        "chain2 12 22",
        "chain3 111 111", "chain2 12 23", "chain2 11 11 13", "chain3 111 112",
        "diamond 1111 1111", "chain3 111 222")]
    CLARKE += [(shape, 3) for shape in (
        "diamond 1111 1112", "diamond 1111 1212", "diamond 1111 1122")]
    CLARKE += [(shape, 1) for shape in (
        "chain3 111 111 112", "diamond 1111 1111 1111", "chain3 111 111 222",
        "chain3 111 111 113",
        "chain3 111 112 112", "chain3 111 112 222", "chain3 111 112 122")]
    PROCUREMENT = [(shape, 1) for shape in (
        "chain2 11 11 b11", "chain2 11 23 b11", "chain2 12 12 b11",
        "chain2 11 12 b11", "chain2 11 22 b11", "chain2 11 33 b11", "chain2 11 13 b11",
        "chain2 12 22 b11", "chain2 22 22 b11",
        "chain3 111 222 b111", "chain3 111 112 b111", "diamond 1111 1111 b1111",
        "chain3 111 123 b111", "chain3 111 223 b111", "chain3 111 133 b111")]
    PROCUREMENT += [(shape, 2) for shape in (
        "diamond 1111 1112 b1111", "diamond 1111 1212 b1111", "diamond 1111 1122 b1111",
        "diamond 1111 1222 b1111")]

    def build(self) -> list[Query]:
        example1 = fixtures.fixture("example1")
        queries = [Query("example1:no-deficit",
                         lambda: verdict(verify.check_budget(example1, example1.scheme,
                                                             "no_deficit")),
                         must_hold("clarke no-deficit"))]
        for ks, procurement, mode, claim in (
                (self.clarke, False, "no_deficit", "clarke no-deficit"),
                (self.procurement, True, "balance", "rspa budget balance")):
            for k in ks:
                s = generate.generate_scenario(self.seed, k, procurement)
                queries.append(Query(
                    f"{s.name}:{mode}",
                    lambda s=s, mode=mode: verdict(verify.check_budget(s, s.scheme, mode)),
                    must_hold(claim)))
        return queries


COLD_PROPERTIES = ("efficiency", "nonnegative-valuations", "holmstrom", "stage-bound",
                   "pooled-implementation")


def cli_record(argv: list[str]) -> dict:
    """Exit status and output digest of one ``cli.main`` call; for ``verify``
    also each property's verdict and ``checked`` count, and the first witness."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    text = out.getvalue()
    record = {"exit": code, "output_sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}
    if argv[0] == "verify":
        verdicts, witness = [], None
        for line in text.splitlines():
            if line.startswith("  witness: "):
                witness = witness or line[len("  witness: "):]
                continue
            _, prop, rest = line.split(": ", 2)
            holds, cases = rest.split(" (")
            verdicts.append([prop, holds == "holds", int(cases.split()[0])])
        record.update(verdicts=verdicts, witness=witness)
    return record


def check_cli(record: dict) -> str | None:
    verdicts = record.get("verdicts")
    if verdicts is None:
        return None if record["exit"] == 0 else f"exit status {record['exit']}"
    if any(prop == "stage-bound" and not holds for prop, holds, _ in verdicts):
        return "stage-bound does not hold"
    wanted = 0 if all(holds for _, holds, _ in verdicts) else 1
    if record["exit"] != wanted:
        return f"exit status {record['exit']} for verdicts {verdicts}"
    return None


class ColdCli(Workload):
    name = "cold-cli"
    why = ("in-process CLI run, report and cheap verify on freshly written scenario files: "
           "parse and validate on every call, cold caches")
    min_queries = 900
    WORKDIR = ".bench_work"
    CLARKE = [(shape, 3) for shape in (
        "chain3 111 111", "diamond 1111 1111", "chain2 11 11", "chain3 111 113", "chain2 11 13",
        "chain3 111 112", "chain2 11 33", "chain2 11 22", "chain3 111 222", "chain2 12 22",
        "diamond 1111 1123", "chain2 11 12 33", "chain3 111 111 112", "chain3 111 111 111",
        "diamond 1111 1212", "diamond 1111 1112", "chain2 11 22 33", "chain2 11 11 12",
        "diamond 1111 1111 1111", "chain2 12 23", "chain2 11 12 23", "chain3 111 111 222")]
    PROCUREMENT = [(shape, 2) for shape in (
        "chain3 111 112 b111", "chain3 111 111 b111", "chain2 11 12 b11", "chain2 11 22 b11",
        "diamond 1111 1111 b1111", "chain2 11 13 b11", "chain2 11 11 b11",
        "chain3 111 113 b111", "chain3 111 222 b111", "chain2 11 33 b11", "chain2 11 23 b11",
        "diamond 1111 1212 b1111", "chain2 12 22 b11", "diamond 1111 1112 b1111",
        "chain2 12 12 b11", "chain3 111 122 b111", "chain2 13 22 b11")]

    def build(self) -> list[Query]:
        os.makedirs(self.WORKDIR, exist_ok=True)
        queries = []
        files = [(k, False) for k in self.clarke] + [(k, True) for k in self.procurement]
        for k, procurement in files:
            s = generate.generate_scenario(self.seed, k, procurement)
            path = os.path.join(self.WORKDIR, f"{s.name}.scn")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(scenario.serialize_scenario(s))
            verify_argv = ["verify", path]
            for prop in COLD_PROPERTIES:
                verify_argv += ["--property", prop]
            for argv in (["run", path], ["report", path], verify_argv):
                queries.append(Query(f"{s.name}:{argv[0]}",
                                     lambda argv=argv: cli_record(argv), check_cli))
        return queries

    def teardown(self) -> None:
        shutil.rmtree(self.WORKDIR, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Dominance, Budget, ColdCli)}
