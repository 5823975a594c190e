"""Outside-in call tracing for the elabmech layers.

The tracer wraps public functions of the installed package from outside:
nothing in ``src/`` knows it exists.  Each wrapped function records its call
count (exact) and its self time, which is its inclusive wall time minus the
time spent in wrapped functions it called.  A module-level function is
replaced wherever a module of the package binds it, so ``from ... import``
copies and the package's re-exports are caught as well as the defining
module; a method is replaced on its class.  Generator functions are timed per
resumption, because creating a generator runs none of its body.

Wrapping is not free: every wrapped call pays a fixed bookkeeping cost that
lands partly in the caller's self time.  :func:`wrapper_overhead_ns` measures
that cost so that per-call times of hot accessors can be read as
overhead-dominated; call counts are unaffected.
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time

perf = time.perf_counter

PACKAGE = "elabmech"

# (metric prefix, module, qualified name, kind).  ``kind`` is "fn" for a plain
# function or method and "gen" for a generator function.
TARGETS = (
    ("lattice.build_lattice", "lattice", "build_lattice", "fn"),
    ("lattice.join", "lattice", "Lattice.join", "fn"),
    ("lattice.meet", "lattice", "Lattice.meet", "fn"),
    ("lattice.leq", "lattice", "Lattice.leq", "fn"),
    ("lattice.join_all", "lattice", "Lattice.join_all", "fn"),
    ("typespace.build_structure", "typespace", "build_structure", "fn"),
    ("typespace.project", "typespace", "TypeStructure.project", "fn"),
    ("typespace.level_of", "typespace", "TypeStructure.level_of", "fn"),
    ("typespace.preimage", "typespace", "TypeStructure.preimage", "fn"),
    ("outcomes.efficient_outcome", "outcomes", "OutcomeModel.efficient_outcome", "fn"),
    ("outcomes.restricted_efficient_outcome", "outcomes",
     "OutcomeModel.restricted_efficient_outcome", "fn"),
    ("outcomes.welfare", "outcomes", "OutcomeModel.welfare", "fn"),
    ("outcomes.opponents_welfare", "outcomes", "OutcomeModel.opponents_welfare", "fn"),
    ("engine.initial_state", "engine", "initial_state", "fn"),
    ("engine.advance", "engine", "advance", "fn"),
    ("engine.feasible_reports", "engine", "feasible_reports", "fn"),
    ("engine.iter_completions", "engine", "iter_completions", "gen"),
    ("engine.plan_policy", "engine", "plan_policy", "fn"),
    ("engine.run", "engine", "run", "fn"),
    ("engine.plays", "engine", "PlayBudget.charge", "fn"),
    ("transfers.report", "transfers", "Mechanism.report", "fn"),
    ("transfers.utility", "transfers", "Mechanism.utility", "fn"),
    ("transfers.transfer_report", "transfers", "transfer_report", "fn"),
    ("transfers.premium", "transfers", "PremiumTable.premium", "fn"),
    ("transfers.first_pooled_reporter", "transfers", "first_pooled_reporter", "fn"),
    ("verify.check_conditional_dominance", "verify", "check_conditional_dominance", "fn"),
    ("verify.check_budget", "verify", "check_budget", "fn"),
    ("verify.check_stage_bound", "verify", "check_stage_bound", "fn"),
    ("verify.check_pooled_implementation", "verify", "check_pooled_implementation", "fn"),
    ("verify.check_efficiency", "verify", "check_efficiency", "fn"),
    ("verify.find_g", "verify", "find_g", "fn"),
    ("scenario.parse_scenario", "scenario", "parse_scenario", "fn"),
    ("scenario.load_scenario", "scenario", "load_scenario", "fn"),
    ("scenario.serialize_scenario", "scenario", "serialize_scenario", "fn"),
    ("generate.generate_scenario", "generate", "generate_scenario", "fn"),
    ("cli.main", "cli", "main", "fn"),
)

# Calls into the closures that ``engine.plan_policy`` returns.
PLAN_REPLAY = "engine.plan_replay"

NAMES = tuple(t[0] for t in TARGETS[:18]) + (PLAN_REPLAY,) + tuple(t[0] for t in TARGETS[18:])

# The functions ROADMAP names for a per-call cost.
PER_CALL = ("lattice.build_lattice", "lattice.join", "lattice.leq", "typespace.project",
            "engine.feasible_reports", "engine.advance", "engine.plan_policy", PLAN_REPLAY,
            "transfers.premium", "transfers.report", "transfers.utility",
            "scenario.parse_scenario")


class Tracer:
    """Counters and self times for the wrapped functions of one process.

    ``install`` patches the package in place and ``uninstall`` restores every
    binding it replaced.  ``begin_query``/``end_query`` bracket one query so
    that distinct-input sets and play budgets are scoped to it.
    """

    def __init__(self, names: tuple[str, ...] = NAMES):
        self.records: dict[str, list] = {name: [0, 0.0] for name in names}
        self._stack = [0.0]  # child time of each active frame; index 0 is a sentinel
        self._patches: list[tuple[object, str, object]] = []
        self._advance_inputs: set[int] = set()
        self._premium_keys: set[tuple] = set()
        self._budgets: list = []
        self.advance_distinct = 0
        self.premium_entries = 0
        self.bound_use_max = 0.0

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, observe=None):
        rec = self.records[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            rec[0] += 1
            if observe is not None:
                t0 = perf()
                observe(args)
                stack[-1] += perf() - t0  # bookkeeping is charged to nobody
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                rec[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return wrapper

    def timed_generator(self, name, fn):
        rec = self.records[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            rec[0] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(0.0)
                    start = perf()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf() - start
                        rec[1] += elapsed - stack.pop()
                        stack[-1] += elapsed
                    yield item
            finally:
                inner.close()

        return wrapper

    def _plan_policy(self, fn):
        timed_policy = self.timed("engine.plan_policy", fn)

        def wrapper(*args, **kwargs):
            return self.timed(PLAN_REPLAY, timed_policy(*args, **kwargs))

        return wrapper

    # -- observers for the derived metrics ---------------------------------

    def _observe_advance(self, args):
        scenario, state, reports = args
        self._advance_inputs.add(hash((id(scenario), state, reports)))

    def _observe_premium(self, args):
        table, agent, level = args
        self._premium_keys.add((id(table), agent, level))

    # -- patching ---------------------------------------------------------

    def _wrapper_for(self, name, kind, fn):
        if kind == "gen":
            return self.timed_generator(name, fn)
        if name == "engine.plan_policy":
            return self._plan_policy(fn)
        if name == "engine.advance":
            return self.timed(name, fn, self._observe_advance)
        if name == "transfers.premium":
            return self.timed(name, fn, self._observe_premium)
        return self.timed(name, fn)

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, module_name, qualname, kind in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrapper_for(name, kind, original)
            if path:  # a method: replace it on its class
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)
        budget_cls = importlib.import_module(f"{PACKAGE}.engine").PlayBudget
        original_init = budget_cls.__init__
        budgets = self._budgets

        def init(budget, *args, **kwargs):
            original_init(budget, *args, **kwargs)
            budgets.append(budget)

        self._patch(budget_cls, "__init__", init)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-query scope ---------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {name: rec[0] for name, rec in self.records.items()}

    def begin_query(self) -> None:
        self._advance_inputs.clear()
        self._premium_keys.clear()
        self._budgets.clear()

    def end_query(self) -> None:
        self.advance_distinct += len(self._advance_inputs)
        self.premium_entries += len(self._premium_keys)
        for budget in self._budgets:
            self.bound_use_max = max(self.bound_use_max, budget.used / budget.bound)
        self.begin_query()

    def reset(self) -> None:
        for rec in self.records.values():
            rec[0], rec[1] = 0, 0.0
        self.advance_distinct = self.premium_entries = 0
        self.bound_use_max = 0.0
        self.begin_query()


def wrapper_overhead_ns(repeats: int = 5, n: int = 200_000) -> float:
    """Median added cost, in ns, of one call through an empty timed wrapper."""
    def noop():
        return None

    traced = Tracer(("noop",)).timed("noop", noop)
    costs = []
    for _ in range(repeats):
        start = perf()
        for _ in range(n):
            noop()
        bare = perf() - start
        start = perf()
        for _ in range(n):
            traced()
        costs.append((perf() - start - bare) / n * 1e9)
    return statistics.median(costs)
