"""Awareness-pooling elaboration mechanisms.

A mechanism engine over lattice-indexed payoff type spaces: agents report
types, the mediator broadcasts the pooled awareness level, reports are
elaborated until they repeat, and transfer schemes (groves, clarke pivot,
reverse second price auction) settle the outcome.  A brute-force verifier
checks dominance, efficiency, budget, and participation properties exactly.
"""
from .lattice import Lattice, build_lattice, lattice_violations
from .typespace import NatureDraw, TypeStructure, build_structure
from .outcomes import OutcomeModel
from .scenario import Scenario, load_scenario, parse_scenario, serialize_scenario
from .engine import Transcript, run, run_single_stage
from .transfers import Mechanism, SchemeConfig, TransferReport, transfer_report
from .fixtures import FIXTURES, fixture
from .generate import generate_scenario

__all__ = [
    "Lattice", "build_lattice", "lattice_violations",
    "NatureDraw", "TypeStructure", "build_structure",
    "OutcomeModel",
    "Scenario", "load_scenario", "parse_scenario", "serialize_scenario",
    "Transcript", "run", "run_single_stage",
    "Mechanism", "SchemeConfig", "TransferReport", "transfer_report",
    "FIXTURES", "fixture",
    "generate_scenario",
]
