"""Byte-level golden reports for the check registry.

Each case runs ``run_all`` on a fixed system and plan and compares
``results_to_json`` with a stored file under ``tests/data/``.  The
corrupted systems count transition calls, so these files also pin the
order in which the registry evaluates points and the text of every
counterexample, not only pass/fail.  The registry maps a group's whole
point list through each distinct chain of its legs in turn (trajectory
operators walk the list in lockstep) and then reads every function at
the mapped points, so on finite systems a chain steps each point once,
not once per function or per leg; the call-counter files record that
order.  ``table6x3`` has three inputs, so it pins the input
pairs of C7 and three-label words.  ``mixed5x2`` has string, integer and
float labels, none at its own position, so a label code read as a label
fails it.

Regenerate the files (only when a report change is intended and stated)
with::

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import runpy
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from koopcontrol import (
    ControlSystem,
    FiniteStates,
    InputSet,
    RealBox,
    builtin_system,
    exact_plan,
    results_to_json,
    run_all,
    sampled_plan,
)
from koopcontrol import checks
from koopcontrol.cli import parse_config_text, resolve_system

DATA = Path(__file__).parent / "data"


def _every_nth(period, base, corrupt):
    """``base`` transition, except every ``period``-th call returns ``corrupt(x, u)``."""
    calls = {"n": 0}

    def transition(x, u):
        calls["n"] += 1
        if calls["n"] % period == 0:
            return corrupt(x, u)
        return base(x, u)

    return transition


def _flaky_finite3(period):
    """finite3 whose every ``period``-th transition call lands on state 0."""
    base = builtin_system("finite3").transition
    return ControlSystem(
        FiniteStates((0, 1, 2)),
        InputSet(("a", "b")),
        _every_nth(period, base, lambda x, u: 0),
        name="flaky",
    )


def _noisy_box():
    """scalarlinear whose every 17th transition call is off by 1e-6."""
    gains = {"a": 0.5, "b": -0.8}
    return ControlSystem(
        RealBox((-1.0,), (1.0,)),
        InputSet(("a", "b")),
        _every_nth(17, lambda x, u: gains[u] * x, lambda x, u: gains[u] * x + 1e-6),
        name="noisy",
    )


def _table6x3():
    """A seeded random total table, 6 states by 3 inputs: pins input pairs and 3-label words."""
    inputs = ("a", "b", "c")
    succ = np.random.default_rng(3).integers(6, size=(6, len(inputs)))
    table = {(x, u): int(succ[x, j]) for x in range(6) for j, u in enumerate(inputs)}
    return ControlSystem(
        FiniteStates(tuple(range(6))), InputSet(inputs), lambda x, u: table[(x, u)], name="table6x3"
    )


# The successors of ``mixed5x2``; ``tools/compare_trees.py`` gives the CLI the same table.
_MIXED_STEPS = {
    ("b", "q"): 7, ("b", 1): "x", (7, "q"): 0, (7, 1): 7, ("x", "q"): 1000.0,
    ("x", 1): "b", (1000.0, "q"): "b", (1000.0, 1): 0, (0, "q"): "x", (0, 1): 1000.0,
}


def _mixed5x2():
    """Five states ``b, 7, x, 1e3, 0`` and inputs ``q, 1``: labels that are not their positions."""
    return ControlSystem(
        FiniteStates(("b", 7, "x", 1000.0, 0)), InputSet(("q", 1)), lambda x, u: _MIXED_STEPS[(x, u)], name="mixed5x2"
    )


def test_the_cli_config_of_mixed5x2_states_this_table():
    """``tools/compare_trees.py`` runs ``mixed5x2`` through the CLI from its own config text, which must state
    the table ``_mixed5x2`` states: the same labels, of the same types, and the same successors."""
    text = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "compare_trees.py"))["_MIXED"]
    via_cli, here = resolve_system(parse_config_text(text)), _mixed5x2()
    typed = lambda labels: [(type(v), v) for v in labels]
    assert typed(via_cli.states.labels) == typed(here.states.labels)
    assert typed(via_cli.inputs.labels) == typed(here.inputs.labels)
    pairs = [(x, u) for x in here.states.labels for u in here.inputs.labels]
    assert typed(via_cli.transition(x, u) for x, u in pairs) == typed(here.transition(x, u) for x, u in pairs)


_BOX_PLAN = dict(seed=7, n_points=200, n_functions=10)

CASES = {
    "finite3_exact": lambda: (builtin_system("finite3"), exact_plan(seed=7)),
    "collapse2_exact": lambda: (builtin_system("collapse2"), exact_plan(seed=7)),
    "scalarlinear_sampled": lambda: (builtin_system("scalarlinear"), sampled_plan(**_BOX_PLAN)),
    "logistic_sampled": lambda: (
        builtin_system("logistic-with-offset"),
        sampled_plan(**_BOX_PLAN),
    ),
    "table6x3_exact": lambda: (_table6x3(), exact_plan(seed=7)),
    "mixed5x2_exact": lambda: (_mixed5x2(), exact_plan(seed=7)),
    "flaky7_exact": lambda: (_flaky_finite3(7), exact_plan(seed=7)),
    "flaky23_exact": lambda: (_flaky_finite3(23), exact_plan(seed=7)),
    "noisy_box_sampled": lambda: (_noisy_box(), sampled_plan(**_BOX_PLAN)),
}


def _report(name: str) -> str:
    system, plan = CASES[name]()
    return results_to_json(run_all(system, plan).results)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden_bytes(name):
    expected = (DATA / f"golden_{name}.json").read_text()
    assert _report(name) == expected


def _table32x3():
    """The perfbench 32x3 table of seed 7, as its config states it."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
    return resolve_system(parse_config_text(workloads["table_config"](7))), exact_plan(seed=7)


@pytest.mark.parametrize("name", [
    "finite3_exact", "collapse2_exact", "mixed5x2_exact", "flaky7_exact", "flaky23_exact", "noisy_box_sampled",
    "scalarlinear_sampled", "table32x3",
])
def test_plain_function_lists_write_the_reports_the_basis_readers_write(name):
    """Each basis reads as one matrix; handed as plain lists, its functions are read one by one.
    The call-counter systems are built afresh for each run."""
    make = CASES.get(name, _table32x3)
    report = results_to_json(run_all(*make()).results)
    builders = ("_state_basis", "_aug_basis", "_seq_basis", "_ci_seq_direct")
    plain = {b: (lambda build: lambda sys: list(build(sys)))(getattr(checks, b)) for b in builders}
    with mock.patch.multiple(checks, **plain):
        assert results_to_json(run_all(*make()).results) == report


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (DATA / f"golden_{name}.json").write_text(_report(name))
        print(f"wrote golden_{name}.json")
