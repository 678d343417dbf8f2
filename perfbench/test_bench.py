"""Self-test of the benchmark's gates and seeded inputs.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_bench.py -q
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest

import workloads as wl
from koopcontrol import (
    ControlSystem,
    FiniteStates,
    InputSet,
    builtin_system,
    exact_plan,
    results_to_json,
    run_all,
)


def _exact_cmd(tmp_path):
    return wl.Command("check", "sys", tmp_path, {"system": "finite3", "exact": True, "seed": 7})


def _unstable():
    """finite3 whose transition flips on a hidden call counter: not a function."""
    calls = {"n": 0}

    def transition(x, u):
        calls["n"] += 1
        if calls["n"] % 13 == 0:
            return 0
        return (x + 1) % 3 if u == "a" else (2 * x) % 3

    return ControlSystem(FiniteStates((0, 1, 2)), InputSet(("a", "b")), transition, name="unstable")


def test_check_gate_trips_on_a_transition_that_is_not_a_function(tmp_path):
    cmd = _exact_cmd(tmp_path)
    honest = json.loads(results_to_json(run_all(builtin_system("finite3"), exact_plan()).results))
    assert wl.gate_report(honest, cmd).failed == 0

    broken = json.loads(results_to_json(run_all(_unstable(), exact_plan()).results))
    outcome = wl.gate_report(broken, cmd)
    assert outcome.attempted == wl.N_CHECKS_FINITE
    assert outcome.failed >= 1
    assert outcome.problems


def test_check_gate_counts_missing_checks_and_unreadable_reports(tmp_path):
    cmd = _exact_cmd(tmp_path)
    honest = json.loads(results_to_json(run_all(builtin_system("finite3"), exact_plan()).results))
    assert wl.gate_report(honest[:-2], cmd).failed == 2
    assert wl.gate(cmd, 0, "").failed == wl.N_CHECKS_FINITE  # no report written


@pytest.mark.parametrize("err", [1e-11, math.nan, math.inf])
def test_sampled_gate_needs_a_finite_error_within_tolerance(tmp_path, err):
    cmd = wl.Command("check", "box", tmp_path, {"system": "scalarlinear", "seed": 7})
    entries = [
        {"id": f"C{i}", "pass": True, "max_abs_error": 0.0, "n_evaluated": 1}
        for i in range(1, wl.N_CHECKS_BOX + 1)
    ]
    assert wl.gate_report(entries, cmd).failed == 0
    entries[3]["max_abs_error"] = err
    assert wl.gate_report(entries, cmd).failed == 1


def _model(perturb=0.0):
    dim = wl.FIT_DEGREE + 1
    matrices = {}
    for u, lam in wl.FIT_LAMBDAS.items():
        rows = [[[lam**k if j == k else 0.0, 0.0] for j in range(dim)] for k in range(dim)]
        rows[1][0][0] += perturb
        matrices[u] = rows
    return {"matrices": matrices}


def test_model_gate_accepts_diag_powers_and_rejects_a_wrong_entry():
    assert wl.gate_model(_model()) == []
    assert wl.gate_model(_model(perturb=1e-6))
    assert wl.gate_model({"matrices": {}})


def test_inputs_come_from_the_seed(tmp_path):
    assert wl.table_config(7) == wl.table_config(7)
    assert wl.table_config(7) != wl.table_config(wl.CONFIRM_SEED)
    assert wl.predict_inputs(7) == wl.predict_inputs(7)
    assert wl.predict_inputs(7) != wl.predict_inputs(wl.CONFIRM_SEED)
    pairs = wl.predict_inputs(7)
    assert len(pairs) == wl.N_PREDICT
    assert all(-1.0 <= x0 <= 1.0 and 1 <= len(word) <= 3 for x0, word in pairs)
    cmds = wl.generate("identify", 7, tmp_path)
    assert [c.kind for c in cmds] == ["fit"] + ["predict"] * wl.N_PREDICT
