"""The identity registry run the slow way: a reference for the check engine.

Each row of ``checks._REGISTRY`` makes the same ``_DRAWS`` calls, in the same
order, as ``checks._run_table``, and reads each drawn list only by iterating
it.  Each side of a leg is the ``compose`` product of its chain, applied to
the subject with ``apply`` and read at one point at a time with ``obs(p)``;
point-level legs compare ``op.precompose(p)`` point by point.  Discrepancies
are recorded one by one with ``_Recorder.record`` in the documented order:
subject-major on finite systems and in ``cross`` groups, point ``i`` with
subject ``i % k`` elsewhere, and leg by leg within a point.  Rows with their
own runner (C16, C19) are called as they are.

Transitions that are not functions are out of scope: their reports depend on
the order of the transition calls.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from koopcontrol import checks
from koopcontrol.operators import apply
from koopcontrol.systems import FiniteStates


def _listed(drawn):
    """A drawn list as the list of its items, or a dict of such lists."""
    if isinstance(drawn, dict):
        return {key: list(value) for key, value in drawn.items()}
    return list(drawn)


def _abs(a: complex, b: complex) -> float:
    try:
        return abs(a - b)
    except OverflowError:  # a modulus past float range
        return float("inf")


def _gap(space, a, b) -> float:
    """0 or 1 for equal or different finite points (pairs and paths compare whole); on boxes the largest
    coordinate gap of two states or paths, and of a pair's states with 1 where their inputs differ."""
    if isinstance(space, FiniteStates):
        return 0.0 if a == b else 1.0
    if isinstance(a, tuple):
        return float(np.maximum(_gap(space, a[0], b[0]), 0.0 if a[1] == b[1] else 1.0))
    with np.errstate(all="ignore"):
        return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def _run_group(sys, rec, group, drawn: dict, inputs: dict) -> None:
    named = checks._named(sys, inputs)
    fields = {key: repr(u) for key, u in inputs.items()}
    points = drawn[group.points]
    points = points[inputs["u"]] if isinstance(points, dict) else points
    chains = list(dict.fromkeys(c for _, a, b in group.legs for c in (a, b)))
    products = dict(zip(chains, checks._products(named, chains)))
    if not group.funcs:
        for p in points:
            mapped = {c: p if not c else products[c].precompose(p) for c in chains}
            for text, a, b in group.legs:
                rec.record(_gap(sys.states, mapped[a], mapped[b]), lambda: checks._describe(text, p, fields))
        return
    lift, _, fset = group.funcs.rpartition(" ")
    subjects = drawn[fset]
    if lift:
        lift_op = checks._products(named, [lift])[0]
        subjects = [apply(lift_op, f) for f in subjects]
    sides = {c: [g if not c else apply(products[c], g) for g in subjects] for c in chains}
    k, n = len(subjects), len(points)
    every = group.cross or isinstance(sys.states, FiniteStates)
    order = [(j, i) for j in range(k) for i in range(n)] if every else [(i % k, i) for i in range(n)]

    def value(chain, j, p) -> complex:  # a trajectory point is no point of the applied side's domain
        if isinstance(p, checks._Trajectory):
            return subjects[j](products[chain].precompose(p))
        return sides[chain][j](p)

    for j, i in order:
        p = points[i]
        for text, a, b in group.legs:
            err = _abs(value(a, j, p), value(b, j, p))
            rec.record(err, lambda: checks._describe(text, p, fields, subjects[j].label))


def _run_row(check, sys, plan, rng):
    run = check.run
    if not (isinstance(run, partial) and run.func is checks._run_table):
        return run(sys, plan, rng)
    draws, groups, note = run.keywords["draws"], run.keywords["groups"], run.keywords["note"]
    rec = checks._Recorder(plan.tolerance)
    rec.note = note
    table = checks._SeqTable(sys.inputs.labels)
    drawn = {name: _listed(checks._DRAWS[name](sys, plan, rng, table)) for name in draws}
    labels = sys.inputs.labels
    pairs = [{"u1": a, "u2": b} for i, a in enumerate(labels) for b in labels[i + 1 :]]
    for u in labels:
        for group in (g for g in groups if g.over == "u"):
            _run_group(sys, rec, group, drawn, {"u": u})
    for group in (g for g in groups if g.over != "u"):
        for inputs in pairs if group.over == "uu" else [{}]:
            _run_group(sys, rec, group, drawn, inputs)
    return rec


def run_all(sys, plan) -> list:
    """The :class:`~koopcontrol.checks.CheckResult` of every applicable row, as ``checks.run_all`` reports."""
    results = []
    for index, check in enumerate(checks._REGISTRY):
        if check.finite_only and not isinstance(sys.states, FiniteStates):
            continue
        rec = _run_row(check, sys, plan, np.random.default_rng([plan.rng_seed, index]))
        results.append(checks.CheckResult(check.id, rec.passed, rec.max_err, rec.counterexample, rec.n, rec.note))
    return results
