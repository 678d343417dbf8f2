"""Map caller point lists through every public entry and print what comes back.

Usage::

    PYTHONPATH=src python tools/public_entry_probe.py

Three systems: ``logistic-with-offset`` with its ``transition_batch``, the
same without it (stepped point by point), and ``finite3``.  Each public
operator (the Koopman operators, the bridges, the control-independent
isomorphisms, ``kcf_word``, chains built with ``compose`` and powers) maps
plain lists of its target domain's points, once as a whole list and once
point by point with ``precompose``; ``evaluate`` and the call ``obs(p)``
read observables over the same lists.  The lists are drawn from a seeded
generator and hold, one case each, bad, ragged, nested ragged and text
states, and unknown, unhashable, NaN and ``-0.0`` input labels, and a tuple
label holding a list (hashable by type, but its hash raises); one more case
is empty.  An operator and an observable of the caller's own, each a list
map that adds a list to the points it is given, show that a caller's map is
handed the caller's list.  Each line prints the ``repr`` of the result, or the error, and the transitions
stepped (per-point calls plus the rows of batch calls, so a batch and the
``step`` loop count alike).  The output is deterministic, so two source
trees compare by their output bytes (``tools/compare_trees.py``).
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce

import numpy as np

from koopcontrol import (
    CompositionOperator,
    DomainTag,
    InputSequence,
    Observable,
    apply,
    builtin_system,
    certify_control_independent,
    ci_isomorphisms,
    compose,
    constant_one,
    coordinate,
    evaluate,
    extension_aug_to_inf,
    extension_f_to_aug,
    identity_operator,
    indicator,
    k_aug,
    k_inf,
    k_naive,
    k_u,
    kcf_word,
    linear_combine,
    monomial,
    pair_indicator,
    power,
    random_sequences,
    random_state,
    restriction_aug_to_f,
    restriction_inf_to_aug,
    state_component,
)

STATE, PAIR, SEQ = DomainTag.STATE_ONLY, DomainTag.STATE_INPUT, DomainTag.STATE_SEQUENCE
NAN = float("nan")


def _counted(sys):
    """``sys`` with the transitions it steps counted in ``calls[0]``: one per call, one per batch row."""
    calls = [0]

    def transition(x, u):
        calls[0] += 1
        return sys.transition(x, u)

    def transition_batch(xs, u):
        calls[0] += len(xs)
        return sys.transition_batch(xs, u)

    batch = transition_batch if sys.transition_batch is not None else None
    return replace(sys, transition=transition, transition_batch=batch), calls


def _with(points: list, at: int, point) -> list:
    return points[:at] + [point] + points[at:]


def _lists(sys, rng) -> dict:
    """Domain -> case -> a plain list of that domain's points."""
    labels = sys.inputs.labels
    box = not hasattr(sys.states, "labels")
    xs = list(random_state(rng, sys.states, 5))
    us = [labels[i] for i in rng.integers(len(labels), size=5).tolist()]
    seqs = random_sequences(rng, labels, 5)
    if box:
        bad = {"outside": np.array([1.5]), "nan state": np.array([NAN]), "ragged": np.array([0.25, 0.5]),
               "float state": 0.375, "list state": [0.625], "text state": "a", "text list state": ["a"],
               "nested ragged state": [[0.625], [0.625, 0.125]]}
        odd = {"-0.0 label": -0.0, "nan label": NAN}
    else:
        bad = {"unknown state": 9, "unhashable state": [1], "float state": 1.0}
        odd = {"nan label": NAN}
    odd.update({"unknown label": "z", "unhashable label": ["a"], "tuple label": ("a", ["b"])})
    u0 = labels[0]
    states = {"good": xs, **{case: _with(xs, 2, x) for case, x in bad.items()}}
    pairs = {"good": list(zip(xs, us)), **{case: _with(list(zip(xs, us)), 2, (x, u0)) for case, x in bad.items()},
             **{case: _with(list(zip(xs, us)), 1, (xs[0], u)) for case, u in odd.items()}}
    seq_points = {"good": list(zip(xs, seqs)),
                  **{case: _with(list(zip(xs, seqs)), 2, (x, seqs[0])) for case, x in bad.items()}}
    for case, u in odd.items():
        seq_points[case + " first"] = _with(list(zip(xs, seqs)), 1, (xs[0], InputSequence((u,), (u0, u))))
        seq_points[case + " later"] = _with(list(zip(xs, seqs)), 3, (xs[1], InputSequence((u0,), (u0, u))))
    for cases in (states, pairs, seq_points):
        cases["empty"] = []
    return {STATE: states, PAIR: pairs, SEQ: seq_points}


def _operators(sys) -> dict:
    labels, iso = sys.inputs.labels, ci_isomorphisms(sys)
    u0, u1 = labels[0], labels[-1]
    R, E, E_f, K_aug, K_inf = restriction_inf_to_aug(), extension_aug_to_inf(), extension_f_to_aug(), k_aug(sys), k_inf(sys)
    ops = {f"K_u[{u!r}]": k_u(sys, u) for u in labels}
    ops.update({f"R_u[{u!r}]": restriction_aug_to_f(u, sys) for u in labels})
    ops.update({
        "K_aug": K_aug, "K_inf": K_inf, "K_naive": k_naive(sys), "R": R, "E": E, "E_f": E_f,
        "R_u[no system]": restriction_aug_to_f(u0), "R_u[unhashable]": restriction_aug_to_f(["a"]),
        "E_ci": iso.extend_state_to_aug, "R_ci": iso.restrict_aug_to_state,
        "E_ci_seq": iso.extend_aug_to_seq, "R_ci_seq": iso.restrict_seq_to_aug,
        "id state": identity_operator(STATE), "id pair": identity_operator(PAIR), "id seq": identity_operator(SEQ),
        "word": kcf_word(sys, [u0, u1, u0]),
        "R K_inf": compose(R, K_inf), "K_aug R": compose(K_aug, R), "R K_inf E": reduce(compose, [R, K_inf, E]),
        "R_u K_aug": compose(ops[f"R_u[{u0!r}]"], K_aug), "K_u R_u": compose(ops[f"K_u[{u0!r}]"], ops[f"R_u[{u0!r}]"]),
        "R_u K_aug E_f": reduce(compose, [ops[f"R_u[{u1!r}]"], K_aug, E_f]), "E K_aug": compose(E, K_aug),
        "K_aug^2": power(K_aug, 2), "K_inf^2": power(K_inf, 2), "K_u^3": power(ops[f"K_u[{u1!r}]"], 3),
        "K_aug^0": power(K_aug, 0),
        "own copy": CompositionOperator(STATE, STATE, lambda xs: xs + [], label="copy"),
    })
    ops["K_u own copy"] = compose(ops[f"K_u[{u0!r}]"], ops["own copy"])
    if 0.0 in labels:
        ops["K_u[-0.0]"], ops["R_u[-0.0]"] = k_u(sys, -0.0), restriction_aug_to_f(-0.0, sys)
    return ops


def _observables(sys, ops: dict) -> dict:
    box = not hasattr(sys.states, "labels")
    labels = sys.inputs.labels
    if box:
        state = {"x0": coordinate(0), "x0^2": monomial((2,)), "x1": coordinate(1)}
        pair = {"x0 w": linear_combine([0.5, 2j], [apply(ops["E_f"], coordinate(0)), constant_one(PAIR)])}
    else:
        state = {"1[x=1]": indicator(1), "1[x=1.0]": indicator(1.0), "1[x=nan]": indicator(NAN)}
        pair = {"1[x=1,u=b]": pair_indicator(1, "b"), "1[x=1,u=nan]": pair_indicator(1, NAN)}
    state.update({"1": constant_one(STATE), "fn": Observable(STATE, fn=lambda x: complex(np.sum(x)), label="sum"),
                  "own batch": Observable(STATE, batch=lambda xs: [complex(np.sum(x)) for x in xs + []], label="sums")})
    lifted = apply(ops["E_ci"], next(iter(state.values())))
    pair.update({"E_f f": apply(ops["E_f"], next(iter(state.values()))),
                 "state_component": state_component(certify_control_independent(lifted, sys)),
                 "fn": Observable(PAIR, fn=lambda p: complex(labels.index(p[1])), label="position")})
    seq = {"E f": apply(ops["E"], next(iter(pair.values()))), "E_ci_seq E_ci f": apply(ops["E_ci_seq"], lifted),
           "1": constant_one(SEQ), "fn": Observable(SEQ, fn=lambda p: complex(len(p[1].period)), label="period")}
    found, certified = {STATE: state, PAIR: pair, SEQ: seq}, {PAIR: lifted, SEQ: seq["E_ci_seq E_ci f"]}
    applied = {}
    for name, op in ops.items():  # each operator applied to one subject of its source domain
        g = certified[op.source] if op.requires_ci else next(iter(found[op.source].values()))
        applied[f"{name}[{g.label}]"] = apply(op, g)
    for name, obs in applied.items():
        found[obs.domain][name] = obs
    return found


def _show(calls: list, run) -> str:
    calls[0] = 0
    try:
        out = repr(run())
    except Exception as exc:
        out = f"{type(exc).__name__}: {exc}"
    return f"{out}  [transitions {calls[0]}]"


def main() -> None:
    base = builtin_system("logistic-with-offset")
    for name, sys in (("box", base), ("box-loop", replace(base, transition_batch=None)),
                      ("finite3", builtin_system("finite3"))):
        sys, calls = _counted(sys)
        lists, ops = _lists(sys, np.random.default_rng(7)), _operators(sys)
        observables = _observables(sys, ops)
        for op_name, op in ops.items():
            for case, points in lists[op.target].items():
                print(f"{name} {op_name} {case} whole: {_show(calls, lambda: op.batch(points))}")
                print(f"{name} {op_name} {case} each: {_show(calls, lambda: [op.precompose(p) for p in points])}")
        for domain, by_name in observables.items():
            for obs_name, obs in by_name.items():
                for case, points in lists[domain].items():
                    print(f"{name} evaluate {obs_name} {case}: {_show(calls, lambda: evaluate(obs, points))}")
                    print(f"{name} call {obs_name} {case}: {_show(calls, lambda: [obs(p) for p in points])}")


if __name__ == "__main__":
    main()
