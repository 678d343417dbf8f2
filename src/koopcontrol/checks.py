"""Executable registry of the operator-encoding identities.

Each check evaluates both sides of one identity (or hunts for one
documented counterexample) over enumerated or plan-sampled scenarios and
reports the maximum absolute discrepancy.  Finite systems are checked
over exhaustive state/input/function bases, where indicator functions
span the whole observable space, so any linear identity that fails
anywhere fails on the basis.  Box systems are checked over seeded
samples and random linear combinations of a built-in basis; a clean pass
there is a non-refutation certificate, with the evaluation count
recorded.

Results are deterministic: every check draws from a generator seeded by
(plan seed, check index), so run order and concurrency cannot change the
outcome, and reports contain no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnsupportedError
from .observables import (
    DomainTag,
    Observable,
    Sampled,
    constant_one,
    coordinate,
    enumerate_points,
    indicator,
    is_control_independent,
    linear_combine,
    monomial,
    pair_indicator,
    state_component,
)
from .operators import (
    apply,
    ci_isomorphisms,
    extend_to_constant_sequence,
    extension_aug_to_inf,
    extension_f_to_aug,
    freeze_input,
    drop_input,
    input_aug_well_definedness,
    k_aug,
    k_inf,
    k_u,
    kcf_word,
    power,
    restrict_to_first_input,
    restriction_aug_to_f,
    restriction_inf_to_aug,
    two_step_discrepancy_witness,
    WellDefinednessReason,
)
from .systems import (
    AugmentedMap,
    ConstantInputMap,
    ControlSystem,
    FiniteStates,
    InfiniteSequenceMap,
    InputSequence,
    RealBox,
    random_sequence,
    random_state,
    simulate,
)

__all__ = [
    "SamplePlan",
    "CheckResult",
    "RunSummary",
    "exact_plan",
    "sampled_plan",
    "check_ids",
    "describe_check",
    "run_check",
    "run_all",
    "results_to_json",
    "results_to_text",
]


@dataclass(frozen=True)
class SamplePlan:
    """Sampling budget and tolerance for one registry run."""

    n_points: int = 200
    n_functions: int = 20
    seq_prefix_max: int = 4
    seq_period_max: int = 3
    rng_seed: int = 0
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.n_points < 1 or self.n_functions < 1 or self.seq_period_max < 1:
            raise ValueError("plan bounds must be positive")
        if self.seq_prefix_max < 0 or self.tolerance < 0:
            raise ValueError("plan bounds must be nonnegative")


def exact_plan(seed: int = 0, n_points: int = 200) -> SamplePlan:
    """Zero-tolerance plan for finite systems."""
    return SamplePlan(n_points=n_points, rng_seed=seed, tolerance=0.0)


def sampled_plan(
    seed: int, n_points: int = 1000, n_functions: int = 50, tolerance: float = 1e-12
) -> SamplePlan:
    """Seeded sampling plan for box systems."""
    return SamplePlan(
        n_points=n_points,
        n_functions=n_functions,
        rng_seed=seed,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class CheckResult:
    id: str
    passed: bool
    max_abs_error: float
    counterexample: Optional[str]
    n_evaluated: int
    note: str = ""


@dataclass(frozen=True)
class RunSummary:
    results: tuple
    n_pass: int
    n_fail: int

    @property
    def all_passed(self) -> bool:
        return self.n_fail == 0


class _Recorder:
    """Tracks the max discrepancy and the first point exceeding tolerance."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.max_err = 0.0
        self.n = 0
        self.counterexample = None
        self.note = ""

    def record(self, err: float, describe: Callable) -> None:
        err = float(err)
        self.n += 1
        if err > self.max_err:
            self.max_err = err
        if err > self.tolerance and self.counterexample is None:
            self.counterexample = describe()

    def values(self, a: complex, b: complex, describe: Callable) -> None:
        self.record(abs(a - b), describe)


def _state_err(sys: ControlSystem, a, b) -> float:
    if isinstance(sys.states, FiniteStates):
        return 0.0 if a == b else 1.0
    return float(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))))


def _pair_err(sys: ControlSystem, p, q) -> float:
    return max(_state_err(sys, p[0], q[0]), 0.0 if p[1] == q[1] else 1.0)


def _rand_seq(sys: ControlSystem, plan: SamplePlan, rng) -> InputSequence:
    return random_sequence(
        rng, sys.inputs.labels, plan.seq_prefix_max, plan.seq_period_max
    )


def _scenario_states(sys, plan, rng) -> list:
    if isinstance(sys.states, FiniteStates):
        return list(sys.states.labels)
    return random_state(rng, sys.states, plan.n_points)


def _scenario_pairs(sys, plan, rng) -> list:
    if isinstance(sys.states, FiniteStates):
        return list(enumerate_points(DomainTag.STATE_INPUT, sys))
    labels = sys.inputs.labels
    return [
        (random_state(rng, sys.states), labels[int(rng.integers(len(labels)))])
        for _ in range(plan.n_points)
    ]


def _scenario_seq_points(sys, plan, rng, n=None) -> list:
    n = plan.n_points if n is None else n
    return [(random_state(rng, sys.states), _rand_seq(sys, plan, rng)) for _ in range(n)]


def _product_obs(phi: Observable, table: dict) -> Observable:
    inner = phi.fn
    return Observable(
        DomainTag.STATE_INPUT,
        lambda p: inner(p[0]) * table[p[1]],
        label=f"{phi.label}*w(u)",
    )


def _tap_obs(phi: Observable, table: dict, k: int) -> Observable:
    inner = phi.fn
    return Observable(
        DomainTag.STATE_SEQUENCE,
        lambda p: inner(p[0]) * table[p[1].at(k)],
        label=f"{phi.label}*w(u({k}))",
    )


def _state_basis(sys: ControlSystem) -> list:
    if isinstance(sys.states, FiniteStates):
        return [indicator(x) for x in sys.states.labels] + [
            constant_one(DomainTag.STATE_ONLY)
        ]
    box: RealBox = sys.states
    basis = [constant_one(DomainTag.STATE_ONLY)]
    for i in range(box.dimension):
        basis.append(coordinate(i))
        basis.append(monomial(tuple(2 if j == i else 0 for j in range(box.dimension))))
    return basis


def _weight_table(sys: ControlSystem) -> dict:
    return {u: 1.0 + 0.5 * j for j, u in enumerate(sys.inputs.labels)}


def _aug_basis(sys: ControlSystem) -> list:
    if isinstance(sys.states, FiniteStates):
        return [pair_indicator(x, u) for x, u in enumerate_points(DomainTag.STATE_INPUT, sys)]
    table = _weight_table(sys)
    basis = [constant_one(DomainTag.STATE_INPUT)]
    for phi in _state_basis(sys)[1:]:
        basis.append(_product_obs(phi, table))
        basis.append(_product_obs(phi, {u: 1.0 for u in table}))
    basis.append(_product_obs(constant_one(DomainTag.STATE_ONLY), table))
    return basis


def _seq_basis(sys: ControlSystem) -> list:
    table = _weight_table(sys)
    basis = [constant_one(DomainTag.STATE_SEQUENCE)]
    phis = _state_basis(sys)
    if isinstance(sys.states, FiniteStates):
        phis = phis[:-1]  # indicators already span; drop the redundant constant
    else:
        phis = phis[1:]
    for k in (0, 1, 2):
        for phi in phis:
            basis.append(_tap_obs(phi, table, k))
    return basis


def _functions(sys, plan, rng, basis: list) -> list:
    """Exhaustive basis on finite systems, seeded random combinations on boxes."""
    if isinstance(sys.states, FiniteStates):
        return basis
    out = []
    for _ in range(plan.n_functions):
        coeffs = rng.uniform(-1, 1, size=len(basis)) + 1j * rng.uniform(
            -1, 1, size=len(basis)
        )
        out.append(linear_combine(coeffs, basis))
    return out


def _ci_seq_direct(sys: ControlSystem) -> list:
    """Sequence-domain observables that ignore the sequence, by construction."""
    u0 = sys.inputs.labels[0]
    stamp = InputSequence.constant(u0)
    out = []
    for phi in _state_basis(sys):
        inner = phi.fn
        out.append(
            Observable(
                DomainTag.STATE_SEQUENCE,
                lambda p, inner=inner: inner(p[0]),
                label=f"{phi.label}*1",
                ci_input=stamp,
            )
        )
    return out


def _pairings(scenarios: list, funcs: list, finite: bool) -> list:
    """Full cross product on finite systems, cycled pairing on boxes."""
    if finite:
        return [(s, f) for f in funcs for s in scenarios]
    return [(s, funcs[i % len(funcs)]) for i, s in enumerate(scenarios)]


def _is_finite(sys: ControlSystem) -> bool:
    return isinstance(sys.states, FiniteStates)


# --- check runners ---------------------------------------------------------


def _run_c1(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    rmap = restrict_to_first_input()
    emap = extend_to_constant_sequence()
    for x, u in _scenario_pairs(sys, plan, rng):
        back = rmap(emap((x, u)))
        rec.record(
            _pair_err(sys, back, (x, u)), lambda x=x, u=u: f"pair ({x!r}, {u!r})"
        )
    return rec


def _run_c2(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    rop = restriction_inf_to_aug()
    eop = extension_aug_to_inf()
    scenarios = _scenario_pairs(sys, plan, rng)
    funcs = _functions(sys, plan, rng, _aug_basis(sys))
    for p, g in _pairings(scenarios, funcs, _is_finite(sys)):
        rec.values(
            apply(rop, apply(eop, g))(p),
            g(p),
            lambda p=p, g=g: f"{g.label} at {p!r}",
        )
    return rec


def _run_c3(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    iso = ci_isomorphisms(sys)
    inner_seed = int(rng.integers(2**32))
    count = min(plan.n_points, 100)
    for j, f in enumerate(_functions(sys, plan, rng, _state_basis(sys))):
        h = apply(iso.extend_aug_to_seq, apply(iso.extend_state_to_aug, f))
        report = is_control_independent(
            h, sys, Sampled(count, inner_seed + j), tol=plan.tolerance or 1e-15
        )
        rec.record(
            0.0 if report.independent else 1.0,
            lambda f=f, report=report: f"extension of {f.label} varies: {report.witness!r}",
        )
    for j, h in enumerate(_ci_seq_direct(sys)):
        g = apply(iso.restrict_seq_to_aug, h)
        mode = None if _is_finite(sys) else Sampled(count, inner_seed - 1 - j)
        report = is_control_independent(g, sys, mode, tol=plan.tolerance or 1e-15)
        rec.record(
            0.0 if report.independent else 1.0,
            lambda h=h, report=report: f"restriction of {h.label} varies: {report.witness!r}",
        )
    return rec


def _run_c4(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    dmap = drop_input()
    for u_star in sys.inputs.labels:
        fmap = freeze_input(u_star)
        for x in _scenario_states(sys, plan, rng):
            rec.record(
                _state_err(sys, dmap(fmap(x)), x),
                lambda x=x, u=u_star: f"state {x!r} via input {u!r}",
            )
    return rec


def _run_c5(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    eop = extension_f_to_aug()
    scenarios = _scenario_states(sys, plan, rng)
    funcs = _functions(sys, plan, rng, _state_basis(sys))
    for u_star in sys.inputs.labels:
        rop = restriction_aug_to_f(u_star, sys)
        for x, f in _pairings(scenarios, funcs, _is_finite(sys)):
            rec.values(
                apply(rop, apply(eop, f))(x),
                f(x),
                lambda x=x, f=f, u=u_star: f"{f.label} at {x!r}, input {u!r}",
            )
    return rec


def _run_c6(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    iso = ci_isomorphisms(sys)
    state_funcs = _functions(sys, plan, rng, _state_basis(sys))
    ci_aug = [apply(iso.extend_state_to_aug, f) for f in state_funcs]
    pair_scen = _scenario_pairs(sys, plan, rng)
    for p, g in _pairings(pair_scen, ci_aug, _is_finite(sys)):
        back = apply(iso.restrict_seq_to_aug, apply(iso.extend_aug_to_seq, g))
        rec.values(back(p), g(p), lambda p=p, g=g: f"{g.label} at {p!r}")
    ci_seq = _ci_seq_direct(sys)
    seq_scen = _scenario_seq_points(sys, plan, rng)
    for p, h in _pairings(seq_scen, ci_seq, _is_finite(sys)):
        fwd = apply(iso.extend_aug_to_seq, apply(iso.restrict_seq_to_aug, h))
        rec.values(fwd(p), h(p), lambda p=p, h=h: f"{h.label} at {p!r}")
    return rec


def _run_c7(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    iso = ci_isomorphisms(sys)
    ci_aug = [
        apply(iso.extend_state_to_aug, f)
        for f in _functions(sys, plan, rng, _state_basis(sys))
    ]
    labels = sys.inputs.labels
    scenarios = _scenario_states(sys, plan, rng)
    for i, u1 in enumerate(labels):
        for u2 in labels[i + 1 :]:
            r1 = restriction_aug_to_f(u1, sys)
            r2 = restriction_aug_to_f(u2, sys)
            for x, g in _pairings(scenarios, ci_aug, _is_finite(sys)):
                rec.values(
                    apply(r1, g)(x),
                    apply(r2, g)(x),
                    lambda x=x, g=g, u1=u1, u2=u2: f"{g.label} at {x!r}, inputs {u1!r}/{u2!r}",
                )
    return rec


def _run_c8(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    iso = ci_isomorphisms(sys)
    state_funcs = _functions(sys, plan, rng, _state_basis(sys))
    scenarios = _scenario_states(sys, plan, rng)
    for x, f in _pairings(scenarios, state_funcs, _is_finite(sys)):
        back = apply(iso.restrict_aug_to_state, apply(iso.extend_state_to_aug, f))
        rec.values(back(x), f(x), lambda x=x, f=f: f"{f.label} at {x!r}")
    ci_aug = [apply(iso.extend_state_to_aug, f) for f in state_funcs]
    pair_scen = _scenario_pairs(sys, plan, rng)
    for p, g in _pairings(pair_scen, ci_aug, _is_finite(sys)):
        fwd = apply(iso.extend_state_to_aug, apply(iso.restrict_aug_to_state, g))
        rec.values(fwd(p), g(p), lambda p=p, g=g: f"{g.label} at {p!r}")
    return rec


def _run_c9(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    tinf = InfiniteSequenceMap(sys)
    taug = AugmentedMap(sys)
    rmap = restrict_to_first_input()
    emap = extend_to_constant_sequence()
    for x, u in _scenario_pairs(sys, plan, rng):
        left = tinf(emap((x, u)))
        right = emap(taug((x, u)))
        err = max(
            _state_err(sys, left[0], right[0]), 0.0 if left[1] == right[1] else 1.0
        )
        rec.record(err, lambda x=x, u=u: f"intertwining at ({x!r}, {u!r})")
        rec.record(
            _pair_err(sys, rmap(tinf(emap((x, u)))), taug((x, u))),
            lambda x=x, u=u: f"factorization at ({x!r}, {u!r})",
        )
    return rec


def _run_c10(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    taug = AugmentedMap(sys)
    dmap = drop_input()
    for u_star in sys.inputs.labels:
        tmap = ConstantInputMap(sys, u_star)
        fmap = freeze_input(u_star)
        for x in _scenario_states(sys, plan, rng):
            rec.record(
                _pair_err(sys, taug(fmap(x)), fmap(tmap(x))),
                lambda x=x, u=u_star: f"intertwining at {x!r}, input {u!r}",
            )
            rec.record(
                _state_err(sys, dmap(taug(fmap(x))), tmap(x)),
                lambda x=x, u=u_star: f"factorization at {x!r}, input {u!r}",
            )
    return rec


def _run_c11(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    kin, kau = k_inf(sys), k_aug(sys)
    rop, eop = restriction_inf_to_aug(), extension_aug_to_inf()
    pair_scen = _scenario_pairs(sys, plan, rng)
    seq_funcs = _functions(sys, plan, rng, _seq_basis(sys))
    for p, h in _pairings(pair_scen, seq_funcs, _is_finite(sys)):
        rec.values(
            apply(rop, apply(kin, h))(p),
            apply(kau, apply(rop, h))(p),
            lambda p=p, h=h: f"intertwining: {h.label} at {p!r}",
        )
    aug_funcs = _functions(sys, plan, rng, _aug_basis(sys))
    for p, g in _pairings(pair_scen, aug_funcs, _is_finite(sys)):
        rec.values(
            apply(kau, g)(p),
            apply(rop, apply(kin, apply(eop, g)))(p),
            lambda p=p, g=g: f"factorization: {g.label} at {p!r}",
        )
    return rec


def _run_c12(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    kau = k_aug(sys)
    eop = extension_f_to_aug()
    state_scen = _scenario_states(sys, plan, rng)
    aug_funcs = _functions(sys, plan, rng, _aug_basis(sys))
    state_funcs = _functions(sys, plan, rng, _state_basis(sys))
    for u_star in sys.inputs.labels:
        rop = restriction_aug_to_f(u_star, sys)
        ku = k_u(sys, u_star)
        for x, g in _pairings(state_scen, aug_funcs, _is_finite(sys)):
            rec.values(
                apply(rop, apply(kau, g))(x),
                apply(ku, apply(rop, g))(x),
                lambda x=x, g=g, u=u_star: f"intertwining: {g.label} at {x!r}, input {u!r}",
            )
        for x, f in _pairings(state_scen, state_funcs, _is_finite(sys)):
            rec.values(
                apply(ku, f)(x),
                apply(rop, apply(kau, apply(eop, f)))(x),
                lambda x=x, f=f, u=u_star: f"factorization: {f.label} at {x!r}, input {u!r}",
            )
    return rec


def _run_c13(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    iso = ci_isomorphisms(sys)
    kin, kau = k_inf(sys), k_aug(sys)
    rop = restriction_inf_to_aug()
    state_funcs = _functions(sys, plan, rng, _state_basis(sys))
    ci_aug = [apply(iso.extend_state_to_aug, f) for f in state_funcs]
    state_scen = _scenario_states(sys, plan, rng)
    pair_scen = _scenario_pairs(sys, plan, rng)
    for u_star in sys.inputs.labels:
        ru = restriction_aug_to_f(u_star, sys)
        ku = k_u(sys, u_star)
        for x, f in _pairings(state_scen, state_funcs, _is_finite(sys)):
            rec.values(
                apply(ku, f)(x),
                apply(ru, apply(kau, apply(iso.extend_state_to_aug, f)))(x),
                lambda x=x, f=f, u=u_star: f"one-hop: {f.label} at {x!r}, input {u!r}",
            )
            rec.values(
                apply(ku, f)(x),
                apply(
                    ru,
                    apply(
                        rop,
                        apply(
                            kin,
                            apply(
                                iso.extend_aug_to_seq,
                                apply(iso.extend_state_to_aug, f),
                            ),
                        ),
                    ),
                )(x),
                lambda x=x, f=f, u=u_star: f"two-hop: {f.label} at {x!r}, input {u!r}",
            )
    for p, g in _pairings(pair_scen, ci_aug, _is_finite(sys)):
        rec.values(
            apply(kau, g)(p),
            apply(rop, apply(kin, apply(iso.extend_aug_to_seq, g)))(p),
            lambda p=p, g=g: f"middle-hop: {g.label} at {p!r}",
        )
    return rec


def _run_c14(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    iso = ci_isomorphisms(sys)
    kin = k_inf(sys)
    funcs = _functions(sys, plan, rng, _state_basis(sys))
    scenarios = _scenario_seq_points(sys, plan, rng)
    for i, (x0, seq) in enumerate(scenarios):
        k = int(rng.integers(0, 6))
        word = [seq.at(j) for j in range(k)]
        x_k = simulate(sys, x0, seq, k)[-1]
        for f in funcs if _is_finite(sys) else [funcs[i % len(funcs)]]:
            truth = f(x_k)
            via_word = apply(kcf_word(sys, word), f)(x0)
            lifted = apply(iso.extend_aug_to_seq, apply(iso.extend_state_to_aug, f))
            via_inf = apply(power(kin, k), lifted)((x0, seq))
            rec.values(
                truth,
                via_word,
                lambda f=f, x0=x0, word=word: f"word path: {f.label}, x0={x0!r}, word={word!r}",
            )
            rec.values(
                truth,
                via_inf,
                lambda f=f, x0=x0, seq=seq, k=k: f"sequence path: {f.label}, x0={x0!r}, k={k}",
            )
    return rec


def _run_c15(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    kin = k_inf(sys)
    ci_seq = _ci_seq_direct(sys)
    scenarios = _scenario_seq_points(sys, plan, rng)
    for i, (x0, seq) in enumerate(scenarios):
        k = int(rng.integers(0, 6))
        x_k = simulate(sys, x0, seq, k)[-1]
        for h in ci_seq if _is_finite(sys) else [ci_seq[i % len(ci_seq)]]:
            rec.values(
                state_component(h)(x_k),
                apply(power(kin, k), h)((x0, seq)),
                lambda h=h, x0=x0, k=k: f"{h.label}, x0={x0!r}, k={k}",
            )
    return rec


def _run_c16(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    iso = ci_isomorphisms(sys)
    kau = k_aug(sys)
    state_funcs = _functions(sys, plan, rng, _state_basis(sys))
    ci_aug = [apply(iso.extend_state_to_aug, f) for f in state_funcs]
    pair_scen = _scenario_pairs(sys, plan, rng)
    for p, g in _pairings(pair_scen, ci_aug, _is_finite(sys)):
        next_state = AugmentedMap(sys)(p)[0]
        rec.values(
            apply(kau, g)(p),
            state_component(g)(next_state),
            lambda p=p, g=g: f"single step: {g.label} at {p!r}",
        )
    witness = two_step_discrepancy_witness(sys, tol=plan.tolerance or 1e-12)
    if witness is None:
        rec.note = "no two-step discrepancy exists for this system"
    else:
        lifted = apply(iso.extend_state_to_aug, witness.observable)
        v_power = apply(power(kau, 2), lifted)((witness.x, witness.word[0]))
        v_word = apply(kcf_word(sys, witness.word), witness.observable)(witness.x)
        gap = abs(v_power - v_word)
        rec.record(
            0.0 if gap > (plan.tolerance or 1e-12) else 1.0,
            lambda: "claimed two-step witness shows no gap",
        )
        rec.note = (
            f"two steps diverge at x={witness.x!r}, word={witness.word!r}: "
            f"frozen-input value {v_power:.6g} vs word value {v_word:.6g}"
        )
    return rec


def _run_c17(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    funcs = _functions(sys, plan, rng, _state_basis(sys))
    labels = sys.inputs.labels
    states = _scenario_states(sys, plan, rng)
    if _is_finite(sys):
        states = [x for _ in range(6) for x in states]  # cover word lengths 0..5
    for i, x0 in enumerate(states):
        length = i % 6
        word = [labels[int(rng.integers(len(labels)))] for _ in range(length)]
        seq = InputSequence(tuple(word), (labels[0],))
        x_k = simulate(sys, x0, seq, length)[-1]
        for g in funcs if _is_finite(sys) else [funcs[i % len(funcs)]]:
            rec.values(
                apply(kcf_word(sys, word), g)(x0),
                g(x_k),
                lambda g=g, x0=x0, word=word: f"{g.label}, x0={x0!r}, word={word!r}",
            )
    return rec


def _run_c18(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    from .systems import RecoveryMethod, recover_trajectory

    scenarios = _scenario_seq_points(sys, plan, rng)
    for x0, seq in scenarios:
        k = int(rng.integers(0, 11))
        truth = simulate(sys, x0, seq, k)
        for method in RecoveryMethod:
            got = recover_trajectory(sys, x0, seq, k, method)
            err = max(
                (_state_err(sys, a, b) for a, b in zip(truth, got)), default=0.0
            )
            rec.record(
                err,
                lambda x0=x0, seq=seq, k=k, m=method: (
                    f"method {m.value}, x0={x0!r}, k={k}, seq={seq!r}"
                ),
            )
    return rec


def _run_c19(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    probes = _aug_basis(sys)
    report = input_aug_well_definedness(sys, probes, tol=plan.tolerance or 1e-12)
    if len(sys.inputs.labels) == 1:
        ok = report.reason is WellDefinednessReason.SINGLETON_INPUT
        rec.note = "single input: construction well defined"
    else:
        # The probe set contains input-dependent functions, so a witness
        # showing the construction is ill defined must turn up.
        ok = report.reason is WellDefinednessReason.WITNESS_FOUND
        if report.witness is not None:
            label, x, u, u1, u2, v1, v2 = report.witness
            ok = ok and abs(v1 - v2) > (plan.tolerance or 1e-12)
            rec.note = (
                f"witness: probe {label} at T({x!r}, {u!r}) gives "
                f"{v1:.6g} under {u1!r} vs {v2:.6g} under {u2!r}"
            )
    rec.record(0.0 if ok else 1.0, lambda: f"unexpected report: {report!r}")
    return rec


def _run_c20(sys, plan, rng):
    rec = _Recorder(plan.tolerance)
    kin = k_inf(sys)
    n_consts = min(plan.n_functions, 8)
    consts = [
        linear_combine(
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))],
            [constant_one(DomainTag.STATE_SEQUENCE)],
        )
        for _ in range(n_consts)
    ]
    scenarios = _scenario_seq_points(sys, plan, rng, n=min(plan.n_points, 200))
    for p, c in _pairings(scenarios, consts, True):
        rec.values(
            apply(kin, c)(p),
            c(p),
            lambda p=p, c=c: f"constant {c.label} moved at {p!r}",
        )
    rec.note = "constants are fixed points: a constants-only space sees no dynamics"
    return rec


_REGISTRY = [
    ("C1", "restricting after extending is the identity on state-input pairs", False, _run_c1),
    ("C2", "extend-then-restrict is the identity on pair observables", False, _run_c2),
    ("C3", "extensions and restrictions preserve control independence", False, _run_c3),
    ("C4", "freezing an input then dropping it is the identity on states", False, _run_c4),
    ("C5", "input-freeze restriction after input-blind extension is the identity", False, _run_c5),
    ("C6", "round trips between control-independent pair and sequence observables", False, _run_c6),
    ("C7", "all input-freeze restrictions agree on control-independent observables", False, _run_c7),
    ("C8", "round trips between state observables and control-independent pairs", False, _run_c8),
    ("C9", "sequence dynamics intertwine with augmented dynamics via constant sequences", False, _run_c9),
    ("C10", "augmented dynamics intertwine with each constant-input map", False, _run_c10),
    ("C11", "sequence and augmented Koopman operators agree through restriction", False, _run_c11),
    ("C12", "augmented and constant-input Koopman operators agree through restriction", False, _run_c12),
    ("C13", "all three operators act identically on control-independent observables", False, _run_c13),
    ("C14", "trajectory values via input words and via sequence powers match simulation", False, _run_c14),
    ("C15", "sequence-operator powers read state components along trajectories", False, _run_c15),
    ("C16", "augmented operator captures one step exactly, two steps diverge", False, _run_c16),
    ("C17", "input-word operators evaluate observables at simulated endpoints", False, _run_c17),
    ("C18", "all three reformulations rebuild simulated trajectories", False, _run_c18),
    ("C19", "input-as-state construction is ill defined unless inputs are trivial", True, _run_c19),
    ("C20", "the sequence operator fixes constants, so constants capture nothing", False, _run_c20),
]

_BY_ID = {cid: (i, desc, finite_only, runner) for i, (cid, desc, finite_only, runner) in enumerate(_REGISTRY)}


def check_ids() -> list:
    return [cid for cid, _, _, _ in _REGISTRY]


def describe_check(check_id: str) -> str:
    if check_id not in _BY_ID:
        raise ValueError(f"unknown check id {check_id!r}")
    return _BY_ID[check_id][1]


def is_applicable(check_id: str, sys: ControlSystem) -> bool:
    if check_id not in _BY_ID:
        raise ValueError(f"unknown check id {check_id!r}")
    return _is_finite(sys) or not _BY_ID[check_id][2]


def run_check(check_id: str, sys: ControlSystem, plan: SamplePlan) -> CheckResult:
    """Run one registered check and report max discrepancy and a counterexample.

    The check's generator is seeded by (plan seed, check index), so results
    do not depend on which other checks run or in what order.
    """
    if check_id not in _BY_ID:
        raise ValueError(f"unknown check id {check_id!r}")
    index, _, finite_only, runner = _BY_ID[check_id]
    if finite_only and not _is_finite(sys):
        raise UnsupportedError(f"{check_id} needs a finite system")
    if plan.tolerance == 0.0 and not _is_finite(sys):
        raise ValueError("zero tolerance is reserved for finite systems")
    rng = np.random.default_rng([plan.rng_seed, index])
    rec = runner(sys, plan, rng)
    passed = rec.max_err <= plan.tolerance
    return CheckResult(
        id=check_id,
        passed=passed,
        max_abs_error=rec.max_err,
        counterexample=None if passed else rec.counterexample,
        n_evaluated=rec.n,
        note=rec.note,
    )


def run_all(sys: ControlSystem, plan: SamplePlan, only=None) -> RunSummary:
    """Run every applicable check (or the ``only`` subset) against one system."""
    ids = check_ids() if only is None else list(only)
    results = []
    for cid in ids:
        if not is_applicable(cid, sys):
            continue
        results.append(run_check(cid, sys, plan))
    n_pass = sum(1 for r in results if r.passed)
    return RunSummary(tuple(results), n_pass, len(results) - n_pass)


def results_to_json(results) -> str:
    """Deterministic JSON: one object per check, no timestamps."""
    payload = [
        {
            "id": r.id,
            "pass": r.passed,
            "max_abs_error": r.max_abs_error,
            "n_evaluated": r.n_evaluated,
            "counterexample": r.counterexample,
            "note": r.note,
        }
        for r in results
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def results_to_text(results) -> str:
    """Aligned table for humans."""
    lines = [f"{'id':<5} {'status':<6} {'max_abs_error':>13} {'n':>8}  note"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        extra = r.note or (r.counterexample or "")
        lines.append(
            f"{r.id:<5} {status:<6} {r.max_abs_error:>13.3e} {r.n_evaluated:>8}  {extra}"
        )
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
