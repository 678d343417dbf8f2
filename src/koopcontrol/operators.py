"""Composition operators on observables, and the maps connecting their domains.

Every operator here acts by precomposition: ``apply(op, f)`` is the
observable ``p -> f(m(p))`` for the operator's underlying point map
``m``.  This covers the Koopman operators of the three input-free
reformulations, the naive construction that cannot be iterated, and the
restriction/extension operators that move observables between the
state-only, state-input, and state-sequence domains.  On finite domains
each operator has an exact 0-1 matrix realization.

Each operator is defined by one list map, ``batch``, which maps a whole
list of points at once (a Koopman operator steps them all through
``_step_many``); the map of one point is the one-element call.  A list
map reads the columns of a point list (``systems._Points``: stacked box
states, finite state codes, label codes, sequence ids) and returns the
mapped list's columns: ``K_inf`` steps with the head codes and moves each
id to its tail.  A caller's plain list is checked and coded once where it
enters a library operator's ``batch`` (``systems._entry``), and the caller
gets a plain list of points back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DomainError, DomainMismatchError, UnsupportedError
from .observables import DomainTag, Observable, _values, coordinate, enumerate_points, indicator
from .systems import (
    ControlSystem,
    FiniteStates,
    InputSequence,
    _Points,
    _SeqTable,
    _entry,
    _keyed,
    _step_many,
    random_state,
    range_map,
    states_equal,
    step,
)

__all__ = [
    "CompositionOperator",
    "WellDefinednessReason",
    "WellDefinednessReport",
    "TwoStepWitness",
    "CIIsomorphisms",
    "identity_operator",
    "k_u",
    "k_aug",
    "k_inf",
    "k_naive",
    "apply",
    "compose",
    "power",
    "restriction_inf_to_aug",
    "extension_aug_to_inf",
    "restriction_aug_to_f",
    "extension_f_to_aug",
    "ci_isomorphisms",
    "kcf_word",
    "to_matrix",
    "input_aug_well_definedness",
    "two_step_discrepancy_witness",
]


@dataclass(frozen=True)
class CompositionOperator:
    """Linear operator ``f -> f o m`` between observable spaces.

    ``source`` is the domain of acceptable inputs, ``target`` the domain
    of results; ``batch`` is the point map ``m`` over a list: it maps a
    list of target-domain points to the list of their source-domain
    points.  ``requires_ci`` marks operators whose contract only covers
    certified control-independent inputs; ``ci_stamp`` is the witness
    stamped onto results that are control-independent by construction.
    """

    source: DomainTag
    target: DomainTag
    batch: Callable
    label: str = ""
    ci_stamp: object = None
    requires_ci: bool = False

    def precompose(self, point):
        """The source-domain point that ``point`` maps to: ``batch([point])[0]``."""
        return self.batch([point])[0]


def apply(op: CompositionOperator, f: Observable) -> Observable:
    """Apply the operator: result(p) = f(precompose(p)).

    Applying an operator to an observable from the wrong domain raises
    :class:`DomainMismatchError`.  In particular a naive one-sided
    operator cannot be applied to its own output.  The result maps every
    point first and then reads ``f`` over the mapped points.
    """
    if f.domain is not op.source:
        raise DomainMismatchError(
            f"operator {op.label or 'op'} expects {op.source.value} observables, "
            f"got {f.domain.value}"
        )
    if op.requires_ci and f.ci_input is None:
        raise ContractError(
            f"operator {op.label or 'op'} requires a certified "
            "control-independent observable"
        )
    return Observable(
        op.target,
        label=f"{op.label}[{f.label}]" if op.label else f.label,
        ci_input=op.ci_stamp,
        batch=lambda ps: _values(f, op.batch(ps)),
    )


def compose(op1: CompositionOperator, op2: CompositionOperator) -> CompositionOperator:
    """Operator product: ``apply(compose(op1, op2), f) = apply(op1, apply(op2, f))``.

    The product keeps ``apply``'s contract: ``apply(compose(op1, op2), f)``
    raises exactly when ``apply(op1, apply(op2, f))`` raises, and otherwise
    reads the same values with the same certification stamp.  If ``op1``
    requires a certified input and ``op2`` stamps none, every step-by-step
    application raises, so ``compose`` raises :class:`ContractError` at once.
    """
    if op2.target is not op1.source:
        raise DomainMismatchError(
            f"cannot compose {op1.label or 'op1'} after {op2.label or 'op2'}: "
            f"{op2.target.value} != {op1.source.value}"
        )
    if op1.requires_ci and op2.ci_stamp is None:
        raise ContractError(
            f"operator {op1.label or 'op1'} requires a certified control-independent "
            f"observable, and {op2.label or 'op2'} certifies none"
        )
    return CompositionOperator(
        op2.source,
        op1.target,
        lambda ps: op2.batch(op1.batch(ps)),
        label=f"{op1.label} o {op2.label}".strip(),
        ci_stamp=op1.ci_stamp,
        requires_ci=op2.requires_ci,
    )


def _labels(ps: _Points, codes: np.ndarray) -> _Points:
    return _Points(codes=codes, table=ps.table, kind="label")


def identity_operator(domain: DomainTag) -> CompositionOperator:
    return CompositionOperator(domain, domain, _entry(domain.value, lambda ps: ps), label="id")


def k_u(sys: ControlSystem, u_star) -> CompositionOperator:
    """Koopman operator of the constant-input system at ``u_star``."""
    if not sys.inputs.contains(u_star):
        raise DomainError(f"unknown input label: {u_star!r}")
    domain, table = DomainTag.STATE_ONLY, _SeqTable([u_star])  # coded once
    us = lambda n: _Points(codes=np.zeros(n, np.intp), table=table, kind="label")
    return CompositionOperator(domain, domain, _entry(domain.value, lambda xs: _step_many(sys, xs, us(len(xs)))),
                               label=f"K[{u_star}]")


def k_aug(sys: ControlSystem) -> CompositionOperator:
    """Koopman operator of the augmented (input-frozen) system."""
    domain = DomainTag.STATE_INPUT

    def batch(ps):
        ys = _step_many(sys, ps.firsts, _labels(ps, ps.codes))
        return _Points(firsts=ys, codes=ps.codes, table=ps.table, kind=domain.value)

    return CompositionOperator(domain, domain, _entry(domain.value, batch), label="K_aug")


def k_inf(sys: ControlSystem) -> CompositionOperator:
    """Koopman operator of the infinite-sequence system: steps with the
    sequence's head and shifts its tail.  A list call steps with the head
    codes and reads each shift as the tail id in the list's sequence table."""
    domain = DomainTag.STATE_SEQUENCE

    def batch(ps):
        table, ids = _keyed(ps.table), ps.ids
        ys = _step_many(sys, ps.firsts, _labels(ps, table.head[ids]))  # each s.at(0)
        return _Points(firsts=ys, ids=table.shifted(ids), table=table, kind=domain.value)

    return CompositionOperator(domain, domain, _entry(domain.value, batch), label="K_inf")


def k_naive(sys: ControlSystem) -> CompositionOperator:
    """The naive construction: state-only observables in, pair observables out.

    Well defined as a single map, but its target differs from its source,
    so it cannot be applied twice.
    """
    batch = lambda ps: _step_many(sys, ps.firsts, _labels(ps, ps.codes))
    return CompositionOperator(DomainTag.STATE_ONLY, DomainTag.STATE_INPUT, _entry(DomainTag.STATE_INPUT.value, batch),
                               label="K_naive")


def power(op: CompositionOperator, k: int) -> CompositionOperator:
    """k-fold composition of an endomorphism; ``k = 0`` gives the identity."""
    if op.source is not op.target:
        raise DomainMismatchError("powers need source and target domains to agree")
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k == 0:
        return identity_operator(op.source)

    def batch(ps):
        for _ in range(k):
            ps = op.batch(ps)
        return ps

    return CompositionOperator(op.source, op.target, batch, label=f"{op.label}^{k}")


def restriction_inf_to_aug() -> CompositionOperator:
    """Sequence observables restricted to constant sequences: (x, u) -> (x, (u, u, ...)).
    A list call reads one constant per label code from the list's sequence table."""

    def batch(ps):
        table = _keyed(ps.table)
        ids = table.intern_keys([((), (c,)) for c in range(len(table.labels))])[ps.codes]  # each label's constant
        return _Points(firsts=ps.firsts, ids=ids, table=table, kind="state-sequence")

    return CompositionOperator(DomainTag.STATE_SEQUENCE, DomainTag.STATE_INPUT,
                               _entry(DomainTag.STATE_INPUT.value, batch), label="R:inf->aug")


def extension_aug_to_inf() -> CompositionOperator:
    """Pair observables extended to sequences via the first input: (x, s) -> (x, s(0))."""
    batch = lambda ps: _Points(firsts=ps.firsts, codes=_keyed(ps.table).head[ps.ids], table=ps.table,
                               kind="state-input")
    return CompositionOperator(DomainTag.STATE_INPUT, DomainTag.STATE_SEQUENCE,
                               _entry(DomainTag.STATE_SEQUENCE.value, batch), label="E:aug->inf")


def restriction_aug_to_f(u_star, sys: Optional[ControlSystem] = None) -> CompositionOperator:
    """Pair observables with the input frozen at ``u_star``: x -> (x, u_star).  A list call's pairs
    carry the code of ``u_star`` in a table of the operator's own."""
    if sys is not None and not sys.inputs.contains(u_star):
        raise DomainError(f"unknown input label: {u_star!r}")
    table = _SeqTable([u_star])
    batch = lambda xs: _Points(firsts=xs, codes=np.zeros(len(xs), dtype=np.intp), table=table, kind="state-input")
    return CompositionOperator(DomainTag.STATE_INPUT, DomainTag.STATE_ONLY, _entry(DomainTag.STATE_ONLY.value, batch),
                               label=f"R[{u_star}]:aug->state")


def extension_f_to_aug() -> CompositionOperator:
    """State observables extended to pairs by ignoring the input: (x, u) -> x."""
    batch = _entry(DomainTag.STATE_INPUT.value, lambda ps: ps.firsts)
    return CompositionOperator(DomainTag.STATE_ONLY, DomainTag.STATE_INPUT, batch, label="E:state->aug")


@dataclass(frozen=True)
class CIIsomorphisms:
    """The four bijections between state-only observables and the
    control-independent subspaces of the two augmented domains.

    Extensions stamp their results as certified (they are
    control-independent by construction); restrictions require certified
    inputs and stay inside the control-independent subspaces.
    """

    extend_state_to_aug: CompositionOperator
    restrict_aug_to_state: CompositionOperator
    extend_aug_to_seq: CompositionOperator
    restrict_seq_to_aug: CompositionOperator


def ci_isomorphisms(sys: ControlSystem) -> CIIsomorphisms:
    """Build the control-independent isomorphism operators for ``sys``.

    They are the four plain bridges with certification stamps.  The
    system supplies the canonical witness: its first input label, or the
    constant sequence of it.
    """
    u0 = sys.inputs.labels[0]
    return CIIsomorphisms(
        extend_state_to_aug=replace(extension_f_to_aug(), label="E:state->aug(ci)", ci_stamp=u0),
        restrict_aug_to_state=replace(
            restriction_aug_to_f(u0), label="R:aug(ci)->state", requires_ci=True
        ),
        extend_aug_to_seq=replace(
            extension_aug_to_inf(),
            label="E:aug(ci)->inf(ci)",
            ci_stamp=InputSequence.constant(u0),
            requires_ci=True,
        ),
        restrict_seq_to_aug=replace(
            restriction_inf_to_aug(),
            label="R:inf(ci)->aug(ci)",
            ci_stamp=u0,
            requires_ci=True,
        ),
    )


def kcf_word(sys: ControlSystem, inputs) -> CompositionOperator:
    """Product of constant-input Koopman operators along a finite input word.

    The leftmost operator carries the earliest input, so the underlying
    point map runs the word through the dynamics in given order:
    ``precompose(x) = T_{u_last}( ... T_{u_first}(x))``.  The empty word
    gives the identity.
    """
    word = tuple(inputs)
    factors = [k_u(sys, u) for u in word]  # raises at the first unknown label
    if not factors:
        return identity_operator(DomainTag.STATE_ONLY)
    return replace(reduce(compose, factors), label=f"K_word{list(word)}")


def to_matrix(op: CompositionOperator, sys: ControlSystem) -> np.ndarray:
    """Materialize a composition operator as a 0-1 row-selection matrix.

    Rows follow the canonical enumeration of the target domain, columns
    that of the source domain, so that
    ``tabulate(apply(op, f)) == to_matrix(op, sys) @ tabulate(f)``.
    Only operators between enumerable domains qualify; anything touching
    the sequence domain has no finite matrix and is rejected.  The target
    enumeration is mapped once, as one list.
    """
    rows = enumerate_points(op.target, sys)
    cols = enumerate_points(op.source, sys)
    index = {p: j for j, p in enumerate(cols)}
    entries = np.zeros((len(rows), len(cols)), dtype=complex)
    for i, (p, q) in enumerate(zip(rows, op.batch(list(rows)))):
        if q not in index:
            raise DomainError(f"precompose left the enumerated domain at {p!r} -> {q!r}")
        entries[i, index[q]] = 1.0
    return entries


class WellDefinednessReason(Enum):
    SINGLETON_INPUT = "singleton-input"
    ALL_RESTRICTIONS_INPUT_FREE = "all-restrictions-input-free"
    WITNESS_FOUND = "witness-found"


@dataclass(frozen=True)
class WellDefinednessReport:
    well_defined: bool
    reason: WellDefinednessReason
    witness: Optional[tuple]  # (probe label, x, u, u1, u2, value1, value2)


def input_aug_well_definedness(
    sys: ControlSystem, probes, tol: float = 1e-12
) -> WellDefinednessReport:
    """Probe whether treating the input as an extra state gives a well-defined
    operator on pair observables.

    The construction assigns ``f(T(x, u), u')`` without knowing the next
    input ``u'``, so it is only well defined if the input set is a
    singleton, or every probe restricted to reachable states ignores the
    input.  The search runs in a fixed order (probe, then origin pairs
    state-major, then input pairs) so any witness found is reproducible.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("probe list must be nonempty")
    if not isinstance(sys.states, FiniteStates):
        raise UnsupportedError("well-definedness probing needs finite domains")
    labels = sys.inputs.labels
    if len(labels) == 1:
        return WellDefinednessReport(True, WellDefinednessReason.SINGLETON_INPUT, None)
    range_map(sys)  # validates the transition table up front
    for f in probes:
        for x in sys.states.labels:
            for u in labels:
                y = step(sys, x, u)
                for i, u1 in enumerate(labels):
                    v1 = f((y, u1))
                    for u2 in labels[i + 1 :]:
                        v2 = f((y, u2))
                        if not abs(v1 - v2) <= tol:
                            return WellDefinednessReport(
                                False,
                                WellDefinednessReason.WITNESS_FOUND,
                                (f.label, x, u, u1, u2, v1, v2),
                            )
    return WellDefinednessReport(True, WellDefinednessReason.ALL_RESTRICTIONS_INPUT_FREE, None)


@dataclass(frozen=True)
class TwoStepWitness:
    """A point where two augmented steps diverge from a two-input word.

    The augmented system freezes the input, so its second step reuses the
    first input; a genuine trajectory may switch inputs.  The witness
    records the observable, start state, and word exhibiting the gap.
    """

    observable: Observable
    x: object
    word: tuple
    value_power: complex
    value_word: complex


def two_step_discrepancy_witness(sys: ControlSystem, tol: float = 1e-12) -> Optional[TwoStepWitness]:
    """Deterministic search for a two-step mismatch between the augmented
    operator squared and a length-2 input word.

    Finite systems are scanned exhaustively (states, then ordered input
    pairs); box systems over 100 states drawn with seed 0, with the first
    state coordinate as the probe.  Returns ``None`` when no mismatch
    exists within the scan, as happens for dynamics that ignore the input.
    """
    if isinstance(sys.states, FiniteStates):
        starts = sys.states.labels
        probe_of = indicator
    else:
        starts = random_state(np.random.default_rng(0), sys.states, 100)
        probe_of = None
    for x in starts:
        for u0 in sys.inputs.labels:
            mid = step(sys, x, u0)
            frozen = step(sys, mid, u0)
            for u1 in sys.inputs.labels:
                if u1 == u0:
                    continue
                switched = step(sys, mid, u1)
                if not states_equal(sys.states, frozen, switched, tol):
                    obs = probe_of(frozen) if probe_of else coordinate(0)
                    return TwoStepWitness(
                        observable=obs,
                        x=x,
                        word=(u0, u1),
                        value_power=obs(frozen),
                        value_word=obs(switched),
                    )
    return None
