"""Complex-valued observables over the three point domains.

Every observable carries a :class:`DomainTag` naming where its points
live: states alone, (state, input) pairs, or (state, input-sequence)
pairs.  Observables form a vector space under pointwise combination and
can be tested for control independence, i.e. whether their value ignores
the input component entirely.  A passed test certifies the observable by
stamping a canonical witness input on it; downstream operations that are
only meaningful on control-independent functions require that stamp.

:func:`evaluate` reads an observable over a whole list of points at once.
Every observable built here (and every ``apply`` of an operator to one)
is defined by its list map ``batch`` alone, which computes all the values
in array passes; a call at one point is the one-element read.  An
observable built from a bare ``fn`` is read one point at a time.
``is_control_independent`` draws its sample first and then reads both
sides in one batch.  A batch reads a point list's columns
(``systems._Points``): state-basis batches its stacked states, indicators
its state and label codes, comparing each distinct label once.  A library
batch codes a caller's plain list once where it enters (``systems._entry``);
a batch of the caller's own is handed the caller's list as it is.  States
that do not stack as one float array are read one state at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ContractError, DomainError, DomainMismatchError, UnsupportedError
from .systems import (
    ControlSystem,
    FiniteStates,
    InputSequence,
    _by_object,
    _entry,
    _state_column,
    random_sequences,
    random_state,
)

__all__ = [
    "DomainTag",
    "Observable",
    "evaluate",
    "CIReport",
    "Exhaustive",
    "Sampled",
    "linear_combine",
    "is_control_independent",
    "certify_control_independent",
    "state_component",
    "tabulate",
    "enumerate_points",
    "indicator",
    "pair_indicator",
    "coordinate",
    "monomial",
    "constant_one",
]


class DomainTag(Enum):
    STATE_ONLY = "state"
    STATE_INPUT = "state-input"
    STATE_SEQUENCE = "state-sequence"


def _as_complex(value) -> complex:
    if isinstance(value, np.ndarray):
        value = value.item()
    return complex(value)


@dataclass(frozen=True)
class Observable:
    """A complex-valued function tagged with its point domain.

    ``ci_input`` is the certification witness for control independence:
    ``None`` means uncertified, otherwise it holds the canonical input
    (an input label, or a constant sequence of one) at which the state
    component may be read off.

    The function is given as exactly one of two maps, and the other is
    derived when it is read.  ``fn`` maps one point to its value; ``batch``
    maps a nonempty list of points to the list of their values.  Neither
    checks domains; :func:`evaluate` and the call do that.  A call at one
    point reads ``batch([point])[0]``, and an observable given ``fn`` is
    read over a list one point at a time.
    """

    domain: DomainTag
    fn: Optional[Callable] = None
    label: str = ""
    ci_input: object = None
    batch: Optional[Callable] = None

    def __post_init__(self):
        if (self.fn is None) == (self.batch is None):
            raise ValueError("an observable takes exactly one of fn and batch")

    def __call__(self, point) -> complex:
        _check_points(self.domain, [point])
        return complex(_values(self, [point])[0])


def _pointwise(fn: Callable, points: list) -> np.ndarray:
    return np.array([_as_complex(fn(p)) for p in points], dtype=complex)


def _values(obs: Observable, points) -> np.ndarray:
    """``obs`` over ``points`` as a complex array, without domain checks."""
    if not len(points):
        return np.empty(0, dtype=complex)
    if obs.fn is not None:  # a bare function, read point by point
        return _pointwise(obs.fn, points)
    return np.asarray(obs.batch(points), dtype=complex)


def _check_points(domain: DomainTag, points) -> None:
    """Raise :class:`DomainMismatchError` at the first point outside ``domain``.  A list the library built
    of this domain's kind (``systems._Points.kind``) is one of its points by construction, unless its
    table codes an :class:`InputSequence` as a label; only then, or for a plain list, is each point checked."""
    if domain is not DomainTag.STATE_ONLY:
        seq = domain is DomainTag.STATE_SEQUENCE
        if getattr(points, "kind", None) == domain.value and (
            seq or not any(isinstance(u, InputSequence) for u in points.table.labels)
        ):
            return
        for p in points:
            if not (isinstance(p, tuple) and len(p) == 2):
                raise DomainMismatchError(f"domain {domain.value} expects a (state, ...) pair, got {p!r}")
            if isinstance(p[1], InputSequence) is not seq:
                raise DomainMismatchError(
                    "domain state-sequence expects an InputSequence second component"
                    if seq else "domain state-input got an InputSequence second component"
                )


def evaluate(obs: Observable, points) -> np.ndarray:
    """The values of ``obs`` at every point, as one complex array.

    Equal bit for bit to ``[obs(p) for p in points]``.  Every point's
    domain is checked before any value is read, and the first point
    outside the domain raises what ``obs(p)`` would.  A value that cannot
    be read raises what the per-point call raises at a failing point
    (with several failing points, not always at the first).
    """
    points = list(points)
    _check_points(obs.domain, points)
    return _values(obs, points)


def _abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``abs(a - b)`` entry by entry, through the libm ``hypot`` that
    Python's complex ``abs`` calls, and without floating-point warnings; a
    modulus too large for a float is inf, where Python raises."""
    with np.errstate(all="ignore"):
        d = a - b
        return np.hypot(d.real, d.imag)


def _combined(n: int, terms) -> np.ndarray:
    """The sum of ``c * v`` over ``terms`` (``v``: ``n`` values; ``c``: one complex or one per value),
    term by term with the complex product spelled out as Python computes it: the scalar path's bits."""
    re, im = np.zeros(n), np.zeros(n)
    with np.errstate(all="ignore"):
        for c, v in terms:
            re += c.real * v.real - c.imag * v.imag
            im += c.real * v.imag + c.imag * v.real
    out = np.empty(n, dtype=complex)
    out.real, out.imag = re, im
    return out


def linear_combine(coeffs, observables) -> Observable:
    """Pointwise linear combination; all observables must share one domain."""
    coeffs = [complex(c) for c in coeffs]
    observables = list(observables)
    if len(coeffs) != len(observables):
        raise ValueError("coefficient and observable lists differ in length")
    if not observables:
        raise ValueError("need at least one observable")
    domains = {o.domain for o in observables}
    if len(domains) != 1:
        raise DomainMismatchError("cannot combine observables on different domains")
    (domain,) = domains
    pairs = tuple(zip(coeffs, observables))

    def batch(points):
        return _combined(len(points), ((c, _values(o, points)) for c, o in pairs))

    stamps = {o.ci_input for o in observables}
    stamp = stamps.pop() if len(stamps) == 1 else None
    label = " + ".join(f"({c:.3g})*{o.label or 'f'}" for c, o in pairs)
    return Observable(domain, label=label, ci_input=stamp, batch=batch)


@dataclass(frozen=True)
class Exhaustive:
    """Check every (state, input-pair) combination; exact on finite domains."""


@dataclass(frozen=True)
class Sampled:
    """Check randomly drawn points and input pairs from a seeded generator."""

    count: int
    seed: int


@dataclass(frozen=True)
class CIReport:
    independent: bool
    witness: Optional[tuple]
    mode: object


def is_control_independent(
    obs: Observable, sys: ControlSystem, mode=None, tol: float = 1e-12
) -> CIReport:
    """Test whether ``obs`` ignores its input component.

    Exhaustive mode scans the triples ``(x, u0, u)`` state-major, with
    ``u0`` the first input label and ``u`` each later one; it is only
    available for state-input observables over finite state spaces.
    Sampled mode draws all its states, then all its input pairs (or both
    lists of eventually-periodic sequences), from a seeded generator, one
    array each; a negative witness refutes independence, while a clean
    pass is a non-refutation certificate, recorded as such through the
    ``mode`` field of the report.

    Either mode reads every point of its scan in one :func:`evaluate`
    before it reports the first witness in scan order, so an observable
    that raises anywhere in the scan raises here, even after a witness.
    """
    if obs.domain is DomainTag.STATE_ONLY:
        raise DomainMismatchError("state-only observables have no input to vary")
    labels = sys.inputs.labels
    if mode is None:
        exhaustible = (
            isinstance(sys.states, FiniteStates)
            and obs.domain is DomainTag.STATE_INPUT
        )
        mode = Exhaustive() if exhaustible else Sampled(200, 0)
    if isinstance(mode, Exhaustive):
        if not isinstance(sys.states, FiniteStates):
            raise UnsupportedError("exhaustive mode needs a finite state space")
        if obs.domain is not DomainTag.STATE_INPUT:
            raise UnsupportedError("exhaustive mode needs a state-input observable")
        triples = [(x, labels[0], u) for x in sys.states.labels for u in labels[1:]]
    elif isinstance(mode, Sampled):
        rng, n = np.random.default_rng(mode.seed), mode.count
        xs = random_state(rng, sys.states, n)
        if obs.domain is DomainTag.STATE_INPUT:  # two distinct labels per point, if there are two
            i, j = rng.integers(len(labels), size=n), rng.integers(max(len(labels) - 1, 1), size=n)
            j += (j >= i) & (len(labels) > 1)
            w1s, w2s = [labels[k] for k in i.tolist()], [labels[k] for k in j.tolist()]
        else:
            w1s, w2s = random_sequences(rng, labels, n), random_sequences(rng, labels, n)
        triples = list(zip(xs, w1s, w2s))
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    values = evaluate(obs, [(x, w1) for x, w1, _ in triples] + [(x, w2) for x, _, w2 in triples])
    first = _first_gap(values[: len(triples)], values[len(triples) :], tol)
    if first is None:
        return CIReport(True, None, mode)
    return CIReport(False, triples[first], mode)


def _first_gap(a: np.ndarray, b: np.ndarray, tol: float) -> Optional[int]:
    """Index of the first ``|a - b|`` that is not ``<= tol`` (NaN
    included), or ``None``."""
    bad = np.flatnonzero(~(_abs_diff(a, b) <= tol))
    return int(bad[0]) if bad.size else None


def certify_control_independent(
    obs: Observable, sys: ControlSystem, mode=None, tol: float = 1e-12
) -> Observable:
    """Verify control independence and stamp the canonical witness input.

    The canonical witness is the system's first input label, or the
    constant sequence of it for sequence-domain observables.  Refutation
    raises :class:`ContractError` carrying the witness triple.
    """
    report = is_control_independent(obs, sys, mode=mode, tol=tol)
    if not report.independent:
        raise ContractError(
            f"observable {obs.label!r} is input-dependent; witness {report.witness!r}"
        )
    u0 = sys.inputs.labels[0]
    stamp = u0 if obs.domain is DomainTag.STATE_INPUT else InputSequence.constant(u0)
    return replace(obs, ci_input=stamp)


def state_component(obs: Observable) -> Observable:
    """The state-only factor of a certified control-independent observable."""
    if obs.domain is DomainTag.STATE_ONLY:
        raise DomainMismatchError("observable already lives on states only")
    if obs.ci_input is None:
        raise ContractError("observable is not certified control-independent")
    witness = obs.ci_input
    return Observable(
        DomainTag.STATE_ONLY,
        label=f"state<{obs.label or 'f'}>",
        batch=lambda xs: _values(obs, [(x, witness) for x in xs]),
    )


def enumerate_points(domain: DomainTag, sys: ControlSystem) -> tuple:
    """Canonical enumeration of a finite point domain.

    States follow declaration order; (state, input) pairs are state-major.
    Sequence domains and boxes have no finite enumeration.
    """
    if not isinstance(sys.states, FiniteStates):
        raise UnsupportedError("enumeration needs a finite state space")
    if domain is DomainTag.STATE_ONLY:
        return tuple(sys.states.labels)
    if domain is DomainTag.STATE_INPUT:
        return tuple((x, u) for x in sys.states.labels for u in sys.inputs.labels)
    raise UnsupportedError("state-sequence domains have no finite enumeration")


def tabulate(obs: Observable, sys: ControlSystem) -> np.ndarray:
    """Value vector of ``obs`` over the canonical enumeration of its domain."""
    return evaluate(obs, enumerate_points(obs.domain, sys))


def _hits(values: list, codes: np.ndarray, label) -> np.ndarray:
    """Whether each coded value ``values[codes[i]]`` is ``==`` ``label``, comparing each value coded once."""
    used = list(dict.fromkeys(codes.tolist()))  # by first sight: a compare that raises does so at its first point
    equal = np.zeros(len(values), dtype=bool)
    equal[used] = [bool(values[c] == label) for c in used]
    return equal[codes]


def _state_hits(xs, label) -> np.ndarray:
    """:func:`_hits` of a state list: its finite state codes, else each distinct state object."""
    return _hits(xs.space.labels, xs.xcodes, label) if xs.xcodes is not None else _hits(*_by_object(xs), label)


def indicator(x_star) -> Observable:
    """1 at the state labelled ``x_star``, 0 elsewhere (finite state spaces)."""
    batch = _entry("state", lambda xs: _state_hits(xs, x_star).astype(complex))
    return Observable(DomainTag.STATE_ONLY, label=f"1[x={x_star}]", batch=batch)


def pair_indicator(x_star, u_star) -> Observable:
    """1 at the pair ``(x_star, u_star)``, 0 elsewhere."""
    batch = _entry("state-input",
                   lambda ps: (_state_hits(ps.firsts, x_star) & _hits(ps.table.labels, ps.codes, u_star)).astype(complex))
    return Observable(DomainTag.STATE_INPUT, label=f"1[x={x_star},u={u_star}]", batch=batch)


def coordinate(i: int) -> Observable:
    """The ``i``-th state coordinate, ``-d <= i < d`` for a ``d``-dimensional
    state (works on numeric labels for ``i`` = 0 or -1)."""

    def batch(xs):
        arr = _state_column(xs)
        if arr is None:  # states that do not stack: one at a time
            return _pointwise(lambda x: batch([x])[0], xs)
        if not -arr.shape[1] <= i < arr.shape[1]:
            raise DomainError(f"coordinate {i} out of range for state {xs[0]!r}")
        return arr[:, i].astype(complex)

    return Observable(DomainTag.STATE_ONLY, label=f"x{i}", batch=batch)


class MonomialFn:
    """The list map of :func:`monomial`; ``powers`` holds its exponent tuple,
    so a dictionary of monomials can evaluate them all in one array op."""

    __slots__ = ("powers", "_exponents")

    def __init__(self, powers: tuple):
        self.powers = powers
        self._exponents = np.asarray(powers)

    def __call__(self, xs: list) -> np.ndarray:
        """The monomial at every state of ``xs``, as a complex array."""
        arr = _state_column(xs)
        if arr is None:  # states that do not stack: one at a time
            return _pointwise(lambda x: self([x])[0], xs)
        if arr.shape[1] != len(self.powers):
            raise DomainError(f"state dimension {arr.shape[1]} does not match powers {self.powers}")
        return _monomials(arr, self._exponents[None])[:, 0].astype(complex)


def _monomials(arr: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The ``(n, k)`` values of ``k`` monomials, exponent rows ``powers``
    ``(k, d)``, at ``n`` stacked states ``arr`` ``(n, d)``, with the bits of
    :class:`MonomialFn`'s read of one state.

    The exponents are copied out to one contiguous entry per power: numpy
    takes another power routine for a broadcast exponent, or for a lone
    entry of a 3-D array, than for the flat arrays of that read, and then
    ~3% of 1-D ``x^2`` values differ in the last bit.
    """
    exponents = np.broadcast_to(powers, (len(arr), *powers.shape)).copy()
    if exponents.size == 1:  # one state, one monomial, one coordinate
        return (arr.ravel() ** exponents.ravel()).reshape(1, 1)
    return (arr[:, None, :] ** exponents).prod(axis=-1)


def monomial(powers) -> Observable:
    """Product of state coordinates raised to the given powers."""
    powers = tuple(int(p) for p in powers)
    terms = [f"x{i}^{p}" for i, p in enumerate(powers) if p]
    label = "*".join(terms) or "1"
    return Observable(DomainTag.STATE_ONLY, label=label, batch=MonomialFn(powers))


def constant_one(domain: DomainTag) -> Observable:
    """The constant function 1 on the given domain."""
    return Observable(domain, label="1", batch=lambda ps: np.ones(len(ps), dtype=complex))
