"""Control systems, input sequences, and trajectory tools.

A discrete-time control system is a total deterministic map
``x_next = T(x, u)`` over a state space and a finite input set.  The
Koopman operators of its three input-free reformulations (constant
input, input-augmented, and input-sequence) are built in
:mod:`koopcontrol.operators`.

Input sequences are represented by a finite prefix plus a repeating
period, which keeps the left shift exact and makes every finite-horizon
behavior reachable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnsupportedError

__all__ = [
    "StateSpace",
    "FiniteStates",
    "RealBox",
    "InputSet",
    "ControlSystem",
    "InputSequence",
    "step",
    "simulate",
    "shift",
    "range_map",
    "random_sequence",
    "random_sequences",
    "random_state",
    "state_distance",
    "states_equal",
]

_BOX_SLACK = 1e-9  # containment slack for floating-point boundary hits


class StateSpace:
    """Base class for state spaces; see :class:`FiniteStates` and :class:`RealBox`."""


@dataclass(frozen=True)
class FiniteStates(StateSpace):
    """Finite state space given by an ordered tuple of unique labels."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("state label list must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be unique")

    def contains(self, x) -> bool:
        return x in self.labels


@dataclass(frozen=True)
class RealBox(StateSpace):
    """Axis-aligned box in R^d with strict lower < upper per coordinate."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(np.asarray(self.lower, dtype=float)))
        hi = tuple(float(v) for v in np.atleast_1d(np.asarray(self.upper, dtype=float)))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi):
            raise ValueError("lower and upper bounds must have equal length")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError("require lower < upper in every coordinate")
        # Built once: steps check these widened bounds (pairs per state, arrays per stack).
        slack = tuple((a - _BOX_SLACK, b + _BOX_SLACK) for a, b in zip(lo, hi))
        object.__setattr__(self, "_slack_bounds", slack)
        object.__setattr__(self, "_slack_arrays", tuple(np.array(slack).T))

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def coerce(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float).reshape(-1)
        if arr.shape != (self.dimension,):
            raise DomainError(
                f"state has shape {arr.shape}, expected ({self.dimension},)"
            )
        return arr

    def contains(self, x) -> bool:
        try:
            arr = self.coerce(x)
        except DomainError:
            return False
        return self._inside(arr)

    def _inside(self, arr: np.ndarray) -> bool:
        """Slack-widened bound test of an already coerced state; NaN is outside.

        Compares Python floats: for the few coordinates of a box state this
        is several times faster than two numpy reductions.
        """
        for v, (lo, hi) in zip(arr.tolist(), self._slack_bounds):
            if not lo <= v <= hi:
                return False
        return True


@dataclass(frozen=True)
class InputSet:
    """Finite input set given by an ordered tuple of unique labels."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("input label list must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("input labels must be unique")
        object.__setattr__(self, "_positions", {u: i for i, u in enumerate(self.labels)})  # for list steps

    def contains(self, u) -> bool:
        return u in self.labels


@dataclass(frozen=True)
class ControlSystem:
    """A total deterministic transition map over declared state and input sets.

    ``transition_batch``, if given, steps stacked box states at once: row
    ``i`` of ``transition_batch(X, u)`` equals ``transition(X[i], u)`` bit
    for bit.  Declaring it promises that the transition is a function.
    """

    states: StateSpace
    inputs: InputSet
    transition: Callable
    name: str = ""
    transition_batch: Optional[Callable] = None


@dataclass(frozen=True, init=False)
class InputSequence:
    """Eventually-periodic infinite input sequence.

    Element ``k`` is ``prefix[k]`` while the prefix lasts, then the period
    repeats forever.  The fields hold the canonical form (primitive period,
    minimal prefix), computed at construction, so two representations of the
    same infinite sequence store equal fields, compare equal and hash alike:
    ``InputSequence(("a",), ("a",)).prefix == ()``.
    """

    prefix: tuple
    period: tuple

    def __init__(self, prefix, period):
        pre, per = tuple(prefix), tuple(period)
        if not per:
            raise ValueError("period must be nonempty")
        n = len(per)
        for d in range(1, n // 2 + 1):
            if n % d == 0 and per[d:] == per[:-d]:  # per repeats its first d elements
                per = per[:d]
                break
        # Pull the period boundary left while the last prefix element
        # matches the last period element (rotating the period with it).
        while pre and pre[-1] == per[-1]:
            pre, per = pre[:-1], per[-1:] + per[:-1]
        fields = self.__dict__  # frozen: written once, here
        fields["prefix"], fields["period"] = pre, per

    @classmethod
    def constant(cls, u) -> "InputSequence":
        return cls((), (u,))

    def at(self, k: int):
        if k < 0:
            raise ValueError("sequence index must be nonnegative")
        if k < len(self.prefix):
            return self.prefix[k]
        return self.period[(k - len(self.prefix)) % len(self.period)]

    def canonical(self) -> tuple:
        return self.prefix, self.period


def step(sys: ControlSystem, x, u):
    """One transition ``T(x, u)``, with domain validation on both ends."""
    if not sys.inputs.contains(u):
        raise DomainError(f"unknown input label: {u!r}")
    if isinstance(sys.states, FiniteStates):
        if not sys.states.contains(x):
            raise DomainError(f"unknown state label: {x!r}")
        y = sys.transition(x, u)
        if not sys.states.contains(y):
            raise DomainError(f"transition left the state space: {y!r}")
        return y
    box = sys.states
    arr = box.coerce(x)
    if not box._inside(arr):
        raise DomainError(f"state {arr!r} outside the declared box")
    y = box.coerce(sys.transition(arr, u))
    if not box._inside(y):
        raise DomainError(f"transition output {y!r} outside the declared box")
    return y


def _stacked(points: list) -> Optional[np.ndarray]:
    """Numeric states as an ``(n, d)`` float array, or ``None`` when they
    do not stack (then the per-point path raises the precise error)."""
    try:
        return np.asarray(points, dtype=float).reshape(len(points), -1)
    except (TypeError, ValueError):
        return None


def _step_many(sys: ControlSystem, xs: list, us: list) -> list:
    """``[step(sys, x, u) for x, u in zip(xs, us)]`` bit for bit, raising what that loop raises
    first.  On a box with a ``transition_batch``, two or more states are checked at once and
    stepped with one batch call per input label; one state (cheaper alone), other systems, or
    states that do not stack to ``(n, d)`` run the loop."""
    box = sys.states
    batched = sys.transition_batch is not None and isinstance(box, RealBox) and len(xs) > 1
    arr = _stacked(xs) if batched else None
    if arr is None or arr.shape[1] != box.dimension:
        return [step(sys, x, u) for x, u in zip(xs, us)]
    lo, hi = box._slack_arrays
    inside = lambda a: ((a >= lo) & (a <= hi)).all(axis=1)  # NaN is outside
    try:  # each label's position in the input set, -1 for none
        codes = np.fromiter(map(sys.inputs._positions.get, us, repeat(-1)), dtype=np.intp, count=len(us))
    except TypeError:  # an unhashable label: looked up as ``contains`` does
        codes = np.array([sys.inputs.labels.index(u) if sys.inputs.contains(u) else -1 for u in us])
    ok = inside(arr) & (codes >= 0)
    n = len(xs) if ok.all() else int(np.argmin(ok))  # the points before the first bad one
    codes = codes[:n]
    ys = np.empty((n, box.dimension))
    for c in dict.fromkeys(codes.tolist()):  # labels in order of first use
        idx = np.flatnonzero(codes == c)
        y = sys.transition_batch(arr[idx], us[idx[0]])
        ys[idx] = np.asarray(y, dtype=float).reshape(len(idx), box.dimension)
    if not inside(ys).all():
        raise DomainError(f"transition output {ys[np.argmin(inside(ys))]!r} outside the declared box")
    if n < len(xs):
        step(sys, xs[n], us[n])  # raises the loop's error before any transition call
    return list(ys)


def simulate(sys: ControlSystem, x0, seq: InputSequence, k: int) -> list:
    """States ``[x_0, ..., x_k]`` driven by the first ``k`` sequence elements.

    This is the ground-truth oracle every trajectory identity is checked
    against.
    """
    if k < 0:
        raise ValueError("horizon must be nonnegative")
    xs = [x0 if not isinstance(sys.states, RealBox) else sys.states.coerce(x0)]
    for j in range(k):
        xs.append(step(sys, xs[-1], seq.at(j)))
    return xs


def shift(seq: InputSequence) -> InputSequence:
    """Left shift: drops element 0, so ``shift(s).at(k) == s.at(k + 1)``.
    A constant sequence is its own shift, and comes back as the same object."""
    if seq.prefix:
        return InputSequence(seq.prefix[1:], seq.period)
    if len(seq.period) == 1:
        return seq
    return InputSequence((), seq.period[1:] + seq.period[:1])


def range_map(sys: ControlSystem) -> frozenset:
    """The exact set of reachable next states, ``{T(x, u)}`` over all pairs."""
    if not isinstance(sys.states, FiniteStates):
        raise UnsupportedError("range enumeration needs a finite state space")
    return frozenset(
        step(sys, x, u) for x in sys.states.labels for u in sys.inputs.labels
    )


def random_sequence(rng: np.random.Generator, labels, prefix_max=4, period_max=3) -> InputSequence:
    """One eventually-periodic sequence with bounded prefix and period: the one-row draw
    ``random_sequences(rng, labels, 1, prefix_max, period_max)[0]``."""
    return random_sequences(rng, labels, 1, prefix_max, period_max)[0]


def random_sequences(rng: np.random.Generator, labels, n: int, prefix_max=4, period_max=3) -> list:
    """``n`` sequences in three generator calls: the prefix lengths, the period lengths and one
    ``(n, prefix_max + period_max)`` label matrix, row ``i`` holding sequence ``i``'s prefix, then period."""
    labels = tuple(labels)
    plens = rng.integers(0, prefix_max + 1, size=n).tolist()
    qlens = rng.integers(1, period_max + 1, size=n).tolist()
    picks = rng.integers(len(labels), size=(n, prefix_max + period_max)).tolist()
    rows = ([labels[j] for j in row] for row in picks)
    return [InputSequence(row[:p], row[p : p + q]) for row, p, q in zip(rows, plens, qlens)]


def random_state(rng: np.random.Generator, space: StateSpace, n=None):
    """Uniform draw from a state space: one state, or a list of ``n`` states.

    Finite spaces draw label indices, boxes points in the box; ``n`` states
    are one generator call.  One state is the one-element draw
    ``random_state(rng, space, 1)[0]``.
    """
    if n is None:
        return random_state(rng, space, 1)[0]
    if isinstance(space, FiniteStates):
        return [space.labels[i] for i in rng.integers(len(space.labels), size=n).tolist()]
    return list(rng.uniform(space.lower, space.upper, size=(n, space.dimension)))


def state_distance(space: StateSpace, a, b) -> float:
    """0.0 or 1.0 for equal or different labels; the max-abs gap on boxes.

    The gap of a state with a NaN coordinate is NaN.
    """
    if isinstance(space, FiniteStates):
        return 0.0 if a == b else 1.0
    return float(np.max(np.abs(space.coerce(a) - space.coerce(b))))


def states_equal(space: StateSpace, a, b, tol: float = 1e-12) -> bool:
    """Exact label equality on finite spaces, max-abs tolerance on boxes."""
    if isinstance(space, FiniteStates):
        return a == b
    return state_distance(space, a, b) <= tol
