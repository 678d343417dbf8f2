"""Control systems, input sequences, and trajectory tools.

A discrete-time control system is a total deterministic map
``x_next = T(x, u)`` over a state space and a finite input set.  The
Koopman operators of its three input-free reformulations (constant
input, input-augmented, and input-sequence) are built in
:mod:`koopcontrol.operators`.

Input sequences are represented by a finite prefix plus a repeating
period, which keeps the left shift exact and makes every finite-horizon
behavior reachable; ``word(k)`` reads their first ``k`` inputs at once.
:func:`simulate` validates each state of a box trajectory once.  A finite
space keeps each label's position (its state code): ``contains`` and a
finite list step (``_step_many``) look states up there, and a finite point
list carries its states' codes as a column beside the points.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        object.__setattr__(self, "_positions", {x: i for i, x in enumerate(self.labels)})  # the state codes

    def contains(self, x) -> bool:
        try:
            return x in self._positions
        except TypeError:  # an unhashable probe is searched for as before, and raises what that raises
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

    def word(self, k: int) -> tuple:
        """The first ``k`` inputs, ``tuple(self.at(j) for j in range(k))``."""
        if k < 0:
            raise ValueError("word length must be nonnegative")
        return (self.prefix + self.period * (k // len(self.period) + 1))[:k]


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
    return _box_step(sys, arr, u)


def _box_step(sys: ControlSystem, arr: np.ndarray, u) -> np.ndarray:
    """``step`` from a box state and a label already checked, checking the output."""
    y = sys.states.coerce(sys.transition(arr, u))
    if not sys.states._inside(y):
        raise DomainError(f"transition output {y!r} outside the declared box")
    return y


class _Points(list):
    """A point list carrying columns beside its points, so list maps read arrays instead of the
    points: ``states``, the box states (each point's state component) stacked ``(n, d)``; ``xcodes``,
    each finite state's position in ``space.labels``, a :class:`FiniteStates`; ``codes``, each label's
    (or each pair's input's) code in ``table``, a :class:`_SeqTable`; ``ids``, each point's sequence
    id there.  A column is ``None`` until built, and is built once where a map needs it, so a plain
    list is as valid an input.  A map whose points hold its input points' states builds them with
    :meth:`carrying`, which hands on the state columns; a map that steps to new states builds a new list."""

    __slots__ = ("states", "xcodes", "codes", "ids", "table", "space", "firsts")

    def __init__(self, points=(), states=None, codes=None, ids=None, table=None, xcodes=None, space=None):
        super().__init__(points)
        self.states, self.codes, self.ids, self.table, self.firsts = states, codes, ids, table, None
        self.xcodes, self.space = xcodes, space

    def carrying(self, points, codes=None, ids=None, table=None) -> "_Points":
        """``points``, one per point of this list and holding its state, so with its state columns;
        ``codes`` or ``ids`` index ``table``, else this list's table."""
        return _Points(points, self.states, codes, ids, table or self.table, self.xcodes, self.space)

    def take(self, idx) -> "_Points":
        """The points at ``idx`` (a slice or an index array), with their columns."""
        picked = list.__getitem__(self, idx) if isinstance(idx, slice) else [self[i] for i in idx.tolist()]
        at = lambda col: None if col is None else col[idx]
        return _Points(picked, at(self.states), at(self.codes), at(self.ids), self.table, at(self.xcodes), self.space)

    def put(self, idx: np.ndarray, other) -> "_Points":
        """A copy with the points at ``idx`` replaced by ``other``'s, keeping
        each column that both lists carry."""
        points = list(self)
        for i, p in zip(idx.tolist(), other):
            points[i] = p
        out = _Points(points, table=self.table, space=self.space)
        same = getattr(other, "table", None) is self.table  # codes and ids index one table, xcodes one space
        for col in ("states",) + ("codes", "ids") * same + ("xcodes",) * (getattr(other, "space", None) is self.space):
            mine, theirs = getattr(self, col), getattr(other, col, None)
            if mine is not None and theirs is not None:
                mine = mine.copy()
                mine[idx] = theirs
                setattr(out, col, mine)
        return out


def _dropping_columns(name: str) -> Callable:
    def mutate(self, *args, **kwargs):
        self.states = self.xcodes = self.codes = self.ids = self.firsts = None
        return getattr(list, name)(self, *args, **kwargs)

    return mutate


# Changing a list's points drops its columns, which then are built again where read.
for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend", "insert", "pop", "remove",
              "clear", "sort", "reverse"):
    setattr(_Points, _name, _dropping_columns(_name))


def _as_points(points) -> _Points:
    return points if isinstance(points, _Points) else _Points(points)


def _state_column(points) -> Optional[np.ndarray]:
    """The states of a state list as an ``(n, d)`` float array: the carried
    column, else stacked (and kept on a :class:`_Points`); ``None`` when they do
    not stack (then the per-point path raises the precise error)."""
    arr = getattr(points, "states", None)
    if arr is None:
        try:
            arr = np.asarray(points, dtype=float).reshape(len(points), -1)
        except (TypeError, ValueError):
            return None
        if isinstance(points, _Points):
            points.states = arr
    return arr


def _firsts(points) -> _Points:
    """Each point's state component, with the list's state columns; built once per list."""
    points = _as_points(points)
    if points.firsts is None:
        points.firsts = points.carrying([p[0] for p in points])
    return points.firsts


def _unknown(labels) -> DomainError:
    """``step``'s error for the first label that cannot be a dict key, as no input set's can."""
    for u in labels:
        try:
            hash(u)
        except TypeError:
            return DomainError(f"unknown input label: {u!r}")


class _SeqTable:
    """Labels and input sequences as integer codes and ids, filled lazily:
    ``labels[c]`` is label ``c``, ``seqs[i]`` sequence ``i``, ``head[i]``
    the code of its first input, and ``tail[i]`` the id of its shift, -1
    until first asked for.  Over bounded sequences this is the shift
    automaton restricted to the sequences drawn and their shifts; the whole
    bounded set is never enumerated.  A label that cannot be a dict key
    raises ``step``'s :class:`DomainError`."""

    def __init__(self, labels=()):
        self.labels, self.seqs, self._codes, self._ids = [], [], {}, {}
        self._head, self._tail, self._arrays = [], [], None  # the arrays of the two lists, once read
        self.codes(list(labels))

    head = property(lambda self: self._read()[0])
    tail = property(lambda self: self._read()[1])

    def _read(self) -> tuple:
        if self._arrays is None:
            self._arrays = np.array(self._head, dtype=np.intp), np.array(self._tail, dtype=np.intp)
        return self._arrays

    def code(self, u) -> int:
        """The code of label ``u``, appended on first sight."""
        if u not in self._codes:
            self._codes[u] = len(self.labels)
            self.labels.append(u)
        return self._codes[u]

    def codes(self, labels: list) -> np.ndarray:
        try:
            for u in dict.fromkeys(labels):  # new labels are coded in order of first sight
                self.code(u)
        except TypeError:
            raise _unknown(labels) from None
        return np.fromiter(map(self._codes.__getitem__, labels), dtype=np.intp, count=len(labels))

    def intern(self, seqs: list) -> np.ndarray:
        """The ids of ``seqs``, interning the ones not yet held in order of first sight.
        A sequence is keyed by its canonical fields, compared as ``==`` compares them."""
        known, keys = self._ids, [(s.prefix, s.period) for s in seqs]
        try:
            new = [key for key in dict.fromkeys(keys) if key not in known]
        except TypeError:
            raise _unknown(u for pre, per in keys for u in pre + per) from None
        first = dict(zip(reversed(keys), reversed(seqs))) if new else {}  # each key's first sequence
        for key in new:
            s = first[key]
            known[key], self._arrays = len(self.seqs), None
            self.seqs.append(s)
            self._head.append(self.code((s.prefix or s.period)[0]))  # s.at(0)
            self._tail.append(-1)
        return np.fromiter(map(known.__getitem__, keys), dtype=np.intp, count=len(keys))

    def shifted(self, ids: np.ndarray) -> np.ndarray:
        """``tail[ids]``, shifting each sequence not shifted before once."""
        todo = list(dict.fromkeys(ids[self.tail[ids] < 0].tolist()))
        if todo:
            for i, j in zip(todo, self.intern([shift(self.seqs[i]) for i in todo]).tolist()):
                self._tail[i] = j
            self._arrays = None
        return self.tail[ids]

    def seqs_at(self, ids: np.ndarray) -> list:
        return [self.seqs[i] for i in ids.tolist()]

    def labels_at(self, codes: np.ndarray) -> list:
        return [self.labels[c] for c in codes.tolist()]


def _column(points, col: str, pairs=True) -> tuple:
    """``(table, column)``: ``col`` is ``"ids"`` of each point's sequence or
    ``"codes"`` of its label, read off each point's second component
    (``pairs``: pairs and trajectory points) or the points themselves.  The
    carried column, else built once into the list's table or a new one, and
    kept on a :class:`_Points` whose columns index that table."""
    table = getattr(points, "table", None)
    if table is not None and getattr(points, col) is not None:
        return table, getattr(points, col)
    table = table or _SeqTable()
    values = (table.intern if col == "ids" else table.codes)([p[1] for p in points] if pairs else points)
    if isinstance(points, _Points):
        setattr(points, col, values)
        points.table = table
    return table, values


def _input_positions(inputs: "InputSet", us) -> np.ndarray:
    """Each label's position in ``inputs``, -1 for none, read off the labels' codes."""
    table, codes = _column(us, "codes", pairs=False)
    return np.array([inputs._positions.get(u, -1) for u in table.labels], dtype=np.intp)[codes]


def _finite_steps(sys: ControlSystem, xs: list, us: list) -> _Points:
    """The ``step`` loop on a finite space, checking by lookup: the state codes (carried, else each
    state's position, -1 for none) and input codes first, then one transition call per point in order,
    each output's code looked up as it comes.  A state or label that is no dict key runs the loop."""
    space = sys.states
    try:
        carried = getattr(xs, "space", None) is space and xs.xcodes is not None
        codes = xs.xcodes if carried else np.fromiter(map(space._positions.get, xs, [-1] * len(xs)), np.intp, len(xs))
        ok = (codes >= 0) & (_input_positions(sys.inputs, us) >= 0)
    except (TypeError, DomainError):
        return _Points([step(sys, x, u) for x, u in zip(xs, us)])
    n = len(xs) if ok.all() else int(np.argmin(ok))  # the points before the first bad one
    transition, code, ys, ycodes = sys.transition, space._positions.get, [], []
    for _, x, u in zip(range(n), xs, us):
        y = transition(x, u)
        try:
            c = code(y)
        except TypeError:  # in the space by the tuple search alone, with no code
            c = -1 if space.contains(y) else None
        if c is None:
            raise DomainError(f"transition left the state space: {y!r}")
        ys.append(y)
        ycodes.append(c)
    if n < len(xs):
        step(sys, xs[n], us[n])  # raises the loop's error before any transition call
    ys, ycodes = _Points(ys), np.array(ycodes, dtype=np.intp)
    if ycodes.min(initial=0) >= 0:
        ys.xcodes, ys.space = ycodes, space
    return ys


def _step_many(sys: ControlSystem, xs: list, us: list) -> _Points:
    """``[step(sys, x, u) for x, u in zip(xs, us)]`` bit for bit, raising what that loop raises first,
    with the states' column (:func:`_finite_steps` on finite spaces).  On a box with a ``transition_batch``,
    two or more states are checked at once and stepped with one batch call per input label; one state
    (cheaper alone), other boxes, states that do not stack to ``(n, d)``, or a label that is no dict key run the loop."""
    if isinstance(sys.states, FiniteStates):
        return _finite_steps(sys, xs, us)
    box = sys.states
    batched = sys.transition_batch is not None and isinstance(box, RealBox) and len(xs) > 1
    arr = _state_column(xs) if batched else None
    try:
        codes = None if arr is None or arr.shape[1] != box.dimension else _input_positions(sys.inputs, us)
    except DomainError:
        codes = None
    if codes is None:
        return _Points([step(sys, x, u) for x, u in zip(xs, us)])
    lo, hi = box._slack_arrays
    inside = lambda a: ((a >= lo) & (a <= hi)).all(axis=1)  # NaN is outside
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
    return _Points(list(ys), states=ys)


def simulate(sys: ControlSystem, x0, seq: InputSequence, k: int) -> list:
    """States ``[x_0, ..., x_k]`` driven by the first ``k`` sequence elements.

    The tests' reference for the check engine's ground-truth walks (``sim``, ``path``, which step
    lists through ``_step_many``) and the truth that ``prediction_error`` compares a model with.
    It raises what the ``step`` loop raises, checking each box state once.
    """
    if k < 0:
        raise ValueError("horizon must be nonnegative")
    box = isinstance(sys.states, RealBox)
    xs = [sys.states.coerce(x0) if box else x0]
    for j, u in enumerate(seq.word(k)):
        checked = box and j and sys.inputs.contains(u)  # the last step checked this state
        xs.append(_box_step(sys, xs[-1], u) if checked else step(sys, xs[-1], u))
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
    return frozenset(step(sys, x, u) for x in sys.states.labels for u in sys.inputs.labels)


def random_sequence(rng: np.random.Generator, labels, prefix_max=4, period_max=3) -> InputSequence:
    """One eventually-periodic sequence with bounded prefix and period: the one-row draw
    ``random_sequences(rng, labels, 1, prefix_max, period_max)[0]``."""
    return random_sequences(rng, labels, 1, prefix_max, period_max)[0]


def random_sequences(rng: np.random.Generator, labels, n: int, prefix_max=4, period_max=3) -> list:
    """``n`` sequences in three generator calls: the prefix lengths, the period lengths and one
    ``(n, prefix_max + period_max)`` label matrix, row ``i`` holding sequence ``i``'s prefix, then period.
    The default bounds are the sequence domain that the identity checks draw from."""
    labels = tuple(labels)
    plens = rng.integers(0, prefix_max + 1, size=n).tolist()
    qlens = rng.integers(1, period_max + 1, size=n).tolist()
    picks = rng.integers(len(labels), size=(n, prefix_max + period_max)).tolist()
    rows = ([labels[j] for j in row] for row in picks)
    return [InputSequence(row[:p], row[p : p + q]) for row, p, q in zip(rows, plens, qlens)]


def random_state(rng: np.random.Generator, space: StateSpace, n=None):
    """Uniform draw from a state space: one state, or a list of ``n`` states.

    Finite spaces draw label indices (carried as the list's state codes), boxes
    points in the box (carried stacked); ``n`` states are one generator call.
    One state is the one-element draw ``random_state(rng, space, 1)[0]``.
    """
    if n is None:
        return random_state(rng, space, 1)[0]
    if isinstance(space, FiniteStates):
        codes = rng.integers(len(space.labels), size=n)
        return _Points([space.labels[i] for i in codes.tolist()], xcodes=codes.astype(np.intp, copy=False), space=space)
    arr = rng.uniform(space.lower, space.upper, size=(n, space.dimension))
    return _Points(list(arr), states=arr)


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
