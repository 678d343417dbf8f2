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
space keeps each label's position (its state code), which ``contains``
and a finite list step (``_step_many``) look states up by.

Point lists are immutable column records (``_Points``): stacked box
states, finite state codes, label codes and sequence ids.  The library's
draws and maps build them from columns, and their Python points are built
only where something reads them.  A caller's plain list is coded once,
where it enters a library map (``_entry``: the ``batch`` of a library
operator or observable) or a list step (``_encode``); behind that entry
every map and reader reads columns, and raises what the ``step`` loop
raises first.  A map of the caller's own is handed the caller's list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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
        return self._code(x) >= 0

    def _code(self, x) -> int:
        """The state code of ``x``, -1 for none; an unhashable probe is searched for in the label tuple, as
        ``in`` searches it, and raises what that raises."""
        try:
            return self._positions.get(x, -1)
        except TypeError:
            return _index(self.labels, x)


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
        return _word(self.prefix, self.period, k)


def _word(prefix: tuple, period: tuple, k: int) -> tuple:
    """The first ``k`` elements of the sequence with these fields, labels or their codes."""
    return (prefix + period * (k // len(period) + 1))[:k]


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


class _Trajectory(NamedTuple):
    """A start state, an input sequence and a horizon."""

    x0: object
    seq: InputSequence
    k: int


class _Points:
    """An immutable list of ``n`` points held as columns; its Python points are built once, where first read
    (:attr:`points`), unless it was given them.  By ``kind``:

    * ``"state"``: ``states``, the box states stacked ``(n, d)``, or ``xcodes``, each finite state's position
      in ``space``, a :class:`FiniteStates`;
    * ``"label"``: ``codes`` of the labels in ``table``, a :class:`_SeqTable`;
    * ``"state-input"``, ``"state-sequence"``, ``"trajectory"``: ``firsts``, the state list of the points'
      first components, with ``codes`` of their labels or ``ids`` of their sequences in ``table``, and
      ``ks``, each trajectory's horizon;
    * ``"path"``: each walk's states, ``states`` stacked ``(n, longest k + 1, d)`` on boxes or ``xcodes``
      ``(n, longest k + 1)`` on finite spaces, and ``ks``.

    A list the library builds is of its ``kind`` by construction; a caller's list becomes one where it
    enters (:func:`_encode`), and then holds the caller's own points and state objects."""

    states = xcodes = space = firsts = codes = ids = ks = table = kind = None  # until given

    def __init__(self, points=None, states=None, n=None, **columns):
        self._points = None if points is None else list(points)
        self.states = states
        self.__dict__.update(columns)
        given = (self._points, self.firsts, states, self.xcodes, self.codes, self.ids)
        self.n = len(next(c for c in given if c is not None)) if n is None else n

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    @property
    def points(self) -> list:
        if self._points is None:
            self._points = self._build()
        return self._points

    def _build(self) -> list:
        if self.kind == "label":
            return self.table.labels_at(self.codes)
        if self.kind == "path":  # box paths; finite ones are given
            return [self.states[i, : k + 1] for i, k in enumerate(self.ks.tolist())]
        if self.firsts is None:
            return list(self.states) if self.states is not None else _at(self.space.labels, self.xcodes)
        xs = self.firsts.points
        if self.kind == "state-input":
            return list(zip(xs, self.table.labels_at(self.codes)))
        seqs = self.table.seqs_at(self.ids)
        return list(zip(xs, seqs) if self.kind == "state-sequence" else map(_Trajectory, xs, seqs, self.ks.tolist()))

    def take(self, idx: np.ndarray) -> "_Points":
        """The points at the index array ``idx``, with their columns."""
        at = lambda col: None if col is None else col[idx]
        columns = {col: at(getattr(self, col)) for col in ("states", "xcodes", "codes", "ids", "ks")}
        points = None if self._points is None else _at(self._points, idx)
        firsts = None if self.firsts is None else self.firsts.take(idx)
        return _Points(points, n=len(idx), firsts=firsts, space=self.space, table=self.table, kind=self.kind, **columns)

    def put(self, idx: np.ndarray, other: "_Points") -> "_Points":
        """A copy of this state list with the states at ``idx`` replaced by ``other``'s: box rows, or
        finite states with their codes."""
        if self.xcodes is None:
            states = self.states.copy()
            states[idx] = other.states
            return _Points(states=states, kind="state")
        points, xcodes = list(self), self.xcodes.copy()
        for i, x in zip(idx.tolist(), other):
            points[i] = x
        xcodes[idx] = other.xcodes
        return _Points(points, xcodes=xcodes, space=self.space, kind="state")


def _by_object(xs) -> tuple:
    """The distinct objects of ``xs`` in order of first sight, and each entry's position there."""
    first = {}  # id -> (position, object)
    rows = np.array([first.setdefault(id(x), (len(first), x))[0] for x in xs], dtype=np.intp)
    return [x for _, x in first.values()], rows


def _at(values, idx: np.ndarray) -> list:
    return [values[i] for i in idx.tolist()]


def _encode(points, kind: str, table=None) -> _Points:
    """A caller's list of points of ``kind`` as a list the maps read (a list the library built is returned
    as it is): it keeps the points and their state objects as given, and codes each label, or each label of
    a sequence, by object in ``table`` (a new one if ``None``), in order of first sight, so a ``-0.0`` stays
    apart from ``0.0``."""
    if isinstance(points, _Points):
        return points
    points = list(points)
    if kind == "state":
        return _Points(points, kind=kind)
    table = _SeqTable() if table is None else table
    if kind == "label":
        return _Points(points, codes=table.codes(points), table=table, kind=kind)
    firsts = _Points([p[0] for p in points], kind="state")
    if kind == "state-input":
        columns = {"codes": table.codes([p[1] for p in points])}
    else:
        columns = {"ids": table.intern([p[1] for p in points])}
        if kind == "trajectory":
            columns["ks"] = np.array([p[2] for p in points], dtype=np.intp)
    return _Points(points, firsts=firsts, table=table, kind=kind, **columns)


def _entry(kind: str, mapping: Callable) -> Callable:
    """A library map's ``batch``: ``mapping`` of a point list the library built; a caller's plain list of
    ``kind`` points is coded once where it enters (:func:`_encode`), and a point list that ``mapping`` returns
    for it comes back as a plain list."""

    def batch(ps):
        out = mapping(_encode(ps, kind))
        return list(out) if isinstance(out, _Points) and not isinstance(ps, _Points) else out

    return batch


def _state_column(points) -> Optional[np.ndarray]:
    """The states of a state list as an ``(n, d)`` float array: its column, else its points stacked (and
    kept).  ``None`` for no states, or several that do not stack as numbers (of several shapes, or text or
    objects), as a caller's list read without a system may hold: its readers read it one state at a time.
    One state always stacks, or raises numpy's error for it."""
    points = _encode(points, "state")
    if points.states is None:
        try:
            arr = np.asarray(points.points)
        except ValueError:  # states of several shapes
            arr = None
        if arr is None or arr.dtype.kind not in "biuf":
            if len(points) != 1:
                return None
            arr = np.asarray(points[0], dtype=float)  # as a state is read alone
        points.states = arr.astype(float, copy=False).reshape(len(points), -1)
    return points.states


def _box_states(box: RealBox, xs: _Points) -> np.ndarray:
    """A state list's ``(n, d)`` states on ``box``, as ``step`` coerces each one: its column, where its states
    stack to that shape; else each state coerced, one that does not coerce (of another shape, or not read as
    floats by numpy) a NaN row, which is outside the box, so ``step`` raises its error there."""
    arr = _state_column(xs)
    if arr is not None and arr.shape == (len(xs), box.dimension):
        return arr
    rows = np.full((len(xs), box.dimension), np.nan)
    for i, x in enumerate(xs):
        try:
            rows[i] = box.coerce(x)
        except (DomainError, TypeError, ValueError):
            pass  # a NaN row
    return rows


def _finite_codes(space: FiniteStates, xs: _Points) -> np.ndarray:
    """Each state's position in ``space``, -1 for none: a list's codes, else each state looked up."""
    if xs.space is space and xs.xcodes is not None:
        return xs.xcodes
    return np.array([space._code(x) for x in xs], dtype=np.intp)


class _SeqTable:
    """Labels and input sequences as integer codes and ids, filled lazily:
    ``labels[c]`` is label ``c``, coded by object, so two labels that are
    ``==`` but are distinct objects (``0.0``, ``-0.0``) keep their own codes;
    ``keys[i]`` holds sequence ``i``'s canonical fields as code tuples
    ``(prefix, period)``, ``head[i]`` the code of its first input, and
    ``tail[i]`` the id of its shift, -1 until first asked for.  Over bounded
    sequences this is the shift automaton restricted to the sequences drawn
    and their shifts; the whole bounded set is never enumerated.  A sequence
    is interned by its codes, as is the shift of one, and its
    :class:`InputSequence` is built from its key where first read
    (:meth:`seqs_at`), of its labels' own objects.  ``unhashable`` lists the
    labels that cannot be dict keys, as no input label can, in order of
    first sight."""

    def __init__(self, labels=()):
        self.labels, self.keys, self._codes, self._ids, self._seqs, self.unhashable = [], [], {}, {}, {}, []
        self._head, self._tail = np.empty(16, dtype=np.intp), np.empty(16, dtype=np.intp)  # grown by doubling
        self.codes(list(labels))

    head = property(lambda self: self._head[: len(self.keys)])
    tail = property(lambda self: self._tail[: len(self.keys)])
    seqs = property(lambda self: self.seqs_at(np.arange(len(self.keys))))

    def code(self, u) -> int:
        """The code of label ``u``, appended on first sight."""
        c = self._codes.get(id(u))
        if c is None:
            c = self._codes[id(u)] = len(self.labels)
            self.labels.append(u)  # kept, so its id stays its own
            try:
                hash(u)
            except TypeError:
                self.unhashable.append(u)
        return c

    def codes(self, labels: list) -> np.ndarray:
        return np.fromiter(map(self.code, labels), dtype=np.intp, count=len(labels))

    def positions(self, inputs: "InputSet") -> np.ndarray:
        """Each label's position in ``inputs``, as ``in`` finds it (``is``, then ``==``), -1 for none."""
        return np.array([_index(inputs.labels, u) for u in self.labels], dtype=np.intp)

    def intern(self, seqs: list) -> np.ndarray:
        """The ids of ``seqs``, each keyed by the codes of its canonical fields and interned in order of
        first sight."""
        ids, seen, code = [], {}, self.code
        for s in seqs:
            i = seen.get(id(s))
            if i is None:
                i = seen[id(s)] = self._id((tuple(map(code, s.prefix)), tuple(map(code, s.period))))
            ids.append(i)
        return np.array(ids, dtype=np.intp)

    def intern_keys(self, keys: list) -> np.ndarray:
        """The ids of the sequences with these keys, interning new ones in order of first sight."""
        return np.array(list(map(self._id, keys)), dtype=np.intp)

    def _id(self, key: tuple) -> int:
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.keys)
            if i == len(self._head):
                grow = lambda a: np.concatenate([a, np.empty(i, dtype=np.intp)])
                self._head, self._tail = grow(self._head), grow(self._tail)
            self.keys.append(key)
            self._head[i], self._tail[i] = (key[0] or key[1])[0], -1
        return i

    def intern_rows(self, labels: tuple, pre: np.ndarray, plen: np.ndarray, per: np.ndarray, qlen: np.ndarray):
        """The ids of the canonical sequences of positions in ``labels`` (:func:`_canonical`'s fields),
        keying each distinct row once, in order of first sight."""
        if not len(plen):
            return np.empty(0, dtype=np.intp)
        code, width = self.codes(list(labels)), pre.shape[1]
        fields = [np.where(np.arange(a.shape[1]) < n[:, None], code[a], -1) for a, n in ((pre, plen), (per, qlen))]
        rows = np.column_stack([plen, qlen, *fields])
        base = int(rows.max()) + 2
        if base ** rows.shape[1] < 2**63:  # each row as one integer, whose unique is a plain sort
            _, first, inverse = np.unique((rows + 1) @ base ** np.arange(rows.shape[1]), True, True)
        else:
            _, first, inverse = np.unique(rows, True, True, axis=0)
        order = np.argsort(first)  # the distinct rows by first sight
        keys = [(tuple(r[2 : 2 + r[0]]), tuple(r[2 + width : 2 + width + r[1]])) for r in rows[first[order]].tolist()]
        ids = np.empty(len(first), dtype=np.intp)
        ids[order] = self.intern_keys(keys)
        return ids[inverse.reshape(-1)]

    def shifted(self, ids: np.ndarray) -> np.ndarray:
        """``tail[ids]``, shifting each sequence not shifted before once."""
        todo = list(dict.fromkeys(ids[self._tail[ids] < 0].tolist()))
        if todo:
            self._tail[todo] = [self._id(_shifted_fields(*self.keys[i])) for i in todo]
        return self._tail[ids]

    def seqs_at(self, ids: np.ndarray) -> list:
        """The sequence of each id, building (once) each one not built yet from its key."""
        ids, seqs, at = ids.tolist(), self._seqs, self.labels.__getitem__
        for i in set(ids).difference(seqs):
            pre, per = self.keys[i]
            seqs[i] = InputSequence(map(at, pre), map(at, per))
        return list(map(seqs.__getitem__, ids))

    def labels_at(self, codes: np.ndarray) -> list:
        return _at(self.labels, codes)


def _keyed(table: _SeqTable) -> _SeqTable:
    """``table``, for a map that keys sequences by their labels: a label that cannot be a dict key raises
    ``step``'s error for it first, as those maps always have."""
    if table.unhashable:
        raise DomainError(f"unknown input label: {table.unhashable[0]!r}")
    return table


def _index(labels: tuple, u) -> int:
    """The position of ``u`` in ``labels`` as ``u in labels`` finds it, -1 for none."""
    return next((i for i, v in enumerate(labels) if v is u or v == u), -1)


def _input_positions(inputs: "InputSet", us: _Points) -> np.ndarray:
    """Each label's position in ``inputs``, -1 for none, read off a label list's codes."""
    return us.table.positions(inputs)[us.codes]


def _finite_steps(sys: ControlSystem, xs: _Points, us: _Points) -> _Points:
    """The ``step`` loop on a finite space, checking by lookup: the state codes and input positions first,
    then one transition call per point in order, each output's code looked up as it comes."""
    space = sys.states
    ok = (_finite_codes(space, xs) >= 0) & (_input_positions(sys.inputs, us) >= 0)
    n = len(xs) if ok.all() else int(np.argmin(ok))  # the points before the first bad one
    transition, ys, ycodes = sys.transition, [], []
    for _, x, u in zip(range(n), xs, us):
        y = transition(x, u)
        c = space._code(y)
        if c < 0:
            raise DomainError(f"transition left the state space: {y!r}")
        ys.append(y)
        ycodes.append(c)
    if n < len(xs):
        step(sys, xs[n], us[n])  # raises the loop's error before any transition call
    return _Points(ys, xcodes=np.array(ycodes, dtype=np.intp), space=space, kind="state")


def _step_many(sys: ControlSystem, xs, us) -> _Points:
    """``[step(sys, x, u) for x, u in zip(xs, us)]`` bit for bit, as a state list, raising what that loop
    raises first after stepping the points before it (:func:`_finite_steps` on finite spaces).  On a box
    with a ``transition_batch``, every state and label is checked at once, and the points before the first
    bad one are stepped with one batch call per input label, when there are two or more of them; other boxes,
    and fewer points (one state alone is cheaper), run the loop."""
    xs, us = _encode(xs, "state"), _encode(us, "label")
    if isinstance(sys.states, FiniteStates):
        return _finite_steps(sys, xs, us)
    box, n = sys.states, 0
    if sys.transition_batch is not None and len(xs) > 1:
        arr, codes = _box_states(box, xs), _input_positions(sys.inputs, us)
        lo, hi = box._slack_arrays
        inside = lambda a: ((a >= lo) & (a <= hi)).all(axis=1)  # NaN is outside
        ok = inside(arr) & (codes >= 0)
        n = len(xs) if ok.all() else int(np.argmin(ok))  # the points before the first bad one
    if n < 2:
        ys = [step(sys, x, u) for x, u in zip(xs, us)]
        return _Points(states=np.array(ys).reshape(len(ys), box.dimension), kind="state")
    codes, ys = codes[:n], np.empty((n, box.dimension))
    used, first = np.unique(codes, return_index=True)
    for c in used[np.argsort(first)]:  # labels in order of first use
        idx = np.flatnonzero(codes == c)
        u = us.table.labels[us.codes[idx[0]]]
        ys[idx] = np.asarray(sys.transition_batch(arr[idx], u), dtype=float).reshape(len(idx), box.dimension)
    if not inside(ys).all():
        raise DomainError(f"transition output {ys[np.argmin(inside(ys))]!r} outside the declared box")
    if n < len(xs):
        step(sys, xs[n], us[n])  # raises the loop's error before any transition call
    return _Points(states=ys, kind="state")


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
    if not seq.prefix and len(seq.period) == 1:
        return seq
    return InputSequence(*_shifted_fields(seq.prefix, seq.period))


def _shifted_fields(prefix: tuple, period: tuple) -> tuple:
    """The canonical fields of the left shift of the sequence with canonical fields ``prefix`` and
    ``period`` (labels or their codes): the prefix loses its first element, else the period rotates."""
    return (prefix[1:], period) if prefix else (prefix, period[1:] + period[:1])


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
    The default bounds are the sequence domain that the identity checks draw from.  The matrix is made
    canonical as one array (:func:`_draw_sequences`); the check engine interns those rows into its
    sequence table as codes (``_SeqTable.intern_rows``), and only this list builds an object per row."""
    labels = tuple(labels)
    pre, plen, per, qlen = (a.tolist() for a in _draw_sequences(rng, labels, n, prefix_max, period_max))
    at = labels.__getitem__
    return [InputSequence(map(at, a[:p]), map(at, b[:q])) for a, p, b, q in zip(pre, plen, per, qlen)]


def _draw_sequences(rng: np.random.Generator, labels: tuple, n: int, prefix_max=4, period_max=3) -> tuple:
    """The three generator calls of :func:`random_sequences`, as the :func:`_canonical` fields of
    positions in ``labels``."""
    plen = rng.integers(0, prefix_max + 1, size=n)
    qlen = rng.integers(1, period_max + 1, size=n)
    picks = rng.integers(len(labels), size=(n, prefix_max + period_max))
    per = np.take_along_axis(picks, plen[:, None] + np.arange(period_max), axis=1)  # row i: picks[i, p : p + q]
    return _canonical(labels, picks[:, :prefix_max], plen, per, qlen)


def _canonical(labels: tuple, pre: np.ndarray, plen: np.ndarray, per: np.ndarray, qlen: np.ndarray) -> tuple:
    """The canonical fields of ``n`` sequences given by positions in ``labels``: row ``i`` has prefix
    ``pre[i, :plen[i]]`` and period ``per[i, :qlen[i]]``.  Each row is reduced as :class:`InputSequence`
    reduces its fields, comparing labels as it does: the period to its shortest repeating head (tuple
    equality), then the prefix shortened while its last label is ``==`` the period's last, rotating the
    period each time.  Returns ``(pre, plen, per, qlen)``; entries past a row's lengths mean nothing."""
    m, (n, width) = len(labels), per.shape
    same = np.array([[(a,) == (b,) for b in labels] for a in labels], dtype=bool).reshape(m, m)
    equal = np.array([[bool(a == b) for b in labels] for a in labels], dtype=bool).reshape(m, m)
    qlen, done, rows = qlen.copy(), np.zeros(n, dtype=bool), np.arange(n)
    for d in range(1, width // 2 + 1):  # the first d that divides the period and repeats it
        hit = ~done & (qlen % d == 0) & (2 * d <= qlen)
        for j in range(width - d):
            hit &= (j + d >= qlen) | same[per[:, j + d], per[:, j]]
        qlen[hit], done = d, done | hit
    plen, turns = plen.copy(), np.zeros(n, dtype=np.intp)
    for _ in range(pre.shape[1]):
        last = per[rows, (qlen - 1 - turns) % qlen]  # the period's last label after ``turns`` rotations
        pull = (plen > 0) & equal[pre[rows, np.maximum(plen - 1, 0)], last]
        if not pull.any():
            break
        plen, turns = plen - pull, turns + pull
    per = per[rows[:, None], (np.arange(width) - turns[:, None]) % qlen[:, None]]
    return pre, plen, per, qlen


def random_state(rng: np.random.Generator, space: StateSpace, n=None):
    """Uniform draw from a state space: one state, or a list of ``n`` states.

    Finite spaces draw label indices, boxes points in the box; ``n`` states are
    one generator call.  One state is the one-element draw
    ``random_state(rng, space, 1)[0]``.
    """
    if n is None:
        return random_state(rng, space, 1)[0]
    return list(_draw_states(rng, space, n))


def _draw_states(rng: np.random.Generator, space: StateSpace, n: int) -> _Points:
    """:func:`random_state`'s ``n`` states as a state list: their codes, or the box states stacked."""
    if isinstance(space, FiniteStates):
        return _Points(xcodes=rng.integers(len(space.labels), size=n).astype(np.intp, copy=False), space=space,
                       kind="state")
    return _Points(states=rng.uniform(space.lower, space.upper, size=(n, space.dimension)), kind="state")


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
