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
list carries its states' codes as a column beside the points.  Point lists
that the library draws or maps are columns first (``_Points``): their
points are built only where something reads them.
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


class _Points(list):
    """A point list carrying columns beside its points, so list maps read arrays instead of the points:
    ``states``, the box states (each point's state component) stacked ``(n, d)``; ``xcodes``, each finite
    state's position in ``space.labels``, a :class:`FiniteStates`; ``codes``, each label's (or each pair's
    input's) code in ``table``, a :class:`_SeqTable`; ``ids``, each point's sequence id there; ``ks``, each
    trajectory's horizon.  A column is ``None`` until built, and is built once where a map needs it, so a
    plain list is as valid an input.  ``firsts`` is the list of the points' state components, once built.

    Columns come first: the engine's draws, and every map of a list they made, are :class:`_Lazy` lists,
    whose points are built from their columns only where something reads them (a user observable given as
    ``fn``, a transition without ``transition_batch``, a counterexample's text, the caller of a public
    operator).  Such a list also knows its ``kind``, the ``DomainTag`` value its points have by construction
    (or ``"path"``: walks' paths, whose ``states`` are stacked ``(n, longest k + 1, d)``), so a domain check
    reads it once.  A map builds its list with :meth:`derive` or :meth:`carrying`, which
    keeps the input's state columns."""

    states = xcodes = space = codes = ids = ks = table = firsts = kind = build = n = None  # until set

    def __init__(self, points=(), states=None, **columns):
        list.__init__(self, points)
        if states is not None:
            self.states = states
        if columns:
            self.__dict__.update(columns)

    def derive(self, make: Callable, columns: dict, *owned, n=None) -> "_Points":
        """The list ``make(points, *owned)`` of ``n`` points (one per point of this list if ``None``), with
        ``columns``: made at once from these points (then without a ``kind``), or, for a :class:`_Lazy`
        list, where first read, from a new build of its points (so a later change of this list changes
        nothing).  ``owned`` lists belong to the map."""
        if type(self) is _Lazy:
            build = self.build
            out = _Lazy(self.n if n is None else n, lambda: make(build(), *owned))
            out.__dict__.update(columns)
        else:
            out = _Points(make(self, *owned))
            out.__dict__.update(columns)
            out.__dict__.pop("kind", None)
        return out

    def carrying(self, make: Callable, **columns) -> "_Points":
        """:meth:`derive` for points that hold this list's states, so with its state columns (and its
        table, unless ``columns`` name one)."""
        return self.derive(make, {"states": self.states, "xcodes": self.xcodes, "space": self.space,
                                  "table": self.table, **columns})

    def take(self, idx) -> "_Points":
        """The points at ``idx`` (a slice or an index array), with their columns."""
        at = lambda col: None if col is None else col[idx]
        pick = (lambda pts: list.__getitem__(pts, idx)) if isinstance(idx, slice) else (
            lambda pts: [pts[i] for i in idx.tolist()])
        n = len(range(len(self))[idx]) if isinstance(idx, slice) else len(idx)
        columns = {"states": at(self.states), "codes": at(self.codes), "ids": at(self.ids), "ks": at(self.ks),
                   "xcodes": at(self.xcodes), "table": self.table, "space": self.space, "kind": self.kind,
                   "firsts": None if self.firsts is None else self.firsts.take(idx)}
        return self.derive(pick, columns, n=n)

    def put(self, idx: np.ndarray, other) -> "_Points":
        """A copy with the points at ``idx`` replaced by ``other``'s, keeping
        each column that both lists carry."""

        def make(points, other):
            points = list(points)
            for i, p in zip(idx.tolist(), other):
                points[i] = p
            return points

        columns = {"table": self.table, "space": self.space}
        same = getattr(other, "table", None) is self.table  # codes and ids index one table, xcodes one space
        for col in ("states",) + ("codes", "ids") * same + ("xcodes",) * (getattr(other, "space", None) is self.space):
            mine, theirs = getattr(self, col), getattr(other, col, None)
            if mine is not None and theirs is not None:
                columns[col] = mine.copy()
                columns[col][idx] = theirs
        columns["kind"] = self.kind if getattr(other, "kind", None) == self.kind else None
        return self.derive(make, columns, other)


class _Lazy(_Points):
    """A :class:`_Points` of ``n`` points built from its columns by ``build()``, on first read; it is then a
    plain :class:`_Points` holding them.  Its length and columns are read without building.  Every label
    in its points (each input, each element of a sequence) is its table's object of that code."""

    def __init__(self, n: int, build: Callable, **columns):
        super().__init__(**columns)
        self.n, self.build = n, build

    def __len__(self) -> int:
        return self.n

    def __radd__(self, other):
        self._fill()
        return other + self

    def _fill(self) -> None:
        list.extend(self, self.build())
        del self.n, self.build
        self.__class__ = _Points


def _dropping_columns(name: str) -> Callable:
    def mutate(self, *args, **kwargs):
        self.states = self.xcodes = self.codes = self.ids = self.ks = self.firsts = self.kind = None
        return getattr(list, name)(self, *args, **kwargs)

    return mutate


def _filling(name: str) -> Callable:
    def read(self, *args, **kwargs):
        for points in (self, *args):  # list's own methods read an argument list's storage too
            if type(points) is _Lazy:
                points._fill()
        return getattr(self, name)(*args, **kwargs)

    return read


# Changing a list's points drops its columns, which then are built again where read; a lazy list
# builds its points first, for any read or change of them.
_CHANGES = ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend", "insert", "pop", "remove",
            "clear", "sort", "reverse")
for _name in _CHANGES:
    setattr(_Points, _name, _dropping_columns(_name))
for _name in _CHANGES + ("__iter__", "__reversed__", "__getitem__", "__contains__", "__eq__", "__ne__", "__lt__",
                         "__le__", "__gt__", "__ge__", "__add__", "__mul__", "__rmul__", "__repr__", "__reduce_ex__",
                         "copy", "index", "count"):
    setattr(_Lazy, _name, _filling(_name))


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
        points.firsts = points.carrying(_first_components, kind="state")
    return points.firsts


def _first_components(points: list) -> list:
    return [p[0] for p in points]


def _labels(points: _Points, make: Callable, codes: np.ndarray, table: "_SeqTable") -> _Points:
    """One input label per point, coded by ``codes`` in ``table`` (if not ``None``): ``make(points)``, or,
    for a lazy list with codes, whose labels (its sequences' too) are its table's, theirs where read."""
    if type(points) is _Lazy and codes is not None:
        return _Lazy(len(codes), lambda: table.labels_at(codes), codes=codes, table=table)
    return _Points(make(points), codes=codes, table=table)


def _paired(xs: _Points, seconds, kind: str, **columns) -> _Points:
    """The points ``(x, s)`` of each state ``x`` of ``xs`` and each ``s`` of ``seconds``, a list, or a
    function of none that gives one from the table's labels or sequences; of ``kind``, with the state
    columns of ``xs``, which becomes the new list's ``firsts`` (so ``xs`` must be the map's own).  It is
    built where read if ``xs`` is, and ``seconds`` too: a list that is not lazy may hold labels that are
    not the table's objects."""
    columns.update(states=xs.states, xcodes=xs.xcodes, space=xs.space, firsts=xs)
    if callable(seconds) or type(seconds) is _Lazy:
        make = lambda pts: list(zip(pts, seconds() if callable(seconds) else seconds))
        return xs.derive(make, dict(columns, kind=kind))
    return _Points(zip(xs, seconds), **columns)


def _unknown(labels) -> DomainError:
    """``step``'s error for the first label that cannot be a dict key, as no input set's can."""
    for u in labels:
        try:
            hash(u)
        except TypeError:
            return DomainError(f"unknown input label: {u!r}")


class _SeqTable:
    """Labels and input sequences as integer codes and ids, filled lazily:
    ``labels[c]`` is label ``c``; ``keys[i]`` holds sequence ``i``'s canonical
    fields as code tuples ``(prefix, period)``, ``head[i]`` the code of its
    first input, and ``tail[i]`` the id of its shift, -1 until first asked
    for.  Over bounded sequences this is the shift automaton restricted to
    the sequences drawn and their shifts; the whole bounded set is never
    enumerated.  A drawn sequence (:meth:`intern_rows`) is interned by its
    codes alone, as is the shift of one, and its :class:`InputSequence` is
    built from its key where first read (:meth:`seqs_at`); a sequence
    interned as an object (:meth:`intern`, a caller's own) is held, and
    shifted, as itself.  A label that cannot be a dict key raises ``step``'s
    :class:`DomainError`."""

    def __init__(self, labels=()):
        self.labels, self.keys, self._codes, self._ids = [], [], {}, {}
        self._seqs, self._held = {}, set()  # id -> its object, once given or built; the ids given one
        self._head, self._tail = np.empty(16, dtype=np.intp), np.empty(16, dtype=np.intp)  # grown by doubling
        if labels:
            self.codes(list(labels))

    head = property(lambda self: self._head[: len(self.keys)])
    tail = property(lambda self: self._tail[: len(self.keys)])
    seqs = property(lambda self: self.seqs_at(np.arange(len(self.keys))))

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
        """The ids of ``seqs``, interning the ones not yet held in order of first sight, each holding the
        first of its objects.  A sequence is keyed by the codes of its canonical fields, so two compare as
        ``==`` compares them; each distinct one is coded once."""
        ids, seen, code = [], {}, self.code
        try:
            for s in seqs:
                fields = s.prefix, s.period
                i = seen.get(fields)
                if i is None:
                    i = seen[fields] = self._id((tuple(map(code, s.prefix)), tuple(map(code, s.period))), s)
                ids.append(i)
        except TypeError:
            raise _unknown(u for s in seqs for u in s.prefix + s.period) from None
        return np.array(ids, dtype=np.intp)

    def intern_keys(self, keys: list, seqs=None) -> np.ndarray:
        """The ids of the sequences with these keys, interning new ones in order of first sight; an
        entry of ``seqs`` (if given, one per key) is the object a new key's first sight holds."""
        return np.array(list(map(self._id, keys, seqs or [None] * len(keys))), dtype=np.intp)

    def _id(self, key: tuple, seq=None) -> int:
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.keys)
            if i == len(self._head):
                grow = lambda a: np.concatenate([a, np.empty(i, dtype=np.intp)])
                self._head, self._tail = grow(self._head), grow(self._tail)
            self.keys.append(key)
            self._head[i], self._tail[i] = (key[0] or key[1])[0], -1
            if seq is not None:
                self._seqs[i] = seq
                self._held.add(i)
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
        if todo:  # a held sequence's shift is held too
            shifts = [self._id(_shifted_fields(*self.keys[i]), shift(self._seqs[i]) if i in self._held else None)
                      for i in todo]
            self._tail[todo] = shifts
        return self._tail[ids]

    def seqs_at(self, ids: np.ndarray) -> list:
        """The sequence of each id, building (once) each one not held yet from its key."""
        ids, seqs, at = ids.tolist(), self._seqs, self.labels.__getitem__
        try:
            return list(map(seqs.__getitem__, ids))
        except KeyError:
            for i in set(ids).difference(seqs):
                pre, per = self.keys[i]
                seqs[i] = InputSequence(map(at, pre), map(at, per))
            return list(map(seqs.__getitem__, ids))

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
    used, first = np.unique(codes, return_index=True)
    for c in used[np.argsort(first)]:  # labels in order of first use
        idx = np.flatnonzero(codes == c)
        u = us.table.labels[us.codes[idx[0]]] if type(us) is _Lazy else us[idx[0]]  # not built for one label
        ys[idx] = np.asarray(sys.transition_batch(arr[idx], u), dtype=float).reshape(len(idx), box.dimension)
    if not inside(ys).all():
        raise DomainError(f"transition output {ys[np.argmin(inside(ys))]!r} outside the declared box")
    if n < len(xs):
        step(sys, xs[n], us[n])  # raises the loop's error before any transition call
    return _Lazy(n, lambda: list(ys), states=ys, kind="state")


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

    Finite spaces draw label indices (carried as the list's state codes), boxes
    points in the box (carried stacked); ``n`` states are one generator call, and
    the list's points are built from that column where first read.
    One state is the one-element draw ``random_state(rng, space, 1)[0]``.
    """
    if n is None:
        return random_state(rng, space, 1)[0]
    if isinstance(space, FiniteStates):
        codes = rng.integers(len(space.labels), size=n).astype(np.intp, copy=False)
        build = lambda: list(map(space.labels.__getitem__, codes.tolist()))
        return _Lazy(n, build, xcodes=codes, space=space, kind="state")
    arr = rng.uniform(space.lower, space.upper, size=(n, space.dimension))
    return _Lazy(n, lambda: list(arr), states=arr, kind="state")


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
