"""Executable registry of the operator-encoding identities.

Each check evaluates both sides of one identity (or hunts for one
documented counterexample) over enumerated or plan-sampled scenarios and
reports the maximum absolute discrepancy.  Finite systems are checked
over exhaustive state/input/function bases, where indicator functions
span the whole observable space, so any linear identity that fails
anywhere fails on the basis; input sequences are still drawn at random,
at the default bounds of :func:`~koopcontrol.systems.random_sequences`.
Box systems are checked over seeded samples and random linear
combinations of a built-in basis; a clean pass there is a
non-refutation certificate, with the evaluation count recorded.  A
discrepancy not within the plan's finite tolerance (NaN included) fails.
Most identities are rows of one table (:data:`_REGISTRY`) that
:func:`_run_table` evaluates, the trajectory checks included.  Each side
of a leg is one operator product built by
:func:`~koopcontrol.operators.compose`; a trajectory leg's product starts
with ``sim``, ``word``, ``K_inf^k`` or a path operator, which take a
trajectory point ``(x0, seq, k)``.  Only C16 and C19 have runners.  The table
maps a group's whole point list with each of its distinct products in
turn (trajectory operators walk the list in lockstep, each step one
``_step_many`` list step), lifts each mapped list once if the group names
a lift, reads its functions over it as one ``(functions, points)`` matrix
(a box's random combinations as their basis, each point then summed with
its own coefficients, bits unchanged), and records the legs' discrepancy
arrays in the order a point-by-point run would.  Each built-in basis
(:class:`_Basis`) reads itself with the bits of its functions' own reads:
finite indicators as one scatter of state codes, scaled functions from each
state function and weight row once.  Both sides of an identity read through
it, so a wrong reader trips no row; only a test against the per-function
read checks it.  One operator set serves a whole :func:`run_all`.

Point lists are column records (``systems._Points``): box states stacked
once at the draw, finite states and input labels as codes, trajectory
horizons, and sequences as ids into one sequence table per
:func:`_run_table` call, which holds each id's canonical fields as codes,
its head code and tail id and is filled lazily: each draw interns its
sequence rows as codes, and each shift is interned on first use.  A list's
Python points (pairs, trajectories, sequence objects) are built only where
read, which a passing run never does.  Every list the engine reads is one
it built, or one a map of the caller's own (a mutant) handed back, coded
where it returns (:func:`_mapped`).  ``K_inf`` steps with the head
codes and moves to the tails, sequence-basis weights gather head codes,
indicator bases scatter state codes, and :func:`_gaps` compares state
columns, and pairs' labels or sequences by codes or ids.  The walks keep
their live states and sequence ids as arrays, and read each trajectory's
inputs off its sequence's own fields (:func:`_first_inputs`), so they
check the operators that read the table's heads and tails.

Results are deterministic: every check draws from a generator seeded by
(plan seed, check index), so run order and concurrency cannot change the
outcome, and reports contain no timestamps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Optional

import numpy as np

from .errors import UnsupportedError
from .observables import (
    DomainTag,
    Observable,
    _abs_diff,
    _check_points,
    _combined,
    _values,
    constant_one,
    coordinate,
    enumerate_points,
    indicator,
    linear_combine,
    monomial,
    pair_indicator,
)
from .operators import (
    CompositionOperator,
    apply,
    ci_isomorphisms,
    compose,
    extension_aug_to_inf,
    extension_f_to_aug,
    identity_operator,
    input_aug_well_definedness,
    k_aug,
    k_inf,
    k_u,
    kcf_word,
    power,
    restriction_aug_to_f,
    restriction_inf_to_aug,
    two_step_discrepancy_witness,
    WellDefinednessReason,
)
from .systems import (
    ControlSystem,
    FiniteStates,
    InputSequence,
    RealBox,
    _Points,
    _SeqTable,
    _Trajectory,
    _box_states,
    _canonical,
    _draw_sequences,
    _draw_states,
    _encode,
    _entry,
    _finite_codes,
    _input_positions,
    _keyed,
    _step_many,
    _word,
)

__all__ = [
    "SamplePlan",
    "CheckResult",
    "RunSummary",
    "exact_plan",
    "sampled_plan",
    "check_ids",
    "describe_check",
    "is_applicable",
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
    rng_seed: int = 0
    tolerance: float = 1e-12

    def __post_init__(self):
        if self.n_points < 1 or self.n_functions < 1:
            raise ValueError("plan bounds must be positive")
        if not 0 <= self.tolerance < math.inf:  # NaN included
            raise ValueError(f"tolerance must be a nonnegative number and finite, got {self.tolerance!r}")


def exact_plan(seed: int = 0, n_points: int = 200) -> SamplePlan:
    """Zero-tolerance plan for finite systems."""
    return SamplePlan(n_points=n_points, rng_seed=seed, tolerance=0.0)


def sampled_plan(seed: int, n_points: int = 1000, n_functions: int = 50, tolerance: float = 1e-12) -> SamplePlan:
    """Seeded sampling plan for box systems."""
    return SamplePlan(n_points=n_points, n_functions=n_functions, rng_seed=seed, tolerance=tolerance)


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
    """Tracks the largest finite discrepancy and the first one not within tolerance.

    A discrepancy fails unless it is ``<= tolerance``, so NaN fails; only
    finite values count towards ``max_err``, which stays a plain float.
    """

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.max_err = 0.0
        self.n = 0
        self.passed = True
        self.counterexample = None
        self.note = ""

    def record(self, err: float, describe: Callable) -> None:
        """Count one discrepancy; ``describe()`` runs at once if it is the first failure."""
        err = float(err)
        self.n += 1
        if err > self.max_err and math.isfinite(err):
            self.max_err = err
        if not err <= self.tolerance and self.passed:
            self.passed = False
            self.counterexample = describe()

    def record_many(self, errs: np.ndarray, describe: Callable) -> None:
        """Count every discrepancy of ``errs`` in order, as ``record`` would
        one by one; ``describe(i)`` runs if ``errs[i]`` is the first failure."""
        self.n += errs.size
        finite = errs[np.isfinite(errs)]
        if finite.size and finite.max() > self.max_err:
            self.max_err = float(finite.max())
        if self.passed:
            bad = np.flatnonzero(~(errs <= self.tolerance))
            if bad.size:
                self.passed = False
                self.counterexample = describe(int(bad[0]))


def _gaps(space, a: _Points, b: _Points) -> np.ndarray:
    """The distance of each pair of points ``a[i]``, ``b[i]`` of two lists of one kind, as one array, read
    off their columns.  Box states differ by their largest coordinate gap, and paths by their
    states' largest gap up to each path's end; finite states differ by their codes, a bare label that is
    not ``==`` to itself differing from itself, as ``==`` compares it, while pairs and paths compare their
    labels as tuples do (``is`` first), and two states outside the space compare as their points do.
    Pairs differ by 1 more where their inputs or sequences do (:func:`_differ`)."""
    box, kind = isinstance(space, RealBox), a.kind
    if kind == "path":
        with np.errstate(all="ignore"):
            gaps = np.max(np.abs(a.states - b.states), axis=2) if box else (a.xcodes != b.xcodes) * 1.0
        gaps[np.arange(gaps.shape[1]) > a.ks[:, None]] = -np.inf  # past each path's end
        return gaps.max(axis=1)
    sa, sb = (a, b) if a.firsts is None else (a.firsts, b.firsts)
    if box:
        with np.errstate(all="ignore"):
            gaps = np.max(np.abs(_box_states(space, sa) - _box_states(space, sb)), axis=1)
    else:
        xa, xb = _finite_codes(space, sa), _finite_codes(space, sb)
        gaps = (xa != xb) | (a.firsts is None and ~_reflexive(space.labels)[xa])
        for i in np.flatnonzero((xa < 0) | (xb < 0)).tolist():  # outside the space: compared as points
            gaps[i] = not (sa[i] == sb[i] if a.firsts is None else sa[i] is sb[i] or sa[i] == sb[i])
        gaps = gaps.astype(float)
    if a.ids is None and a.codes is None:
        return gaps
    return np.maximum(gaps, _differ(a, b, box, a.ids is not None))


def _differ(a: _Points, b: _Points, box: bool, seqs: bool) -> np.ndarray:
    """Whether the inputs (``seqs``: the sequences) of each pair of points ``a[i]``, ``b[i]`` differ, as
    ``==`` compares them: a box label alone, else as tuples do (``is`` first).  Over one table, a code
    equals itself (a box label, where the label is ``==`` to itself) and two codes are compared by their
    labels, since two objects coded apart can be ``==``; over two tables every pair is.  Each distinct pair
    of codes is compared once."""
    ca, cb = (a.ids, b.ids) if seqs else (a.codes, b.codes)
    one = a.table is b.table

    def value(table, i):
        if seqs:
            return tuple(tuple(map(table.labels.__getitem__, f)) for f in table.keys[i])
        return table.labels[i] if box else (table.labels[i],)

    differ = ~_reflexive(a.table.labels)[ca] if one and box and not seqs else np.zeros(len(ca), dtype=bool)
    rows = np.flatnonzero(ca != cb) if one else np.arange(len(ca))
    pairs = list(zip(ca[rows].tolist(), cb[rows].tolist()))
    unequal = {p: not value(a.table, p[0]) == value(b.table, p[1]) for p in dict.fromkeys(pairs)}
    differ[rows] = [unequal[p] for p in pairs]
    return differ


def _reflexive(labels) -> np.ndarray:
    return np.array([bool(u == u) for u in labels], dtype=bool)


def _scenario_states(sys, plan, rng, table=None) -> _Points:
    if _is_finite(sys):  # every state in order, with its code
        return _Points(sys.states.labels, xcodes=np.arange(len(sys.states.labels)), space=sys.states, kind="state")
    return _draw_states(rng, sys.states, plan.n_points)


def _scenario_pairs(sys, plan, rng, table=None) -> _Points:
    """Every finite pair, state-major, or drawn box pairs; input codes index the table (inputs first)."""
    table, m = table or _SeqTable(sys.inputs.labels), len(sys.inputs.labels)
    if isinstance(sys.states, FiniteStates):
        n = len(sys.states.labels)
        xs, codes = _scenario_states(sys, plan, rng).take(np.repeat(np.arange(n), m)), np.tile(np.arange(m), n)
    else:
        xs, codes = _draw_states(rng, sys.states, plan.n_points), rng.integers(m, size=plan.n_points)
    return _Points(firsts=xs, codes=codes, table=table, kind="state-input")


def _scenario_seq_points(sys, plan, rng, table=None, n=None) -> _Points:
    """The states, then their sequences, one list each; the sequences are interned as codes."""
    n, table, labels = plan.n_points if n is None else n, table or _SeqTable(sys.inputs.labels), sys.inputs.labels
    xs = _draw_states(rng, sys.states, n)
    ids = table.intern_rows(labels, *_draw_sequences(rng, labels, n))
    return _Points(firsts=xs, ids=ids, table=table, kind="state-sequence")


def _first_inputs(table: _SeqTable, ids: np.ndarray, k: int) -> np.ndarray:
    """The ``(n, k)`` codes of each sequence's first ``k`` inputs: row ``i``
    codes ``[seq.at(j) for j in range(k)]`` of sequence ``ids[i]``.  Read off
    each distinct sequence's own fields (its key), not the table's heads and
    tails, so walks stepped with these words check the operators that read them."""
    distinct, row = list(dict.fromkeys(ids.tolist())), np.zeros(len(table.keys), dtype=np.intp)
    row[distinct] = range(len(distinct))
    words = [_word(*table.keys[i], k) for i in distinct]
    return np.array(words, dtype=np.intp).reshape(len(distinct), k)[row[ids]]


def _scenario_trajectories(sys, plan, rng, table=None, horizons: int = 6) -> _Points:
    """Sequence points, then one horizon below ``horizons`` per point, in point order."""
    points = _scenario_seq_points(sys, plan, rng, table)
    ks = rng.integers(0, horizons, size=len(points))
    return _Points(firsts=points.firsts, ids=points.ids, ks=ks, table=points.table, kind="trajectory")


def _scenario_words(sys, plan, rng, table=None) -> list:
    """Start states (six rounds on finite systems, covering lengths 0..5), each
    with a random word of length ``i % 6`` followed by the first input forever."""
    labels = sys.inputs.labels
    states = _scenario_states(sys, plan, rng)
    states = states.take(np.tile(np.arange(len(states)), 6)) if _is_finite(sys) else states
    n, table = len(states), table or _SeqTable(labels)
    ks = np.arange(n) % 6
    words = np.zeros((n, 5), dtype=np.intp)
    words[np.arange(5) < ks[:, None]] = rng.integers(len(labels), size=int(ks.sum()))  # row by row, in draw order
    ids = table.intern_rows(labels, *_canonical(labels, words, ks, np.zeros((n, 1), np.intp), np.ones(n, np.intp)))
    return _Points(firsts=states, ids=ids, ks=ks, table=table, kind="trajectory")


def _scaled(phi: Observable, domain: DomainTag, weights: Callable, label: str, ci_input=None) -> Observable:
    """``phi`` at each point's state times the point's weight, where
    ``weights(points)`` lists the weights read from a point list.  ``phi``
    is real-valued, as every state-basis function is, so the real products
    are the values."""
    batch = _entry(domain.value, lambda ps: (_values(phi, ps.firsts).real * np.asarray(weights(ps))).astype(complex))
    return Observable(domain, label=f"{phi.label}*{label}", ci_input=ci_input, batch=batch)


def _unit_weights(points: list) -> np.ndarray:
    return np.ones(len(points))


class _Basis(list):
    """A function list whose ``read(points)`` is the ``(functions, points)`` matrix of its values, bit
    for bit each function's read stacked.  ``rows(points)`` builds it off a list's codes, or is ``None``;
    ``parts`` maps the position of each ``_scaled(phis[j], ..., w)`` to ``(j, w)``, so a read takes each
    state function and weight row once, in basis order: the first read that raises is the same."""

    def __init__(self, functions, rows=lambda points: None, phis=(), parts=None):
        super().__init__(functions)
        self.rows, self.phis, self.parts = rows, phis, parts or {}

    def read(self, points) -> np.ndarray:
        out = self.rows(points)
        if out is not None or not self.parts:
            return np.stack([_values(f, points) for f in self]) if out is None else out
        firsts, states, weights = points.firsts, {}, {}
        fast = self.phis.rows(firsts) if isinstance(self.phis, _Basis) else None
        out = np.empty((len(self), len(points)), dtype=complex)
        for i, f in enumerate(self):
            if i not in self.parts:
                out[i] = _values(f, points)
                continue
            j, w = self.parts[i]
            if j not in states:
                states[j] = (_values(self.phis[j], firsts) if fast is None else fast[j]).real
            if w not in weights:
                weights[w] = np.asarray(w(points))
            out[i] = states[j] * weights[w]  # real, as _scaled's product
        return out


def _indicator_rows(sys: ControlSystem, pairs: bool = False) -> Callable:
    """``rows`` of the finite state indicators and constant (``pairs``: pair indicators, state-major): one
    scatter of a list's state codes (times ``m``, plus each input's position), an input outside the set
    meeting no indicator.  A label that is not ``==`` to itself, as no point is, has zeros."""
    space, inputs, m = sys.states, sys.inputs, len(sys.inputs.labels) if pairs else 1
    keys = [(x, u) for x in space.labels for u in inputs.labels] if pairs else [(x,) for x in space.labels]
    odd = [r for r, key in enumerate(keys) if not all(v == v for v in key)]

    def rows(points) -> np.ndarray:
        at = _finite_codes(space, points.firsts if pairs else points)
        hit = at >= 0
        if pairs:
            position = _input_positions(inputs, points)
            at, hit = at * m + position, hit & (position >= 0)
        hit = np.flatnonzero(hit)
        out = np.zeros((len(keys) + (not pairs), len(points)), dtype=complex)
        out[at[hit], hit] = 1
        out[odd] = 0
        out[len(keys) :] = 1  # the constant
        return out

    return rows


def _scaled_basis(phis: list, head: list, terms: list, domain: DomainTag, ci_input=None) -> _Basis:
    """``head``, then ``phis[j]`` scaled by ``weights`` for each ``(j, weights, label)`` of ``terms``."""
    scaled = [_scaled(phis[j], domain, w, label, ci_input) for j, w, label in terms]
    return _Basis(head + scaled, phis=phis, parts={len(head) + i: (j, w) for i, (j, w, _) in enumerate(terms)})


def _state_basis(sys: ControlSystem) -> _Basis:
    if isinstance(sys.states, FiniteStates):
        indicators = [indicator(x) for x in sys.states.labels]
        return _Basis(indicators + [constant_one(DomainTag.STATE_ONLY)], _indicator_rows(sys))
    box: RealBox = sys.states
    basis = [constant_one(DomainTag.STATE_ONLY)]
    for i in range(box.dimension):
        basis.append(coordinate(i))
        basis.append(monomial(tuple(2 if j == i else 0 for j in range(box.dimension))))
    return _Basis(basis)


def _input_weights(sys: ControlSystem, k=None) -> Callable:
    """The weight ``1 + j / 2`` of input label ``j``, read per point from a
    pair list's label codes, or (``k``) from the head codes of each point's
    sequence after ``k`` shifts."""
    weights = {u: 1.0 + 0.5 * j for j, u in enumerate(sys.inputs.labels)}

    def read(ps) -> np.ndarray:
        table, codes, ids = ps.table, ps.codes, ps.ids
        if k is not None:
            for _ in range(k):
                ids = table.shifted(ids)
            codes = table.head[ids]
        w = np.zeros(len(table.labels))
        for c in dict.fromkeys(codes.tolist()):  # a label without a weight raises the lookup's KeyError
            w[c] = weights[table.labels[c]]
        return w[codes]

    return read


def _aug_basis(sys: ControlSystem) -> _Basis:
    if isinstance(sys.states, FiniteStates):
        pairs = [pair_indicator(x, u) for x, u in enumerate_points(DomainTag.STATE_INPUT, sys)]
        return _Basis(pairs, _indicator_rows(sys, pairs=True))
    phis, w = _state_basis(sys), _input_weights(sys)
    terms = [(j, v, label) for j in range(1, len(phis)) for v, label in ((w, "w(u)"), (_unit_weights, "1"))]
    return _scaled_basis(phis, [constant_one(DomainTag.STATE_INPUT)], terms + [(0, w, "w(u)")], DomainTag.STATE_INPUT)


def _seq_basis(sys: ControlSystem) -> _Basis:
    phis = _state_basis(sys)  # finite indicators already span, so the constant goes
    js = range(len(phis) - 1) if _is_finite(sys) else range(1, len(phis))
    ws = [_input_weights(sys, k) for k in (0, 1, 2)]
    terms = [(j, ws[k], f"w(u({k}))") for k in (0, 1, 2) for j in js]
    return _scaled_basis(phis, [constant_one(DomainTag.STATE_SEQUENCE)], terms, DomainTag.STATE_SEQUENCE)


class _Combinations:
    """Function ``j`` combines ``basis`` with row ``j`` of the ``(k, m)`` array ``coeffs``; it is
    built only when asked for, since the engine reads the basis and sums with the rows."""

    def __init__(self, basis: list, coeffs: np.ndarray):
        self.basis, self.coeffs = basis, coeffs

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, j: int) -> Observable:  # past the last row, numpy's IndexError ends iteration
        return linear_combine(self.coeffs[j], self.basis)


def _functions(sys, plan, rng, basis: list) -> list:
    """Exhaustive basis on finite systems, seeded random combinations on boxes."""
    if isinstance(sys.states, FiniteStates):
        return basis
    parts = rng.uniform(-1, 1, size=(plan.n_functions, 2, len(basis)))  # real, imaginary rows
    return _Combinations(basis, parts[:, 0] + 1j * parts[:, 1])


def _ci_seq_direct(sys: ControlSystem) -> _Basis:
    """Sequence-domain observables that ignore the sequence, by construction."""
    phis, stamp = _state_basis(sys), InputSequence.constant(sys.inputs.labels[0])
    terms = [(j, _unit_weights, "1") for j in range(len(phis))]
    return _scaled_basis(phis, [], terms, DomainTag.STATE_SEQUENCE, stamp)


def _is_finite(sys: ControlSystem) -> bool:
    return isinstance(sys.states, FiniteStates)


# --- the identity table ----------------------------------------------------

# What a row can draw, by name: point lists (states, states per input,
# pairs, sequence points, at most 200 of them, trajectories with horizons
# 0..5 or 0..10, start states with words) and function lists (random combinations
# of the state, pair and sequence bases, exhaustive bases on finite
# systems; up to 8 random sequence constants).  "ci_seq" draws nothing:
# it is the fixed list of sequence-blind observables.
_DRAWS = {
    "x": _scenario_states,
    "x_per_u": lambda sys, plan, rng, table=None: {u: _scenario_states(sys, plan, rng, table) for u in sys.inputs.labels},
    "p": _scenario_pairs,
    "s": _scenario_seq_points,
    "s200": lambda sys, plan, rng, table=None: _scenario_seq_points(sys, plan, rng, table, n=min(plan.n_points, 200)),
    "t": _scenario_trajectories,
    "t11": lambda sys, plan, rng, table=None: _scenario_trajectories(sys, plan, rng, table, horizons=11),
    "tw": _scenario_words,
    "c": lambda sys, plan, rng, *_: [
        linear_combine([complex(re, im)], [constant_one(DomainTag.STATE_SEQUENCE)])
        for re, im in rng.uniform(-1, 1, size=(min(plan.n_functions, 8), 2)).tolist()
    ],
    "fx": lambda sys, plan, rng, *_: _functions(sys, plan, rng, _state_basis(sys)),
    "fp": lambda sys, plan, rng, *_: _functions(sys, plan, rng, _aug_basis(sys)),
    "fs": lambda sys, plan, rng, *_: _functions(sys, plan, rng, _seq_basis(sys)),
    "ci_seq": lambda sys, plan, rng, *_: _ci_seq_direct(sys),
}


def _mapped(op: CompositionOperator, points: _Points, col=None) -> _Points:
    """``op.batch(points)`` (or its result ``col``), which a map of the caller's own may hand back as a
    plain list, coded here into the table of ``points``."""
    col = op.batch(points) if col is None else col
    return _encode(col, op.source.value, points.table)


def _walk_op(sys: ControlSystem, many: Callable, on_seq=False, path=False) -> CompositionOperator:
    """A trajectory operator: a list of trajectory points ``(x0, seq, k)``
    walks in lockstep from the ``x0`` (each paired with its ``seq`` when
    ``on_seq``).  The walk keeps the live states as one column (stacked
    ``(n, d)`` on boxes, an object array of labels with their state codes on
    finite systems) and, when ``on_seq``, the sequence ids as one array.
    Step ``j`` gathers the points with ``k > j`` into a list, moves it to
    ``many(points, their j-th inputs)``, the codes of each trajectory's first
    ``k`` inputs read once (:func:`_first_inputs`), or, when ``on_seq``, maps
    it with the operator ``many`` (sequence points carry their inputs), and scatters the
    result back.  Each point maps to its walk's last point or, with ``path``,
    to the states it visits: a stacked ``(k + 1, d)`` array on boxes, a tuple
    of labels on finite systems.  The walk is the operator's list map."""
    box = sys.states if isinstance(sys.states, RealBox) else None

    def batch(ts: _Points) -> _Points:
        table, ids, ks, starts = _keyed(ts.table), ts.ids.copy(), ts.ks, ts.firsts
        steps = int(ks.max(initial=0))
        words = None if on_seq else _first_inputs(table, ids, steps)
        if box:
            xs = _box_states(box, starts).copy()
        else:
            xs, codes = np.fromiter(starts, dtype=object, count=len(ts)), _finite_codes(sys.states, starts).copy()

        def points(at: np.ndarray) -> _Points:  # the states at ``at``
            if box:
                return _Points(states=xs[at], kind="state")
            return _Points(list(xs[at]), xcodes=codes[at], space=sys.states, kind="state")

        trail = [(xs.copy(), None if box else codes.copy())] if path else None  # the states of each step
        for j in range(steps):
            live = np.flatnonzero(ks > j)
            if on_seq:
                moved = _mapped(many, _Points(firsts=points(live), ids=ids[live], table=table, kind="state-sequence"))
                ids[live], moved = moved.ids, moved.firsts
            else:
                moved = many(points(live), _Points(codes=words[live, j], table=table, kind="label"))
            if box:
                xs[live] = _box_states(box, moved)
            else:
                xs[live], codes[live] = np.fromiter(moved, dtype=object, count=len(live)), _finite_codes(sys.states, moved)
            if path:
                trail.append((xs.copy(), None if box else codes.copy()))
        if path and box:  # the walks' states stacked (n, longest k + 1, d), each path a view where read
            return _Points(states=np.stack([x for x, _ in trail], axis=1), ks=ks, kind="path")
        if path:
            paths = [p[: k + 1] for p, k in zip(zip(*(x for x, _ in trail)), ks.tolist())]
            return _Points(paths, xcodes=np.stack([c for _, c in trail], axis=1), ks=ks, kind="path")
        everyone = np.arange(len(ts))
        if on_seq:
            return _Points(firsts=points(everyone), ids=ids, table=table, kind="state-sequence")
        return points(everyone)

    tag = DomainTag.STATE_SEQUENCE if on_seq and not path else DomainTag.STATE_ONLY
    return CompositionOperator(tag, tag, _entry("trajectory", batch))


def _named(sys: ControlSystem, inputs: dict, ops: Optional[tuple] = None) -> dict:
    """Operators by name; ``R_u`` and ``K_u`` exist for each key of ``inputs``,
    taken from ``ops`` (:func:`_operator_set`), else from a set built here.
    The trajectory operators map trajectory points ``(x0, seq, k)``:
    ``sim``, ``word`` and ``K_inf^k`` to the point ``k`` steps on, ``path``
    to the states ``simulate`` visits, and ``path_inf``, ``path_kcf`` and
    ``path_aug`` to the states that iterating the point map of ``K_inf``,
    of each input's ``K_u`` or of ``K_aug`` visits.  They only stand at a
    chain's left end, so their target, never read, is their source.  Each
    walk's step maps a point list through ``_step_many`` or one of these
    operators."""
    named, per_input = ops or _operator_set(sys)
    return {**named, **{f"{p}_{key}": op for key, u in inputs.items() for p, op in zip("RK", per_input[u])}}


def _operator_set(sys: ControlSystem) -> tuple:
    """``(named, per_input)``: the operators of :func:`_named` that no input context names, and each
    input label's ``(R_u, K_u)``.  None keeps state between list maps, so one set serves a whole run."""
    iso, kin, kau = ci_isomorphisms(sys), k_inf(sys), k_aug(sys)
    ku = {u: k_u(sys, u) for u in sys.inputs.labels}

    def kcf(xs, us):  # each state through the K_u of its input, grouped by input code
        codes = _input_positions(sys.inputs, us)
        for c, op in enumerate(ku.values()):
            idx = np.flatnonzero(codes == c)
            xs = xs.put(idx, _mapped(op, xs.take(idx))) if idx.size else xs
        return xs

    augmented = lambda xs, us: _mapped(kau, _Points(firsts=xs, codes=us.codes, table=us.table, kind="state-input")).firsts
    simulated = lambda xs, us: _step_many(sys, xs, us)
    named = {
        "R": restriction_inf_to_aug(),
        "E": extension_aug_to_inf(),
        "E_f": extension_f_to_aug(),
        "K_aug": kau,
        "K_inf": kin,
        "E_ci": iso.extend_state_to_aug,
        "R_ci": iso.restrict_aug_to_state,
        "E_ci_seq": iso.extend_aug_to_seq,
        "R_ci_seq": iso.restrict_seq_to_aug,
        "sim": _walk_op(sys, simulated),
        "word": _walk_op(sys, kcf),
        "K_inf^k": _walk_op(sys, kin, on_seq=True),
        "path": _walk_op(sys, simulated, path=True),
        "path_inf": _walk_op(sys, kin, on_seq=True, path=True),
        "path_kcf": _walk_op(sys, kcf, path=True),
        "path_aug": _walk_op(sys, augmented, path=True),
    }
    return named, {u: (restriction_aug_to_f(u, sys), op) for u, op in ku.items()}


def _products(named: dict, chains: list) -> list:
    """The ``compose`` product of each chain such as ``"R K_inf E"`` (``E``
    acts first on functions, last on points).  An empty chain is the
    identity on the source domain of the group's other products."""
    ops = [[named[name] for name in chain.split()] for chain in chains]
    domain = next(o[-1].source for o in ops if o)
    return [reduce(compose, o) if o else identity_operator(domain) for o in ops]


class _Group:
    """Legs that one input context evaluates over one point list.

    ``over`` is ``""`` (once), ``"u"`` (once per input) or ``"uu"`` (once
    per unordered input pair ``u1``, ``u2``).  ``funcs`` is empty for
    point-level legs, which compare the points their chains map to;
    otherwise it names a drawn function list, optionally after operators
    that turn each function into the subject (``"E_ci fx"``).  Functions
    meet every point on finite systems or when ``cross`` is set, and are
    cycled over the points otherwise.
    A leg is ``(counterexample template, lhs chain, rhs chain)``; the
    template may name ``{f}``, ``{p}``, the context's inputs and, on
    trajectory points, ``{x0}``, ``{k}``, ``{word}`` and ``{seq}``; an empty chain is
    the subject (or point) itself.
    """

    def __init__(self, over: str, points: str, funcs: str, *legs: tuple, cross: bool = False):
        self.over, self.points, self.funcs, self.legs, self.cross = over, points, funcs, legs, cross


def _describe(text: str, p, fields: dict, f: str = "") -> str:
    if isinstance(p, _Trajectory):
        fields = dict(fields, x0=repr(p.x0), k=p.k, word=repr(list(p.seq.word(p.k))), seq=repr(p.seq))
    return text.format(f=f, p=repr(p), **fields)


def _run_group(sys, rec, group: _Group, drawn: dict, inputs: dict, ops: tuple) -> None:
    """Build each distinct chain's product once and map every point with
    it, then compare each leg's two mapped point lists (point-level legs) or
    read the functions over them: ``apply(op, g)(p) == g(op.precompose(p))``.
    Each mapped list is lifted once, if the group names a lift, and the drawn
    functions (the basis of random combinations) are read over it as one
    matrix, by a :class:`_Basis`'s reader or one by one.  Row ``r`` is subject
    ``fi[r]`` at point ``at[r]``: every subject at every point, subject-major
    (the matrix's order), on finite systems and in ``cross`` groups, else
    point ``i`` by subject ``i % k``, a combination summed with its own
    coefficient row.  Subjects are built only for ``apply``'s checks and the
    first counterexample's label.  Each row is recorded leg by leg."""
    named = _named(sys, inputs, ops)
    fields = {key: repr(u) for key, u in inputs.items()}
    points = drawn[group.points]
    if isinstance(points, dict):  # one point list per input
        points = points[inputs["u"]]
    chains = list(dict.fromkeys(c for _, a, b in group.legs for c in (a, b)))
    products = _products(named, chains)
    n, label = len(points), lambda j: ""
    fi = at = np.arange(n)
    if group.funcs:
        lift, _, fset = group.funcs.rpartition(" ")
        funcs, lift_op = drawn[fset], _products(named, [lift])[0] if lift else None
        combos = isinstance(funcs, _Combinations)
        kinds = {}  # apply reads only a function's domain and whether it is certified
        for f in [funcs[0]] if combos else funcs:  # combinations share one kind
            kinds.setdefault((f.domain, f.ci_input is None), f)
        # apply's checks: the lift first (an identity would drop the functions' certification stamps),
        # then every product, on one subject of each kind
        kinds = [f if lift_op is None else apply(lift_op, f) for f in kinds.values()]
        for g in kinds:
            for op in products:
                apply(op, g)
        label = lambda j: (funcs[j] if lift_op is None else apply(lift_op, funcs[j])).label
    legs = [(text, chains.index(a), chains.index(b)) for text, a, b in group.legs]
    cols = []
    for op in products:
        col = op.batch(points)
        if group.funcs:  # the subjects share one domain
            _check_points(kinds[0].domain, col)
        cols.append(_mapped(op, points, col))
    if group.funcs:
        k, every = len(funcs), group.cross or _is_finite(sys)
        fi, at = (np.repeat(np.arange(k), n), np.tile(at, k)) if every else (at % k, at)
        vals = []
        for col in cols:
            col = col if lift_op is None else _mapped(lift_op, col)
            basis = funcs.basis if combos else funcs
            read = (basis if isinstance(basis, _Basis) else _Basis(basis)).read(col)  # (functions, points)
            vals.append(_combined(fi.size, zip(funcs.coeffs[fi].T, read[:, at])) if combos
                        else read.ravel() if every else read[fi, at])  # every subject at every point: read's order
        errs = np.column_stack([_abs_diff(vals[a], vals[b]) for _, a, b in legs])
    else:
        errs = np.column_stack([_gaps(sys.states, cols[a], cols[b]) for _, a, b in legs])

    def describe(i):
        r, leg = divmod(i, len(legs))
        return _describe(legs[leg][0], points[at[r]], fields, label(fi[r]))

    rec.record_many(errs.ravel(), describe)


def _run_table(sys, plan, rng, draws: tuple, groups: tuple, note: str = "", ops: Optional[tuple] = None) -> _Recorder:
    """Draw in the row's order, run the per-input groups input by input,
    then every other group in order, with ``ops`` or a set built here."""
    rec = _Recorder(plan.tolerance)
    rec.note = note
    table = _SeqTable(sys.inputs.labels)  # every drawn sequence and each shift the run reads
    drawn = {name: _DRAWS[name](sys, plan, rng, table) for name in draws}
    labels, ops = sys.inputs.labels, ops or _operator_set(sys)
    pairs = [{"u1": a, "u2": b} for i, a in enumerate(labels) for b in labels[i + 1 :]]
    for u in labels:
        for group in (g for g in groups if g.over == "u"):
            _run_group(sys, rec, group, drawn, {"u": u}, ops)
    for group in (g for g in groups if g.over != "u"):
        for inputs in pairs if group.over == "uu" else [{}]:
            _run_group(sys, rec, group, drawn, inputs, ops)
    return rec


# --- checks with their own runners -----------------------------------------


# One augmented step read by a control-independent subject at the stepped
# pair and at its state component (``E_f R_ci`` reads g at (x', u0)).  Each
# side steps the pair itself, the right side first, so a transition that is
# not a function can show a gap.
_C16_STEP = _Group("", "p", "E_ci fx", ("single step: {f} at {p}", "K_aug E_f R_ci", "K_aug"))


def _run_c16(sys, plan, rng, ops=None):
    rec = _run_table(sys, plan, rng, ("fx", "p"), (_C16_STEP,), ops=ops)
    iso, kau = ci_isomorphisms(sys), k_aug(sys)
    tol = plan.tolerance
    witness = two_step_discrepancy_witness(sys, tol=tol)
    if witness is None:
        rec.note = "no two-step discrepancy exists for this system"
    else:
        lifted = apply(iso.extend_state_to_aug, witness.observable)
        v_power = apply(power(kau, 2), lifted)((witness.x, witness.word[0]))
        v_word = apply(kcf_word(sys, witness.word), witness.observable)(witness.x)
        # The values must differ (NaN counts as a gap) and equal those the witness stepped by hand.
        ok = not abs(v_power - v_word) <= tol
        ok = ok and abs(v_power - witness.value_power) <= tol and abs(v_word - witness.value_word) <= tol
        claim = "two steps diverge" if ok else "claimed two-step witness did not reproduce"
        rec.record(0.0 if ok else 1.0, lambda: claim)
        rec.note = (
            f"{claim} at x={witness.x!r}, word={witness.word!r}: "
            f"frozen-input value {v_power:.6g} vs word value {v_word:.6g}"
        )
    return rec


def _run_c19(sys, plan, rng, ops=None):
    rec = _Recorder(plan.tolerance)
    probes = _aug_basis(sys)
    report = input_aug_well_definedness(sys, probes, tol=plan.tolerance)
    if len(sys.inputs.labels) == 1:
        ok = report.reason is WellDefinednessReason.SINGLETON_INPUT
        rec.note = "single input: construction well defined"
    else:
        # The probe set contains input-dependent functions, so a witness
        # showing the construction is ill defined must turn up.
        ok = report.reason is WellDefinednessReason.WITNESS_FOUND
        if report.witness is not None:
            label, x, u, u1, u2, v1, v2 = report.witness
            ok = ok and not abs(v1 - v2) <= plan.tolerance
            rec.note = (
                f"witness: probe {label} at T({x!r}, {u!r}) gives "
                f"{v1:.6g} under {u1!r} vs {v2:.6g} under {u2!r}"
            )
    rec.record(0.0 if ok else 1.0, lambda: f"unexpected report: {report!r}")
    return rec


# --- the registry ----------------------------------------------------------


class _Check:
    """A registry row: what it draws (in generator order), its groups of
    legs and a fixed note, or its own runner;
    ``run(system, plan, generator, ops=None)`` -> _Recorder."""

    def __init__(self, id, description, draws=(), *groups, note="", runner=None, finite_only=False):
        self.id, self.description, self.finite_only = id, description, finite_only
        self.groups = groups
        self.run = runner or partial(_run_table, draws=draws, groups=groups, note=note)


# Legs read as operator products (``"R K_inf E"`` applies E first).  The
# point-level checks C1, C4, C9 and C10 compare where the products that
# C2, C5, C11 and C12 apply to functions map points.  C3 reads each
# control-independent subject against its own round trip through the
# stamp input: ``E_ci_seq E_ci R_ci R_ci_seq`` maps ``(x, s)`` to
# ``(x, u0 u0 ...)`` and ``E_ci R_ci`` maps ``(x, u)`` to ``(x, u0)``.
# C14, C15, C17 and C18 start from a trajectory operator; C15's
# ``sim R_ci R_ci_seq`` reads a sequence-blind function's state component
# at the simulated endpoint, and C18 compares whole paths.
_REGISTRY = [
    _Check("C1", "restricting after extending is the identity on state-input pairs", ("p",),
           _Group("", "p", "", ("pair {p}", "R E", ""))),
    _Check("C2", "extend-then-restrict is the identity on pair observables", ("p", "fp"),
           _Group("", "p", "fp", ("{f} at {p}", "R E", ""))),
    _Check("C3", "extensions and restrictions preserve control independence",
           ("fx", "s", "p", "ci_seq"),
           _Group("", "s", "E_ci_seq E_ci fx",
                  ("extension varies: {f} at {p}", "E_ci_seq E_ci R_ci R_ci_seq", "")),
           _Group("", "p", "R_ci_seq ci_seq", ("restriction varies: {f} at {p}", "E_ci R_ci", ""))),
    _Check("C4", "freezing an input then dropping it is the identity on states", ("x_per_u",),
           _Group("u", "x_per_u", "", ("state {p} via input {u}", "R_u E_f", ""))),
    _Check("C5", "input-freeze restriction after input-blind extension is the identity", ("x", "fx"),
           _Group("u", "x", "fx", ("{f} at {p}, input {u}", "R_u E_f", ""))),
    _Check("C6", "round trips between control-independent pair and sequence observables",
           ("fx", "p", "s", "ci_seq"),
           _Group("", "p", "E_ci fx", ("{f} at {p}", "R_ci_seq E_ci_seq", "")),
           _Group("", "s", "ci_seq", ("{f} at {p}", "E_ci_seq R_ci_seq", ""))),
    _Check("C7", "all input-freeze restrictions agree on control-independent observables", ("fx", "x"),
           _Group("uu", "x", "E_ci fx", ("{f} at {p}, inputs {u1}/{u2}", "R_u1", "R_u2"))),
    _Check("C8", "round trips between state observables and control-independent pairs", ("fx", "x", "p"),
           _Group("", "x", "fx", ("{f} at {p}", "R_ci E_ci", "")),
           _Group("", "p", "E_ci fx", ("{f} at {p}", "E_ci R_ci", ""))),
    _Check("C9", "sequence dynamics intertwine with augmented dynamics via constant sequences", ("p",),
           _Group("", "p", "",
                  ("intertwining at {p}", "R K_inf", "K_aug R"),
                  ("factorization at {p}", "R K_inf E", "K_aug"))),
    _Check("C10", "augmented dynamics intertwine with each constant-input map", ("x_per_u",),
           _Group("u", "x_per_u", "",
                  ("intertwining at {p}, input {u}", "R_u K_aug", "K_u R_u"),
                  ("factorization at {p}, input {u}", "R_u K_aug E_f", "K_u"))),
    _Check("C11", "sequence and augmented Koopman operators agree through restriction", ("p", "fs", "fp"),
           _Group("", "p", "fs", ("intertwining: {f} at {p}", "R K_inf", "K_aug R")),
           _Group("", "p", "fp", ("factorization: {f} at {p}", "K_aug", "R K_inf E"))),
    _Check("C12", "augmented and constant-input Koopman operators agree through restriction",
           ("x", "fp", "fx"),
           _Group("u", "x", "fp", ("intertwining: {f} at {p}, input {u}", "R_u K_aug", "K_u R_u")),
           _Group("u", "x", "fx", ("factorization: {f} at {p}, input {u}", "K_u", "R_u K_aug E_f"))),
    _Check("C13", "all three operators act identically on control-independent observables",
           ("fx", "x", "p"),
           _Group("u", "x", "fx",
                  ("one-hop: {f} at {p}, input {u}", "K_u", "R_u K_aug E_ci"),
                  ("two-hop: {f} at {p}, input {u}", "K_u", "R_u R K_inf E_ci_seq E_ci")),
           _Group("", "p", "E_ci fx", ("middle-hop: {f} at {p}", "K_aug", "R K_inf E_ci_seq"))),
    _Check("C14", "trajectory values via input words and via sequence powers match simulation",
           ("fx", "t"),
           _Group("", "t", "fx",
                  ("word path: {f}, x0={x0}, word={word}", "sim", "word"),
                  ("sequence path: {f}, x0={x0}, k={k}", "sim", "K_inf^k E_ci_seq E_ci"))),
    _Check("C15", "sequence-operator powers read state components along trajectories", ("ci_seq", "t"),
           _Group("", "t", "ci_seq", ("{f}, x0={x0}, k={k}", "sim R_ci R_ci_seq", "K_inf^k"))),
    _Check("C16", "augmented operator captures one step exactly, two steps diverge", runner=_run_c16),
    _Check("C17", "input-word operators evaluate observables at simulated endpoints", ("fx", "tw"),
           _Group("", "tw", "fx", ("{f}, x0={x0}, word={word}", "sim", "word"))),
    _Check("C18", "all three reformulations rebuild simulated trajectories", ("t11",),
           _Group("", "t11", "",
                  ("method infinite-sequence, x0={x0}, k={k}, seq={seq}", "path", "path_inf"),
                  ("method kcf-composition, x0={x0}, k={k}, seq={seq}", "path", "path_kcf"),
                  ("method augmented-stepwise, x0={x0}, k={k}, seq={seq}", "path", "path_aug"))),
    _Check("C19", "input-as-state construction is ill defined unless inputs are trivial",
           runner=_run_c19, finite_only=True),
    _Check("C20", "the sequence operator fixes constants, so constants capture nothing", ("c", "s200"),
           _Group("", "s200", "c", ("constant {f} moved at {p}", "K_inf", ""), cross=True),
           note="constants are fixed points: a constants-only space sees no dynamics"),
]


def check_ids() -> list:
    return [check.id for check in _REGISTRY]


def _lookup(check_id: str) -> tuple:
    """(index, row) of a registered check; the index seeds its generator."""
    for index, check in enumerate(_REGISTRY):
        if check.id == check_id:
            return index, check
    raise ValueError(f"unknown check id {check_id!r}")


def describe_check(check_id: str) -> str:
    return _lookup(check_id)[1].description


def is_applicable(check_id: str, sys: ControlSystem) -> bool:
    return _is_finite(sys) or not _lookup(check_id)[1].finite_only


def run_check(check_id: str, sys: ControlSystem, plan: SamplePlan) -> CheckResult:
    """Run one registered check and report max discrepancy and a counterexample.

    The check's generator is seeded by (plan seed, check index), so results
    do not depend on which other checks run or in what order.
    """
    return _run_one(check_id, sys, plan)


def _run_one(check_id: str, sys: ControlSystem, plan: SamplePlan, ops: Optional[tuple] = None) -> CheckResult:
    """:func:`run_check` with the operator set ``ops``, if given."""
    index, check = _lookup(check_id)
    if check.finite_only and not _is_finite(sys):
        raise UnsupportedError(f"{check_id} needs a finite system")
    if plan.tolerance == 0.0 and not _is_finite(sys):
        raise ValueError("zero tolerance is reserved for finite systems")
    rng = np.random.default_rng([plan.rng_seed, index])
    rec = check.run(sys, plan, rng, ops=ops)
    return CheckResult(
        id=check_id,
        passed=rec.passed,
        max_abs_error=rec.max_err,
        counterexample=rec.counterexample,
        n_evaluated=rec.n,
        note=rec.note,
    )


def run_all(sys: ControlSystem, plan: SamplePlan, only=None) -> RunSummary:
    """Run every applicable check (or the ``only`` subset) against one system, with one operator set."""
    ids = check_ids() if only is None else list(only)
    results, ops = [], _operator_set(sys)
    for cid in ids:
        if not is_applicable(cid, sys):
            continue
        results.append(_run_one(cid, sys, plan, ops))
    n_pass = sum(1 for r in results if r.passed)
    return RunSummary(tuple(results), n_pass, len(results) - n_pass)


def results_to_json(results) -> str:
    """Deterministic JSON: one object per check, no timestamps, no NaN."""
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
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
