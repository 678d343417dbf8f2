"""Least-squares identification of per-input lifted linear models.

Given a dictionary of state observables ``Psi`` and transition triples
``(x, u, x_next)``, fit one matrix per input label so that
``Psi(x_next) ~= A(u) Psi(x)``.  The lifted state then evolves linearly
per input, nonlinearly in the input label, which is exactly the finite
section of the constant-input Koopman operators on the dictionary span.

Lifting is batched: :meth:`Dictionary.lift_batch` maps a whole list of
states to the ``(dim, n)`` lift matrix, and :meth:`Dictionary.lift` of one
state is its one-column call.  When every dictionary entry comes from
:func:`~koopcontrol.observables.monomial`, all entries are evaluated in
one power-and-product over the stacked states.  The exponent array holds
one entry per (state, entry, coordinate), never a broadcast row, so each
power rounds as in a monomial's own read and the lift matrix has its
bits.  Any other dictionary (indicators, user callables, or a mix) reads
each entry over the whole list in turn.

A :class:`TrainingSet` carries columns built once: its distinct sampled
states (stacked on a box), each triple's row among them, input codes and
the next states.  :func:`fit_kcf` lifts the state table once, and each
slice's lift is a column gather of it (or the lift itself, when the slice's
rows are the whole table in order), the same bits since a lift is per
state; :func:`export_training_csv` formats the columns block by block.

Each input slice is solved once with ``np.linalg.lstsq`` on the
transposed lift matrices, an SVD-based solve that never forms the Gram
matrix.  The same SVD gives the rank flag: a slice is rank deficient
when its numerical rank is below the dictionary size or its singular
values span more than six orders of magnitude (cond(Gram) > 1e12).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, DomainMismatchError, UnsupportedError
from .observables import DomainTag, MonomialFn, _monomials, _state_column, _values
from .systems import (
    ControlSystem,
    FiniteStates,
    InputSequence,
    RealBox,
    _Points,
    _SeqTable,
    _by_object,
    _draw_states,
    _keyed,
    _step_many,
    simulate,
)

__all__ = [
    "Dictionary",
    "TrainingSet",
    "SeparableModel",
    "FitReport",
    "GridOnBox",
    "UniformRandom",
    "ExhaustiveFinite",
    "collect_data",
    "fit_kcf",
    "predict",
    "prediction_error",
    "export_training_csv",
    "import_training_csv",
    "export_model_json",
    "import_model_json",
]

_SPREAD_LIMIT = 1e6  # largest over smallest singular value of the lift matrix


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Ordered list of state-only observables defining the lifted state.

    Every lift goes through :meth:`lift_batch`; a dictionary of monomials
    of one dimension is lifted in one array op over its exponent matrix.
    """

    observables: tuple

    def __post_init__(self):
        object.__setattr__(self, "observables", tuple(self.observables))
        if not self.observables:
            raise ValueError("dictionary must contain at least one observable")
        for o in self.observables:
            if o.domain is not DomainTag.STATE_ONLY:
                raise DomainMismatchError("dictionary entries must be state-only")
        # Exponent matrix (dim, d) when every entry is a monomial, else None.
        fns = [o.batch for o in self.observables]
        batched = all(isinstance(f, MonomialFn) for f in fns)
        batched = batched and len({len(f.powers) for f in fns}) == 1
        powers = np.array([f.powers for f in fns]) if batched else None
        object.__setattr__(self, "_powers", powers)

    @property
    def dim(self) -> int:
        return len(self.observables)

    @property
    def labels(self) -> tuple:
        return tuple(o.label for o in self.observables)

    def lift(self, x) -> np.ndarray:
        return self.lift_batch([x])[:, 0]

    def lift_batch(self, xs) -> np.ndarray:
        """The ``(dim, n)`` lift matrix of ``n`` states; column ``j`` is ``lift(xs[j])``."""
        xs = xs if isinstance(xs, _Points) else list(xs)  # a caller's own batch is handed a caller's list
        if not xs:
            return np.empty((self.dim, 0), dtype=complex)
        arr = None if self._powers is None else _state_column(xs)
        if arr is not None and arr.shape[1] == self._powers.shape[1]:
            return np.array(_monomials(arr, self._powers).T, dtype=complex, order="C")
        return np.array([_values(o, xs) for o in self.observables])


@dataclass(frozen=True)
class GridOnBox:
    """Regular grid with the given points per coordinate."""

    resolution: int


@dataclass(frozen=True)
class UniformRandom:
    """Seeded uniform draws: states from the box, or labels from a finite set."""

    n: int
    seed: int


@dataclass(frozen=True)
class ExhaustiveFinite:
    """Every (state, input) pair of a finite system."""


def _distinct(xs) -> tuple:
    """The distinct state objects of ``xs`` in order of first sight (``xs``
    itself when all are), as a point list, and each entry's row there."""
    states, rows = _by_object(xs)
    return (xs if len(states) == len(xs) and isinstance(xs, _Points) else _Points(states)), rows


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Transition triples ``(x, u, x_next)`` plus the full input label set.

    ``input_labels`` lets the fit flag labels that received no samples.  The
    fit and the CSV export read its columns: the distinct sampled states (by
    object), each triple's row there, its input's position in the labels
    (``input_labels``, then others as first seen; labels that are ``==``
    share one position, as they share one ``per_input`` group), and the
    next states.
    """

    triples: tuple
    input_labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "triples", tuple(self.triples))
        object.__setattr__(self, "input_labels", tuple(self.input_labels))

    @cached_property
    def _columns(self) -> tuple:
        """``(states, rows, codes, labels, nexts)``, derived from the triples unless handed over."""
        xs, us, ys = zip(*self.triples) if self.triples else ((), (), ())
        table = _SeqTable(self.input_labels)
        codes = table.codes(list(us))
        merged = {}  # each label object coded once, then merged by value, as per_input groups the triples
        by_value = np.array([merged.setdefault(u, len(merged)) for u in _keyed(table).labels], dtype=np.intp)
        return (*_distinct(xs), by_value[codes], list(merged), _Points(ys))

    def per_input(self) -> dict:
        groups = {u: [] for u in self.input_labels}
        for x, u, y in self.triples:
            groups.setdefault(u, []).append((x, y))
        return groups


@dataclass(frozen=True, eq=False)
class SeparableModel:
    """One fitted matrix per input label over a shared dictionary."""

    matrices: dict
    dictionary: Dictionary


@dataclass(frozen=True, eq=False)
class FitReport:
    """Per-input fit quality.

    ``residuals`` holds the attained least-squares objective per sample
    (squared Frobenius residual divided by the slice's sample count).
    """

    residuals: dict
    counts: dict
    rank_deficient: dict
    missing_inputs: tuple


def collect_data(sys: ControlSystem, sampler) -> TrainingSet:
    """Generate transition triples from a system with the given sampler.

    Every sampled state is paired with every input label.
    """
    if isinstance(sampler, ExhaustiveFinite):
        if not isinstance(sys.states, FiniteStates):
            raise UnsupportedError("exhaustive sampling needs a finite state space")
        xs = list(sys.states.labels)
    elif isinstance(sampler, GridOnBox):
        if not isinstance(sys.states, RealBox):
            raise UnsupportedError("grid sampling needs a box state space")
        if sampler.resolution < 1:
            raise ValueError("grid resolution must be positive")
        axes = [np.linspace(lo, hi, sampler.resolution) for lo, hi in zip(sys.states.lower, sys.states.upper)]
        grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        xs = _Points(list(grid), states=grid)
    elif isinstance(sampler, UniformRandom):
        if sampler.n < 1:
            raise ValueError("sample count must be positive")
        xs = _draw_states(np.random.default_rng(sampler.seed), sys.states, sampler.n)
    else:
        raise ValueError(f"unknown sampler: {sampler!r}")

    labels = sys.inputs.labels
    states, rows = _distinct(xs)
    rows, codes = np.repeat(rows, len(labels)), np.tile(np.arange(len(labels)), len(xs))
    xs, us = states.take(rows), _Points(codes=codes, table=_SeqTable(labels), kind="label")
    ys = _step_many(sys, xs, us)
    data = TrainingSet(tuple(zip(xs, us, ys)), input_labels=labels)
    data.__dict__["_columns"] = (states, rows, codes, list(labels), ys)  # handed over, not derived
    return data


def _solve_ls(phi0: np.ndarray, phi1: np.ndarray) -> tuple:
    """The minimizer ``A`` of ``|A phi0 - phi1|`` and whether ``phi0`` is rank deficient."""
    a_t, _, rank, s = np.linalg.lstsq(phi0.T, phi1.T, rcond=None)
    deficient = rank < phi0.shape[0] or s[0] > _SPREAD_LIMIT * s[-1]
    return a_t.T, bool(deficient)


def fit_kcf(dictionary: Dictionary, data: TrainingSet) -> tuple:
    """Fit one lifted matrix per input label by least squares.

    Returns ``(SeparableModel, FitReport)``.  Labels without samples are
    left out of the model and listed in ``FitReport.missing_inputs``.
    """
    matrices, residuals, counts, rank_flags, missing = {}, {}, {}, {}, []
    states, rows, codes, labels, nexts = data._columns
    lifted = dictionary.lift_batch(states)  # each sampled state once; lifts are per state, so gathers keep bits
    for c, u in enumerate(labels):
        idx = np.flatnonzero(codes == c)
        if not idx.size:
            missing.append(u)
            continue
        whole = len(idx) == lifted.shape[1] and (rows[idx] == np.arange(len(idx))).all()  # no gathered copy
        phi0, phi1 = lifted if whole else lifted[:, rows[idx]], dictionary.lift_batch(nexts.take(idx))
        a, rank_flags[u] = _solve_ls(phi0, phi1)
        matrices[u], counts[u] = a, len(idx)
        residuals[u] = float(np.sum(np.abs(phi1 - a @ phi0) ** 2) / len(idx))
    report = FitReport(residuals, counts, rank_flags, tuple(missing))
    return SeparableModel(matrices, dictionary), report


def predict(model: SeparableModel, dictionary: Dictionary, x0, seq: InputSequence, k: int) -> list:
    """Lifted k-step prediction: ``z_{j+1} = A(seq(j)) z_j`` from ``z_0 = Psi(x0)``."""
    if dictionary.dim != model.dictionary.dim:
        raise DomainMismatchError("dictionary does not match the fitted model")
    if k < 0:
        raise ValueError("horizon must be nonnegative")
    z = dictionary.lift(x0)
    out = [z]
    for u in seq.word(k):
        if u not in model.matrices:
            raise DomainError(f"no fitted matrix for input label {u!r}")
        z = model.matrices[u] @ z
        out.append(z)
    return out


def prediction_error(model: SeparableModel, dictionary: Dictionary, sys: ControlSystem, x0, seq: InputSequence,
                     k: int) -> np.ndarray:
    """Max-abs gap per step between the lifted prediction and the true lift."""
    preds = np.array(predict(model, dictionary, x0, seq, k))  # (k + 1, dim)
    truth = dictionary.lift_batch(simulate(sys, x0, seq, k))
    return np.abs(preds - truth.T).max(axis=1)


_CSV_BLOCK = 1024  # triples formatted per write, so memory stays bounded


def _csv_fields(values) -> list:
    """Each value's ``str`` as ``csv.writer`` writes it inside a row of several fields."""
    texts = [str(v) for v in values]
    quoted = {}
    for text in set(texts):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="").writerow([text, ""])
        quoted[text] = buf.getvalue()[:-1]
    return [quoted[text] for text in texts]


def _state_fields(states) -> list:
    """The comma-joined columns of each state of a point list: ``%.17g``
    coordinates of box states, formatted from their column in one ``%``, or the label."""
    if not isinstance(states[0], np.ndarray):
        return _csv_fields(states)
    arr = _state_column(states)
    if arr is None:
        raise DomainError("box states of different dimensions do not stack")
    row = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    return ((row * len(arr)) % tuple(arr.ravel().tolist())).split("\n")[:-1]


def export_training_csv(data: TrainingSet, path) -> None:
    """Write triples as rows: state columns, input label, next-state columns.

    Rows are formatted from the set's columns a block of ``_CSV_BLOCK``
    triples at a time, each distinct sampled state and label once, with
    ``csv.writer``'s quoting and line endings.
    """
    if not data.triples:
        raise ValueError("nothing to export")
    d = x0.size if isinstance(x0 := data.triples[0][0], np.ndarray) else 1
    header = [f"x{i}" for i in range(d)] + ["u"] + [f"y{i}" for i in range(d)]
    states, rows, codes, labels, nexts = data._columns
    xs, us = _state_fields(states), _csv_fields(labels)  # each distinct state and label once
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            fields = zip(map(xs.__getitem__, rows[block].tolist()), map(us.__getitem__, codes[block].tolist()),
                         _state_fields(nexts.take(np.arange(len(rows))[block])))
            fh.write("".join([f"{x},{u},{y}\r\n" for x, u, y in fields]))


def _label_parser(labels):
    by_repr = {str(lab): lab for lab in labels}

    def parse(text):
        if text in by_repr:
            return by_repr[text]
        raise DomainError(f"unknown label in file: {text!r}")

    return parse


def import_training_csv(path, sys: ControlSystem) -> TrainingSet:
    """Read triples back, resolving labels against the given system.

    A row with the wrong field count, a coordinate that is not a number, an
    unknown label or a state outside the box raises :class:`DomainError`
    naming its line.  Equal state texts give one state object.
    """
    parse_u, box, seen = _label_parser(sys.inputs.labels), sys.states, {}
    finite = isinstance(box, FiniteStates)
    d, parse_label = (1, _label_parser(box.labels)) if finite else (box.dimension, None)

    def parse_x(fields):
        key = tuple(fields)
        if key not in seen:
            seen[key] = parse_label(key[0]) if finite else np.array([float(v) for v in key])
            if not (finite or box._inside(seen[key])):
                raise DomainError(f"state {seen[key]!r} outside the declared box")
        return seen[key]

    triples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for row in reader:
            try:
                if len(row) != 2 * d + 1:
                    raise DomainError(f"expected {2 * d + 1} fields, got {len(row)}")
                triples.append((parse_x(row[:d]), parse_u(row[d]), parse_x(row[d + 1 :])))
            except ValueError as exc:  # a DomainError, or a coordinate that is not a number
                raise DomainError(f"{path} line {reader.line_num}: {exc}") from None
    return TrainingSet(tuple(triples), input_labels=sys.inputs.labels)


def export_model_json(model: SeparableModel, path, report: FitReport) -> None:
    """Write the model and its fit report as deterministic JSON."""
    payload = {
        "dictionary": list(model.dictionary.labels),
        "matrices": {
            str(u): [[[v.real, v.imag] for v in row] for row in mat]
            for u, mat in model.matrices.items()
        },
        "fit": {
            "residuals": {str(u): r for u, r in report.residuals.items()},
            "counts": {str(u): c for u, c in report.counts.items()},
            "rank_deficient": {str(u): f for u, f in report.rank_deficient.items()},
            "missing_inputs": [str(u) for u in report.missing_inputs],
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def import_model_json(path, dictionary: Dictionary, sys: ControlSystem) -> SeparableModel:
    """Read a model back, resolving labels against the given system.  A file that is not an object
    with a ``dictionary`` list and ``matrices`` mapping known labels to ``dim x dim`` lists of
    ``[re, im]`` number pairs raises :class:`DomainError` naming it, before any matrix is built."""
    parse_u, dim = _label_parser(sys.inputs.labels), len(dictionary.labels)
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not (isinstance(payload, dict) and isinstance(payload.get("dictionary"), list)
                and isinstance(payload.get("matrices"), dict)):
            raise DomainError("expected an object with a 'dictionary' list and a 'matrices' object")
        if list(dictionary.labels) != payload["dictionary"]:
            raise DomainMismatchError("dictionary labels do not match the stored model")
        for key, rows in payload["matrices"].items():
            square = type(rows) is list and len(rows) == dim and all(type(r) is list and len(r) == dim for r in rows)
            if not (square and all(type(e) is list and len(e) == 2 for r in rows for e in r)
                    and {type(v) for r in rows for e in r for v in e} <= {int, float}):
                raise DomainError(f"matrix {key!r} is not {dim} x {dim} [re, im] number pairs")
        matrices = {parse_u(key): np.array(rows, dtype=float).view(complex).reshape(dim, dim)  # (re, im) bits
                    for key, rows in payload["matrices"].items()}
    except (ValueError, OverflowError) as exc:  # not JSON text, a check above, or an int past float range
        raise DomainError(f"{path}: {exc}") from None
    return SeparableModel(matrices, dictionary)
