"""Each registry row can fail: a matrix of operator mutants.

A mutant replaces one operator constructor that ``checks`` imports with a
wrong map, the list step ``_step_many`` of the ground-truth walks
(``sim``, ``path``) with a wrong one, the walks' read of each
trajectory's input codes (``_first_inputs``) with a late one, the
run's sequence table (``_SeqTable``) with one whose tails or head codes
are wrong, the shift of sequence fields (``systems._shifted_fields``, which
the table and ``shift`` both read) with a wrong one, the pair basis (``_aug_basis``) with input-blind probes, or one
of the control-independent isomorphisms (``ci_isomorphisms``), a
restriction or an extension, with a map that moves the state.
Every mutant runs ``run_all`` on ``finite3`` with an exact plan and on
``scalarlinear`` with a small sampled plan, and the rows that fail are
compared with ``tests/data/mutant_matrix.json``.  A change that stops a
row from catching a mutant shows as a diff of that file.

Regenerate the file (only when a change of the matrix is intended and
stated) with::

    PYTHONPATH=src python tests/test_mutants.py
"""

import json
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from unittest import mock

from koopcontrol import (
    CompositionOperator,
    DomainTag,
    InputSequence,
    RealBox,
    apply,
    builtin_system,
    check_ids,
    ci_isomorphisms,
    exact_plan,
    extension_f_to_aug,
    k_u,
    kcf_word,
    power,
    run_all,
    sampled_plan,
    shift,
    step,
)
import numpy as np
import pytest

from koopcontrol import checks, operators, systems
from koopcontrol.systems import _SeqTable, _step_many, _word
from test_reference_engine import _affine, _same_reports

MATRIX = Path(__file__).parent / "data" / "mutant_matrix.json"

STATE, PAIR, SEQ = DomainTag.STATE_ONLY, DomainTag.STATE_INPUT, DomainTag.STATE_SEQUENCE

SYSTEMS = {
    "finite3": lambda: (builtin_system("finite3"), exact_plan(seed=7)),
    "scalarlinear": lambda: (builtin_system("scalarlinear"), sampled_plan(7, n_points=100, n_functions=10)),
}


def _op(source, target, point_map, label):
    """The operator that maps each point of a list through ``point_map``."""
    return CompositionOperator(source, target, lambda ps: [point_map(p) for p in ps], label=label)


def _first_label_batches(sys, xs, us):
    """``_step_many`` whose batch path (a box with a ``transition_batch``,
    two or more states) steps every row with the first label."""
    batched = sys.transition_batch is not None and isinstance(sys.states, RealBox) and len(xs) > 1
    return _step_many(sys, xs, [sys.inputs.labels[0]] * len(xs) if batched else us)


class _DoubleShiftTable(_SeqTable):
    """A sequence table whose tail of each sequence is its double shift."""

    def shifted(self, ids):
        return super().shifted(super().shifted(ids))


class _LateHeadTable(_SeqTable):
    """A sequence table whose head code of each sequence is its second input's."""

    def intern_keys(self, keys):
        ids = super().intern_keys(keys)
        self._head[: len(self.keys)] = [_word(pre, per, 2)[1] for pre, per in self.keys]
        return ids


def _dropping_shift(prefix, period):
    """The fields of a left shift that drops the period's first element instead of moving it to
    the end: ``(a, b)`` repeated shifts to ``b`` repeated.  A constant still shifts to itself."""
    return (prefix[1:], period) if prefix else (prefix, period[1:] or period)


def _late_words(table, ids, k):
    """The walks' word read, each input read one step late."""
    return _first_inputs(table, ids, k)[:, np.maximum(np.arange(k) - 1, 0)]


_first_inputs = checks._first_inputs


def _moved_isomorphism(sys, field, point_map):
    """``ci_isomorphisms(sys)`` with the point map of ``field`` replaced by
    ``point_map``; its label, stamp and ``requires_ci`` stay."""
    iso = ci_isomorphisms(sys)
    op = replace(getattr(iso, field), batch=lambda ps: [point_map(p) for p in ps])
    return replace(iso, **{field: op})


def _mutants(sys) -> dict:
    """Mutant name -> the names of ``checks`` it replaces, for ``sys``.
    "Moving the state" steps it once with the first input, unless the
    mutant names another input."""
    labels = sys.inputs.labels
    u0 = labels[0]
    moved = lambda x: step(sys, x, u0)
    after = {u: labels[(i + 1) % len(labels)] for i, u in enumerate(labels)}
    return {
        "k_u with the next label": {"k_u": lambda s, u: k_u(s, after[u])},
        "k_aug steps with the first label": {
            "k_aug": lambda s: _op(PAIR, PAIR, lambda p: (step(s, p[0], u0), p[1]), "K_aug")
        },
        "k_inf shifts twice": {
            "k_inf": lambda s: _op(
                SEQ, SEQ, lambda p: (step(s, p[0], p[1].at(0)), shift(shift(p[1]))), "K_inf"
            )
        },
        "R gives the first label's constant sequence": {
            "restriction_inf_to_aug": lambda: _op(
                SEQ, PAIR, lambda p: (p[0], InputSequence.constant(u0)), "R"
            )
        },
        "E moves the state": {
            "extension_aug_to_inf": lambda: _op(PAIR, SEQ, lambda p: (moved(p[0]), p[1].at(0)), "E")
        },
        "E_f moves the state": {
            "extension_f_to_aug": lambda: _op(STATE, PAIR, lambda p: moved(p[0]), "E_f")
        },
        "R_u moves the state": {
            "restriction_aug_to_f": lambda u, s=None: _op(PAIR, STATE, lambda x: (moved(x), u), "R_u")
        },
        "R_u moves the state under its own input": {
            "restriction_aug_to_f": lambda u, s=None: _op(PAIR, STATE, lambda x: (step(sys, x, u), u), "R_u")
        },
        "R_ci moves the state": {
            "ci_isomorphisms": lambda s: _moved_isomorphism(s, "restrict_aug_to_state", lambda x: (moved(x), u0))
        },
        "R_ci_seq moves the state": {
            "ci_isomorphisms": lambda s: _moved_isomorphism(
                s, "restrict_seq_to_aug", lambda p: (moved(p[0]), InputSequence.constant(p[1]))
            )
        },
        "E_ci moves the state": {
            "ci_isomorphisms": lambda s: _moved_isomorphism(s, "extend_state_to_aug", lambda p: moved(p[0]))
        },
        "E_ci_seq moves the state": {
            "ci_isomorphisms": lambda s: _moved_isomorphism(
                s, "extend_aug_to_seq", lambda p: (moved(p[0]), p[1].at(0))
            )
        },
        "power takes one extra step": {"power": lambda op, k: power(op, k + 1)},
        "kcf_word repeats its first input": {
            "kcf_word": lambda s, word: kcf_word(s, [tuple(word)[0]] * len(tuple(word)))
        },
        "_step_many batches step every row with the first label": {"_step_many": _first_label_batches},
        "walks read each input one step late": {"_first_inputs": _late_words},
        "shift drops the period's first element": {"systems._shifted_fields": _dropping_shift},
        "the sequence table's tail is the double shift": {"_SeqTable": _DoubleShiftTable},
        "the sequence table reads each head code one label late": {"_SeqTable": _LateHeadTable},
        "the pair basis is input-blind": {
            "_aug_basis": lambda s: [apply(extension_f_to_aug(), phi) for phi in checks._state_basis(s)]
        },
    }


def _failing_rows(name: str) -> dict:
    """Mutant name -> the ids of the rows that fail under it on system ``name``."""
    sys, plan = SYSTEMS[name]()
    rows = {}
    for mutant, patches in _mutants(sys).items():
        with ExitStack() as patched:
            for name, value in patches.items():  # a name of ``checks``, or ``systems.<name>``
                module, _, attr = name.rpartition(".")
                patched.enter_context(mock.patch.object(systems if module else checks, attr, value))
            rows[mutant] = [r.id for r in run_all(sys, plan).results if not r.passed]
    return rows


def _matrix() -> dict:
    by_system = {name: _failing_rows(name) for name in SYSTEMS}
    return {m: {name: rows[m] for name, rows in by_system.items()} for m in by_system["finite3"]}


def test_mutant_matrix_matches_the_stored_rows():
    assert _matrix() == json.loads(MATRIX.read_text())


# Every mutant trips some row.  "power takes one extra step" trips only C16
# on scalarlinear, which compares the operators' values with the ones its
# two-step witness stepped by hand; on finite3 the witness starts at state 0,
# which the doubling input fixes, so one more frozen step reads the same.
# The ``_step_many`` mutant trips nothing on finite3, which has no batch path.
# It replaces only the ground-truth walks' list step: the same wrong step
# under every operator too would keep both sides of each identity equal.
# The input-blind pair basis trips only C19, which runs on finite systems
# only: every other row that reads pair functions holds for these too.
_UNSEEN = set()


def test_the_stored_matrix_trips_a_row_for_every_mutant_but_the_unseen():
    matrix = json.loads(MATRIX.read_text())
    assert {m for m, rows in matrix.items() if not any(rows.values())} == _UNSEEN


# C20 is the one row no mutant trips, and none can: a constant reads every
# point alike, so no point map moves it, and a ``K_inf`` that leaves the
# sequence domain raises in ``_check_points`` instead of failing the row.
# The row records the paper's point that constants capture nothing; it is
# not evidence about any operator.
def test_the_rows_no_mutant_trips_are_exactly_c20():
    matrix = json.loads(MATRIX.read_text())
    tripped = {row for by_system in matrix.values() for rows in by_system.values() for row in rows}
    assert set(check_ids()) - tripped == {"C20"}


# Two mutants that no row trips, since both sides of every identity go through the mutated code,
# fail the comparison with the reference engine, which steps and reads one point at a time: the
# first-label ``_step_many`` (a walk's step over one live state, or a ``K_u`` over one state of its
# input, runs the loop) and a basis reader that swaps its first and last rows (the huge box's
# ``x^2`` overflows, so the failing subject of a cycled row moves).
def _swapped_read(basis, points):
    read = _READ(basis, points)
    return read[[-1, *range(1, len(read) - 1), 0]]


_READ = checks._Basis.read
_PLANAR = ([[[0.3, 0.2], [-0.1, 0.4]], [0.05, -0.02]], [[[0.0, -0.45], [0.45, 0.0]], [0.0, 0.1]])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("mutant, scale", [("first-label _step_many", 1.0), ("swapped basis rows", 1e200)])
def test_the_reference_engine_catches_mutants_that_no_row_trips(mutant, scale):
    sys, plan = _affine(list(_PLANAR), scale), sampled_plan(7, n_points=6, n_functions=5)
    _same_reports(sys, plan)
    patches = {
        "first-label _step_many": [(checks, "_step_many", _first_label_batches),
                                   (operators, "_step_many", _first_label_batches)],
        "swapped basis rows": [(checks._Basis, "read", _swapped_read)],
    }[mutant]
    with ExitStack() as patched:
        for module, attr, value in patches:
            patched.enter_context(mock.patch.object(module, attr, value))
        with pytest.raises(AssertionError):
            _same_reports(sys, plan)


if __name__ == "__main__":
    MATRIX.write_text(json.dumps(_matrix(), indent=2) + "\n")
    print(f"wrote {MATRIX.name}")
