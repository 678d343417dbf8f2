"""Batch evaluation: ``evaluate(obs, points)`` against one call per point.

The check engine reads observables over whole point lists, so every
batch must give the per-point call's values bit for bit (signed zeros
included), raise what the per-point call raises, and the recorder must
record a batch as it records one discrepancy at a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koopcontrol import (
    CompositionOperator,
    ControlSystem,
    DomainError,
    DomainMismatchError,
    DomainTag,
    Exhaustive,
    FiniteStates,
    InputSequence,
    InputSet,
    Observable,
    RealBox,
    Sampled,
    apply,
    builtin_system,
    certify_control_independent,
    constant_one,
    coordinate,
    evaluate,
    extension_aug_to_inf,
    extension_f_to_aug,
    indicator,
    is_control_independent,
    k_u,
    linear_combine,
    monomial,
    pair_indicator,
    random_sequence,
    random_sequences,
    random_state,
    restriction_inf_to_aug,
    state_component,
)
from koopcontrol import checks
import reference_engine
from koopcontrol.systems import _Points, _SeqTable, _encode

PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)
SPECIAL = [0.0, -0.0, 1e-310, -1e-310, 1e150, -1e150, math.inf, -math.inf, math.nan]
COORDS = st.one_of(st.floats(-4, 4), st.sampled_from(SPECIAL))
COEFFS = st.one_of(
    st.complex_numbers(max_magnitude=4, allow_nan=False),
    st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1e200 + 0j]),
)


def _bits(values) -> tuple:
    """The real and imaginary bit patterns, so -0.0 differs from 0.0.  Every
    NaN maps to one pattern: the sign and payload that a NaN picks up from
    operand order carry no value, and reports never show them."""
    values = np.asarray(values, dtype=complex)
    parts = (np.where(np.isnan(part), np.nan, part) for part in (values.real, values.imag))
    return tuple(np.ascontiguousarray(part).view(np.uint64).tolist() for part in parts)


def _assert_same_bits(obs, points):
    with np.errstate(all="ignore"):  # the per-point monomial warns on overflow
        expected = [obs(p) for p in points]
        got = evaluate(obs, points)
    assert got.dtype == complex and got.shape == (len(points),)
    assert _bits(got) == _bits(expected), obs.label


def _pairs(states, labels):
    return [(x, labels[i % len(labels)]) for i, x in enumerate(states)]


def _seq_points(states, labels, seed):
    rng = np.random.default_rng(seed)
    return [(x, random_sequence(rng, labels)) for x in states]


def _compositions(sys, state_funcs, states):
    """Every state function lifted through the operator bridges, certified
    and read back as a state component; yields (observable, points)."""
    labels = sys.inputs.labels
    pairs, seqs = _pairs(states, labels), _seq_points(states, labels, len(states))
    for f in state_funcs:
        on_pairs = apply(extension_f_to_aug(), f)
        on_seqs = apply(extension_aug_to_inf(), on_pairs)
        yield f, states
        yield on_pairs, pairs
        yield on_seqs, seqs
        yield apply(restriction_inf_to_aug(), on_seqs), pairs
        yield linear_combine([2.0 - 1j, -0.5j], [on_pairs, on_pairs]), pairs


@st.composite
def box_cases(draw):
    d = draw(st.integers(1, 3))
    coords = st.lists(COORDS, min_size=d, max_size=d)
    states = [np.array(draw(coords)) for _ in range(draw(st.integers(1, 12)))]
    powers = st.lists(st.integers(0, 5), min_size=d, max_size=d)
    leaves = [constant_one(DomainTag.STATE_ONLY)] + [coordinate(i) for i in range(-d, d)]
    leaves += [monomial(draw(powers)) for _ in range(3)]
    coeffs = draw(st.lists(COEFFS, min_size=len(leaves) + 3, max_size=len(leaves) + 3))
    inner = linear_combine(coeffs[: len(leaves)], leaves)
    nested = linear_combine(coeffs[len(leaves) :], [inner, leaves[-1], inner])
    return d, states, leaves + [inner, nested]


@PROPERTY
@given(box_cases())
def test_batches_match_per_point_calls_on_box_points(case):
    d, states, funcs = case
    sys = ControlSystem(RealBox((-5.0,) * d, (5.0,) * d), InputSet(("a", "b")), lambda x, u: x)
    for obs, points in _compositions(sys, funcs, states):
        _assert_same_bits(obs, points)
    table_obs = checks._aug_basis(sys) + checks._seq_basis(sys) + checks._ci_seq_direct(sys)
    labels = sys.inputs.labels
    pairs, seqs = _pairs(states, labels), _seq_points(states, labels, d)
    for obs in table_obs:
        _assert_same_bits(obs, pairs if obs.domain is DomainTag.STATE_INPUT else seqs)
    for f in funcs[:-1]:  # certified by sampling, then read back on states
        part = state_component(certify_control_independent(apply(extension_f_to_aug(), f), sys))
        _assert_same_bits(part, states)


def _carried(states: list) -> _Points:
    """``states`` as a list carrying their stacked column."""
    return _Points(states, states=np.array(states, dtype=float).reshape(len(states), -1))


@PROPERTY
@given(box_cases(), st.booleans())
def test_state_batches_read_a_carried_column_bit_for_bit(case, carried):
    """Coordinates, monomials and their combinations read a list's carried
    state column as they read the states one by one."""
    d, states, funcs = case
    xs = _carried(states) if carried else list(states)
    with np.errstate(all="ignore"):
        for f in funcs:
            assert _bits(f.batch(xs)) == _bits([f(x) for x in states]), f.label


_RAGGED = [np.array([0.5]), np.array([0.25, 0.5]), np.array([1.0, 2.0, 3.0])]
_ONE_D = [np.array([0.5]), np.array([0.25]), np.array([-1.0])]


@pytest.mark.parametrize("states", [_RAGGED, _ONE_D, _carried(_ONE_D)], ids=["ragged", "1-d", "1-d carried"])
@pytest.mark.parametrize("obs", [coordinate(1), coordinate(-2), monomial((2, 1)), monomial((0, 0, 1))],
                         ids=lambda o: o.label)
def test_state_batches_raise_the_per_point_error_at_the_first_bad_state(states, obs):
    with pytest.raises(DomainError) as per_point:
        [obs(x) for x in states]
    with pytest.raises(DomainError) as batched:
        obs.batch(states)
    assert str(batched.value) == str(per_point.value)


@PROPERTY
@given(st.data())
def test_batches_match_per_point_calls_on_finite_labels(data):
    sys = builtin_system("finite3")
    labels = sys.states.labels
    states = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=12))
    coeffs = data.draw(st.lists(COEFFS, min_size=6, max_size=6))
    leaves = [indicator(x) for x in labels] + [constant_one(DomainTag.STATE_ONLY), coordinate(0)]
    leaves.append(monomial((data.draw(st.integers(0, 4)),)))
    combo = linear_combine(coeffs, leaves[:6])
    funcs = leaves + [combo, linear_combine(coeffs[:2], [combo, leaves[0]])]
    for obs, points in _compositions(sys, funcs, states):
        _assert_same_bits(obs, points)
    pairs = _pairs(states, sys.inputs.labels)
    for obs in [pair_indicator(x, u) for x, u in pairs] + checks._aug_basis(sys):
        _assert_same_bits(obs, pairs)
    seqs = _seq_points(states, sys.inputs.labels, len(states))
    for obs in checks._seq_basis(sys) + checks._ci_seq_direct(sys):
        _assert_same_bits(obs, seqs)
    for f in funcs[:-2]:  # certified on the pair domain, then read back on states
        part = state_component(certify_control_independent(apply(extension_f_to_aug(), f), sys))
        _assert_same_bits(part, states)


@pytest.mark.parametrize("powers", [(2,), (3,), (2, 1), (0, 2, 5)])
def test_monomial_batch_rounds_like_the_per_point_call(powers):
    # numpy takes another power routine for a broadcast exponent than for
    # the per-point call's; for x^2 the two differ in the last bit for ~3%
    # of states.
    rng = np.random.default_rng(5)
    states = list(rng.uniform(-3, 3, size=(2000, len(powers))))
    _assert_same_bits(monomial(powers), states)


def test_observable_without_batch_is_read_point_by_point(f3):
    calls = []

    def fn(p):
        calls.append(p)
        return np.array([p[0] + 0.5])

    obs = Observable(DomainTag.STATE_INPUT, fn)
    points = [(0, "a"), (2, "b"), (1, "a")]
    assert list(evaluate(obs, points)) == [0.5, 2.5, 1.5]
    assert calls == points
    assert evaluate(obs, []).shape == (0,)


def test_a_map_of_the_callers_own_is_handed_the_callers_list(f3):
    """``evaluate``, the call, and ``apply`` of the caller's own operator or
    of a library one hand a batch of the caller's own a plain list."""
    seen = []
    obs = Observable(DomainTag.STATE_ONLY, batch=lambda xs: seen.append(type(xs)) or [complex(x) for x in xs + []])
    flip = CompositionOperator(DomainTag.STATE_ONLY, DomainTag.STATE_ONLY,
                               lambda xs: seen.append(type(xs)) or [2 - x for x in xs + []])
    points = [0, 2, 1]
    assert list(evaluate(obs, points)) == [0, 2, 1] and obs(2) == 2
    assert list(evaluate(apply(flip, obs), points)) == [2, 0, 1]
    assert list(evaluate(apply(k_u(f3, "a"), obs), points)) == [f3.transition(x, "a") for x in points]
    assert list(evaluate(apply(extension_f_to_aug(), obs), [(x, "b") for x in points])) == [0, 2, 1]
    assert seen == [list] * 6


# --- errors ------------------------------------------------------------------


def _first_error(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "obs, points",
    [
        (pair_indicator(0, "a"), [(0, "a"), 0, (1, "a", "b")]),
        (constant_one(DomainTag.STATE_SEQUENCE), [(0, InputSequence.constant("a")), (0, "a")]),
        (constant_one(DomainTag.STATE_INPUT), [(0, "a"), (1, InputSequence.constant("a"))]),
        (monomial((1, 2)), [np.array([1.0, 2.0]), np.array([3.0])]),  # ragged: read one by one
        (monomial((1, 2)), [np.array([1.0]), np.array([3.0])]),  # stacked, wrong dimension
        (coordinate(2), [np.array([1.0, 2.0])] * 3),
        (coordinate(-5), [np.array([1.0])] * 3),
        (coordinate(-2), [np.array([1.0, 2.0]), np.array([3.0])]),  # ragged: read one by one
        (apply(extension_f_to_aug(), monomial((1, 1))), [(np.array([1.0]), "a")]),
    ],
)
def test_evaluate_raises_what_the_first_bad_point_raises(obs, points):
    bad = next(p for p in points if _raises(obs, p))
    expected = _first_error(lambda: obs(bad))
    assert expected[0] in (DomainMismatchError, DomainError)
    assert _first_error(lambda: evaluate(obs, points)) == expected


def _raises(obs, p) -> bool:
    try:
        obs(p)
    except (DomainError, DomainMismatchError):
        return True
    return False


# --- is_control_independent ---------------------------------------------------


def _ci_one_point_at_a_time(obs, sys, mode, tol=1e-12):
    """The per-point scan: same draws, first witness, early exit."""
    labels = sys.inputs.labels
    if isinstance(mode, Exhaustive):
        for x in sys.states.labels:
            v0 = obs((x, labels[0]))
            for u in labels[1:]:
                if not abs(obs((x, u)) - v0) <= tol:
                    return False, (x, labels[0], u)
        return True, None
    rng, n = np.random.default_rng(mode.seed), mode.count
    xs = random_state(rng, sys.states, n)  # all states, then all label pairs or sequences
    if obs.domain is DomainTag.STATE_INPUT:
        firsts = rng.integers(len(labels), size=n).tolist()
        seconds = rng.integers(max(len(labels) - 1, 1), size=n).tolist()
        w1s = [labels[i] for i in firsts]
        w2s = [labels[j + (1 if j >= i and len(labels) > 1 else 0)] for i, j in zip(firsts, seconds)]
    else:
        w1s, w2s = random_sequences(rng, labels, n), random_sequences(rng, labels, n)
    for x, w1, w2 in zip(xs, w1s, w2s):
        if not abs(obs((x, w1)) - obs((x, w2))) <= tol:
            return False, (x, w1, w2)
    return True, None


def _ci_cases():
    f3, sl = builtin_system("finite3"), builtin_system("scalarlinear")
    weighted = Observable(DomainTag.STATE_INPUT, lambda p: p[0] * (1.0 if p[1] == "a" else 2.0))
    late = Observable(DomainTag.STATE_INPUT, lambda p: 1.0 if (p[0] == 2 and p[1] == "b") else 0.0)
    nan_a = Observable(DomainTag.STATE_INPUT, lambda p: math.nan if p[1] == "a" else 0.0)
    head = Observable(DomainTag.STATE_SEQUENCE, lambda p: 1.0 if p[1].at(1) == "a" else 0.0)
    blind = apply(extension_aug_to_inf(), apply(extension_f_to_aug(), coordinate(0)))
    signed = Observable(DomainTag.STATE_INPUT, lambda p: p[0] if p[1] == "a" else -p[0])
    # Three inputs: the only gap is under the third label, at the last state.
    t3 = ControlSystem(FiniteStates((0, 1, 2)), InputSet(("a", "b", "c")), lambda x, u: (x + 1) % 3)
    third = Observable(DomainTag.STATE_INPUT, lambda p: 1.0 if p == (2, "c") else 0.0)
    return [
        (weighted, f3, Exhaustive()),
        (late, f3, Exhaustive()),
        (nan_a, f3, Exhaustive()),
        (nan_a, f3, Sampled(20, 0)),
        (late, f3, Sampled(30, 4)),
        (head, f3, Sampled(100, 2)),
        (blind, f3, Sampled(100, 2)),
        (signed, sl, Sampled(200, 1)),
        (blind, sl, Sampled(50, 3)),
        (third, t3, Exhaustive()),
        (third, t3, Sampled(40, 5)),
    ]


@pytest.mark.parametrize("obs, sys, mode", _ci_cases())
def test_ci_test_reports_what_the_per_point_scan_reports(obs, sys, mode):
    report = is_control_independent(obs, sys, mode)
    independent, witness = _ci_one_point_at_a_time(obs, sys, mode)
    assert report.independent is independent
    assert repr(report.witness) == repr(witness)


@pytest.mark.parametrize("mode", [Exhaustive(), Sampled(50, 0)])
def test_ci_test_raises_if_any_sampled_point_raises_even_after_a_witness(f3, mode):
    def reads_twice():
        """Input-dependent, and raises on every read after the second."""
        calls = []

        def fn(p):
            calls.append(p)
            if len(calls) > 2:
                raise DomainError("unreadable after two reads")
            return 1.0 if p[1] == "a" else 0.0

        return Observable(DomainTag.STATE_INPUT, fn)

    # The per-point scan finds its witness in the first two reads and stops.
    assert _ci_one_point_at_a_time(reads_twice(), f3, mode)[0] is False
    with pytest.raises(DomainError, match="unreadable after two reads"):
        is_control_independent(reads_twice(), f3, mode)


# --- the recorder and stacked gaps --------------------------------------------


def _state(rec) -> tuple:
    return rec.n, rec.passed, rec.counterexample, repr(rec.max_err), type(rec.max_err)


@PROPERTY
@given(
    st.lists(st.sampled_from([0.0, -0.0, 1e-300, 1.0, 2.0, 2.0, math.inf, math.nan]), max_size=12),
    st.lists(st.integers(0, 12), max_size=4),
)
def test_record_many_matches_a_loop_of_record(errs, cuts):
    one, many = checks._Recorder(0.0), checks._Recorder(0.0)
    for i, err in enumerate(errs):
        one.record(err, lambda i=i: f"at {i}")
    bounds = [0] + sorted(min(c, len(errs)) for c in cuts) + [len(errs)]
    for lo, hi in zip(bounds, bounds[1:]):
        many.record_many(np.array(errs[lo:hi], dtype=float), lambda i, lo=lo: f"at {lo + i}")
    assert _state(many) == _state(one)


def test_record_many_never_describes_a_pass():
    def never(i):
        raise AssertionError("describe ran on a pass")

    rec = checks._Recorder(1.0)
    rec.record_many(np.array([0.0, 1.0, 0.5, -0.0]), never)
    rec.record_many(np.array([]), never)
    assert (rec.n, rec.passed, rec.max_err) == (4, True, 1.0)
    rec.record_many(np.array([0.5, math.nan, 3.0]), lambda i: f"at {i}")
    rec.record_many(np.array([7.0]), never)  # only the first failure is described
    assert (rec.passed, rec.counterexample, rec.max_err) == (False, "at 1", 7.0)


_GAP_CASES = [
    (RealBox((-1.0, -1.0), (1.0, 1.0)), [np.array([0.5, -0.25]), np.array([math.nan, 0.0])],
     [np.array([0.5, 0.75]), np.array([0.0, 0.0])]),
    (RealBox((-1.0,), (1.0,)),
     [(np.array([0.5]), "a"), (np.array([0.5]), "a"), (np.array([math.nan]), "a"), (np.array([0.5]), math.nan)],
     [(np.array([0.25]), "a"), (np.array([0.5]), "b"), (np.array([0.0]), "b"), (np.array([0.5]), math.nan)]),
    (builtin_system("finite3").states, [(0, "a"), (1, "a"), (2, "b")], [(0, "a"), (1, "b"), (1, "b")]),
    (RealBox((-1.0,), (1.0,)),
     [(np.array([0.5]), InputSequence(("b",), ("a",))), (np.array([-0.0]), InputSequence.constant("a"))],
     [(np.array([0.5]), InputSequence(("a",), ("b", "a"))), (np.array([0.0]), InputSequence(("a",), ("a",)))]),
    # states outside the space compare as the points do
    (builtin_system("finite3").states, [0, 9, 9, "x", 1], [0, 9, 8, "y", 1]),
    (builtin_system("finite3").states, [(9, "a"), (9, "a"), (0, "a")], [(9, "a"), (8, "a"), (0, math.nan)]),
    # labels that are == but other objects, so coded apart
    (RealBox((-1.0,), (1.0,)), [(np.array([0.5]), 0.5), (np.array([0.5]), 2), (np.array([0.5]), 0.5)],
     [(np.array([0.5]), float("0.5")), (np.array([0.5]), np.int64(2)), (np.array([0.5]), 1.5)]),
    (RealBox((-1.0,), (1.0,)), [(np.array([0.5]), InputSequence((0.5,), (2,)))],
     [(np.array([0.5]), InputSequence((float("0.5"),), (np.int64(2),)))]),
]


def _coded(space, points: list, table: _SeqTable, carried: bool) -> _Points:
    """``points`` as a list of their kind coded in ``table``; ``carried`` gives its states their column."""
    kind = "state" if not isinstance(points[0], tuple) else (
        "state-sequence" if isinstance(points[0][1], InputSequence) else "state-input")
    coded = _encode(points, kind, table)
    if not carried:
        return coded
    states = [p[0] for p in points] if kind != "state" else points
    column = {"states": np.array(states, dtype=float)} if isinstance(space, RealBox) else {
        "xcodes": np.array([space.labels.index(x) for x in states]), "space": space}
    firsts = _Points(states, **column)
    return firsts if kind == "state" else _Points(points, firsts=firsts, codes=coded.codes, ids=coded.ids,
                                                  table=table, kind=kind)


@pytest.mark.parametrize("space, a, b", _GAP_CASES)
def test_stacked_gaps_equal_pointwise_gaps(space, a, b):
    """A list step's gaps, read off the columns of two lists coded where they enter, are each pair of
    points' gap (``reference_engine._gap``): a NaN state and a NaN box label differ from themselves."""
    table = _SeqTable()
    expected = [reference_engine._gap(space, p, q) for p, q in zip(a, b)]
    assert _bits(checks._gaps(space, _coded(space, a, table, False), _coded(space, b, table, False))) == _bits(expected)


@pytest.mark.parametrize("space, a, b", [c for c in _GAP_CASES if isinstance(c[1][0], tuple)])
def test_gaps_compare_the_labels_of_two_tables_by_value(space, a, b):
    """Two pair lists coded in two tables compare their seconds by the labels the codes stand for."""
    expected = [reference_engine._gap(space, p, q) for p, q in zip(a, b)]
    got = checks._gaps(space, _coded(space, a, _SeqTable(), False), _coded(space, b, _SeqTable(), False))
    assert _bits(got) == _bits(expected)


@pytest.mark.parametrize("space, a, b", [c for c in _GAP_CASES if isinstance(c[0], RealBox)])
def test_gaps_read_carried_columns_bit_for_bit(space, a, b):
    """Box state columns read as the stacked states; pairs that also carry
    label codes or sequence ids in one table compare their seconds as the
    per-pair gap does."""
    table = _SeqTable()
    expected = [reference_engine._gap(space, p, q) for p, q in zip(a, b)]
    assert _bits(checks._gaps(space, _coded(space, a, table, True), _coded(space, b, table, True))) == _bits(expected)
