import copy
import pickle
from dataclasses import replace
from enum import Enum
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from koopcontrol import (
    ControlSystem,
    DomainError,
    FiniteStates,
    InputSequence,
    InputSet,
    RealBox,
    builtin_system,
    k_aug,
    k_inf,
    k_u,
    logistic_with_offset,
    random_sequence,
    random_sequences,
    random_state,
    range_map,
    shift,
    simulate,
    state_distance,
    states_equal,
    step,
)
from koopcontrol.checks import _Trajectory, _first_inputs, _named
from koopcontrol.systems import _Points, _SeqTable, _canonical, _state_column, _step_many

# Hand-computed transition table for the finite3 system.
FINITE3_TABLE = {
    (0, "a"): 1,
    (1, "a"): 2,
    (2, "a"): 0,
    (0, "b"): 0,
    (1, "b"): 2,
    (2, "b"): 1,
}


def test_finite3_matches_frozen_table(f3):
    for (x, u), y in FINITE3_TABLE.items():
        assert step(f3, x, u) == y


def test_step_rejects_unknown_labels(f3):
    with pytest.raises(DomainError):
        step(f3, 7, "a")
    with pytest.raises(DomainError):
        step(f3, 0, "c")


def test_step_rejects_state_outside_box(sl):
    with pytest.raises(DomainError):
        step(sl, 2.0, "a")


def test_step_rejects_escaping_transition():
    sys = ControlSystem(
        RealBox((0.0,), (1.0,)), InputSet(("u",)), lambda x, u: x + 5.0
    )
    with pytest.raises(DomainError):
        step(sys, 0.5, "u")


def test_box_boundary_is_inside(sl):
    # exact boundary points count as inside, tiny drift is tolerated
    assert step(sl, 1.0, "a") == pytest.approx(0.5)
    assert sl.states.contains(1.0 + 1e-10)
    assert not sl.states.contains(1.1)


def test_box_rejects_bad_shape(sl):
    with pytest.raises(DomainError):
        sl.states.coerce([0.1, 0.2])


def _raises_exactly(message, fn, *args):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert str(info.value) == message


def test_step_rejects_nan_state(sl):
    _raises_exactly("state array([nan]) outside the declared box", step, sl, np.nan, "a")
    assert not sl.states.contains(np.nan)


def test_step_rejects_nan_transition_output():
    sys = ControlSystem(RealBox((0.0,), (1.0,)), InputSet(("u",)), lambda x, u: x * np.nan)
    _raises_exactly("transition output array([nan]) outside the declared box", step, sys, 0.5, "u")


def test_step_rejects_wrong_state_shape(sl):
    _raises_exactly("state has shape (2,), expected (1,)", step, sl, [0.1, 0.2], "a")
    assert not sl.states.contains([0.1, 0.2])


def test_box_slack_accepts_1e_10_and_rejects_1e_8(sl):
    assert step(sl, 1.0 + 1e-10, "a")[0] == 0.5 * (1.0 + 1e-10)
    assert step(sl, -1.0 - 1e-10, "b")[0] == -0.8 * (-1.0 - 1e-10)
    assert sl.states.contains(1.0 + 1e-10) and sl.states.contains(-1.0 - 1e-10)
    _raises_exactly("state array([1.00000001]) outside the declared box", step, sl, 1.0 + 1e-8, "a")
    _raises_exactly("state array([-1.00000001]) outside the declared box", step, sl, -1.0 - 1e-8, "a")
    assert not sl.states.contains(1.0 + 1e-8) and not sl.states.contains(-1.0 - 1e-8)


def test_random_state_batch_matches_single_draws(f3):
    box = RealBox((-1.0, 0.0, 2.0), (1.0, 0.5, 9.0))
    for space in (box, f3.states):
        one, many = np.random.default_rng(3), np.random.default_rng(3)
        singles = [random_state(one, space) for _ in range(500)]
        batch = random_state(many, space, 500)
        assert len(batch) == 500
        assert all(np.array_equal(a, b) for a, b in zip(singles, batch))
        assert one.random() == many.random()  # same number of draws consumed
    legacy = np.random.default_rng(4)
    expected = [legacy.uniform(np.asarray(box.lower), np.asarray(box.upper)) for _ in range(500)]
    draws = random_state(np.random.default_rng(4), box, 500)
    assert all(np.array_equal(a, b) for a, b in zip(expected, draws))
    assert all(box.contains(x) for x in draws)


@pytest.mark.parametrize(
    "space", [RealBox((-1.0,), (1.0,)), RealBox((-1.0, 0.0), (1.0, 0.5)), FiniteStates((0, 1, 2))],
    ids=["box1d", "box2d", "finite"],
)
@settings(max_examples=25, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_one_state_is_the_one_element_draw(space, seed):
    """Bit for bit, and consuming the generator alike; both equal the
    draw of one label index, or of one uniform per coordinate."""
    one, row, by_hand = (np.random.default_rng(seed) for _ in range(3))
    x, y = random_state(one, space), random_state(row, space, 1)[0]
    if isinstance(space, FiniteStates):
        expected = space.labels[int(by_hand.integers(len(space.labels)))]
    else:
        expected = np.array([by_hand.uniform(lo, hi) for lo, hi in zip(space.lower, space.upper)])
    assert type(x) is type(y) is type(expected)
    assert np.asarray(x).tobytes() == np.asarray(y).tobytes() == np.asarray(expected).tobytes()
    assert one.random() == row.random() == by_hand.random()


def test_realbox_requires_ordered_bounds():
    with pytest.raises(ValueError):
        RealBox((1.0,), (0.0,))


def test_input_set_rejects_duplicates():
    with pytest.raises(ValueError):
        InputSet(("a", "a"))


def test_simulate_oracle(f3):
    seq = InputSequence(("a", "b"), ("a",))
    assert simulate(f3, 0, seq, 3) == [0, 1, 2, 0]


def test_simulate_zero_steps(f3):
    assert simulate(f3, 1, InputSequence.constant("a"), 0) == [1]


def test_simulate_rejects_negative_horizon(f3):
    with pytest.raises(ValueError):
        simulate(f3, 0, InputSequence.constant("a"), -1)


def _doubling_box():
    """A 1-D box in which "up" doubles the state and "down" halves it; transitions are counted."""
    calls = {"n": 0}

    def transition(x, u):
        calls["n"] += 1
        return 2 * x if u == "up" else x / 2

    return ControlSystem(RealBox((-1.0,), (1.0,)), InputSet(("up", "down")), transition), calls


@pytest.mark.parametrize(
    "x0, seq",
    [
        (2.0, InputSequence.constant("down")),
        (0.75, InputSequence.constant("up")),
        (0.1, InputSequence.constant("up")),
        (0.5, InputSequence(("down", "down", "left"), ("down",))),
    ],
    ids=["x0-outside", "leaves-at-step-0", "leaves-at-step-3", "unknown-label-at-step-2"],
)
def test_simulate_on_a_box_raises_what_the_step_loop_raises(x0, seq):
    """Checking each box state once raises the loop's error after as many transitions."""
    sys, calls = _doubling_box()
    with pytest.raises(DomainError) as fast:
        simulate(sys, x0, seq, 6)
    fast_calls, calls["n"] = calls["n"], 0
    xs = [np.array([x0])]
    with pytest.raises(DomainError) as loop:
        for j in range(6):
            xs.append(step(sys, xs[-1], seq.at(j)))
    assert str(fast.value) == str(loop.value)
    assert fast_calls == calls["n"]


def test_sequence_values():
    seq = InputSequence(("a", "b"), ("b", "a"))
    assert [seq.at(k) for k in range(6)] == ["a", "b", "b", "a", "b", "a"]


def test_sequence_rejects_empty_period():
    with pytest.raises(ValueError):
        InputSequence(("a",), ())


def test_sequence_rejects_negative_index():
    with pytest.raises(ValueError):
        InputSequence.constant("a").at(-1)


def test_shift_drops_prefix_first():
    seq = InputSequence(("a", "b"), ("a",))
    assert [shift(seq).at(k) for k in range(4)] == ["b", "a", "a", "a"]


def test_shift_rotates_pure_period():
    seq = InputSequence((), ("a", "b"))
    assert shift(seq).at(0) == "b"
    assert shift(shift(seq)) == seq


def test_sequence_equality_ignores_presentation():
    # same pointwise values, written with different prefix/period splits
    s1 = InputSequence(("a",), ("b", "a"))
    s2 = InputSequence((), ("a", "b"))
    assert [s1.at(k) for k in range(6)] == [s2.at(k) for k in range(6)]
    assert s1 == s2
    assert hash(s1) == hash(s2)


def test_sequence_period_reduces_to_primitive_root():
    assert InputSequence((), ("a", "b", "a", "b")) == InputSequence((), ("a", "b"))


def test_sequence_inequality():
    assert InputSequence((), ("a",)) != InputSequence((), ("b",))
    assert InputSequence(("b",), ("a",)) != InputSequence((), ("a",))


def test_constant_sequence():
    seq = InputSequence.constant("a")
    assert seq.at(0) == seq.at(99) == "a"
    assert shift(seq) == seq


_labels = st.sampled_from(["a", "b", "c"])
_raw = st.tuples(st.lists(_labels, max_size=4).map(tuple), st.lists(_labels, min_size=1, max_size=3).map(tuple))
_seqs = _raw.map(lambda raw: InputSequence(*raw))


@given(_seqs, st.integers(0, 20))
def test_shift_agrees_with_index_offset(seq, k):
    assert shift(seq).at(k) == seq.at(k + 1)


@settings(max_examples=25, derandomize=True)
@given(_seqs, st.integers(0, 20))
def test_word_reads_the_first_k_inputs(seq, k):
    assert seq.word(k) == tuple(seq.at(j) for j in range(k))


@given(_seqs)
def test_repadded_presentation_stays_equal(seq):
    # push one period element into the prefix; values cannot change
    pre = seq.prefix + (seq.period[0],)
    per = seq.period[1:] + seq.period[:1]
    other = InputSequence(pre, per)
    assert other == seq
    assert hash(other) == hash(seq)


@given(_seqs, _seqs)
def test_equality_implies_pointwise_agreement(s1, s2):
    horizon = len(s1.prefix) + len(s2.prefix) + len(s1.period) * len(s2.period)
    agree = all(s1.at(k) == s2.at(k) for k in range(horizon))
    assert (s1 == s2) == agree


@settings(max_examples=25, derandomize=True)
@given(_raw, st.integers(0, 20))
def test_the_stored_fields_read_as_the_raw_sequence(raw, k):
    prefix, period = raw
    seq = InputSequence(prefix, period)
    assert seq.at(k) == (prefix[k] if k < len(prefix) else period[(k - len(prefix)) % len(period)])
    rebuilt = InputSequence(seq.prefix, seq.period)
    assert (rebuilt.prefix, rebuilt.period) == (seq.prefix, seq.period)


@settings(max_examples=25, derandomize=True)
@given(_raw, st.integers(0, 3), st.integers(1, 3))
def test_equal_sequences_store_equal_fields_and_hashes(raw, pushed, repeats):
    """A longer prefix and a repeated period spell the same sequence."""
    seq = InputSequence(*raw)
    m = len(raw[0]) + pushed
    other = InputSequence([seq.at(j) for j in range(m)], [seq.at(m + j) for j in range(len(raw[1]) * repeats)])
    assert other == seq
    assert (other.prefix, other.period) == (seq.prefix, seq.period)
    assert hash(other) == hash(seq)


# Laws the canonical form rests on; it is computed once, at construction.
@settings(max_examples=25, derandomize=True)
@given(_seqs)
def test_canonical_is_idempotent(seq):
    again = InputSequence(seq.prefix, seq.period)
    assert (again.prefix, again.period) == (seq.prefix, seq.period)


def test_bounded_canonical_sequences_are_160_and_closed_under_shift():
    words = lambda n: list(product("ab", repeat=n))
    seqs = {InputSequence(p, q) for i in range(5) for p in words(i) for j in range(1, 4) for q in words(j)}
    assert len(seqs) == len({(s.prefix, s.period) for s in seqs}) == 160
    assert all(shift(s) in seqs for s in seqs)


def _closed(table: _SeqTable) -> _SeqTable:
    """Shift every interned sequence until the shifts add none."""
    size = -1
    while size != len(table.seqs):
        size = len(table.seqs)
        table.shifted(np.arange(size))
    return table


# The sequence table is the shift automaton of the drawn sequences: every
# id's head code names its first input, its tail id its shift, and a drawn
# point's id gives back its own sequence.
@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["ab", "abc"]), st.integers(1, 120),
       st.integers(0, 4), st.integers(1, 3))
def test_the_sequence_table_is_the_shift_automaton_of_its_draws(seed, labels, n, prefix_max, period_max):
    drawn = random_sequences(np.random.default_rng(seed), labels, n, prefix_max, period_max)
    table = _SeqTable(labels)
    assert [repr(table.seqs[i]) for i in table.intern(drawn).tolist()] == [repr(s) for s in drawn]
    for i, seq in enumerate(_closed(table).seqs):
        assert table.labels[table.head[i]] == seq.at(0)
        assert table.seqs[table.tail[i]] == shift(seq)
        copy = InputSequence(list(seq.prefix), list(seq.period))
        assert table.intern([copy]).tolist() == [i] and repr(table.seqs[i]) == repr(copy)


def test_the_sequence_table_holds_only_the_draws_and_their_shifts():
    """Over 5 labels with prefixes up to 30 the bounded set is astronomically
    large; the table interns each draw's at most prefix + period sequences."""
    n, prefix_max, period_max = 50, 30, 3
    table = _SeqTable()
    table.intern(random_sequences(np.random.default_rng(11), "abcde", n, prefix_max, period_max))
    assert len(table.seqs) <= n
    assert len(_closed(table).seqs) <= n * (prefix_max + period_max)


@settings(max_examples=25, derandomize=True)
@given(_labels)
def test_shift_returns_a_constant_sequence_itself(u):
    seq = InputSequence.constant(u)
    assert shift(seq) is seq


@settings(max_examples=25, derandomize=True)
@given(_seqs, st.integers(0, 20))
def test_the_walks_word_read_equals_reading_each_input(seq, k):
    table = _SeqTable()
    (codes,) = _first_inputs(table, table.intern([seq]), k)
    assert table.labels_at(codes) == [seq.at(j) for j in range(k)]


def _bits(y):
    return y.shape, y.dtype, y.tobytes()


# A state in [lo, hi]: either endpoint, or a uniform fraction of the way.
_fractions = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _tuple_labelled() -> ControlSystem:
    """A 1-D box whose input labels are tuples, stepped elementwise."""
    step_ = lambda x, u: 0.5 * x + u[1]
    labels = InputSet((("up", 0.25), ("down", -0.25)))
    return ControlSystem(RealBox((-1.0,), (1.0,)), labels, step_, "tuple-labels", transition_batch=step_)


_BATCHED = {
    "scalarlinear": lambda: builtin_system("scalarlinear"),
    "logistic-with-offset": lambda: builtin_system("logistic-with-offset"),
    "tuple labels": _tuple_labelled,
    "three offsets": lambda: logistic_with_offset(offsets=(0.0, 0.02, 0.05)),
}
_MIXED = [(0.5, 2), (0.1, 0), (0.9, 1), (0.3, 2), (0.7, 1), (0.2, 0)]  # labels out of declared order


# A draw's label index is taken modulo the label count: 0..5 covers two and three labels evenly.
@settings(max_examples=25)
@example("tuple labels", _MIXED)
@example("three offsets", _MIXED)
@given(st.sampled_from(sorted(_BATCHED)),
       st.lists(st.tuples(_fractions, st.integers(0, 5)), min_size=1, max_size=40))
def test_step_many_equals_the_step_loop_bit_for_bit(name, draws):
    sys = _BATCHED[name]()
    (lo,), (hi,) = sys.states.lower, sys.states.upper
    labels = sys.inputs.labels
    xs = [np.array([lo + f * (hi - lo)]) for f, _ in draws]
    us = [labels[i % len(labels)] for _, i in draws]
    assert sys.transition_batch is not None
    got = _step_many(sys, xs, us)
    assert [_bits(y) for y in got] == [_bits(step(sys, x, u)) for x, u in zip(xs, us)]


@settings(max_examples=25, derandomize=True)
@example("tuple labels", _MIXED)
@example("three offsets", _MIXED)
@given(st.sampled_from(sorted(_BATCHED)),
       st.lists(st.tuples(_fractions, st.integers(0, 5)), min_size=1, max_size=40))
def test_step_many_reads_carried_columns_bit_for_bit(name, draws):
    """The same list step from a carried state column and label codes; the
    stepped list's state column (carried, or stacked where one state ran
    alone) holds in row ``i`` the bits of state ``i``."""
    sys = _BATCHED[name]()
    (lo,), (hi,) = sys.states.lower, sys.states.upper
    labels, table = sys.inputs.labels, _SeqTable(reversed(sys.inputs.labels))
    arr = np.array([[lo + f * (hi - lo)] for f, _ in draws])
    us = [labels[i % len(labels)] for _, i in draws]
    got = _step_many(sys, _Points(list(arr), states=arr), _Points(us, codes=table.codes(us), table=table))
    expected = [step(sys, x, u) for x, u in zip(arr, us)]
    assert [_bits(y) for y in got] == [_bits(y) for y in expected]
    assert [_bits(row) for row in _state_column(got)] == [_bits(y) for y in expected]


@pytest.mark.parametrize("change", ["set", "slice", "append", "insert", "pop", "sort", "extend", "iadd", "del"])
def test_changing_a_point_list_drops_its_columns(change):
    """A drawn box list and a stepped one reach a caller as plain lists, and a
    list is coded where it enters each map; after any change of their points,
    list maps read the points again."""
    sys = builtin_system("scalarlinear")
    drawn = random_state(np.random.default_rng(3), sys.states, 6)
    for xs in (drawn, k_u(sys, sys.inputs.labels[0]).batch(drawn)):
        assert type(xs) is list and _state_column(xs) is not None
        x = np.array([0.125])
        {"set": lambda: xs.__setitem__(0, x), "slice": lambda: xs.__setitem__(slice(1, 3), [x, x]),
         "append": lambda: xs.append(x), "insert": lambda: xs.insert(2, x), "pop": lambda: xs.pop(1),
         "sort": lambda: xs.sort(key=lambda y: -y[0]), "extend": lambda: xs.extend([x]),
         "iadd": lambda: xs.__iadd__([x]), "del": lambda: xs.__delitem__(0)}[change]()
        expected = [step(sys, y, sys.inputs.labels[1]) for y in list(xs)]
        assert [_bits(y) for y in _step_many(sys, xs, [sys.inputs.labels[1]] * len(xs))] == [_bits(y) for y in expected]
        assert [_bits(row) for row in _state_column(xs)] == [_bits(np.asarray(y, dtype=float)) for y in list(xs)]


_LIST_READS = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b, "lt": lambda a, b: a < b, "ge": lambda a, b: a >= b,
    "add": lambda a, b: a + b, "radd": lambda a, b: list(b) + a, "mul": lambda a, b: 2 * a + a * 2,
    "repr": lambda a, b: repr(a), "iter": lambda a, b: [x for x in a], "reversed": lambda a, b: list(reversed(a)),
    "slice": lambda a, b: a[1:3], "contains": lambda a, b: 1 in a, "index": lambda a, b: a.index(1),
    "count": lambda a, b: a.count(1), "len": lambda a, b: len(a), "tuple": lambda a, b: tuple(a),
    "array": lambda a, b: np.asarray(a).tolist(), "copy": lambda a, b: copy.copy(a),
    "pickle": lambda a, b: pickle.loads(pickle.dumps(a)), "extend": lambda a, b: (a.extend(b), a)[1],
    "iadd": lambda a, b: a.__iadd__(b), "setslice": lambda a, b: (a.__setitem__(slice(0, 2), b), a)[1],
}


@pytest.mark.parametrize("read", sorted(_LIST_READS))
def test_a_list_built_from_its_columns_reads_as_its_points(read):
    """Drawn lists are built from their columns where first read; any read, of the list or of
    one given to a list method, sees the list of its points."""
    draw = lambda: random_state(np.random.default_rng(4), FiniteStates((0, 1, 2)), 5)
    expected = _LIST_READS[read](list(draw()), list(draw()))
    assert _LIST_READS[read](draw(), draw()) == expected


# One point of each kind the loop rejects.  logistic_with_offset(r=4.0)
# sends x = 0.5 under offset 0.05 to 1.05, outside its box; offset 0.0
# keeps every state of [0, 1] inside.
_BAD = {
    "unknown label": (0.3, "z"),
    "state below": (-0.5, 0.0),
    "state above": (1.5, 0.0),
    "nan state": (float("nan"), 0.0),
    "output outside": (0.5, 0.05),
}
_GOOD_OR_BAD = st.one_of(st.tuples(st.floats(0.0, 1.0), st.just(0.0)), st.sampled_from(list(_BAD.values())))


@pytest.mark.parametrize("bad", sorted(_BAD))
@settings(max_examples=25)
@given(points=st.lists(_GOOD_OR_BAD, max_size=12), at=st.integers(0, 12))
def test_step_many_raises_what_the_step_loop_raises_first(bad, points, at):
    """One point of kind ``bad`` at position ``at``, among good points and
    possibly other bad ones."""
    sys = logistic_with_offset(r=4.0)
    points.insert(at, _BAD[bad])
    xs, us = [np.array([x]) for x, _ in points], [u for _, u in points]
    with pytest.raises(DomainError) as loop:
        [step(sys, x, u) for x, u in zip(xs, us)]
    with pytest.raises(DomainError) as batched:
        _step_many(sys, xs, us)
    assert str(batched.value) == str(loop.value)


def test_step_many_runs_the_step_loop_for_a_label_that_is_no_dict_key(monkeypatch):
    """A label that cannot be coded sends two box states through the ``step``
    loop, not the batch path, and the loop raises at that label."""
    sys = builtin_system("scalarlinear")
    xs, us = [np.array([0.1]), np.array([0.2])], ["a", ["a"]]
    with pytest.raises(DomainError) as loop:
        [step(sys, x, u) for x, u in zip(xs, us)]
    batches = []
    counted = replace(sys, transition_batch=lambda X, u: batches.append(u) or sys.transition_batch(X, u))
    with pytest.raises(DomainError) as looped:
        _step_many(counted, xs, us)
    assert str(looped.value) == str(loop.value) == "unknown input label: ['a']"
    assert batches == []


def _counting(sys):
    """``sys`` with its transitions counted in ``calls[0]``: one per call, one per row of a batch call."""
    calls = [0]

    def transition(x, u):
        calls[0] += 1
        return sys.transition(x, u)

    def transition_batch(xs, u):
        calls[0] += len(xs)
        return sys.transition_batch(xs, u)

    return replace(sys, transition=transition, transition_batch=transition_batch), calls


@pytest.mark.parametrize("bad", ["a", ["a"], {}, [[0.1], [0.1, 0.2]]], ids=["text", "text in a list", "dict", "nested ragged"])
def test_step_many_steps_the_states_ahead_of_one_numpy_cannot_read(bad):
    """A box state that numpy cannot read as floats raises ``step``'s error
    after the states ahead of it are stepped, as the loop does."""
    sys = builtin_system("scalarlinear")
    xs, us = [np.array([0.1]), np.array([0.2]), np.array([0.3]), bad, np.array([0.4])], ["a"] * 5
    looped, loop_calls = _counting(sys)
    with pytest.raises((TypeError, ValueError)) as loop:
        [step(looped, x, u) for x, u in zip(xs, us)]
    batched, calls = _counting(sys)
    with pytest.raises(type(loop.value)) as many:
        _step_many(batched, xs, us)
    assert str(many.value) == str(loop.value) and calls == loop_calls == [3]


@pytest.mark.parametrize("bad", sorted(_BAD) + ["ragged state"])
@settings(max_examples=25, derandomize=True)
@given(points=st.lists(_GOOD_OR_BAD, max_size=12), at=st.integers(0, 12), carried=st.booleans())
def test_step_many_with_carried_columns_raises_what_the_step_loop_raises_first(bad, points, at, carried):
    """As above, with the states' column and the label codes carried where
    the states stack; a ragged state stacks with no other, so its list
    carries no column and runs the loop."""
    sys = logistic_with_offset(r=4.0)
    points.insert(at, (np.array([0.25, 0.5]), 0.0) if bad == "ragged state" else _BAD[bad])
    xs, us = [np.atleast_1d(x) for x, _ in points], [u for _, u in points]
    with pytest.raises(DomainError) as loop:
        [step(sys, x, u) for x, u in zip(xs, us)]
    if carried and bad != "ragged state":
        table = _SeqTable(sys.inputs.labels)
        xs, us = _Points(xs, states=np.array(xs)), _Points(us, codes=table.codes(us), table=table)
    with pytest.raises(DomainError) as batched:
        _step_many(sys, xs, us)
    assert str(batched.value) == str(loop.value)


@pytest.mark.parametrize(
    "probe", [2, 7, [0], np.array([1]), np.array([0, 1])],
    ids=["label", "non-label", "list", "1-element array", "2-element array"],
)
def test_finite_contains_agrees_with_the_tuple_search(probe):
    """``contains`` looks a label up in the space's position map; a probe that
    cannot be a dict key is searched for in the label tuple, so a 1-element
    array is found as a bool and a 2-element one raises numpy's ValueError."""
    space = FiniteStates((0, 1, 2))
    try:
        expected = probe in space.labels
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            space.contains(probe)
        assert str(got.value) == str(exc)
    else:
        assert space.contains(probe) is expected


def _counting_finite3(bad_call):
    """finite3 counting its transition calls; call number ``bad_call`` returns a state it lacks."""
    calls = {"n": 0}

    def transition(x, u):
        calls["n"] += 1
        return "out" if calls["n"] == bad_call else FINITE3_TABLE[(x, u)]

    return ControlSystem(FiniteStates((0, 1, 2)), InputSet(("a", "b")), transition, name="counted"), calls


# (states, inputs, the call that leaves the space, the loop's calls before it raises)
_FINITE_BAD = {
    "unknown state at 3": ([0, 1, 2, 9, 0, 1], list("ababab"), None, 3),
    "unknown input at 2": ([0, 1, 2, 0, 1, 2], list("abzaba"), None, 2),
    "output outside at 4": ([0, 1, 2, 0, 1, 2], list("ababab"), 5, 5),
    "unhashable state": ([0, [1], 2, 0], list("abab"), None, 1),
}


@pytest.mark.parametrize("carried", [False, True], ids=["plain", "carried"])
@pytest.mark.parametrize("case", sorted(_FINITE_BAD))
def test_finite_step_many_raises_the_loop_error_after_as_many_calls(case, carried):
    """A finite list step checks codes up front, yet calls the transition for
    exactly the points the ``step`` loop steps before it raises, and raises
    its error; ``carried`` gives the valid state lists their code column."""
    xs, us, bad_call, before = _FINITE_BAD[case]
    sys, calls = _counting_finite3(bad_call)
    with pytest.raises(DomainError) as loop:
        [step(sys, x, u) for x, u in zip(xs, us)]
    assert calls["n"] == before
    calls["n"] = 0
    if carried and all(isinstance(x, int) and x in (0, 1, 2) for x in xs):  # finite3's labels are their codes
        xs = _Points(xs, xcodes=np.array(xs), space=sys.states)
    with pytest.raises(DomainError) as listed:
        _step_many(sys, xs, us)
    assert (str(listed.value), calls["n"]) == (str(loop.value), before)


def test_range_map(f3, c2):
    assert range_map(f3) == frozenset({0, 1, 2})
    assert range_map(c2) == frozenset({1})


def test_derived_maps(f3):
    assert k_aug(f3).precompose((0, "a")) == (1, "a")
    assert k_u(f3, "b").precompose(1) == 2
    x1, tail = k_inf(f3).precompose((0, InputSequence(("a", "b"), ("a",))))
    assert x1 == 1
    assert tail == InputSequence(("b",), ("a",))


def test_constant_input_map_rejects_unknown_label(f3):
    with pytest.raises(DomainError):
        k_u(f3, "z")


class RecoveryMethod(Enum):
    """The three reformulations that rebuild a trajectory, by the check
    registry's path operator that iterates each one's point map."""

    INFINITE_SEQUENCE = "path_inf"
    KCF_COMPOSITION = "path_kcf"
    AUGMENTED_STEPWISE = "path_aug"


@pytest.mark.parametrize("method", list(RecoveryMethod))
def test_recovery_matches_simulate_on_finite(f3, method):
    seq = InputSequence(("b",), ("a", "b"))
    truth = simulate(f3, 2, seq, 6)
    got = _named(f3, {})[method.value].precompose(_Trajectory(2, seq, 6))
    assert got == tuple(truth)


@pytest.mark.parametrize("method", list(RecoveryMethod))
def test_recovery_matches_simulate_on_box(sl, method):
    seq = InputSequence(("a",), ("b", "a"))
    truth = simulate(sl, 0.77, seq, 6)
    got = _named(sl, {})[method.value].precompose(_Trajectory(0.77, seq, 6))
    assert len(got) == len(truth)
    for a, b in zip(truth, got):
        assert np.allclose(a, b, atol=1e-15)


def test_random_sequence_respects_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        seq = random_sequence(rng, ("a", "b"), prefix_max=4, period_max=3)
        assert len(seq.prefix) <= 4
        assert 1 <= len(seq.period) <= 3
        assert set(seq.prefix) | set(seq.period) <= {"a", "b"}


def test_random_sequence_is_seed_deterministic():
    one = [random_sequence(np.random.default_rng(9), ("a", "b")) for _ in range(5)]
    two = [random_sequence(np.random.default_rng(9), ("a", "b")) for _ in range(5)]
    assert one == two


_SEQUENCE_DRAWS = dict(
    labels=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4, unique=True),
    n=st.integers(0, 40),
    prefix_max=st.integers(0, 5),
    period_max=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=25, derandomize=True)
@given(**_SEQUENCE_DRAWS)
def test_random_sequences_keep_their_bounds_and_labels(labels, n, prefix_max, period_max, seed):
    seqs = random_sequences(np.random.default_rng(seed), labels, n, prefix_max, period_max)
    assert len(seqs) == n
    for seq in seqs:
        assert 0 <= len(seq.prefix) <= prefix_max and 1 <= len(seq.period) <= period_max
        assert set(seq.prefix) | set(seq.period) <= set(labels)
        if prefix_max == 0:
            assert seq.prefix == ()


@settings(max_examples=25, derandomize=True)
@given(**_SEQUENCE_DRAWS)
def test_random_sequences_consume_the_generator_as_their_three_calls(labels, n, prefix_max, period_max, seed):
    """The prefix lengths, the period lengths, then one label matrix whose
    row ``i`` holds sequence ``i``'s prefix and then its period."""
    drawn, by_hand = np.random.default_rng(seed), np.random.default_rng(seed)
    seqs = random_sequences(drawn, labels, n, prefix_max, period_max)
    plens = by_hand.integers(0, prefix_max + 1, size=n)
    qlens = by_hand.integers(1, period_max + 1, size=n)
    picks = by_hand.integers(len(labels), size=(n, prefix_max + period_max))
    for seq, p, q, row in zip(seqs, plens, qlens, picks):
        row = [labels[j] for j in row]
        assert seq == InputSequence(row[:p], row[p : p + q])
    assert drawn.random() == by_hand.random()


@settings(max_examples=25, derandomize=True)
@given(**{key: draw for key, draw in _SEQUENCE_DRAWS.items() if key != "n"})
def test_random_sequence_is_the_one_row_draw(labels, prefix_max, period_max, seed):
    one, row = np.random.default_rng(seed), np.random.default_rng(seed)
    assert random_sequence(one, labels, prefix_max, period_max) == random_sequences(
        row, labels, 1, prefix_max, period_max
    )[0]
    assert one.random() == row.random()


def _raw_rows(m: int) -> tuple:
    """Every raw draw row over ``m`` labels with prefix at most 4 and period at most 3, as the
    position matrices of a draw (entries past a length are 0)."""
    rows = [(p, q, row) for p in range(5) for q in range(1, 4) for row in product(range(m), repeat=p + q)]
    pre, per = np.zeros((len(rows), 4), np.intp), np.zeros((len(rows), 3), np.intp)
    for i, (p, q, row) in enumerate(rows):
        pre[i, :p], per[i, :q] = row[:p], row[p:]
    return rows, pre, np.array([p for p, _, _ in rows]), per, np.array([q for _, q, _ in rows])


@pytest.mark.parametrize("labels", [("a", "b"), ("a", float("nan"), 0.0)], ids=["two", "three-with-nan"])
def test_canonical_rows_are_the_fields_input_sequence_keeps(labels):
    """Every raw row with prefix <= 4 and period <= 3 (434 over two labels, 4,719 over three) reduces
    in numpy to the fields ``InputSequence`` computes, comparing labels as it does (a NaN label is
    not ``==`` to itself, so it stays in a prefix), and interns as ids in order of first sight,
    whether a row is keyed as one integer or, when it is too wide for one, as itself."""
    rows, *fields = _raw_rows(len(labels))
    pre, plen, per, qlen = (a.tolist() for a in _canonical(labels, *fields))
    built = [InputSequence([labels[j] for j in row[:p]], [labels[j] for j in row[p:]]) for p, _, row in rows]
    at = lambda row, n: tuple(labels[j] for j in row[:n])
    assert [(at(a, p), at(b, q)) for a, p, b, q in zip(pre, plen, per, qlen)] == [(s.prefix, s.period) for s in built]
    first = {}
    expected = [first.setdefault((s.prefix, s.period), len(first)) for s in built]
    canonical = _canonical(labels, *fields)
    wide = (np.pad(canonical[0], ((0, 0), (0, 40))),) + canonical[1:]  # 49 columns: keyed row by row
    for rows_of in (canonical, wide):
        table = _SeqTable(labels)
        ids = table.intern_rows(labels, *rows_of)
        assert ids.tolist() == expected
        assert [repr(s) for s in table.seqs_at(ids)] == [repr(s) for s in built]


def test_state_distance(sl, f3):
    assert state_distance(f3.states, 2, 2) == 0.0
    assert state_distance(f3.states, 2, 0) == 1.0
    assert state_distance(sl.states, 0.5, -0.25) == 0.75
    assert np.isnan(state_distance(sl.states, 0.5, float("nan")))
    assert not states_equal(sl.states, 0.5, float("nan"))


def test_states_equal(sl, f3):
    assert states_equal(sl.states, 0.5, 0.5 + 1e-14)
    assert not states_equal(sl.states, 0.5, 0.6)
    assert states_equal(f3.states, 2, 2)
    assert not states_equal(f3.states, 2, 0)
