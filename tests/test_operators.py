from dataclasses import replace

import numpy as np
import pytest

from koopcontrol import (
    ContractError,
    ControlSystem,
    DomainError,
    DomainMismatchError,
    DomainTag,
    InputSequence,
    InputSet,
    Observable,
    RealBox,
    WellDefinednessReason,
    apply,
    ci_isomorphisms,
    compose,
    extension_aug_to_inf,
    extension_f_to_aug,
    identity_operator,
    indicator,
    input_aug_well_definedness,
    k_aug,
    k_inf,
    k_naive,
    k_u,
    kcf_word,
    pair_indicator,
    power,
    restriction_aug_to_f,
    restriction_inf_to_aug,
    shift,
    simulate,
    step,
    tabulate,
    to_matrix,
    two_step_discrepancy_witness,
)


def _x():
    return Observable(DomainTag.STATE_ONLY, lambda x: complex(x), label="x")


# --- point maps ------------------------------------------------------------


def test_point_maps(f3):
    assert extension_aug_to_inf().precompose((0, InputSequence(("a",), ("b",)))) == (0, "a")
    x, seq = restriction_inf_to_aug().precompose((1, "b"))
    assert x == 1 and seq == InputSequence.constant("b")
    assert extension_f_to_aug().precompose((2, "a")) == 2
    assert restriction_aug_to_f("b").precompose(2) == (2, "b")


def test_restrict_then_extend_is_identity_on_pairs():
    first, constant = extension_aug_to_inf().precompose, restriction_inf_to_aug().precompose
    for pair in [(0, "a"), (1, "b")]:
        assert first(constant(pair)) == pair


def test_bridges_and_k_inf_raise_the_step_error_at_an_unhashable_label(f3):
    """No input set holds a label that cannot be a dict key; R, E and K_inf
    raise the DomainError that ``step`` raises for it."""
    bad = ["a"]
    with pytest.raises(DomainError) as stepped:
        step(f3, 0, bad)
    seq = InputSequence((bad,), ("a",))
    for op, point in [(restriction_inf_to_aug(), (0, bad)), (extension_aug_to_inf(), (0, seq)), (k_inf(f3), (0, seq))]:
        with pytest.raises(DomainError) as mapped:
            op.precompose(point)
        assert str(mapped.value) == str(stepped.value), op.label


def test_bridges_and_k_inf_raise_the_step_error_before_any_step_at_a_label_whose_hash_raises(f3):
    """A tuple holding a list is hashable by its type, but its hash raises:
    as for any label that cannot be a dict key, R, E and K_inf raise the
    DomainError that ``step`` raises for it, before any transition call."""
    bad = ("a", ["b"])
    with pytest.raises(DomainError) as stepped:
        step(f3, 0, bad)
    calls = []
    counted = replace(f3, transition=lambda x, u: calls.append(u) or f3.transition(x, u))
    seqs = [(0, InputSequence(("a",), ("b",))), (1, InputSequence(("a",), ("a", bad)))]
    for op, points in [(restriction_inf_to_aug(), [(0, "a"), (1, bad)]), (extension_aug_to_inf(), seqs),
                       (k_inf(counted), seqs)]:
        with pytest.raises(DomainError) as mapped:
            op.batch(points)
        assert str(mapped.value) == str(stepped.value), op.label
    assert calls == []


def test_bridges_and_k_inf_keep_each_points_own_labels():
    """Labels that are equal but print differently (0.0, -0.0) stay each
    point's own through R, E and K_inf, and a list maps as its points do
    one by one; the transition shows the label it was given."""
    sys = ControlSystem(RealBox((-1.0,), (1.0,)), InputSet((0.0, 1.0)), lambda x, u: x * u, "scale")
    x = np.array([0.5])
    pairs = [(x, 0.0), (x, -0.0), (x, 1.0)]
    seqs = [(x, InputSequence((u,), (1.0, u))) for u in (0.0, -0.0, 1.0)]
    for op, points in [(restriction_inf_to_aug(), pairs), (extension_aug_to_inf(), seqs), (k_inf(sys), seqs)]:
        assert [repr(q) for q in op.batch(points)] == [repr(op.precompose(p)) for p in points], op.label
    assert repr(restriction_inf_to_aug().batch(pairs)[1][1]) == repr(InputSequence.constant(-0.0))
    assert repr(extension_aug_to_inf().batch(seqs)[1][1]) == "-0.0"
    y, tail = k_inf(sys).batch(seqs)[1]
    assert repr(y) == repr(np.array([-0.0])) and repr(tail) == repr(shift(seqs[1][1]))


# --- operator application and composition ----------------------------------


def test_koopman_of_constant_input_map_oracle(f3):
    ka = k_u(f3, "a")
    g = apply(ka, _x())
    # (K_a f)(x) = f(T(x, a)); the a-map sends 0,1,2 to 1,2,0
    assert [g(x) for x in range(3)] == [1, 2, 0]


def test_apply_rejects_wrong_domain(f3):
    with pytest.raises(DomainMismatchError):
        apply(k_u(f3, "a"), pair_indicator(0, "a"))


def test_identity_operator(f3):
    ident = identity_operator(DomainTag.STATE_ONLY)
    assert apply(ident, _x())(2) == 2


def test_compose_matches_sequential_application(f3):
    ka, kb = k_u(f3, "a"), k_u(f3, "b")
    seq = apply(ka, apply(kb, _x()))
    combined = apply(compose(ka, kb), _x())
    for x in range(3):
        assert combined(x) == seq(x)


def test_compose_rejects_domain_mismatch(f3):
    with pytest.raises(DomainMismatchError):
        compose(k_u(f3, "a"), k_aug(f3))


def test_power_zero_is_identity(f3):
    assert apply(power(k_u(f3, "a"), 0), _x())(2) == 2


def test_power_rejects_negative(f3):
    with pytest.raises(ValueError):
        power(k_u(f3, "a"), -1)


def test_power_oracle_on_sequence_space(f3):
    iso = ci_isomorphisms(f3)
    lifted = apply(iso.extend_aug_to_seq, apply(iso.extend_state_to_aug, indicator(2)))
    seq = InputSequence(("a", "b"), ("a",))
    # x0=0 -> 1 -> 2 -> 0, so the step-3 indicator of state 2 reads 0
    assert apply(power(k_inf(f3), 3), lifted)((0, seq)) == 0
    assert apply(power(k_inf(f3), 2), lifted)((0, seq)) == 1


# --- the naive operator ----------------------------------------------------


def test_naive_operator_single_application(f3):
    g = apply(k_naive(f3), indicator(2))
    assert g((1, "a")) == 1  # T(1, a) = 2
    assert g((1, "b")) == 1  # T(1, b) = 2
    assert g((0, "a")) == 0


def test_naive_operator_cannot_be_applied_twice(f3):
    op = k_naive(f3)
    g = apply(op, indicator(2))
    assert g.domain is DomainTag.STATE_INPUT
    with pytest.raises(DomainMismatchError):
        apply(op, g)


# --- input words -----------------------------------------------------------


def test_kcf_word_oracle(f3):
    # leftmost label acts first: 0 -a-> 1 -b-> 2
    assert apply(kcf_word(f3, ("a", "b")), _x())(0) == 2


def test_kcf_word_order_matters(f3):
    assert apply(kcf_word(f3, ("a", "b")), _x())(0) == 2
    assert apply(kcf_word(f3, ("b", "a")), _x())(0) == 1


def test_kcf_word_empty_is_identity(f3):
    assert apply(kcf_word(f3, ()), _x())(1) == 1


def test_kcf_word_matches_simulation(f3):
    word = ("b", "a", "a", "b")
    seq = InputSequence(word, ("a",))
    for x0 in range(3):
        end = simulate(f3, x0, seq, len(word))[-1]
        assert apply(kcf_word(f3, word), _x())(x0) == end


def test_kcf_word_rejects_unknown_labels(f3):
    with pytest.raises(DomainError):
        kcf_word(f3, ("a", "z"))


# --- restriction / extension operators -------------------------------------


def test_pair_roundtrip_on_observables(f3):
    g = pair_indicator(1, "b")
    back = apply(restriction_inf_to_aug(), apply(extension_aug_to_inf(), g))
    for p in [(0, "a"), (1, "b"), (2, "a")]:
        assert back(p) == g(p)


def test_freeze_roundtrip_on_observables(f3):
    f = indicator(1)
    for u in ("a", "b"):
        back = apply(restriction_aug_to_f(u, f3), apply(extension_f_to_aug(), f))
        for x in range(3):
            assert back(x) == f(x)


def test_only_system_aware_extensions_stamp_ci(f3):
    # the bare lattice extension has no system handle, so no certificate;
    # the system-aware isomorphism stamps its canonical witness input
    plain = apply(extension_f_to_aug(), indicator(0))
    assert plain.ci_input is None
    iso = ci_isomorphisms(f3)
    assert apply(iso.extend_state_to_aug, indicator(0)).ci_input is not None


def test_ci_isomorphisms_roundtrip_and_stamping(f3):
    iso = ci_isomorphisms(f3)
    f = indicator(1)
    up = apply(iso.extend_state_to_aug, f)
    assert up.ci_input is not None
    up2 = apply(iso.extend_aug_to_seq, up)
    assert up2.ci_input is not None
    down = apply(iso.restrict_aug_to_state, apply(iso.restrict_seq_to_aug, up2))
    for x in range(3):
        assert down(x) == f(x)


def test_ci_restriction_requires_stamp(f3):
    iso = ci_isomorphisms(f3)
    bare = Observable(DomainTag.STATE_SEQUENCE, lambda p: complex(p[0]), label="x")
    with pytest.raises(ContractError):
        apply(iso.restrict_seq_to_aug, bare)
    bare_pair = Observable(DomainTag.STATE_INPUT, lambda p: complex(p[0]), label="x")
    with pytest.raises(ContractError):
        apply(iso.restrict_aug_to_state, bare_pair)


def test_composed_operator_propagates_ci_requirement(f3):
    iso = ci_isomorphisms(f3)
    both_down = compose(iso.restrict_aug_to_state, iso.restrict_seq_to_aug)
    bare = Observable(DomainTag.STATE_SEQUENCE, lambda p: complex(p[0]), label="x")
    with pytest.raises(ContractError):
        apply(both_down, bare)
    stamped = apply(
        ci_isomorphisms(f3).extend_aug_to_seq,
        apply(iso.extend_state_to_aug, indicator(2)),
    )
    assert apply(both_down, stamped)(2) == 1


def test_compose_refuses_a_product_that_apply_always_rejects(f3):
    """``R_ci_seq`` needs a certified input and ``K_inf`` certifies none, so
    ``apply(R_ci_seq, apply(K_inf, h))`` raises for every ``h``; so does the product."""
    iso = ci_isomorphisms(f3)
    h = apply(iso.extend_aug_to_seq, apply(iso.extend_state_to_aug, indicator(1)))
    with pytest.raises(ContractError):
        apply(iso.restrict_seq_to_aug, apply(k_inf(f3), h))
    with pytest.raises(ContractError):
        compose(iso.restrict_seq_to_aug, k_inf(f3))


# --- matrix realizations ----------------------------------------------------


def test_matrix_of_constant_input_map(f3):
    mat = to_matrix(k_u(f3, "a"), f3)
    expected = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    assert np.array_equal(mat, expected)


def test_matrix_rows_select_successors(f3):
    mat = to_matrix(k_u(f3, "b"), f3)
    # row i has a single 1 in the column of T(x_i, b)
    assert np.array_equal(mat.sum(axis=1), np.ones(3))
    assert mat[0, 0] == 1  # T(0,b)=0
    assert mat[1, 2] == 1  # T(1,b)=2
    assert mat[2, 1] == 1  # T(2,b)=1


def test_matrix_times_tabulation_is_operator_action(f3):
    for u in ("a", "b"):
        op = k_u(f3, u)
        mat = to_matrix(op, f3)
        f = _x()
        assert np.allclose(mat @ tabulate(f, f3), tabulate(apply(op, f), f3))


def test_matrix_of_composition_is_matrix_product(f3):
    ka, kb = k_u(f3, "a"), k_u(f3, "b")
    lhs = to_matrix(compose(ka, kb), f3)
    rhs = to_matrix(ka, f3) @ to_matrix(kb, f3)
    assert np.array_equal(lhs, rhs)


def test_matrix_of_augmented_operator_shape(f3):
    mat = to_matrix(k_aug(f3), f3)
    assert mat.shape == (6, 6)
    assert np.array_equal(mat.sum(axis=1), np.ones(6))


# --- well-definedness and two-step failure ---------------------------------


def test_well_definedness_witness_oracle(f3):
    probes = [pair_indicator(x, u) for x in (0, 1, 2) for u in ("a", "b")]
    report = input_aug_well_definedness(f3, probes)
    assert not report.well_defined
    assert report.reason is WellDefinednessReason.WITNESS_FOUND
    label, x, u, u1, u2, v1, v2 = report.witness
    # first probe that distinguishes: indicator of (0, a) at T(0, b) = 0
    assert (x, u, u1, u2) == (0, "b", "a", "b")
    assert (v1, v2) == (1, 0)


def test_well_definedness_singleton_input(f3):
    from koopcontrol import ControlSystem, InputSet

    single = ControlSystem(
        f3.states, InputSet(("a",)), f3.transition, name="finite3-single"
    )
    report = input_aug_well_definedness(single, [pair_indicator(0, "a")])
    assert report.well_defined
    assert report.reason is WellDefinednessReason.SINGLETON_INPUT


def test_well_definedness_input_free_probes(f3):
    blind = [apply(extension_f_to_aug(), indicator(x)) for x in (0, 1, 2)]
    report = input_aug_well_definedness(f3, blind)
    assert report.well_defined
    assert report.reason is WellDefinednessReason.ALL_RESTRICTIONS_INPUT_FREE


def test_well_definedness_nan_probe_is_a_witness(f3):
    nan_under_a = Observable(
        DomainTag.STATE_INPUT, lambda p: float("nan") if p[1] == "a" else 0.0
    )
    report = input_aug_well_definedness(f3, [nan_under_a])
    assert not report.well_defined
    assert report.reason is WellDefinednessReason.WITNESS_FOUND
    assert report.witness[3:5] == ("a", "b")


def test_two_step_witness_oracle(f3):
    w = two_step_discrepancy_witness(f3)
    assert w is not None
    assert (w.x, w.word) == (0, ("b", "a"))
    assert (w.value_power, w.value_word) == (1, 0)


def test_two_step_witness_none_when_input_ignored(c2):
    assert two_step_discrepancy_witness(c2) is None


def test_two_step_witness_on_box(sl):
    w = two_step_discrepancy_witness(sl)
    assert w is not None
    assert abs(w.value_power - w.value_word) > 1e-9


def test_two_step_witness_values_are_reachable(f3):
    w = two_step_discrepancy_witness(f3)
    kau = k_aug(f3)
    lifted = apply(extension_f_to_aug(), w.observable)
    frozen = apply(power(kau, 2), lifted)((w.x, w.word[0]))
    via_word = apply(kcf_word(f3, w.word), w.observable)(w.x)
    assert frozen == w.value_power
    assert via_word == w.value_word
    assert frozen != via_word
