from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from koopcontrol import (
    ContractError,
    DomainMismatchError,
    DomainTag,
    Exhaustive,
    InputSequence,
    Observable,
    Sampled,
    certify_control_independent,
    constant_one,
    coordinate,
    enumerate_points,
    indicator,
    is_control_independent,
    linear_combine,
    monomial,
    pair_indicator,
    state_component,
    tabulate,
)


def _weighted(f3):
    """State-input observable x * w(u) with input-dependent weights."""
    return Observable(
        DomainTag.STATE_INPUT,
        lambda p: p[0] * (1.0 if p[1] == "a" else 2.0),
        label="x*w(u)",
    )


def test_observable_call_returns_complex(f3):
    value = indicator(2)(2)
    assert isinstance(value, complex)
    assert value == 1


def test_an_observable_takes_exactly_one_map():
    """A library observable is its list map; a custom one gives ``fn`` or
    ``batch``.  Neither or both is refused, so a ``replace`` of the map an
    observable does not read cannot pass silently."""
    square = Observable(DomainTag.STATE_ONLY, batch=lambda xs: [x * x for x in xs])
    assert square(3) == 9 and square.fn is None
    assert monomial((2,)).fn is None
    with pytest.raises(ValueError, match="exactly one of fn and batch"):
        Observable(DomainTag.STATE_ONLY)
    with pytest.raises(ValueError, match="exactly one of fn and batch"):
        replace(monomial((2,)), fn=lambda x: x)


def test_pair_domain_rejects_bare_states():
    # state-only points stay unconstrained (states may be any hashable),
    # but pair domains insist on an actual (state, input) tuple
    g = pair_indicator(0, "a")
    with pytest.raises(DomainMismatchError):
        g(0)
    with pytest.raises(DomainMismatchError):
        g((0, "a", "b"))


def test_sequence_domain_requires_sequence_component():
    h = constant_one(DomainTag.STATE_SEQUENCE)
    assert h((0, InputSequence.constant("a"))) == 1
    with pytest.raises(DomainMismatchError):
        h((0, "a"))


def test_enumerate_points_declaration_order(f3):
    assert list(enumerate_points(DomainTag.STATE_ONLY, f3)) == [0, 1, 2]
    pairs = list(enumerate_points(DomainTag.STATE_INPUT, f3))
    assert pairs == [(0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "a"), (2, "b")]


def test_enumerate_points_needs_finite_states(sl):
    with pytest.raises(Exception):
        list(enumerate_points(DomainTag.STATE_ONLY, sl))


def test_tabulate_state_oracle(f3):
    assert np.array_equal(tabulate(indicator(2), f3), np.array([0, 0, 1], complex))


def test_tabulate_pair_oracle(f3):
    got = tabulate(_weighted(f3), f3)
    assert np.array_equal(got, np.array([0, 0, 1, 2, 2, 4], complex))


def test_linear_combine_values(f3):
    f = linear_combine([2.0, -1.0j], [indicator(0), indicator(1)])
    assert f(0) == 2.0
    assert f(1) == -1.0j
    assert f(2) == 0.0


def test_linear_combine_rejects_mixed_domains():
    with pytest.raises(DomainMismatchError):
        linear_combine([1.0, 1.0], [indicator(0), pair_indicator(0, "a")])


def test_linear_combine_rejects_length_mismatch():
    with pytest.raises(ValueError):
        linear_combine([1.0], [indicator(0), indicator(1)])


def test_indicator_and_pair_indicator(f3):
    assert indicator(1)(1) == 1 and indicator(1)(0) == 0
    g = pair_indicator(1, "b")
    assert g((1, "b")) == 1 and g((1, "a")) == 0


def test_coordinate_and_monomial():
    x = np.array([0.5, -2.0])
    assert coordinate(1)(x) == -2.0
    assert monomial((2, 1))(x) == pytest.approx(0.25 * -2.0)
    assert monomial((0, 0))(x) == 1.0


def test_coordinate_on_numeric_labels(f3):
    # finite labels here are ints, so the coordinate observable reads them
    assert coordinate(0)(2) == 2.0


def test_exhaustive_ci_finds_first_witness(f3):
    report = is_control_independent(_weighted(f3), f3, Exhaustive())
    assert not report.independent
    # scan runs state-major, first-label reference: x=0 agrees, x=1 differs
    assert report.witness == (1, "a", "b")


def test_exhaustive_ci_passes_input_free(f3):
    lifted = Observable(DomainTag.STATE_INPUT, lambda p: complex(p[0]), label="x")
    report = is_control_independent(lifted, f3, Exhaustive())
    assert report.independent
    assert report.witness is None


def test_sampled_ci_on_box(sl):
    dependent = Observable(
        DomainTag.STATE_INPUT,
        lambda p: p[0] if p[1] == "a" else -p[0],
        label="signed",
    )
    report = is_control_independent(dependent, sl, Sampled(200, seed=1))
    assert not report.independent
    x, u1, u2 = report.witness
    assert u1 != u2

    free = Observable(DomainTag.STATE_INPUT, lambda p: p[0] ** 2, label="x^2")
    assert is_control_independent(free, sl, Sampled(200, seed=1)).independent


def test_sampled_ci_on_sequences(f3):
    head = Observable(
        DomainTag.STATE_SEQUENCE,
        lambda p: 1.0 if p[1].at(0) == "a" else 0.0,
        label="head",
    )
    report = is_control_independent(head, f3, Sampled(100, seed=2))
    assert not report.independent

    blind = Observable(DomainTag.STATE_SEQUENCE, lambda p: complex(p[0]), label="x")
    assert is_control_independent(blind, f3, Sampled(100, seed=2)).independent


def _nan_under_a():
    """NaN under input ``a``, 0 under ``b``: the two inputs do not agree."""
    return Observable(
        DomainTag.STATE_INPUT,
        lambda p: float("nan") if p[1] == "a" else 0.0,
        label="nan-under-a",
    )


@pytest.mark.parametrize("mode", [Exhaustive(), Sampled(20, 0)])
def test_nan_difference_is_not_agreement(f3, mode):
    report = is_control_independent(_nan_under_a(), f3, mode)
    assert not report.independent
    x, u1, u2 = report.witness
    assert {u1, u2} == {"a", "b"}


def test_exhaustive_ci_refuses_infinite_domains(sl):
    f = Observable(DomainTag.STATE_INPUT, lambda p: complex(p[0]), label="x")
    with pytest.raises(Exception):
        is_control_independent(f, sl, Exhaustive())


def test_certify_stamps_and_state_component(f3):
    lifted = Observable(DomainTag.STATE_INPUT, lambda p: complex(p[0] * p[0]), label="x^2")
    certified = certify_control_independent(lifted, f3)
    assert certified.ci_input is not None
    part = state_component(certified)
    assert part.domain is DomainTag.STATE_ONLY
    assert part(2) == 4.0


def test_certify_rejects_dependent_observable(f3):
    with pytest.raises(ContractError):
        certify_control_independent(_weighted(f3), f3)


def test_state_component_requires_certificate(f3):
    lifted = Observable(DomainTag.STATE_INPUT, lambda p: complex(p[0]), label="x")
    with pytest.raises(ContractError):
        state_component(lifted)


def test_linear_combine_propagates_uniform_stamp(f3):
    a = certify_control_independent(
        Observable(DomainTag.STATE_INPUT, lambda p: complex(p[0]), label="x"), f3
    )
    b = certify_control_independent(
        Observable(DomainTag.STATE_INPUT, lambda p: complex(1), label="1"), f3
    )
    combo = linear_combine([1.0, 2.0], [a, b])
    assert combo.ci_input == a.ci_input
    bare = Observable(DomainTag.STATE_INPUT, lambda p: complex(p[0]), label="x")
    assert linear_combine([1.0, 1.0], [a, bare]).ci_input is None


@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False), min_size=1, max_size=4))
def test_linear_combine_is_pointwise_linear(coeffs):
    basis = [indicator(j % 3) for j in range(len(coeffs))]
    combo = linear_combine(coeffs, basis)
    for x in (0, 1, 2):
        expected = sum(c * b(x) for c, b in zip(coeffs, basis))
        assert combo(x) == pytest.approx(expected)
