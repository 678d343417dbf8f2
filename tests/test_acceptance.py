"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test is self-contained and names the artifact-level guarantee it
pins down.  Criterion 7 asserts that the full-dictionary training
residual is non-increasing under dictionary growth; see the README for
the measured behavior of that quantity.
"""

import itertools
import time

import numpy as np
import pytest

from koopcontrol import (
    BUILTIN_SYSTEMS,
    ControlSystem,
    DomainMismatchError,
    DomainTag,
    FiniteStates,
    InputSet,
    Observable,
    SamplePlan,
    UniformRandom,
    WellDefinednessReason,
    apply,
    builtin_system,
    ci_isomorphisms,
    collect_data,
    constant_one,
    coordinate,
    exact_plan,
    fit_kcf,
    indicator,
    indicator_dictionary,
    input_aug_well_definedness,
    k_inf,
    k_naive,
    kcf_word,
    monomial,
    monomial_dictionary,
    pair_indicator,
    power,
    predict,
    prediction_error,
    random_sequence,
    results_to_json,
    run_all,
    simulate,
    two_step_discrepancy_witness,
)

SAMPLED_PLAN = SamplePlan(
    n_points=1000,
    n_functions=50,
    rng_seed=7,
    tolerance=1e-12,
)


def test_criterion_1_exact_identity_suite_on_finite_systems():
    """All 20 checks pass with zero error in under 5 seconds: exhaustive over
    every state and (state, input) pair, with input sequences sampled."""
    start = time.perf_counter()
    for name in ("finite3", "collapse2"):
        summary = run_all(builtin_system(name), exact_plan())
        assert len(summary.results) == 20, name
        assert summary.all_passed, name
        for r in summary.results:
            assert r.max_abs_error == 0.0, (name, r.id, r.max_abs_error)
    assert time.perf_counter() - start < 5.0


def test_criterion_2_sampled_identity_suite_on_box_systems():
    """All applicable checks pass at 1e-12 on both box systems in under 30 s."""
    start = time.perf_counter()
    for name in ("scalarlinear", "logistic-with-offset"):
        summary = run_all(builtin_system(name), SAMPLED_PLAN)
        assert len(summary.results) == 19, name  # C19 needs finite states
        for r in summary.results:
            assert r.passed, (name, r.id, r.max_abs_error, r.counterexample)
    assert time.perf_counter() - start < 30.0


def test_criterion_3_negative_results_reproduced():
    """The documented failure modes occur, deterministically."""
    f3 = builtin_system("finite3")

    # (i) the naive operator lands outside its own domain of definition
    op = k_naive(f3)
    once = apply(op, indicator(0))
    with pytest.raises(DomainMismatchError):
        apply(op, once)

    # (ii) input-as-state is ill defined under an input-sensitive probe,
    # and trivially fine when there is only one input
    probes = [pair_indicator(x, u) for x in (0, 1, 2) for u in ("a", "b")]
    report = input_aug_well_definedness(f3, probes)
    assert report.reason is WellDefinednessReason.WITNESS_FOUND
    label, x, u, u1, u2, v1, v2 = report.witness
    assert abs(v1 - v2) > 1e-12

    single = ControlSystem(
        f3.states, InputSet(("a",)), f3.transition, name="one-input"
    )
    solo = input_aug_well_definedness(single, probes[:1])
    assert solo.reason is WellDefinednessReason.SINGLETON_INPUT

    # (iii) freezing the input agrees for one step but not two
    witness = two_step_discrepancy_witness(f3)
    assert witness is not None
    assert len(witness.word) == 2
    assert abs(witness.value_power - witness.value_word) > 1e-12


def _state_probes(sys):
    if isinstance(sys.states, FiniteStates):
        return [indicator(x) for x in sys.states.labels]
    probes = [constant_one(DomainTag.STATE_ONLY), coordinate(0)]
    probes.append(monomial(tuple([2] + [0] * (sys.states.dimension - 1))))
    return probes


def _random_state(sys, rng):
    if isinstance(sys.states, FiniteStates):
        labels = sys.states.labels
        return labels[int(rng.integers(len(labels)))]
    return rng.uniform(np.asarray(sys.states.lower), np.asarray(sys.states.upper))


@pytest.mark.parametrize("name", sorted(BUILTIN_SYSTEMS))
def test_criterion_4_three_trajectory_encodings_agree(name):
    """simulate, input-word application, and sequence-operator powers match."""
    sys = builtin_system(name)
    iso = ci_isomorphisms(sys)
    kin = k_inf(sys)
    probes = _state_probes(sys)
    rng = np.random.default_rng(40)
    for trial in range(200):
        x0 = _random_state(sys, rng)
        seq = random_sequence(rng, sys.inputs.labels, prefix_max=4, period_max=3)
        k = int(rng.integers(0, 11))
        f = probes[trial % len(probes)]

        truth = f(simulate(sys, x0, seq, k)[-1])
        word = [seq.at(j) for j in range(k)]
        via_word = apply(kcf_word(sys, word), f)(x0)
        lifted = apply(iso.extend_aug_to_seq, apply(iso.extend_state_to_aug, f))
        via_power = apply(power(kin, k), lifted)((x0, seq))

        assert abs(via_word - truth) <= 1e-12, (name, trial)
        assert abs(via_power - truth) <= 1e-12, (name, trial)


def test_criterion_5_edmd_recovers_scalarlinear_exactly():
    """Fitted lifted matrices match diag(1, l, l^2) and predict 20 steps."""
    sys = builtin_system("scalarlinear")
    d = monomial_dictionary(1, 2)
    model, _ = fit_kcf(d, collect_data(sys, UniformRandom(400, seed=12)))
    assert np.allclose(model.matrices["a"], np.diag([1.0, 0.5, 0.25]), atol=1e-8)
    assert np.allclose(model.matrices["b"], np.diag([1.0, -0.8, 0.64]), atol=1e-8)

    from koopcontrol import InputSequence

    seq = InputSequence(("a", "b", "b", "a"), ("b", "a"))
    errs = prediction_error(model, d, sys, 0.9, seq, 20)
    assert float(errs.max()) <= 1e-8


def test_criterion_6_matrix_prediction_equals_word_tabulation():
    """On finite3 with indicators, data-driven k-step prediction is exact."""
    sys = builtin_system("finite3")
    d = indicator_dictionary(sys)
    from koopcontrol import ExhaustiveFinite, InputSequence

    model, _ = fit_kcf(d, collect_data(sys, ExhaustiveFinite()))
    for length in range(5):
        for word in itertools.product(("a", "b"), repeat=length):
            op = kcf_word(sys, word)
            seq = InputSequence(word, ("a",))
            for x0 in (0, 1, 2):
                z = predict(model, d, x0, seq, length)[-1]
                for i, obs in enumerate(d.observables):
                    reference = apply(op, obs)(x0)
                    assert abs(z[i] - reference) <= 1e-10, (word, x0, i)


def test_criterion_7_training_residual_non_increasing_in_degree():
    """Per-input full-dictionary residuals for degrees 1 -> 2 -> 3."""
    sys = builtin_system("logistic-with-offset")
    data = collect_data(sys, UniformRandom(250, seed=42))
    assert len(data.triples) == 500  # fixed training set, both inputs per state
    residuals = {}
    for degree in (1, 2, 3):
        d = monomial_dictionary(1, degree)
        _, report = fit_kcf(d, data)
        residuals[degree] = report.residuals
    for u in data.input_labels:
        seq = [residuals[deg][u] for deg in (1, 2, 3)]
        assert seq[1] <= seq[0] + 1e-12 and seq[2] <= seq[1] + 1e-12, (
            f"input {u!r}: residuals by degree {seq}"
        )


def test_criterion_8_sampled_reports_are_byte_identical():
    """Re-running the sampled suite with the same seed reproduces the JSON."""
    for name in ("scalarlinear", "logistic-with-offset"):
        one = results_to_json(run_all(builtin_system(name), SAMPLED_PLAN).results)
        two = results_to_json(run_all(builtin_system(name), SAMPLED_PLAN).results)
        assert one.encode() == two.encode(), name
