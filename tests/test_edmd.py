import re
from dataclasses import replace

import numpy as np
import pytest

from koopcontrol import (
    ControlSystem,
    Dictionary,
    DomainError,
    DomainMismatchError,
    DomainTag,
    ExhaustiveFinite,
    FiniteStates,
    GridOnBox,
    InputSequence,
    InputSet,
    Observable,
    RealBox,
    TrainingSet,
    UniformRandom,
    apply,
    builtin_system,
    collect_data,
    dictionary_for,
    export_model_json,
    export_training_csv,
    fit_kcf,
    import_model_json,
    import_training_csv,
    indicator_dictionary,
    k_u,
    monomial,
    kcf_word,
    monomial_dictionary,
    predict,
    prediction_error,
    simulate,
    to_matrix,
)

# lifted scalarlinear dynamics on the dictionary [1, x, x^2]:
# x -> l*x sends the lift to diag(1, l, l^2) times the lift
DIAG_A = np.diag([1.0, 0.5, 0.25])
DIAG_B = np.diag([1.0, -0.8, 0.64])


def test_monomial_dictionary_lift():
    d = monomial_dictionary(1, 2)
    assert d.dim == 3
    assert np.allclose(d.lift(np.array([0.5])), [1.0, 0.5, 0.25])


def test_monomial_dictionary_orders_by_total_degree():
    d = monomial_dictionary(2, 2)
    # degree 0, then the two linear terms, then the three quadratics
    assert d.dim == 6
    z = d.lift(np.array([2.0, 3.0]))
    assert z[0] == 1.0
    assert set(np.round(z[1:3].real, 6)) == {2.0, 3.0}


def test_indicator_dictionary_is_one_hot(f3):
    d = indicator_dictionary(f3)
    assert d.dim == 3
    assert np.array_equal(d.lift(1), np.array([0, 1, 0], complex))


def test_dictionary_for_specs(f3, sl):
    assert dictionary_for(f3, "indicator").dim == 3
    assert dictionary_for(sl, "monomial:3").dim == 4
    with pytest.raises(DomainError):
        dictionary_for(sl, "wavelet:2")


def _per_point_lift(d, xs):
    return np.column_stack([d.lift(x) for x in xs])


def _without_batching(d):
    """The same functions, hidden behind plain callables: lifted point by point."""
    return Dictionary(
        tuple(Observable(DomainTag.STATE_ONLY, lambda x, o=o: o(x), o.label)
              for o in d.observables)
    )


def test_batched_lift_is_bitwise_per_point_monomial10_1d():
    d = monomial_dictionary(1, 10)
    rng = np.random.default_rng(2024)
    xs = [np.array([v]) for v in (-1.0, 0.0, 1.0, -0.0, 1e-300, -1e-3)]
    xs += list(rng.uniform(-1.0, 1.0, size=(10_000, 1)))
    assert [o.batch.powers for o in d.observables] == [(k,) for k in range(11)]
    batch = d.lift_batch(xs)
    assert batch.shape == (11, len(xs)) and batch.dtype == complex
    assert np.array_equal(batch, _per_point_lift(d, xs))


def test_batched_lift_is_bitwise_per_point_2d_degree4():
    d = monomial_dictionary(2, 4)
    rng = np.random.default_rng(5)
    corners = [np.array(p) for p in ((-2.0, -2.0), (2.0, 0.0), (0.0, 0.0), (1.0, -1.0))]
    xs = corners + list(rng.uniform((-2.0, -0.5), (2.0, 3.0), size=(3000, 2)))
    assert np.array_equal(d.lift_batch(xs), _per_point_lift(d, xs))


def test_batched_lift_is_bitwise_per_point_single_square():
    # A lone x^2 is where a broadcast exponent rounds differently.
    d = Dictionary((monomial((2,)),))
    xs = list(np.random.default_rng(5).uniform(-1.0, 1.0, size=(2000, 1)))
    assert np.array_equal(d.lift_batch(xs), _per_point_lift(d, xs))


def test_batched_lift_falls_back_for_indicators(f3):
    d = indicator_dictionary(f3)
    xs = [0, 2, 1, 1, 0]
    assert np.array_equal(d.lift_batch(xs), _per_point_lift(d, xs))
    assert d.lift_batch([]).shape == (3, 0)


def test_lift_batch_hands_an_entry_of_the_callers_own_the_callers_list():
    seen = []
    own = Observable(DomainTag.STATE_ONLY, batch=lambda xs: seen.append(type(xs)) or [x[0] for x in xs + []])
    d = Dictionary((monomial((1,)), own))
    xs = [np.array([0.25]), np.array([-0.5])]
    assert np.array_equal(d.lift_batch(xs), [[0.25, -0.5], [0.25, -0.5]]) and d.lift(xs[0]).tolist() == [0.25, 0.25]
    assert seen == [list, list]


def test_batched_lift_rejects_wrong_state_dimension():
    d = monomial_dictionary(2, 2)
    with pytest.raises(DomainError):
        d.lift_batch([np.array([0.1, 0.2]), np.array([0.3])])
    with pytest.raises(DomainError):
        d.lift_batch([np.array([0.1, 0.2, 0.3])])


def test_fit_equals_fit_from_per_point_lifts(sl, lg):
    plane = ControlSystem(
        RealBox((-1.0, -1.0), (1.0, 1.0)),
        InputSet(("p", "q")),
        lambda x, u: np.array([0.5 * x[0], x[0] * x[1]]) if u == "p" else x[::-1] * 0.9,
    )
    cases = [(sl, monomial_dictionary(1, 10)), (lg, monomial_dictionary(1, 4)),
             (plane, monomial_dictionary(2, 3))]
    for system, d in cases:
        data = collect_data(system, UniformRandom(400, seed=13))
        model, report = fit_kcf(d, data)
        slow_model, slow_report = fit_kcf(_without_batching(d), data)
        for u in model.matrices:
            assert np.array_equal(model.matrices[u], slow_model.matrices[u])
        assert report.residuals == slow_report.residuals


def test_prediction_error_equals_per_point_lifts(sl):
    d = monomial_dictionary(1, 10)
    model, _ = fit_kcf(d, collect_data(sl, UniformRandom(300, seed=8)))
    seq = InputSequence(("b",), ("a", "b"))
    errs = prediction_error(model, d, sl, 0.9, seq, 50)
    preds = predict(model, d, 0.9, seq, 50)
    xs = simulate(sl, 0.9, seq, 50)
    slow = [float(np.max(np.abs(z - d.lift(x)))) for z, x in zip(preds, xs)]
    assert np.array_equal(errs, np.array(slow))


def test_collect_data_exhaustive(f3):
    data = collect_data(f3, ExhaustiveFinite())
    assert len(data.triples) == 6
    assert data.input_labels == ("a", "b")
    for x, u, y in data.triples:
        assert y == ((x + 1) % 3 if u == "a" else (2 * x) % 3)


def test_collect_data_uniform_is_seeded(sl):
    one = collect_data(sl, UniformRandom(20, seed=4))
    two = collect_data(sl, UniformRandom(20, seed=4))
    for (x1, u1, y1), (x2, u2, y2) in zip(one.triples, two.triples):
        assert u1 == u2 and np.array_equal(x1, x2) and np.array_equal(y1, y2)


def test_collect_data_grid(sl):
    data = collect_data(sl, GridOnBox(5))
    assert len(data.triples) == 5 * 2  # 5 grid points, both inputs each


@pytest.mark.parametrize("on_grid", [True, False])
@pytest.mark.parametrize("name", ["scalarlinear", "logistic-with-offset"])
def test_collect_data_gives_the_same_triples_without_transition_batch(name, on_grid):
    sys = builtin_system(name)
    assert sys.transition_batch is not None
    sampler = GridOnBox(300) if on_grid else UniformRandom(300, seed=5)
    bits = lambda data: [(x.tobytes(), u, y.shape, y.tobytes()) for x, u, y in data.triples]
    batched = collect_data(sys, sampler)
    looped = collect_data(replace(sys, transition_batch=None), sampler)
    assert bits(batched) == bits(looped)


def test_fit_recovers_scalarlinear_diagonals(sl):
    d = monomial_dictionary(1, 2)
    model, report = fit_kcf(d, collect_data(sl, UniformRandom(300, seed=8)))
    assert np.allclose(model.matrices["a"], DIAG_A, atol=1e-8)
    assert np.allclose(model.matrices["b"], DIAG_B, atol=1e-8)
    assert all(res < 1e-16 for res in report.residuals.values())
    assert not any(report.rank_deficient.values())


def test_fit_recovers_degree_14_diagonals(sl):
    d = monomial_dictionary(1, 14)
    model, report = fit_kcf(d, collect_data(sl, UniformRandom(5000, seed=7)))
    for u, lam in (("a", 0.5), ("b", -0.8)):
        want = np.diag([lam**k for k in range(15)])
        assert np.max(np.abs(model.matrices[u] - want)) <= 1e-10
    assert not any(report.rank_deficient.values())


@pytest.mark.parametrize(
    "extra, degree, n_samples",
    [
        (monomial((1,)), 2, 300),  # a repeated entry: rank 3 of 4
        # full rank, but singular values ~8 orders of magnitude apart
        (Observable(DomainTag.STATE_ONLY, lambda x: 1e-8 * x[0] ** 2, label="tiny"), 1, 300),
        (None, 5, 3),  # fewer samples than entries
    ],
    ids=["repeated-entry", "badly-scaled-entry", "too-few-samples"],
)
def test_rank_flag_fires(sl, extra, degree, n_samples):
    entries = monomial_dictionary(1, degree).observables
    d = Dictionary(entries + ((extra,) if extra else ()))
    _, report = fit_kcf(d, collect_data(sl, UniformRandom(n_samples, seed=8)))
    assert report.counts == {"a": n_samples, "b": n_samples}
    assert report.rank_deficient == {"a": True, "b": True}


def test_fit_on_finite_indicators_matches_operator_matrices(f3):
    d = indicator_dictionary(f3)
    model, report = fit_kcf(d, collect_data(f3, ExhaustiveFinite()))
    for u in ("a", "b"):
        expected = to_matrix(k_u(f3, u), f3).T
        assert np.allclose(model.matrices[u], expected, atol=1e-10)
    assert all(res < 1e-20 for res in report.residuals.values())


@pytest.mark.parametrize("name", ["float labels parsed again", "numpy integer labels"])
def test_a_label_equal_to_an_input_label_falls_in_its_slice(name, lg):
    """Triple labels that are ``==`` to an input label but other objects fit
    that label's slice, as ``per_input`` groups them: one matrix per input
    label, from every sample, and none missing."""
    if name == "numpy integer labels":
        sys = ControlSystem(FiniteStates((0, 1, 2)), InputSet((0, 1)), lambda x, u: (x + u) % 3)
        d, data, twin = indicator_dictionary(sys), collect_data(sys, ExhaustiveFinite()), np.int64
    else:
        d, data, twin = monomial_dictionary(1, 2), collect_data(lg, UniformRandom(40, seed=5)), lambda u: float(repr(u))
    twins = TrainingSet(tuple((x, twin(u), y) for x, u, y in data.triples), data.input_labels)
    assert all(u is not v for (_, u, _), (_, v, _) in zip(data.triples, twins.triples))
    (model, report), (twin_model, twin_report) = fit_kcf(d, data), fit_kcf(d, twins)
    assert list(twin_model.matrices) == list(data.input_labels) and twin_report.missing_inputs == ()
    assert twin_report.counts == report.counts == {u: len(data.triples) // len(data.input_labels) for u in data.input_labels}
    for u in data.input_labels:
        assert np.array_equal(twin_model.matrices[u], model.matrices[u])


def test_residual_is_attained_objective(lg):
    d = monomial_dictionary(1, 2)
    data = collect_data(lg, UniformRandom(100, seed=5))
    model, report = fit_kcf(d, data)
    for u, pairs in data.per_input().items():
        phi0 = np.column_stack([d.lift(x) for x, _ in pairs])
        phi1 = np.column_stack([d.lift(y) for _, y in pairs])
        manual = np.sum(np.abs(phi1 - model.matrices[u] @ phi0) ** 2) / len(pairs)
        assert report.residuals[u] == pytest.approx(manual, rel=1e-12)


def test_refit_on_own_output_is_stable(sl):
    d = monomial_dictionary(1, 2)
    data = collect_data(sl, UniformRandom(200, seed=2))
    model1, _ = fit_kcf(d, data)
    model2, _ = fit_kcf(d, data)
    for u in model1.matrices:
        assert np.array_equal(model1.matrices[u], model2.matrices[u])


def test_predict_oracle_x_component(sl):
    d = monomial_dictionary(1, 2)
    model, _ = fit_kcf(d, collect_data(sl, UniformRandom(300, seed=8)))
    seq = InputSequence(("a", "b", "a"), ("a",))
    zs = predict(model, d, np.array([1.0]), seq, 3)
    xs = [float(z[1].real) for z in zs]
    assert xs == pytest.approx([1.0, 0.5, -0.4, -0.2], abs=1e-8)


def test_predict_rejects_missing_label(sl):
    d = monomial_dictionary(1, 2)
    triples = tuple(
        (np.array([x]), "a", np.array([0.5 * x])) for x in np.linspace(-1, 1, 9)
    )
    data = TrainingSet(triples, input_labels=("a", "b"))
    model, report = fit_kcf(d, data)
    assert report.missing_inputs == ("b",)
    with pytest.raises(DomainError):
        predict(model, d, np.array([0.3]), InputSequence.constant("b"), 1)


def test_predict_rejects_wrong_dictionary(sl):
    d2 = monomial_dictionary(1, 2)
    d3 = monomial_dictionary(1, 3)
    model, _ = fit_kcf(d2, collect_data(sl, UniformRandom(50, seed=1)))
    with pytest.raises(DomainMismatchError):
        predict(model, d3, np.array([0.1]), InputSequence.constant("a"), 1)


def test_predict_rejects_negative_horizon(sl):
    d = monomial_dictionary(1, 2)
    model, _ = fit_kcf(d, collect_data(sl, UniformRandom(50, seed=1)))
    with pytest.raises(ValueError):
        predict(model, d, np.array([0.1]), InputSequence.constant("a"), -1)


def test_prediction_error_small_along_trajectory(sl):
    d = monomial_dictionary(1, 2)
    model, _ = fit_kcf(d, collect_data(sl, UniformRandom(300, seed=8)))
    seq = InputSequence(("b",), ("a", "b"))
    errs = prediction_error(model, d, sl, 0.9, seq, 20)
    assert errs.shape == (21,)
    assert errs[0] == 0.0
    assert float(errs.max()) <= 1e-8


def test_finite_prediction_matches_word_tabulation(f3):
    d = indicator_dictionary(f3)
    model, _ = fit_kcf(d, collect_data(f3, ExhaustiveFinite()))
    word = ("a", "b", "b")
    seq = InputSequence(word, ("a",))
    for x0 in (0, 1, 2):
        z = predict(model, d, x0, seq, len(word))[-1]
        for i, obs in enumerate(d.observables):
            reference = apply(kcf_word(f3, word), obs)(x0)
            assert abs(z[i] - reference) <= 1e-10


def test_rowwise_residuals_non_increasing_on_shared_rows(lg):
    """Adding dictionary entries cannot hurt the rows both fits share.

    Monomial dictionaries are nested by degree and keep entry order, so
    each row of the smaller fit reappears in the larger one with a
    richer feature set but the same target.
    """
    data = collect_data(lg, UniformRandom(250, seed=6))
    per_degree = {}
    for degree in (1, 2, 3):
        d = monomial_dictionary(1, degree)
        model, _ = fit_kcf(d, data)
        rows = {}
        for u, pairs in data.per_input().items():
            phi0 = np.column_stack([d.lift(x) for x, _ in pairs])
            phi1 = np.column_stack([d.lift(y) for _, y in pairs])
            gap = np.abs(phi1 - model.matrices[u] @ phi0) ** 2
            rows[u] = gap.sum(axis=1) / len(pairs)
        per_degree[degree] = rows
    for small, large in ((1, 2), (2, 3)):
        shared = monomial_dictionary(1, small).dim
        for u in per_degree[small]:
            lo = per_degree[large][u][:shared]
            hi = per_degree[small][u]
            assert np.all(lo <= hi + 1e-12)


def test_training_csv_roundtrip_box(tmp_path, sl):
    data = collect_data(sl, UniformRandom(12, seed=3))
    path = tmp_path / "train.csv"
    export_training_csv(data, path)
    back = import_training_csv(path, sl)
    assert back.input_labels == data.input_labels
    for (x1, u1, y1), (x2, u2, y2) in zip(data.triples, back.triples):
        assert u1 == u2
        assert np.allclose(x1, x2, atol=0)
        assert np.allclose(y1, y2, atol=0)
    # the re-imported set fits to the same bits as the collected one
    d = monomial_dictionary(1, 4)
    (model, report), (again, report_again) = fit_kcf(d, data), fit_kcf(d, back)
    for u in model.matrices:
        assert np.array_equal(model.matrices[u], again.matrices[u])
    assert report.residuals == report_again.residuals


@pytest.mark.parametrize(
    "row", ["0.5,a", "0.5,a,0.25,7", "5,a,2.5", "abc,a,0.1"],
    ids=["too-few-fields", "too-many-fields", "state-outside-the-box", "not-a-number"],
)
def test_import_training_csv_rejects_malformed_rows(tmp_path, sl, row):
    path = tmp_path / "train.csv"
    path.write_text(f"x0,u,y0\r\n0.5,a,0.25\r\n{row}\r\n")
    with pytest.raises(DomainError, match=re.escape(f"{path} line 3: ")):
        import_training_csv(path, sl)


def _counted(sys):
    """``sys`` with its per-point and batch transition calls counted."""
    calls = {"point": 0, "batch": 0}

    def transition(x, u):
        calls["point"] += 1
        return sys.transition(x, u)

    def transition_batch(xs, u):
        calls["batch"] += 1
        return sys.transition_batch(xs, u)

    return replace(sys, transition=transition, transition_batch=transition_batch), calls


def test_identification_work_is_pinned(sl):
    """Collecting 5000 states steps one batch per input; a 200-step
    prediction steps its trajectory once, state by state."""
    counted, calls = _counted(sl)
    d = monomial_dictionary(1, 10)
    model, _ = fit_kcf(d, collect_data(counted, UniformRandom(5000, seed=7)))
    assert calls == {"point": 0, "batch": 2}
    calls.update(point=0, batch=0)
    prediction_error(model, d, counted, np.array([0.3]), InputSequence((), ("a", "b", "b")), 200)
    assert calls == {"point": 200, "batch": 0}


def test_training_csv_roundtrip_finite(tmp_path, f3):
    data = collect_data(f3, ExhaustiveFinite())
    path = tmp_path / "train.csv"
    export_training_csv(data, path)
    back = import_training_csv(path, f3)
    assert back.triples == data.triples


def _row_by_row_csv(data, path):
    """The per-row ``csv.writer`` export that the one-block writer must match."""
    import csv

    def fields(x):
        return [f"{v:.17g}" for v in x] if isinstance(x, np.ndarray) else [str(x)]

    x0 = data.triples[0][0]
    d = x0.size if isinstance(x0, np.ndarray) else 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(d)] + ["u"] + [f"y{i}" for i in range(d)])
        for x, u, y in data.triples:
            writer.writerow(fields(x) + [str(u)] + fields(y))


def _quoted_labels_box():
    """A 2-D box whose input labels need csv quoting."""
    return ControlSystem(
        RealBox((-1.0, -1.0), (1.0, 1.0)),
        InputSet(("a,b", 'say "hi"', " c")),
        lambda x, u: -x / 3,
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda f3, sl: collect_data(sl, UniformRandom(1500, seed=11)),  # spans 3 blocks
        lambda f3, sl: collect_data(f3, UniformRandom(40, seed=2)),
        lambda f3, sl: collect_data(_quoted_labels_box(), UniformRandom(30, seed=5)),
        lambda f3, sl: TrainingSet(
            ((np.array([np.nan, -0.0]), "a", np.array([np.inf, 1e-300])),), input_labels=("a",)
        ),
    ],
    ids=["scalarlinear", "finite3", "quoted-labels", "non-finite"],
)
def test_training_csv_matches_row_by_row_writer(tmp_path, f3, sl, make):
    data = make(f3, sl)
    export_training_csv(data, tmp_path / "block.csv")
    _row_by_row_csv(data, tmp_path / "rows.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_model_json_roundtrip(tmp_path, sl):
    d = monomial_dictionary(1, 2)
    model, report = fit_kcf(d, collect_data(sl, UniformRandom(40, seed=9)))
    path = tmp_path / "model.json"
    export_model_json(model, path, report)
    back = import_model_json(path, d, sl)
    for u in model.matrices:
        assert np.allclose(back.matrices[u], model.matrices[u], atol=0)


def test_model_json_is_sorted_and_timestamp_free(tmp_path, sl):
    d = monomial_dictionary(1, 2)
    model, report = fit_kcf(d, collect_data(sl, UniformRandom(40, seed=9)))
    path = tmp_path / "model.json"
    export_model_json(model, path, report)
    text = path.read_text()
    assert '"time' not in text and '"date' not in text
    export_model_json(model, tmp_path / "model2.json", report)
    assert text == (tmp_path / "model2.json").read_text()
