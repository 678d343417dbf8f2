import itertools
import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from koopcontrol import (
    ContractError,
    ControlSystem,
    DomainTag,
    FiniteStates,
    InputSequence,
    InputSet,
    Observable,
    RealBox,
    SamplePlan,
    UnsupportedError,
    apply,
    builtin_system,
    check_ids,
    ci_isomorphisms,
    describe_check,
    exact_plan,
    indicator,
    is_applicable,
    k_aug,
    k_inf,
    k_u,
    kcf_word,
    pair_indicator,
    power,
    results_to_json,
    results_to_text,
    run_all,
    run_check,
    sampled_plan,
    simulate,
    state_component,
    state_distance,
    step,
)
from koopcontrol import checks


def test_registry_lists_twenty_checks():
    ids = check_ids()
    assert ids == [f"C{i}" for i in range(1, 21)]
    for cid in ids:
        assert describe_check(cid)


def test_describe_unknown_id_raises():
    with pytest.raises(ValueError):
        describe_check("C21")


def test_plan_validation():
    with pytest.raises(ValueError):
        SamplePlan(n_points=0)
    with pytest.raises(ValueError):
        SamplePlan(tolerance=-1.0)
    with pytest.raises(ValueError, match="tolerance must be a nonnegative number"):
        SamplePlan(tolerance=float("nan"))
    with pytest.raises(ValueError, match="tolerance must be a nonnegative number and finite"):
        SamplePlan(tolerance=float("inf"))


def test_exact_suite_passes_on_finite3(f3):
    summary = run_all(f3, exact_plan())
    assert summary.n_fail == 0
    assert len(summary.results) == 20
    assert all(r.max_abs_error == 0.0 for r in summary.results)
    assert all(r.counterexample is None for r in summary.results)


def test_sampled_suite_passes_on_box(sl):
    summary = run_all(sl, sampled_plan(seed=3, n_points=150, n_functions=8))
    assert summary.all_passed
    # C19 needs finite states, so one fewer check runs here
    assert len(summary.results) == 19


def test_c19_not_applicable_on_box(sl):
    assert not is_applicable("C19", sl)
    with pytest.raises(UnsupportedError):
        run_check("C19", sl, sampled_plan(seed=0, n_points=10, n_functions=2))


def test_zero_tolerance_reserved_for_finite(sl):
    with pytest.raises(ValueError):
        run_check("C1", sl, exact_plan())


def test_result_is_independent_of_subset(f3):
    plan = exact_plan(seed=11)
    alone = run_check("C14", f3, plan)
    within = {r.id: r for r in run_all(f3, plan).results}["C14"]
    assert alone == within


def test_run_all_subset(f3):
    summary = run_all(f3, exact_plan(), only=["C4", "C1"])
    assert [r.id for r in summary.results] == ["C4", "C1"]


def test_two_step_and_witness_notes_present(f3):
    by_id = {r.id: r for r in run_all(f3, exact_plan()).results}
    assert "diverge" in by_id["C16"].note
    assert "witness" in by_id["C19"].note


def test_c16_note_agrees_with_its_result(f3):
    c16 = run_check("C16", f3, exact_plan(seed=7))
    assert c16.passed and c16.note.startswith("two steps diverge")
    # Here the witness search sees a corrupted call that the re-evaluation
    # does not, so C16 fails and its note must not claim a divergence.
    c16 = {r.id: r for r in run_all(_flaky_finite3(7), exact_plan(seed=7)).results}["C16"]
    assert not c16.passed
    assert c16.note.startswith("claimed two-step witness did not reproduce")
    assert "diverge" not in c16.note


def _flaky_finite3(period):
    """finite3, except every ``period``-th transition call returns state 0.

    A consistent map satisfies every identity, so breaking determinism is
    the way to force the registry to catch something.
    """
    calls = {"n": 0}

    def transition(x, u):
        calls["n"] += 1
        if calls["n"] % period == 0:
            return 0
        return (x + 1) % 3 if u == "a" else (2 * x) % 3

    return ControlSystem(
        FiniteStates((0, 1, 2)), InputSet(("a", "b")), transition, name="flaky"
    )


def test_corrupted_system_is_caught_with_counterexample():
    bad = _flaky_finite3(7)
    result = run_check("C17", bad, exact_plan())
    assert not result.passed
    assert result.max_abs_error > 0
    assert result.counterexample is not None


def test_corrupted_system_fails_somewhere_in_full_run():
    summary = run_all(_flaky_finite3(23), exact_plan())
    assert summary.n_fail > 0
    failed = [r for r in summary.results if not r.passed]
    assert all(r.counterexample is not None for r in failed)


def test_non_function_is_caught_by_trajectory_checks():
    """Demo 04's system: each leg still steps every point itself, so a
    transition that is not a function still shows in C14, C17 and C18."""
    summary = run_all(_flaky_finite3(13), exact_plan(), only=["C14", "C17", "C18"])
    assert [r.id for r in summary.results] == ["C14", "C17", "C18"]
    for r in summary.results:
        assert not r.passed, r.id
        assert r.counterexample is not None, r.id


def _noisy_box(dimension):
    """A contracting box map whose every 17th transition call is off by 1e-6."""
    calls = {"n": 0}

    def transition(x, u):
        calls["n"] += 1
        y = 0.5 * x if u == "a" else -0.8 * x[::-1]
        return y + 1e-6 if calls["n"] % 17 == 0 else y

    box = RealBox((-1.0,) * dimension, (1.0,) * dimension)
    return ControlSystem(box, InputSet(("a", "b")), transition, name=f"noisy{dimension}d")


def _c18_by_loop(sys, plan):
    """C18 as a loop over its trajectories: method by method (the simulated
    truth first), each map is iterated from every ``x0`` in lockstep, step
    ``j`` of every trajectory with ``k > j`` in list order, and
    ``kcf-composition`` grouped by input label within a step.  Each path is
    compared with the simulated one by the largest ``state_distance`` along
    it, scenario by scenario, with the registry's generator for C18."""
    rng = np.random.default_rng([plan.rng_seed, check_ids().index("C18")])
    rec = checks._Recorder(plan.tolerance)
    ts = checks._scenario_trajectories(sys, plan, rng, horizons=11)
    inf, aug, labels = k_inf(sys).precompose, k_aug(sys).precompose, list(sys.inputs.labels)

    def lockstep(move, start=lambda t: t.x0, by_input=False):
        paths = [[start(t)] for t in ts]
        for j in range(max(t.k for t in ts)):
            live = [i for i, t in enumerate(ts) if t.k > j]
            if by_input:
                live.sort(key=lambda i: labels.index(ts[i].seq.at(j)))
            for i in live:
                paths[i].append(move(paths[i][-1], ts[i].seq.at(j)))
        return paths

    truth = lockstep(lambda x, u: step(sys, x, u))
    sequences = lockstep(lambda p, u: inf(p), start=lambda t: (t.x0, t.seq))
    methods = [("infinite-sequence", [[p[0] for p in path] for path in sequences]),
               ("kcf-composition", lockstep(lambda x, u: k_u(sys, u).precompose(x), by_input=True)),
               ("augmented-stepwise", lockstep(lambda x, u: aug((x, u))[0]))]
    for i, (x0, seq, k) in enumerate(ts):
        for name, paths in methods:
            err = max(state_distance(sys.states, a, b) for a, b in zip(truth[i], paths[i]))
            rec.record(err, lambda: f"method {name}, x0={x0!r}, k={k}, seq={seq!r}")
    return rec


_BOX_PLAN = sampled_plan(seed=7, n_points=200, n_functions=10)


@pytest.mark.parametrize(
    "make, plan",
    [(lambda: _flaky_finite3(7), exact_plan(seed=7)),
     (lambda: _noisy_box(1), _BOX_PLAN),
     (lambda: _noisy_box(2), _BOX_PLAN)],
    ids=["flaky7", "noisy1d", "noisy2d"],
)
def test_c18_reports_what_the_reformulation_loop_reports(make, plan):
    """Each system is built afresh for each run, so both runs see the same
    corrupted transition calls."""
    result, rec = run_check("C18", make(), plan), _c18_by_loop(make(), plan)
    assert not result.passed
    assert (result.passed, result.max_abs_error, result.counterexample, result.n_evaluated) == (
        rec.passed, rec.max_err, rec.counterexample, rec.n
    )


def _broken_isomorphisms(which):
    """``ci_isomorphisms`` with one map that moves the state.  The extension
    to pairs steps it, or the restriction from sequences steps it and keeps
    the input as the constant sequence; both break both halves of C3.  The
    extension to sequences steps it with the head input, which only the
    extension half sees; the restriction from sequences stepping it under
    every input but the stamp input ``u0`` is seen only by the restriction
    half."""

    def broken(sys):
        iso, u0 = ci_isomorphisms(sys), sys.inputs.labels[0]
        const = InputSequence.constant
        pre = {
            "extension": lambda p: step(sys, p[0], p[1]),
            "restriction": lambda p: (step(sys, p[0], p[1]), const(p[1])),
            "sequence extension": lambda p: (step(sys, p[0], p[1].at(0)), p[1].at(0)),
            "restriction off u0": lambda p: (p[0] if p[1] == u0 else step(sys, *p), const(p[1])),
        }[which]
        field = {"extension": "extend_state_to_aug", "sequence extension": "extend_aug_to_seq"}.get(
            which, "restrict_seq_to_aug"
        )
        batch = lambda ps: [pre(p) for p in ps]
        return replace(iso, **{field: replace(getattr(iso, field), batch=batch)})

    return broken


@pytest.mark.parametrize(
    "which", ["extension", "restriction", "sequence extension", "restriction off u0"]
)
@pytest.mark.parametrize(
    "name, plan",
    [("finite3", exact_plan(seed=7)), ("scalarlinear", sampled_plan(7, n_points=200, n_functions=10))],
)
def test_c3_fails_when_an_isomorphism_moves_the_state(monkeypatch, which, name, plan):
    monkeypatch.setattr(checks, "ci_isomorphisms", _broken_isomorphisms(which))
    result = run_check("C3", builtin_system(name), plan)
    assert not result.passed
    assert result.counterexample


def _planar():
    """``x -> A(u) x`` on [-1, 1]^2, written entry by entry over the last
    axis: one function steps one state or stacked states with the same
    bits, which a BLAS matrix product does not promise."""
    gains = {"a": ((0.5, 0.3), (-0.2, 0.6)), "b": ((0.0, -0.9), (0.9, 0.0))}

    def transition(x, u):
        (a, b), (c, d) = gains[u]
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([a * x0 + b * x1, c * x0 + d * x1], axis=-1)

    box = RealBox((-1.0, -1.0), (1.0, 1.0))
    return ControlSystem(box, InputSet(tuple(gains)), transition, name="planar", transition_batch=transition)


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize(
    "make", [lambda: builtin_system("scalarlinear"), lambda: builtin_system("logistic-with-offset"), _planar],
    ids=["scalarlinear", "logistic-with-offset", "planar"],
)
def test_batched_engine_reports_what_the_point_by_point_engine_reports(make, seed):
    """A system with ``transition_batch`` steps each point list with one
    batched transition per input; without it, ``_step_many`` steps the list
    through the ``step`` loop, which is the reference."""
    sys, plan = make(), sampled_plan(seed, n_points=200, n_functions=10)
    assert sys.transition_batch is not None
    batched = results_to_json(run_all(sys, plan).results)
    assert batched == results_to_json(run_all(replace(sys, transition_batch=None), plan).results)


def _counting(sys):
    calls = {"n": 0}

    def transition(x, u):
        calls["n"] += 1
        return sys.transition(x, u)

    return ControlSystem(sys.states, sys.inputs, transition, name=sys.name), calls


class _CountingGenerator:
    """A generator whose method calls are counted in ``calls["n"]``."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self._calls["n"] += 1
            return attr(*args, **kwargs)

        return counted


def _generator_calls(monkeypatch, sys, plan) -> int:
    calls, real = {"n": 0}, np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: _CountingGenerator(real(*a, **k), calls))
    run_all(sys, plan)
    return calls["n"]


@pytest.mark.parametrize("name", ["scalarlinear", "logistic-with-offset"])
def test_a_box_run_draws_each_point_list_in_a_few_generator_calls(monkeypatch, name):
    """Box point lists are drawn as arrays: 72 generator calls per acceptance
    pass, against one per state coordinate and sequence label before
    (61,177)."""
    assert _generator_calls(monkeypatch, builtin_system(name), sampled_plan(7)) <= 100


def test_an_exact_finite3_run_makes_a_pinned_number_of_generator_calls(monkeypatch, f3):
    """Every point list is drawn as arrays on finite systems too: sequence
    points are one state draw, then the three calls of ``random_sequences``;
    horizons, words and constants are one call each.  Drawing each sequence
    point's state and sequence one at a time made 8,429 calls."""
    assert _generator_calls(monkeypatch, f3, exact_plan(seed=7)) == 29


@settings(max_examples=25, derandomize=True)
@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_coefficients_are_the_per_function_draws_bit_for_bit(n_functions, seed):
    """One ``(k, 2, m)`` uniform array gives the bits of ``k`` pairs of
    ``uniform(size=m)`` draws, real part first; the ``"c"`` constants'
    ``(k, 2)`` array gives those of ``k`` scalar pairs."""
    sys = builtin_system("logistic-with-offset")
    plan = sampled_plan(7, n_functions=n_functions)
    basis = checks._seq_basis(sys)
    drawn, by_hand = np.random.default_rng(seed), np.random.default_rng(seed)
    m = len(basis)
    old = [by_hand.uniform(-1, 1, size=m) + 1j * by_hand.uniform(-1, 1, size=m) for _ in range(n_functions)]
    assert checks._functions(sys, plan, drawn, basis).coeffs.tobytes() == np.array(old).tobytes()
    old = [complex(by_hand.uniform(-1, 1), by_hand.uniform(-1, 1)) for _ in range(min(n_functions, 8))]
    with mock.patch.object(checks, "linear_combine", lambda coeffs, basis: coeffs[0]):
        assert checks._DRAWS["c"](sys, plan, drawn) == old
    assert drawn.random() == by_hand.random()


def test_exact_run_steps_each_leg_once_per_point(f3):
    """The transition budget of a full exact run on finite3: a group maps
    each point through each distinct chain of its legs once, not once per
    (point, function) pair or once per leg.  Sequence points drawn as
    arrays give the trajectories other horizons than point-by-point draws,
    which stepped 7,072 transitions."""
    counted, calls = _counting(f3)
    run_all(counted, exact_plan(seed=7))
    assert calls["n"] == 7085


@pytest.mark.parametrize("name", ["scalarlinear", "logistic-with-offset"])
def test_batched_box_run_steps_as_many_transitions_as_the_point_by_point_run(name):
    """A full acceptance-plan run on a box steps 71,289 transitions point by
    point; with ``transition_batch`` the same transitions, counted as
    per-point calls plus batch rows, go through at most 200 batch calls."""
    base = builtin_system(name)
    counted, calls = _counting(base)
    run_all(counted, sampled_plan(7))
    assert calls["n"] == 71289
    calls["n"] = 0
    rows = {"calls": 0, "rows": 0}

    def transition_batch(X, u):
        rows["calls"] += 1
        rows["rows"] += len(X)
        return base.transition_batch(X, u)

    run_all(replace(counted, transition_batch=transition_batch), sampled_plan(7))
    assert calls["n"] + rows["rows"] == 71289
    assert rows["calls"] <= 200


@pytest.mark.parametrize("name", ["scalarlinear", "logistic-with-offset"])
def test_a_box_run_builds_few_sequence_objects(monkeypatch, name):
    """A box acceptance pass builds 5 ``InputSequence`` objects: the stamps of the three
    sequence-blind bases (C3, C6, C15) and of the two ``ci_isomorphisms`` (the run's operator set
    and C16's).  Drawn sequences, their shifts and the constants of ``R`` are interned as codes,
    and no point of a passing box run is read, so no sequence is built; drawing and shifting
    one object per row made 6,652."""
    assert _sequences_built(monkeypatch, builtin_system(name), sampled_plan(7)) == 5


def test_an_exact_finite3_run_builds_few_sequence_objects(monkeypatch, f3):
    """The same 5 stamps on finite3: the stepped states of ``K_inf`` and of the walks carry their state
    codes, so their sequences stay ids too; built eagerly, they made 342."""
    assert _sequences_built(monkeypatch, f3, exact_plan(seed=7)) == 5


def _sequences_built(monkeypatch, sys, plan) -> int:
    """The ``InputSequence`` constructions of one ``run_all``."""
    calls, init = {"n": 0}, InputSequence.__init__

    def counted(self, prefix, period):
        calls["n"] += 1
        init(self, prefix, period)

    monkeypatch.setattr(InputSequence, "__init__", counted)
    run_all(sys, plan)
    return calls["n"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "make",
    [
        lambda: builtin_system("scalarlinear"),
        lambda: builtin_system("logistic-with-offset"),
        _planar,
        lambda: _noisy_box(1),
        lambda: _noisy_box(2),
        lambda: _overflowing_box(),
    ],
    ids=["scalarlinear", "logistic-with-offset", "planar", "noisy1d", "noisy2d", "overflowing"],
)
@settings(max_examples=5, derandomize=True)
@example(n_points=7, n_functions=60, tolerance=1e-300)
@given(st.integers(1, 60), st.integers(1, 60), st.sampled_from([1e-12, 1e-300]))
def test_basis_rows_report_what_per_subject_reads_report(make, n_points, n_functions, tolerance):
    """On boxes each basis function is read once over a mapped point list
    and combined per point; handed the same combinations as a plain list of
    observables, the engine reads each combination at every point through
    the combination's own batch and keeps, at each point, the value of that
    point's subject, which is the reference.  The noisy boxes (stepped point
    by point, without a ``transition_batch``) and the overflowing box fail
    checks, so discrepancies that depend on each point's coefficients and
    the counterexample text are compared too; each run builds its system
    afresh, so both see the same corrupted transition calls."""
    sys, plan = make(), sampled_plan(3, n_points=n_points, n_functions=n_functions, tolerance=tolerance)
    drawn = checks._functions(sys, plan, np.random.default_rng(0), checks._state_basis(sys))
    assert isinstance(drawn, checks._Combinations)
    rows = results_to_json(run_all(sys, plan).results)
    plain = checks._functions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "_functions", lambda *args: list(plain(*args)))
        assert rows == results_to_json(run_all(make(), plan).results)


@pytest.mark.parametrize("make", [lambda: builtin_system("scalarlinear"), _planar], ids=["scalarlinear", "planar"])
def test_a_cross_group_reads_each_combination_at_every_point(make):
    """No registry row crosses random combinations with points, but a
    ``cross`` group over them reads combination ``j`` at every point,
    subject-major, as it reads the same combinations handed as a plain list:
    same discrepancies, count and counterexample, never a basis function
    standing in for a subject."""
    sys, plan = make(), sampled_plan(5, n_points=9, n_functions=4, tolerance=1e-300)
    group = checks._Group("u", "x", "fx", ("{f} at {p}, input {u}", "K_u", ""), cross=True)
    run = lambda: checks._run_table(sys, plan, np.random.default_rng(1), ("x", "fx"), (group,))
    rows = run()
    assert rows.n == 2 * 4 * 9 and not rows.passed
    plain = checks._functions
    with mock.patch.object(checks, "_functions", lambda *args: list(plain(*args))):
        listed = run()
    assert (rows.n, rows.max_err, rows.counterexample) == (listed.n, listed.max_err, listed.counterexample)


def test_a_passing_box_pass_builds_few_combinations(monkeypatch):
    """A box pass reads the basis functions and sums each point with its
    coefficient row, building a combination only for ``apply``'s checks and
    a counterexample's label: at most 100 ``linear_combine`` calls per
    passing ``sampled_plan(7)`` pass on scalarlinear, where building every
    drawn combination made 708."""
    calls, combine = {"n": 0}, checks.linear_combine

    def counted(*args):
        calls["n"] += 1
        return combine(*args)

    monkeypatch.setattr(checks, "linear_combine", counted)
    assert run_all(builtin_system("scalarlinear"), sampled_plan(7)).all_passed
    assert calls["n"] <= 100


def test_a_group_checks_every_products_contract_before_any_transition(f3):
    """Uncertified pair functions cannot enter ``R_ci``: the group raises
    ContractError before it steps a single point."""
    counted, calls = _counting(f3)
    group = checks._Group("", "p", "fp", ("{f} at {p}", "K_aug E_ci R_ci", "K_aug"))
    with pytest.raises(ContractError):
        checks._run_table(counted, exact_plan(), np.random.default_rng(0), ("p", "fp"), (group,))
    assert calls["n"] == 0


_TRAJECTORY_OPS = {"sim", "word", "K_inf^k", "path", "path_inf", "path_kcf", "path_aug"}


def _legs() -> list:
    """Every leg of the registry's rows and of C16's single-step group."""
    groups = [group for row in checks._REGISTRY for group in row.groups] + [checks._C16_STEP]
    return [leg for group in groups for leg in group.legs]


def _leg_chains() -> set:
    return {chain for _, lhs, rhs in _legs() for chain in (lhs, rhs)}


def _operator_chains() -> set:
    return {chain for chain in _leg_chains() if not _TRAJECTORY_OPS & set(chain.split())}


def _one_by_one(named: dict, chain: str, g):
    """Apply the operators of ``chain`` to ``g`` one at a time, rightmost first."""
    for name in reversed(chain.split()):
        g = apply(named[name], g)
    return g


def _product_or_error(named: dict, chain: str, g):
    """``apply`` of ``chain``'s product to ``g``, or the ContractError it raises
    (at ``compose`` or at ``apply``)."""
    try:
        return apply(checks._products(named, [chain])[0], g)
    except ContractError as exc:
        return exc


@pytest.mark.parametrize("name", ["finite3", "scalarlinear", "logistic-with-offset"])
def test_applied_chain_reads_the_subject_at_the_mapped_point(name):
    """For every operator-only chain in the registry's legs, ``apply`` of
    its ``compose`` product reads exactly what applying its operators one by
    one reads, with the same certification stamp, and raises ContractError
    exactly when the one-by-one application does.  The empty chain is the
    identity on its leg's other side's source domain and reads the subject
    itself.  The subjects include those C3 reads: lifted state functions on
    sequence points and restricted sequence-blind functions on pairs.  Each
    product maps a whole point list as it maps the points one by one, and
    has a ``batch`` when it steps the system."""
    sys = builtin_system(name)
    plan = sampled_plan(seed=7, n_points=40)
    rng = np.random.default_rng(7)
    points = {
        DomainTag.STATE_ONLY: checks._scenario_states(sys, plan, rng),
        DomainTag.STATE_INPUT: checks._scenario_pairs(sys, plan, rng),
        DomainTag.STATE_SEQUENCE: checks._scenario_seq_points(sys, plan, rng),
    }
    iso = ci_isomorphisms(sys)
    state_basis = checks._state_basis(sys)
    lifted = [apply(iso.extend_state_to_aug, f) for f in state_basis]
    ci_seq = checks._ci_seq_direct(sys)
    subjects = {
        DomainTag.STATE_ONLY: state_basis,
        DomainTag.STATE_INPUT: checks._aug_basis(sys)
        + lifted
        + [apply(iso.restrict_seq_to_aug, h) for h in ci_seq],
        DomainTag.STATE_SEQUENCE: checks._seq_basis(sys)
        + ci_seq
        + [apply(iso.extend_aug_to_seq, g) for g in lifted],
    }
    labels = sys.inputs.labels
    chains, checked, refused = _operator_chains(), set(), set()
    partners = {lhs or rhs for _, lhs, rhs in _legs() if "" in (lhs, rhs)}
    for u in labels:
        named = checks._named(sys, {"u": u, "u1": labels[0], "u2": labels[-1]})
        for partner in partners:
            _, ident = checks._products(named, [partner, ""])
            for g in subjects[ident.source]:
                for p in points[ident.target]:
                    assert apply(ident, g)(p) == g(p), (partner, g.label, p)
            checked.add("")
        for chain in chains - {""}:
            ops = [named[op] for op in chain.split()]
            for g in subjects[ops[-1].source]:
                try:
                    stepwise = _one_by_one(named, chain, g)
                except ContractError:
                    stepwise = None
                product = _product_or_error(named, chain, g)
                if stepwise is None:
                    assert isinstance(product, ContractError), (chain, g.label)
                    refused.add(chain)
                    continue
                assert isinstance(product, Observable), (chain, g.label, product)
                assert product.ci_input == stepwise.ci_input, (chain, g.label)
                for p in points[ops[0].target]:
                    assert product(p) == stepwise(p), (chain, g.label, p)
                checked.add(chain)
            if chain in checked:
                (op,) = checks._products(named, [chain])
                ps = points[op.target]
                assert _bits(op.batch(ps)) == _bits([op.precompose(p) for p in ps]), chain
    assert checked == chains
    assert {"E_ci_seq E_ci R_ci R_ci_seq", "E_ci R_ci"} <= checked  # C3's two halves
    assert refused  # the uncertified subjects meet the contract


def _bits(v):
    """A comparable form of a state, point or point list that tells arrays
    apart bit for bit."""
    if isinstance(v, (tuple, list, checks._Points)):
        return tuple(_bits(c) for c in v)
    return (v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v


@pytest.mark.parametrize("name", ["finite3", "scalarlinear", "logistic-with-offset"])
def test_trajectory_chains_match_the_simulator_formulas(name):
    """Every trajectory chain's product in the registry's legs maps each
    trajectory point ``(x0, seq, k)`` to the point the direct formula gives,
    every subject passes its ``apply`` checks and reads the same value
    there, bit for bit: ``simulate``, ``kcf_word`` on the first ``k``
    inputs and ``power(K_inf, k)``.  Every path operator maps a trajectory
    point to the states ``simulate`` visits, stacked on boxes.  Each
    trajectory operator's ``batch`` maps the whole point list as its
    ``precompose`` maps the points one by one."""
    sys = builtin_system(name)
    plan = exact_plan(seed=7) if name == "finite3" else sampled_plan(seed=7, n_points=40)
    rng = np.random.default_rng(7)
    points = list(checks._DRAWS["t"](sys, plan, rng)) + list(checks._DRAWS["tw"](sys, plan, rng))
    labels = sys.inputs.labels
    if name == "finite3":  # a start label and a plain float start, six steps each
        points.append(checks._Trajectory(2, InputSequence(("b",), ("a", "b")), 6))
    else:
        points.append(checks._Trajectory(0.77, InputSequence(labels[:1], labels[::-1]), 6))
    state_funcs = checks._state_basis(sys) + list(checks._functions(sys, plan, rng, checks._state_basis(sys)))
    ci_seq = checks._ci_seq_direct(sys)
    iso, kin = ci_isomorphisms(sys), k_inf(sys)
    lift = lambda f: apply(iso.extend_aug_to_seq, apply(iso.extend_state_to_aug, f))
    x_k = lambda t: simulate(sys, t.x0, t.seq, t.k)[-1]
    x_word = lambda t: kcf_word(sys, [t.seq.at(j) for j in range(t.k)]).precompose(t.x0)
    p_k = lambda t: power(kin, t.k).precompose((t.x0, t.seq))
    stack = tuple if name == "finite3" else np.array
    path = lambda t: stack(simulate(sys, t.x0, t.seq, t.k))
    formulas = {  # chain: (direct point, subjects, direct value of subject g)
        "sim": (x_k, state_funcs, lambda g, t: g(x_k(t))),
        "word": (x_word, state_funcs, lambda g, t: g(x_word(t))),
        "K_inf^k E_ci_seq E_ci": (lambda t: p_k(t)[0], state_funcs, lambda g, t: lift(g)(p_k(t))),
        "sim R_ci R_ci_seq": (
            lambda t: (x_k(t), InputSequence.constant(sys.inputs.labels[0])),
            ci_seq,
            lambda g, t: state_component(g)(x_k(t)),
        ),
        "K_inf^k": (p_k, ci_seq, lambda g, t: g(p_k(t))),
        **{chain: (path, [], None) for chain in ("path", "path_inf", "path_kcf", "path_aug")},
    }
    assert set(formulas) == _leg_chains() - _operator_chains()
    named = checks._named(sys, {})
    for op in _TRAJECTORY_OPS:
        assert _bits(named[op].batch(points)) == _bits([named[op].precompose(t) for t in points]), op
    for chain, (direct, subjects, value) in formulas.items():
        (product,) = checks._products(named, [chain])
        for g in subjects:
            apply(product, g)
        for t in points:
            q = product.precompose(t)
            assert _bits(q) == _bits(direct(t)), (chain, t)
            for g in subjects:
                assert g(q) == value(g, t), (chain, g.label, t)


@st.composite
def _tables(draw):
    """A random total transition table: 2-5 states, 1-3 inputs."""
    states = tuple(range(draw(st.integers(2, 5))))
    inputs = ("a", "b", "c")[: draw(st.integers(1, 3))]
    pairs = [(x, u) for x in states for u in inputs]
    succ = draw(st.lists(st.sampled_from(states), min_size=len(pairs), max_size=len(pairs)))
    return states, inputs, dict(zip(pairs, succ))


# Exhaustive over states and pairs; the sequence checks draw 50 points.
_FUZZ_PLAN = exact_plan(n_points=50)


def _table_system(states, inputs, transition):
    return ControlSystem(FiniteStates(states), InputSet(inputs), transition, name="fuzz")


@settings(max_examples=25)
@given(_tables())
def test_random_tables_pass_every_exact_check(table):
    states, inputs, succ = table
    summary = run_all(_table_system(states, inputs, lambda x, u: succ[(x, u)]), _FUZZ_PLAN)
    assert len(summary.results) == 20
    assert summary.all_passed
    assert all(r.max_abs_error == 0.0 for r in summary.results)


@settings(max_examples=25)
@given(_tables(), st.data())
def test_random_tables_fail_when_one_pair_alternates(table, data):
    states, inputs, succ = table
    pair = data.draw(st.sampled_from(sorted(succ)))
    other = data.draw(st.sampled_from([x for x in states if x != succ[pair]]))
    flips = itertools.cycle((succ[pair], other))

    def transition(x, u):
        return next(flips) if (x, u) == pair else succ[(x, u)]

    summary = run_all(_table_system(states, inputs, transition), _FUZZ_PLAN)
    assert summary.n_fail > 0
    assert all(r.counterexample for r in summary.results if not r.passed)


def _finite_lists(sys) -> tuple:
    """The drawn state, pair and sequence point lists of a system, each mapped through every finite
    operator: ``(state lists, pair lists, sequence point lists)``."""
    plan, rng, table = _FUZZ_PLAN, np.random.default_rng(5), checks._SeqTable(sys.inputs.labels)
    named = checks._named(sys, {"u": sys.inputs.labels[-1]})
    xs, ps = checks._scenario_states(sys, plan, rng, table), checks._scenario_pairs(sys, plan, rng, table)
    ss, ts = checks._scenario_seq_points(sys, plan, rng, table), checks._scenario_trajectories(sys, plan, rng, table)
    seqs = [ss, named["K_inf"].batch(ss), named["R"].batch(ps)]
    states = [xs, named["K_u"].batch(xs), named["E_f"].batch(ps), named["sim"].batch(ts), named["word"].batch(ts)]
    pairs = [ps, named["K_aug"].batch(ps), named["R_u"].batch(xs), named["E"].batch(ss), named["K_aug"].batch(named["E"].batch(ss))]
    return states + [s.firsts for s in seqs], pairs, seqs


def _listed(values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_tables())
def test_indicators_read_state_codes_as_their_points_compare(table):
    """Over lists mapped through the finite operators, which carry state codes,
    indicators read off the codes the bits that comparing each point gives: a
    label that is not a state or input of the list, an unhashable label, and a
    list with an unhashable point (as an array-valued transition makes, coded
    where the label tuple search finds it).  A caller's list with a point
    outside the space, coded without a system, compares each distinct state once."""
    states, inputs, succ = table
    sys = _table_system(states, inputs, lambda x, u: succ[(x, u)])
    xlabels, ulabels = list(states) + ["zz", np.array([states[0]])], list(inputs) + ["zz"]
    state_lists, pair_lists, _ = _finite_lists(sys)
    arrays = _table_system(states, inputs, lambda x, u: np.array([succ[(x, u)]]))
    outside = checks._encode(list(state_lists[0]) + [max(states) + 1], "state")
    unhashable = k_u(arrays, inputs[0]).batch(state_lists[0])
    assert all(xs.xcodes is not None for xs in state_lists + [ps.firsts for ps in pair_lists] + [unhashable])
    assert outside.xcodes is None
    for xs in state_lists + [outside, unhashable]:
        for x_star in xlabels:
            assert checks._values(indicator(x_star), xs).tobytes() == _listed([1.0 if x == x_star else 0.0 for x in xs])
    for ps in pair_lists:
        for x_star, u_star in itertools.product(xlabels, ulabels):
            expected = _listed([1.0 if (p[0] == x_star and p[1] == u_star) else 0.0 for p in ps])
            assert checks._values(pair_indicator(x_star, u_star), ps).tobytes() == expected


def test_indicators_compare_points_at_a_label_that_is_not_equal_to_itself():
    """A NaN label holds a code, yet no point is ``==`` to it, so its indicator is 0."""
    nan = float("nan")
    sys = _table_system((nan, 1.0), ("a",), lambda x, u: x)
    xs = checks._scenario_states(sys, _FUZZ_PLAN, None)
    ps = checks._scenario_pairs(sys, _FUZZ_PLAN, None)
    assert checks._values(indicator(nan), xs).tolist() == [0j, 0j]
    assert checks._values(indicator(1.0), xs).tolist() == [0j, 1 + 0j]
    assert checks._values(pair_indicator(nan, "a"), ps).tolist() == [0j, 0j]


def _read_or_error(read):
    try:
        return read().tobytes()
    except Exception as exc:  # both reads must raise alike
        return type(exc), str(exc)


def _assert_bases_read_as_their_functions(sys) -> None:
    """Each basis's reader gives the bytes of its functions read one by one and stacked (or raises
    what that raises), over the mapped lists, a caller's list coded without a system, one with a
    point outside the space, and pair and sequence lists whose first point holds an input outside
    the set."""
    state_lists, pair_lists, seq_lists = _finite_lists(sys)
    xs, ps, ss = state_lists[0], pair_lists[0], seq_lists[0]
    outside = checks._encode(list(xs) + ["zz" if isinstance(sys.states, FiniteStates) else np.array([9.0])], "state")
    coded = lambda points, kind: checks._encode(points, kind, checks._SeqTable(sys.inputs.labels))
    foreign = lambda points, p, kind: coded([p] + list(points)[1:], kind)  # the first point replaced
    pairs = pair_lists + [coded(ps, "state-input"), foreign(ps, (ps[0][0], "zz"), "state-input")]
    seqs = seq_lists + [coded(ss, "state-sequence"),
                        foreign(ss, (ss[0][0], InputSequence.constant("zz")), "state-sequence")]
    bases = checks._state_basis(sys), checks._aug_basis(sys), checks._seq_basis(sys), checks._ci_seq_direct(sys)
    for basis, lists in zip(bases, (state_lists + [outside, coded(xs, "state")], pairs, seqs, seqs)):
        for points in lists:
            stacked = _read_or_error(lambda: np.stack([checks._values(f, points) for f in basis]))
            assert _read_or_error(lambda: basis.read(points)) == stacked


@settings(max_examples=25, derandomize=True, deadline=None)
@given(_tables())
def test_each_basis_reads_as_its_functions_read_one_by_one(table):
    """A wrong reader cannot trip a row, since both sides of an identity read through it, so this
    comparison is its only check.  Bytes are compared, so a ``-0.0`` for a ``0.0`` counts."""
    states, inputs, succ = table
    _assert_bases_read_as_their_functions(_table_system(states, inputs, lambda x, u: succ[(x, u)]))


@pytest.mark.parametrize("make", [
    lambda: builtin_system("scalarlinear"),
    lambda: builtin_system("logistic-with-offset"),
    lambda: _table_system((float("nan"), 1.0), ("a", float("nan")), lambda x, u: x),
], ids=["scalarlinear", "logistic-with-offset", "nan-labels"])
def test_each_basis_reads_as_its_functions_read_one_by_one_on_boxes_and_nan_labels(make):
    """A label that is not ``==`` to itself matches no point, so its indicator's row is zeros."""
    _assert_bases_read_as_their_functions(make())


def test_one_run_builds_one_operator_set(monkeypatch, f3):
    """``run_all`` builds the stateless operator set once for every row; ``run_check`` builds
    one per call (C19 uses none)."""
    calls, build = [], checks._operator_set
    monkeypatch.setattr(checks, "_operator_set", lambda sys: calls.append(sys) or build(sys))
    run_all(f3, exact_plan(seed=7))
    assert calls == [f3]
    for cid in check_ids():
        calls.clear()
        run_check(cid, f3, exact_plan(seed=7))
        assert len(calls) == (cid != "C19"), cid


def test_json_report_is_deterministic(f3):
    a = results_to_json(run_all(f3, exact_plan(seed=5)).results)
    b = results_to_json(run_all(f3, exact_plan(seed=5)).results)
    assert a == b
    payload = json.loads(a)
    assert [entry["id"] for entry in payload] == check_ids()
    assert all(
        set(entry) == {"id", "pass", "max_abs_error", "n_evaluated", "counterexample", "note"}
        for entry in payload
    )


def test_json_report_has_no_timestamps(f3):
    text = results_to_json(run_all(f3, exact_plan()).results)
    for fragment in ("time", "date", "20"):
        # crude but effective: no clock-like fields and no year strings
        assert f'"{fragment}' not in text


def test_text_report_format(f3):
    summary = run_all(f3, exact_plan())
    text = results_to_text(summary.results)
    lines = text.strip().splitlines()
    assert lines[0].startswith("id")
    assert lines[-1] == "20/20 checks passed"
    assert sum("pass" in line for line in lines[1:-1]) == 20


def test_failed_check_shows_in_text_report():
    summary = run_all(_flaky_finite3(11), exact_plan(), only=["C17", "C18"])
    text = results_to_text(summary.results)
    assert "FAIL" in text


def test_unknown_check_id_raises(f3):
    with pytest.raises(ValueError):
        run_check("C99", f3, exact_plan())


def _overflowing_box():
    """A huge box where squared coordinates overflow, so observables read inf/NaN."""
    return ControlSystem(
        RealBox((-1e200,), (1e200,)),
        InputSet(("a", "b")),
        lambda x, u: x / 2 if u == "a" else -x / 2,
        name="huge",
    )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_discrepancy_fails_with_counterexample():
    summary = run_all(_overflowing_box(), sampled_plan(seed=7, n_points=100, n_functions=5))
    by_id = {r.id: r for r in summary.results}
    for cid in ("C2", "C5", "C12", "C13"):
        result = by_id[cid]
        assert not result.passed
        assert result.counterexample
        assert result.max_abs_error == 0.0  # the largest finite discrepancy

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    payload = json.loads(results_to_json(summary.results), parse_constant=reject)
    assert {e["id"]: e["pass"] for e in payload}["C2"] is False


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_c3_fails_when_an_extension_differs_by_nan():
    result = run_check("C3", _overflowing_box(), sampled_plan(seed=7, n_points=100, n_functions=5))
    assert not result.passed
    assert result.counterexample
