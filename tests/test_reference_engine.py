"""The check engine reports what the slow reference engine (``reference_engine``) reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from koopcontrol import ControlSystem, InputSet, RealBox, exact_plan, results_to_json, run_all, sampled_plan
from test_checks import _table_system, _tables


def _affine(rows: list, scale: float) -> ControlSystem:
    """``x -> A(u) x + c(u)`` on ``[-scale, scale]^d``, one ``(A, c)`` per label in ``rows``, written entry by
    entry over the last axis so that one state and stacked states step with the same bits.  Each row of
    ``A`` sums to at most 0.9 in absolute value and ``|c| <= 0.1``, so the box maps into itself."""
    d = len(rows[0][0])
    gains = {label: row for label, row in zip("abc", rows)}

    def transition(x, u):
        a, c = gains[u]
        x = np.asarray(x, dtype=float)
        return np.stack([sum(a[i][j] * x[..., j] for j in range(d)) + c[i] * scale for i in range(d)], axis=-1)

    box = RealBox((-scale,) * d, (scale,) * d)
    return ControlSystem(box, InputSet(tuple(gains)), transition, name=f"affine{d}d", transition_batch=transition)


@st.composite
def _affine_systems(draw):
    d, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    entry = st.floats(-0.45, 0.45, allow_subnormal=False)
    rows = [([[draw(entry) for _ in range(d)] for _ in range(d)], [draw(st.floats(-0.1, 0.1)) for _ in range(d)])
            for _ in range(m)]
    return rows, draw(st.sampled_from([1.0, 1e200]))  # squares of a huge box overflow: failing rows


def _same_reports(sys, plan) -> None:
    assert results_to_json(reference_engine.run_all(sys, plan)) == results_to_json(run_all(sys, plan).results)


@settings(max_examples=8, derandomize=True, deadline=None)
@given(_tables(), st.integers(1, 12), st.integers(0, 2**16))
def test_the_engine_reports_what_the_reference_reports_on_tables(table, n_points, seed):
    states, inputs, succ = table
    _same_reports(_table_system(states, inputs, lambda x, u: succ[(x, u)]), exact_plan(seed, n_points))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@settings(max_examples=8, derandomize=True, deadline=None)
@given(_affine_systems(), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**16))
def test_the_engine_reports_what_the_reference_reports_on_affine_boxes(system, n_points, n_functions, seed):
    _same_reports(_affine(*system), sampled_plan(seed, n_points=n_points, n_functions=n_functions))
