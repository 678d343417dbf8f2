"""Identifying the lifted dynamics from data, one matrix per input.

When the dictionary spans an invariant subspace, the lifted one-step map
Psi(T(x, u)) = A(u) Psi(x) holds exactly and least squares recovers each
A(u) to machine precision; k-step prediction is then matrix products
applied in input order.  On a finite system with the full indicator
dictionary the fitted matrices are exactly the transposed operator
matrices, so data-driven prediction and operator composition are the
same arithmetic.

The last section measures training residuals across nested dictionaries
and shows a subtlety in reading them: the summed residual is not
monotone under dictionary growth, because each added entry brings a new
row of error mass along with its approximation power.  Rows present in
both fits never get worse; the total can.
"""

import numpy as np

from koopcontrol import (
    ExhaustiveFinite,
    InputSequence,
    UniformRandom,
    apply,
    builtin_system,
    collect_data,
    fit_kcf,
    indicator_dictionary,
    k_u,
    kcf_word,
    monomial_dictionary,
    predict,
    prediction_error,
    simulate,
    to_matrix,
)


def main():
    sys = builtin_system("scalarlinear")
    d = monomial_dictionary(1, 2)
    data = collect_data(sys, UniformRandom(400, seed=12))
    model, report = fit_kcf(d, data)

    print("scalar linear system, dictionary [1, x, x^2]:")
    for u in sys.inputs.labels:
        print(f"  A({u}) =")
        for row in model.matrices[u].real:
            print("    [" + "  ".join(f"{v: .6f}" for v in row) + "]")
        print(f"    training residual {report.residuals[u]:.2e}")
    print("  expected diagonals (1, l, l^2) with l(a)=0.5, l(b)=-0.8")
    print()

    print("20-step prediction against the simulator, x0 = 0.9:")
    seq = InputSequence(("a", "b", "b"), ("a", "b"))
    errs = prediction_error(model, d, sys, 0.9, seq, 20)
    xs = simulate(sys, 0.9, seq, 20)
    zs = predict(model, d, np.array([0.9]), seq, 20)
    print("  k   input  true x      predicted x   |lift error|")
    for k in (0, 1, 2, 5, 10, 20):
        u = "-" if k == 0 else repr(seq.at(k - 1))
        print(
            f"  {k:<3} {u:<6} {float(xs[k][0]): .8f}  "
            f"{float(zs[k][1].real): .8f}   {errs[k]:.2e}"
        )
    print()

    f3 = builtin_system("finite3")
    ind = indicator_dictionary(f3)
    fmodel, _ = fit_kcf(ind, collect_data(f3, ExhaustiveFinite()))
    print("finite system, full indicator dictionary:")
    for u in f3.inputs.labels:
        gap = np.max(np.abs(fmodel.matrices[u] - to_matrix(k_u(f3, u), f3).T))
        print(f"  |A({u}) - operator-matrix^T| = {gap:g}")
    word = ("a", "b", "b")
    z = predict(fmodel, ind, 0, InputSequence(word, ("a",)), len(word))[-1]
    tab = [apply(kcf_word(f3, word), obs)(0) for obs in ind.observables]
    print(f"  word {word}: data-driven lift {np.round(z.real, 12)}")
    print(f"               operator values  {np.round(np.real(tab), 12)}")
    print()

    lg = builtin_system("logistic-with-offset")
    data = collect_data(lg, UniformRandom(250, seed=42))
    print("logistic map with input offsets, nested monomial dictionaries:")
    print("  degree  dim   residual(u=0.0)  residual(u=0.05)")
    rows_by_degree = {}
    for degree in (1, 2, 3):
        dd = monomial_dictionary(1, degree)
        m, rep = fit_kcf(dd, data)
        rows = {}
        for u, pairs in data.per_input().items():
            phi0 = np.column_stack([dd.lift(x) for x, _ in pairs])
            phi1 = np.column_stack([dd.lift(y) for _, y in pairs])
            gap = np.abs(phi1 - m.matrices[u] @ phi0) ** 2
            rows[u] = gap.sum(axis=1) / len(pairs)
        rows_by_degree[degree] = rows
        print(
            f"  {degree:<7} {dd.dim:<5} {rep.residuals[0.0]:<16.3e} "
            f"{rep.residuals[0.05]:.3e}"
        )
    print("  the degree-3 total exceeds the degree-2 total: the new x^3 row")
    print("  contributes fresh error mass. The rows the fits share only improve:")
    for small, large in ((1, 2), (2, 3)):
        dim = monomial_dictionary(1, small).dim
        worst = max(
            float(np.max(rows_by_degree[large][u][:dim] - rows_by_degree[small][u]))
            for u in rows_by_degree[small]
        )
        print(f"  max over shared rows of residual({large}) - residual({small}): {worst:.2e}")


if __name__ == "__main__":
    main()
