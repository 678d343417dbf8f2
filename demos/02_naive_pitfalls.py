"""Why the two obvious encodings of controlled dynamics break.

Obvious idea one: define (K f)(x, u) = f(T(x, u)) for state observables
f.  This works exactly once.  The output lives on state-input pairs, the
input lives on states, so K cannot be applied to its own output and no
operator power beyond the first exists.

Obvious idea two: treat the input as part of the state and reuse the
classical one-map theory on the pair (x, u).  Then the operator must
produce a value at (T(x, u), u') without knowing the next input u',
which is only consistent if nothing ever depends on the second slot.
Both failures are constructed and caught below, not just asserted.
"""

import dataclasses

import numpy as np

from koopcontrol import (
    DomainMismatchError,
    DomainTag,
    FiniteStates,
    InputSet,
    apply,
    builtin_system,
    coordinate,
    enumerate_points,
    extension_f_to_aug,
    indicator,
    input_aug_well_definedness,
    k_naive,
    pair_indicator,
    two_step_discrepancy_witness,
)


def walkthrough(sys):
    """Print both failures on ``sys``, from its first state label or its box centre."""
    finite = isinstance(sys.states, FiniteStates)
    print(f"naive encoding on {sys.name}")
    print()

    if finite:
        x0 = sys.states.labels[0]
        f = indicator(x0)
    else:
        x0 = (np.asarray(sys.states.lower) + np.asarray(sys.states.upper)) / 2
        f = coordinate(0)
    u0 = sys.inputs.labels[0]
    op = k_naive(sys)
    g = apply(op, f)
    print("one application is fine: the composed observable reads the next state")
    print(f"  ({op.label} {f.label})({x0!r}, {u0!r}) = {g((x0, u0)):g}")
    try:
        apply(op, g)
    except DomainMismatchError as exc:
        print("a second application is impossible:")
        print(f"  {exc}")
    else:
        raise RuntimeError("expected the second application to fail")
    print()

    if finite:
        print("treating the input as a frozen extra state:")
        probes = [pair_indicator(p[0], p[1]) for p in enumerate_points(DomainTag.STATE_INPUT, sys)]
        report = input_aug_well_definedness(sys, probes)
        if report.witness is not None:
            label, x, u, u1, u2, v1, v2 = report.witness
            print(f"  input-sensitive probes break it ({report.reason.value}):")
            print(
                f"    probe {label} at the successor of ({x!r}, {u!r}) reads "
                f"{v1:g} if the next input is {u1!r} but {v2:g} if it is {u2!r}"
            )
        else:
            print(f"  {report.reason.value}: construction is well defined here")
        blind = [apply(extension_f_to_aug(), indicator(x)) for x in sys.states.labels]
        report2 = input_aug_well_definedness(sys, blind)
        print(f"  input-blind probes cannot tell: {report2.reason.value}")
        if len(sys.inputs.labels) > 1:
            single = dataclasses.replace(sys, inputs=InputSet((u0,)), name=f"{sys.name}-single-input")
            report3 = input_aug_well_definedness(single, probes[:1])
            print(f"  with only one input the question is moot: {report3.reason.value}")
        print()

    witness = two_step_discrepancy_witness(sys)
    print("freezing the input survives one step but not two:")
    if witness is None:
        print("  no two-step gap exists here; these dynamics ignore the input")
    else:
        print(
            f"  start at {witness.x!r}, apply the word {witness.word!r}: "
            f"probe {witness.observable.label} reads {witness.value_word:g}"
        )
        print(
            f"  the frozen-input square replays {witness.word[0]!r} instead "
            f"and reads {witness.value_power:g}"
        )


def main():
    for name in ("finite3", "collapse2"):
        walkthrough(builtin_system(name))
        print()


if __name__ == "__main__":
    main()
