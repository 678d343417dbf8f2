"""Tour of the three operator encodings of one input-driven system.

A control system steps as x_next = T(x, u).  Pick any scalar observable
f and there are three natural ways to turn the dynamics into a linear
operator that acts on functions by composition:

  * one operator per constant input, K_u f = f(T(., u)), acting on
    state observables;
  * one operator on state-input pairs, K_aug g = g(T(x, u), u), which
    freezes the input;
  * one operator on (state, whole input sequence) points,
    K_inf h = h(T(x, u(0)), shifted sequence), which carries the full
    future of the input along.

This script builds a three-state system and shows all three giving the
numbers the simulator gives.
"""

from koopcontrol import (
    DomainTag,
    InputSequence,
    Observable,
    apply,
    builtin_system,
    indicator,
    k_aug,
    k_inf,
    k_u,
    pair_indicator,
    shift,
    simulate,
    step,
    to_matrix,
)


def main():
    sys = builtin_system("finite3")
    print(f"system: {sys.name}, states {sys.states.labels}, inputs {sys.inputs.labels}")
    print("transition table:")
    for x in sys.states.labels:
        row = ", ".join(f"T({x},{u}) = {step(sys, x, u)}" for u in sys.inputs.labels)
        print(f"  {row}")
    print()

    f = indicator(2)
    print(f"observable: {f.label} (1 on state 2, else 0)")
    print()

    print("encoding 1: one operator per constant input")
    for u in sys.inputs.labels:
        g = apply(k_u(sys, u), f)
        values = [int(g(x).real) for x in sys.states.labels]
        print(f"  K_{u} f tabulated over states: {values}")
    print("  each value is f at the successor under that fixed input")
    print()

    print("encoding 2: one operator on state-input pairs")
    kau = k_aug(sys)
    g = apply(kau, pair_indicator(2, "a"))
    for p in [(1, "a"), (1, "b"), (0, "a")]:
        nxt = (step(sys, p[0], p[1]), p[1])
        print(f"  (K_aug 1[(2,a)]){p} = {int(g(p).real)}   next pair is {nxt}")
    print("  the input tags along unchanged; the operator never needs to guess it")
    print()

    print("encoding 3: one operator on (state, input sequence) points")
    kin = k_inf(sys)
    seq = InputSequence(("a", "b"), ("a",))
    state_reader = Observable(DomainTag.STATE_SEQUENCE, lambda p: complex(p[0]), label="x")
    h = apply(kin, state_reader)
    print(f"  start at state 0 with inputs {list(seq.prefix)} then '{seq.period[0]}' forever")
    print(f"  (K_inf x)(0, seq) = {h((0, seq)):g}; the sequence shifts to {shift(seq)!r}")
    print()

    print("all three against the simulator, three steps from state 0:")
    xs = simulate(sys, 0, seq, 3)
    print(f"  simulate: {xs}")
    x = 0
    for j in range(3):
        x = step(sys, x, seq.at(j))
    print(f"  folded steps: end at {x}")
    mat = to_matrix(k_u(sys, "a"), sys)
    print()
    print("finite state space means every operator is a small 0-1 matrix:")
    print(f"  K_a as a matrix (rows pick successors):")
    for row in mat.real.astype(int):
        print(f"    {[int(v) for v in row]}")


if __name__ == "__main__":
    main()
