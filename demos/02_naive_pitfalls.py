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

from koopcontrol import cli


def main():
    for name in ("finite3", "collapse2"):
        cli.main(["demo-naive", "--system", name])
        print()


if __name__ == "__main__":
    main()
