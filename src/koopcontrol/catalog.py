"""Built-in systems and dictionary constructors addressable by name."""

from __future__ import annotations

from itertools import product

import numpy as np

from .edmd import Dictionary
from .errors import DomainError, UnsupportedError
from .observables import indicator, monomial
from .systems import ControlSystem, FiniteStates, InputSet, RealBox

__all__ = [
    "finite3",
    "collapse2",
    "scalarlinear",
    "logistic_with_offset",
    "BUILTIN_SYSTEMS",
    "builtin_system",
    "monomial_dictionary",
    "indicator_dictionary",
    "dictionary_for",
]


def finite3() -> ControlSystem:
    """Three states, two inputs: a rotation and a doubling map mod 3."""

    def transition(x, u):
        return (x + 1) % 3 if u == "a" else (2 * x) % 3

    return ControlSystem(
        FiniteStates((0, 1, 2)), InputSet(("a", "b")), transition, name="finite3"
    )


def collapse2() -> ControlSystem:
    """Two states, two inputs, every transition lands on state 1."""
    return ControlSystem(
        FiniteStates((0, 1)), InputSet(("a", "b")), lambda x, u: 1, name="collapse2"
    )


def scalarlinear(lambdas=None) -> ControlSystem:
    """Scalar linear dynamics ``x_next = lambda(u) x`` on the box [-1, 1]."""
    lambdas = dict(lambdas) if lambdas is not None else {"a": 0.5, "b": -0.8}

    def transition(x, u):
        return lambdas[u] * x

    return ControlSystem(
        RealBox((-1.0,), (1.0,)),
        InputSet(tuple(lambdas)),
        transition,
        name="scalarlinear",
        transition_batch=transition,  # elementwise, so it steps stacked states too
    )


def logistic_with_offset(r: float = 2.5, offsets=(0.0, 0.05)) -> ControlSystem:
    """Logistic map plus an input offset on the box [0, 1].

    The input labels are the offsets themselves.
    """
    r = float(r)

    def transition(x, u):
        return r * x * (1.0 - x) + u

    return ControlSystem(
        RealBox((0.0,), (1.0,)),
        InputSet(tuple(float(o) for o in offsets)),
        transition,
        name="logistic-with-offset",
        transition_batch=transition,
    )


BUILTIN_SYSTEMS = {
    "finite3": finite3,
    "collapse2": collapse2,
    "scalarlinear": scalarlinear,
    "logistic-with-offset": logistic_with_offset,
}


def builtin_system(name: str, **params) -> ControlSystem:
    try:
        factory = BUILTIN_SYSTEMS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_SYSTEMS))
        raise DomainError(f"unknown system {name!r}; built-ins: {known}") from None
    return factory(**params)


def monomial_dictionary(dimension: int, degree: int) -> Dictionary:
    """All monomials up to the given total degree (at most 100), constant first.

    Ordered by total degree, then lexicographically by exponent tuple.
    """
    if degree < 0 or dimension < 1:
        raise ValueError("need dimension >= 1 and degree >= 0")
    if degree > 100:  # checked before any monomial is built
        raise ValueError(f"degree must be at most 100, got {degree}")
    powers = sorted(
        (p for p in product(range(degree + 1), repeat=dimension) if sum(p) <= degree),
        key=lambda p: (sum(p), p),
    )
    return Dictionary(tuple(monomial(p) for p in powers))


def indicator_dictionary(sys: ControlSystem) -> Dictionary:
    """One indicator per state of a finite system, in declaration order."""
    if not isinstance(sys.states, FiniteStates):
        raise UnsupportedError("indicator dictionaries need a finite state space")
    return Dictionary(tuple(indicator(x) for x in sys.states.labels))


def dictionary_for(sys: ControlSystem, spec: str) -> Dictionary:
    """Resolve a ``name`` or ``name:degree`` dictionary spec for a system."""
    name, _, arg = spec.partition(":")
    if name == "indicator":
        return indicator_dictionary(sys)
    if name == "monomial":
        if not isinstance(sys.states, RealBox):
            raise UnsupportedError("monomial dictionaries need a box state space")
        if not arg:
            raise DomainError("monomial dictionaries need a degree, e.g. monomial:2")
        try:
            degree = int(arg)
        except ValueError:
            raise DomainError(f"dictionary spec {spec!r}: degree must be an integer, got {arg!r}") from None
        return monomial_dictionary(sys.states.dimension, degree)
    raise DomainError(f"unknown dictionary spec {spec!r}")
