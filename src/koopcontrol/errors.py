"""Exception types shared across the package."""

__all__ = ["ContractError", "DomainError", "DomainMismatchError", "UnsupportedError"]


class DomainError(ValueError):
    """A point, label, or state lies outside the declared domain."""


class ContractError(RuntimeError):
    """An operation was called outside its documented contract."""


class DomainMismatchError(ContractError):
    """An operator or combination was applied across incompatible domains.

    This is the executable form of the failure mode of naive operator
    constructions: the output of one application lives on a different
    domain than the input, so a second application cannot typecheck.
    """


class UnsupportedError(RuntimeError):
    """The request is well formed but has no finite realization here."""
