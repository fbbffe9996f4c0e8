"""Exception types shared across the package.

The CLI maps ValidationError (and subclasses) to exit code 2 and
CapacityError to exit code 3.
"""


class PHTreeError(Exception):
    """Base class for all package errors."""


class ValidationError(PHTreeError):
    """Invalid parameters or malformed input."""


class ContractViolationError(ValidationError):
    """An operation was called with arguments violating its contract
    (wrong arity, shape mismatch, incompatible fields)."""


class DomainError(ValidationError):
    """A coordinate outside the unit interval was passed to boundary data."""


class MissingValueError(PHTreeError):
    """A value oracle is undefined at a vertex it was queried on."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"field is undefined at vertex {vertex}")


class CapacityError(PHTreeError):
    """A requested enumeration or array would exceed the size cap."""


class InsufficientDepthError(PHTreeError):
    """A subset analysis was asked to look deeper than the membership
    oracle is trusted."""


class StructuralCheckError(PHTreeError):
    """A unique-continuation construction was refused because its
    structural prerequisites failed."""
