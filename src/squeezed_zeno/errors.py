"""Exception types shared across the package."""


class SqueezedZenoError(Exception):
    """Base class for all package errors.

    Every one is a rejected input: the CLI reports any of them as a config error (exit 2).
    """


class InvalidStateError(SqueezedZenoError):
    """A density matrix, Bloch vector or pure state violates its invariants."""


class ParameterError(SqueezedZenoError):
    """Bath or schedule parameters are out of their physical range."""
