"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI returns for it: UsageError 1
(the base class's), ParameterError and ConstructionError 2,
DataFormatError 3, BoundFailure 4.
"""


class CodehomError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(CodehomError):
    """Caller misuse: dimension mismatch, wrong operand field, bad arity."""


class ParameterError(CodehomError):
    """Invalid or inconsistent parameter combination."""

    exit_code = 2


class DataFormatError(CodehomError):
    """Malformed or mismatched serialized data."""

    exit_code = 3


class ConstructionError(CodehomError):
    """A randomized construction exhausted its retry budget."""

    exit_code = 2


class BoundFailure(CodehomError):
    """An empirical error bound was violated (selftest outcome)."""

    exit_code = 4
