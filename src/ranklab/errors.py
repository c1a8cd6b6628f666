"""Exception hierarchy shared by all ranklab modules.

Usage errors (malformed command line or file input) map to CLI exit code 1.
Gate errors (bad preconditions, rejected parameters) derive from GateError and
map to exit code 2; budget refusals map to exit code 3.  InternalInvariantError
is not a GateError: it reports a broken internal invariant, a bug in ranklab
rather than a rejected input, and maps to exit code 4.
"""

from __future__ import annotations


class RankLabError(Exception):
    """Base class for all ranklab errors."""


class GateError(RankLabError):
    """A precondition or parameter gate rejected the input (CLI exit 2)."""


class BudgetExceeded(RankLabError):
    """An enumeration would exceed the configured budget (CLI exit 3).
    needed is a count, or a power such as "2^40" too large to evaluate."""

    def __init__(self, needed: int | str, allowed: int, what: str = "items"):
        super().__init__(f"enumeration of {needed} {what} exceeds budget {allowed}")
        self.needed = needed
        self.allowed = allowed
        self.what = what


class UsageError(RankLabError):
    """Malformed command line or file input (CLI exit 1)."""


class InternalInvariantError(RankLabError):
    """A result the mathematics rules out: a bug in ranklab (CLI exit 4)."""


class NotPrime(GateError):
    pass


class WrongLevel(GateError):
    pass


class AmbientMismatch(GateError):
    pass


class DimensionMismatch(GateError):
    pass


class PreconditionHyperplaneWeight(GateError):
    pass


class IotaFull(GateError):
    pass


class KernelMismatch(GateError):
    pass


class GcdViolation(GateError):
    pass


class KTooLarge(GateError):
    pass


class EtaConditionViolated(GateError):
    pass


class InvalidParams(GateError):
    pass


class NotMRD(GateError):
    pass


class EmptyCode(GateError):
    pass


class ParamMismatch(GateError):
    pass


class HypothesisViolated(GateError):
    pass


class RankDeficientA(GateError):
    pass


class ShapeMismatch(GateError):
    pass


class IdealiserNotMaximal(GateError):
    pass


class DivisibilityViolation(GateError):
    pass


class NonIntegral(GateError):
    pass


class NotMaxScattered(GateError):
    pass


class NotSpanning(GateError):
    pass


class IoError(RankLabError):
    pass
