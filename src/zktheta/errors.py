"""Exception types shared across the package."""


class ZkThetaError(Exception):
    """Base class for all package-specific errors."""


class ZeroConstantTerm(ZkThetaError):
    """Series inversion requested for a series with vanishing constant term."""


class OutOfTruncation(ZkThetaError):
    """Coefficient requested at or beyond the series truncation."""


class NegativeExponent(ZkThetaError):
    """Differentiation would produce a term with negative exponent."""


class GridViolation(ZkThetaError):
    """A nonzero coefficient landed off the expected exponent grid."""


class IndexOutOfRange(ZkThetaError):
    """Theta-function index outside 0..k."""


class InvalidLength(ZkThetaError):
    """Code/lattice length is not a positive multiple of 8."""


# bad arguments: also ValueErrors, so callers catching ValueError still work
class InvalidModulus(ZkThetaError, ValueError):
    """k < 1, so there is no ring Z_2k."""


class InvalidRange(ZkThetaError, ValueError):
    """A range of lengths with its upper end below its lower end."""


class BadCodeFile(ZkThetaError, ValueError):
    """A code file that does not follow the 'zcode k n r' format."""


class RangeError(ZkThetaError):
    """Residue outside [0, 2k)."""


class TooLarge(ZkThetaError):
    """Enumeration would exceed the codeword-count guard."""


class SearchExhausted(ZkThetaError):
    """No database entry or quaternionic block gave a Type II code."""


class DomainError(ZkThetaError):
    """Numeric function evaluated outside its domain."""
