"""Exception types raised across the package."""


class StarprodError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(StarprodError, ValueError):
    """Field characteristic is not a prime number."""


class TooLarge(StarprodError, ValueError):
    """Field order or matrix side exceeds the configured limit."""


class NoModulusTableEntry(StarprodError, KeyError):
    """No shipped modulus for the requested extension field."""


class DivisionByZero(StarprodError, ZeroDivisionError):
    """Division or inversion of the zero field element."""


class ZeroCode(StarprodError, ValueError):
    """A construction produced the zero subspace, which is not a code."""


class ZeroDual(StarprodError, ValueError):
    """The dual of the full space is the zero subspace."""


class LengthMismatch(StarprodError, ValueError):
    """Operands have different block lengths."""


class FieldMismatch(StarprodError, ValueError):
    """Operands live over different fields."""


class BudgetExceeded(StarprodError, RuntimeError):
    """An enumeration would exceed its item budget."""


class DegenerateInput(StarprodError, ValueError):
    """A bound that assumes full support was given a degenerate code."""


class NeitherMDS(StarprodError, ValueError):
    """A bound that assumes an MDS operand was given none."""


class BadRange(StarprodError, ValueError):
    """Combinatorial arguments outside their documented range."""


class UncoveredCase(StarprodError, ValueError):
    """Parameters fall in a regime the closed form does not determine."""


class NotMonomial(StarprodError, ValueError):
    """Matrix is not a monomial (scaled permutation) matrix."""


class NotBinary(StarprodError, ValueError):
    """Operation is defined for GF(2) codes only."""
