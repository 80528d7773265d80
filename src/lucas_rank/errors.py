"""Domain errors raised by this package.

Every error a caller can trigger through bad inputs derives from
LucasRankError, so `except LucasRankError` catches the whole family.
"""


class LucasRankError(Exception):
    """Base class for all domain errors."""


class NotCoprime(LucasRankError):
    """The coefficients a and b share a prime factor."""


class Degenerate(LucasRankError):
    """(a, b) defines a degenerate sequence (b = 0, or the root ratio is a root of unity)."""


class ZeroModulus(LucasRankError):
    """Modular evaluation was asked for modulus 0."""


class TooLarge(LucasRankError):
    """An argument exceeds the configured size bound."""


class ZeroArgument(LucasRankError):
    """A p-adic valuation was asked for a value that is identically zero."""


class NotPrime(LucasRankError):
    """A prime was required and the argument is not one."""


class PrimeDividesB(LucasRankError):
    """Valuation closed forms do not cover primes dividing b."""


class NotEligible(LucasRankError):
    """The operation needs a > 0 and a^2 + 4b > 0, which these params lack."""


class NotCoprimeToB(LucasRankError):
    """The rank of apparition is undefined for moduli sharing a factor with b."""


class NotFound(LucasRankError):
    """A bounded scan ended without finding the requested index."""


class NotAMultiple(LucasRankError):
    """The claimed index is not a multiple of the rank of apparition."""


class BadRange(LucasRankError, ValueError):
    """An argument is outside the range the operation covers."""


class NotOddPrime(LucasRankError):
    """An odd prime (p >= 3) was required."""
