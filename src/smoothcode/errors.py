"""Exception types and parameter checks shared across the package."""

import math


class SmoothcodeError(Exception):
    """Base class for every error raised by this package."""


class NotNormalized(SmoothcodeError):
    """Probabilities are negative or do not sum to 1 within tolerance."""


class EmptyDistribution(SmoothcodeError):
    """No strictly positive probability mass was supplied."""


class TooLarge(SmoothcodeError):
    """A requested expansion or search exceeds the configured size cap."""


class BadEpsilon(SmoothcodeError):
    """Error budget outside its allowed range."""


class BadAlpha(SmoothcodeError):
    """Entropy order outside the open interval (0, 1)."""


class BadLambda(SmoothcodeError):
    """Moment tilt must be finite and strictly positive."""


class KraftViolated(SmoothcodeError):
    """Requested codeword lengths do not fit in a binary prefix code."""


class Misaligned(SmoothcodeError):
    """Code and distribution disagree on the symbol set."""


class SandwichViolated(SmoothcodeError):
    """An exactly computed moment escaped its bounds; indicates a bug."""


class Infeasible(SmoothcodeError):
    """No code within the search limits meets the error budget."""


class BadMixture(SmoothcodeError):
    """Mixture weights or components fail validation."""


def count_text(n: int) -> str:
    """A count for an error message: decimal up to 64 bits, then its bit length.

    Python refuses to print an int of more than 4300 decimal digits, and the
    exact counts of long type classes pass that size. A negative value keeps
    its sign, so a huge rejected input never reads as a positive count.
    """
    if n.bit_length() <= 64:
        return str(n)
    bound = f"2**{n.bit_length() - 1}"
    return f"{bound} or more" if n > 0 else f"-{bound} or less"


def check_eps(eps: float) -> None:
    if not 0.0 <= eps < 1.0:
        raise BadEpsilon("eps must be in [0, 1)")


def check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise BadAlpha("alpha must be in (0, 1)")


def check_lambda(lam: float) -> None:
    # lambda = inf would reach the entropy order 1/(1 + lambda) = 0
    if not (lam > 0.0 and math.isfinite(lam)):
        raise BadLambda(f"lambda must be finite and > 0, got {lam!r}")
