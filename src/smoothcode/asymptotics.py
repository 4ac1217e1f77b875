"""Blocklength-indexed behavior of mixtures of memoryless sources.

For a mixture with component entropies H_1 > ... > H_m and cumulative weights
A_1 = 0 <= ... <= A_{m+1} = 1, the per-symbol smooth entropy at budget
eps in [A_i, A_{i+1}) converges to H_i as the blocklength grows: smoothing is
allowed to delete the i - 1 highest-entropy components outright. The same
index governs the growth exponent of the moment bounds.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import neg, not_, sub, truediv
from typing import Sequence

from .distributions import MixtureSpec, mixture_extension
from .errors import check_alpha, check_eps, check_lambda
from .smooth_renyi import smooth_renyi_entropy


@dataclass(frozen=True)
class RateSeries:
    """Per-symbol smooth entropy at each requested blocklength, with its limit.

    `component` is the 1-based index of the mixture component whose Shannon
    entropy the series converges to.
    """

    alpha: float
    eps: float
    entries: tuple[tuple[int, float], ...]
    limit: float
    component: int

    def values(self) -> list[float]:
        return [v for _, v in self.entries]


@dataclass(frozen=True)
class SpectrumQuery:
    """Question about the per-symbol self-information at one blocklength.

    direction is "ge" (rate >= threshold), "le" (rate <= threshold), or
    "within" (|rate - threshold| <= gamma, with gamma required).
    """

    n: int
    direction: str
    threshold: float
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("ge", "le", "within"):
            raise ValueError("direction must be 'ge', 'le', or 'within'")
        # an infinite value would be echoed as a bare Infinity, which JSON rejects
        if not math.isfinite(self.threshold) or not math.isfinite(self.gamma or 0.0):
            raise ValueError("threshold and gamma must be finite, not NaN or infinite")
        if self.direction == "within":
            if self.gamma is None or self.gamma < 0.0:
                raise ValueError("'within' queries need gamma >= 0")
        if self.n < 1:
            raise ValueError("blocklength must be >= 1")


def theoretical_limit(spec: MixtureSpec, eps: float) -> tuple[int, float]:
    """(component index, entropy in nats) the rate series converges to.

    Picks the component i with cumulative weight A_i <= eps < A_{i+1}; on the
    boundary eps == A_i the budget is not quite enough to delete component i,
    so the limit stays at H_i.
    """
    check_eps(eps)
    cum = spec.cumulative_weights()
    ents = spec.component_entropies()
    i = min(bisect_right(cum, eps) - 1, len(ents) - 1)
    return i + 1, ents[i]


def achievable_exponent(spec: MixtureSpec, lam: float, eps: float) -> float:
    """Limit of log E[exp(lam * length)] / n for the best codes: lam times the limit entropy."""
    check_lambda(lam)
    return lam * theoretical_limit(spec, eps)[1]


def entropy_rate_series(
    spec: MixtureSpec,
    alpha: float,
    eps: float,
    n_list: Sequence[int],
) -> RateSeries:
    """Per-symbol smooth Renyi entropy of the mixture at each blocklength."""
    component, limit = theoretical_limit(spec, eps)
    check_alpha(alpha)
    entries = []
    for n in n_list:
        # no name holds the distribution, so each one, with its mass column,
        # is freed before the next blocklength is built
        entries.append((n, smooth_renyi_entropy(mixture_extension(spec, n), alpha, eps) / n))
    return RateSeries(
        alpha=alpha, eps=eps, entries=tuple(entries), limit=limit, component=component
    )


def spectrum_probability(spec: MixtureSpec, query: SpectrumQuery) -> float:
    """Exact mixture mass of the sequences selected by the rate predicate.

    The rate of a sequence is -log(prob)/n. Predicate comparisons carry a
    1e-12 slack so type classes sitting exactly on a threshold are not
    dropped by float noise. The smaller side of the predicate is summed and
    the larger one read as its complement, since the mixture's mass is
    exactly 1; so the result lies in [0, 1].
    """
    dist = mixture_extension(spec, query.n)
    slack = 1e-12
    rates = map(truediv, map(neg, dist.log_probs), itertools.repeat(query.n))
    if query.direction == "ge":
        keep = map((query.threshold - slack).__le__, rates)
    elif query.direction == "le":
        keep = map((query.threshold + slack).__ge__, rates)
    else:
        gaps = map(abs, map(sub, rates, itertools.repeat(query.threshold)))
        keep = map((query.gamma + slack).__ge__, gaps)
    keep = list(keep)
    masses = dist._masses
    kept = math.fsum(itertools.compress(masses, keep))
    dropped = math.fsum(itertools.compress(masses, map(not_, keep)))
    return 1.0 - dropped if kept > dropped else kept
