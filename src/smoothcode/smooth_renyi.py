"""Smoothing-ball optimizer and smooth Renyi entropies of order in (0, 1).

The smoothing ball around P with budget eps holds every sub-distribution Q
with 0 <= Q <= P pointwise and total mass at least 1 - eps. For every order
alpha in (0, 1) the sum of Q**alpha is minimized by the same member: keep the
most probable symbols untouched until the target mass 1 - eps is reached,
give the boundary symbol whatever mass is still missing, and drop the rest.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .distributions import Distribution, _expand_levels, _log_masses
from .errors import check_alpha, check_eps
from .logspace import ceil_exp, logsumexp

# mass still missing within this many ulps of 1.0 counts as reached: 1 - 0.7
# is 0.30000000000000004, one ulp above a 0.3 level. The slack is absolute, as
# ulps of 1 - eps halve below 1.0 and a larger eps would demand more mass
NEED_ULPS = 4


@dataclass(frozen=True)
class SubDistribution:
    """Largest-first truncation of a parent distribution to total mass 1 - eps.

    The log_probs and mults columns follow the parent's sorted order. All
    symbols before position k_star (1-based, in the expanded order) keep their
    full probability, the symbol at k_star keeps only gamma_eps, and
    everything after is dropped. The clipped symbol is always stored as the
    final entry with multiplicity 1, even when gamma_eps happens to equal its
    full probability. Beside the fields sits one cache, the column of log
    multiplicities (_log_mults).
    """

    log_probs: tuple[float, ...]
    mults: tuple[int, ...]
    k_star: int
    gamma_eps: float

    @cached_property
    def _log_mults(self) -> tuple[float, ...]:
        """log(multiplicity) of each level, set from the parent's by optimal_smoothing.

        Any other instance takes the logs of its own counts on first use.
        As on Distribution, __getstate__ leaves it out of pickles and copies.
        """
        return tuple(map(math.log, self.mults))

    def __getstate__(self) -> dict:
        return {"log_probs": self.log_probs, "mults": self.mults,
                "k_star": self.k_star, "gamma_eps": self.gamma_eps}

    @property
    def total_mass(self) -> float:
        """Kept mass, exactly rounded over the levels."""
        return math.fsum(map(math.exp, _log_masses(self.log_probs, self._log_mults)))

    def probabilities(self) -> list[float]:
        """Expand to one kept mass per symbol; TooLarge beyond atom_cap()."""
        return _expand_levels(list(map(math.exp, self.log_probs)), self.mults)


def optimal_smoothing(dist: Distribution, eps: float) -> SubDistribution:
    """Truncate to the smallest prefix of the sorted symbols with mass >= 1 - eps.

    Returns the minimizer of sum(Q**alpha) over the smoothing ball, which does
    not depend on alpha in (0, 1). k_star is the number of symbols kept and
    gamma_eps = 1 - eps - (mass of the k_star - 1 most probable symbols).

    The distribution keeps its last smoothing, so a code and its bounds at
    one budget share one. Like its other caches, that one is no field.
    """
    check_eps(eps)
    kept = vars(dist).get("_smoothing")
    # an equal eps of another type (an int, a numpy float) may give other float types
    if kept is not None and type(kept[0]) is type(eps) and kept[0] == eps:
        return kept[1]
    sub = _smooth(dist, eps)
    vars(dist)["_smoothing"] = (eps, sub)
    return sub


def _smooth(dist: Distribution, eps: float) -> SubDistribution:
    """optimal_smoothing(dist, eps) computed afresh, for an eps already checked."""
    target = 1.0 - eps
    lps, mults, masses = dist.log_probs, dist.mults, dist._masses

    # the first level whose left-to-right running sum reaches the target; the
    # sum of nonnegative masses never falls, so it stops there
    b = len(list(itertools.takewhile(target.__gt__, itertools.accumulate(masses))))
    if b == len(masses):
        # float deficit: the parent's mass fell a hair short of the target
        b -= 1
    cum_before = math.fsum(masses[:b])
    reached = target - NEED_ULPS * math.ulp(1.0)
    if cum_before >= reached:
        # the running sum came out below the exact prefix sum, or the mass
        # still missing is float noise: the levels before b already reach the
        # target, so the boundary is the last level before the first prefix
        # that does. fsum is exactly rounded, so it never falls as the prefix
        # grows, and a bisection finds that prefix; the first level stays the
        # boundary even where a target within the slack of 0 needs no mass
        b = bisect_left(range(b), True, lo=1, key=lambda i: math.fsum(masses[:i]) >= reached) - 1
        cum_before = math.fsum(masses[:b])
    boundary_lp = lps[b]
    need = target - cum_before

    p = math.exp(boundary_lp)
    mult = mults[b]
    if p > need * 1e-13:
        j = math.ceil(need / p - 1e-12)
        j = min(max(j, 1), mult)
        gamma = min(need - (j - 1) * p, p)
        if gamma > 0.0:
            log_gamma = math.log(gamma)
        else:
            # the subtraction cancels: j - 1 whole symbols reach the target in floats
            j -= 1
            gamma = p
            log_gamma = boundary_lp
    else:
        # per-symbol probability too small (possibly underflowed to 0) for the
        # target mass to resolve a partial clip; solve for j in logs and treat
        # the clipped symbol as fully kept
        log_j = math.log(need) - boundary_lp
        if log_j >= dist._log_mults[b]:
            j = mult
        else:
            j = min(max(ceil_exp(log_j), 1), mult)
        log_gamma = boundary_lp
        gamma = p

    # the boundary level keeps j - 1 whole symbols, then the clipped one
    tail_lps = (boundary_lp, log_gamma) if j > 1 else (log_gamma,)
    tail_mults = (j - 1, 1) if j > 1 else (1,)
    kept = SubDistribution(
        log_probs=tuple(lps[:b]) + tail_lps,
        mults=tuple(mults[:b]) + tail_mults,
        k_star=sum(mults[:b]) + j,
        gamma_eps=gamma,
    )
    # the kept levels' logs of counts, the parent's own ahead of the boundary
    vars(kept)["_log_mults"] = dist._log_mults[:b] + tuple(map(math.log, tail_mults))
    return kept


def log_power_sum(sub: SubDistribution, alpha: float) -> float:
    """log of sum(Q(x)**alpha) over the sub-distribution's support."""
    return logsumexp(_log_masses(map(mul, itertools.repeat(alpha), sub.log_probs), sub._log_mults))


def log_r_alpha_eps(dist: Distribution, alpha: float, eps: float) -> float:
    """log of the smoothing-ball minimum of sum(Q**alpha)."""
    check_alpha(alpha)
    return log_power_sum(optimal_smoothing(dist, eps), alpha)


def r_alpha_eps(dist: Distribution, alpha: float, eps: float) -> float:
    """Minimum of sum(Q**alpha) over the smoothing ball, evaluated exactly."""
    return math.exp(log_r_alpha_eps(dist, alpha, eps))


def smooth_renyi_entropy(dist: Distribution, alpha: float, eps: float) -> float:
    """Smooth Renyi entropy of order alpha in (0, 1), in nats."""
    return log_r_alpha_eps(dist, alpha, eps) / (1.0 - alpha)


def smooth_max_entropy(dist: Distribution, eps: float) -> float:
    """log of the smallest number of symbols whose total mass reaches 1 - eps.

    Greedy largest-first covering; the count equals the k_star of the
    smoothing truncation at the same budget.
    """
    return math.log(optimal_smoothing(dist, eps).k_star)
