"""Smoothing-ball optimizer and smooth Renyi entropies of order in (0, 1).

The smoothing ball around P with budget eps holds every sub-distribution Q
with 0 <= Q <= P pointwise and total mass at least 1 - eps. For every order
alpha in (0, 1) the sum of Q**alpha is minimized by the same member: keep the
most probable symbols untouched until the target mass 1 - eps is reached,
give the boundary symbol whatever mass is still missing, and drop the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import Distribution, WeightedAtom, _expand_atoms
from .errors import check_alpha, check_eps
from .logspace import ceil_exp, logsumexp

# mass still missing within this many ulps of the target 1 - eps counts as
# reached: 1 - 0.7 is 0.30000000000000004, one ulp above a 0.3 level
NEED_ULPS = 4


@dataclass(frozen=True)
class SubDistribution:
    """Largest-first truncation of a parent distribution to total mass 1 - eps.

    Atoms follow the parent's sorted order. All symbols before position
    k_star (1-based, in the expanded order) keep their full probability, the
    symbol at k_star keeps only gamma_eps, and everything after is dropped.
    The clipped symbol is always stored as the final atom with multiplicity 1,
    even when gamma_eps happens to equal its full probability.
    """

    atoms: tuple[WeightedAtom, ...]
    k_star: int
    gamma_eps: float
    total_mass: float

    @property
    def support_size(self) -> int:
        return sum(a.multiplicity for a in self.atoms)

    def log_clipped(self) -> float:
        """log of the mass kept at position k_star."""
        return self.atoms[-1].log_prob

    def probabilities(self) -> list[float]:
        """Expand to one kept mass per symbol; TooLarge beyond atom_cap()."""
        return _expand_atoms(self.atoms, math.exp)


def optimal_smoothing(dist: Distribution, eps: float) -> SubDistribution:
    """Truncate to the smallest prefix of the sorted symbols with mass >= 1 - eps.

    Returns the minimizer of sum(Q**alpha) over the smoothing ball, which does
    not depend on alpha in (0, 1). k_star is the number of symbols kept and
    gamma_eps = 1 - eps - (mass of the k_star - 1 most probable symbols).
    """
    check_eps(eps)
    target = 1.0 - eps
    atoms = dist.atoms
    masses = [a.mass() for a in atoms]

    b = None
    cum = 0.0
    for i, m in enumerate(masses):
        if cum + m >= target:
            b = i
            break
        cum += m
    if b is None:
        # float deficit: the parent's mass fell a hair short of the target
        b = len(atoms) - 1
    cum_before = math.fsum(masses[:b])
    reached = target - NEED_ULPS * math.ulp(target)
    while b > 0 and cum_before >= reached:
        # the running sum came out below the exact prefix sum, or the mass
        # still missing is float noise: the atoms before b already reach the
        # target, so the boundary is earlier
        b -= 1
        cum_before = math.fsum(masses[:b])
    boundary = atoms[b]
    need = target - cum_before

    p = math.exp(boundary.log_prob)
    mult = boundary.multiplicity
    if p > need * 1e-13:
        j = math.ceil(need / p - 1e-12)
        j = min(max(j, 1), mult)
        gamma = min(need - (j - 1) * p, p)
        if gamma > 0.0:
            log_gamma = math.log(gamma)
        else:
            # the subtraction could not resolve the clip against float noise
            gamma = p
            log_gamma = boundary.log_prob
    else:
        # per-symbol probability too small (possibly underflowed to 0) for the
        # target mass to resolve a partial clip; solve for j in logs and treat
        # the clipped symbol as fully kept
        log_j = math.log(need) - boundary.log_prob
        if log_j >= math.log(mult):
            j = mult
        else:
            j = min(max(ceil_exp(log_j), 1), mult)
        log_gamma = boundary.log_prob
        gamma = p

    sub_atoms = list(atoms[:b])
    if j > 1:
        sub_atoms.append(WeightedAtom(boundary.log_prob, j - 1, boundary.tag))
    sub_atoms.append(WeightedAtom(log_gamma, 1, boundary.tag))
    count_before = sum(a.multiplicity for a in atoms[:b])
    total = math.fsum(a.mass() for a in sub_atoms)
    return SubDistribution(
        atoms=tuple(sub_atoms),
        k_star=count_before + j,
        gamma_eps=gamma,
        total_mass=total,
    )


def log_power_sum(sub: SubDistribution, alpha: float) -> float:
    """log of sum(Q(x)**alpha) over the sub-distribution's support."""
    return logsumexp(math.log(a.multiplicity) + alpha * a.log_prob for a in sub.atoms)


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
