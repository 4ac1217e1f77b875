"""mpmath referee for the levels of i.i.d. extensions and for their smoothing.

Every float probability p is a dyadic rational, so the exact log of a class's
probability is the exact log of a product of the source's float
probabilities. Levels that differ by exact powers of two are grouped here
with Fraction, independently of the package, and each level's reference
log-prob is computed in mpmath from one class of that level.
"""

import bisect
import itertools
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

import smoothcode as sc
from smoothcode.distributions import _normalize_atoms, _type_class_atoms

IID4 = [0.4, 0.3, 0.2, 0.1]
# three levels, all powers of two: its exact level count is 2n + 1
MERGE_SOURCE = [0.5] + [2**-10] * 511 + [2**-19] * 512
SOURCES = [(IID4, 25), (IID4, 100), (IID4, 200), (MERGE_SOURCE, 400)]
EPSILONS = (0.1, 0.3, 0.65)
# the smoothing works on float masses; a boundary symbol heavier than this is
# resolved exactly, and the kept mass must match 1 - eps to within it
MASS_RESOLUTION = 1e-12


def _dps(probs, n):
    """Digits enough to resolve one symbol against the total: 50 beyond the support size."""
    return 50 + len(str(len(probs) ** n))


def _groups(probs):
    """(reference probability, reachable shifts) per group of exact power-of-two relation."""
    groups = []
    for p in sorted(set(probs), reverse=True):
        for ref, shifts in groups:
            ratio = Fraction(ref) / Fraction(p)
            if ratio.denominator == 1 and ratio.numerator & (ratio.numerator - 1) == 0:
                shifts.add(ratio.numerator.bit_length() - 1)
                break
        else:
            groups.append((p, {0}))
    return groups


def _sums(shifts, n):
    """Every total shift of c positions in one group, for c = 0..n."""
    out = [{0}]
    for _ in range(n):
        out.append({t + s for t in out[-1] for s in shifts})
    return out


def exact_levels(probs, n):
    """Exact log-prob of every level of the n-fold product, ascending, as mpf.

    A class with c_g positions in group g and total shift T has probability
    prod_g ref_g**c_g * 2**-T exactly, whichever class of that key it is.
    """
    groups = _groups(probs)
    logs = [mpmath.log(mpf(ref)) for ref, _ in groups]
    ln2 = mpmath.log(2)
    sums = [_sums(shifts, n) for _, shifts in groups]
    levels = set()
    for counts in itertools.product(range(n + 1), repeat=len(groups)):
        if sum(counts) != n:
            continue
        totals = {0}
        for g, c in enumerate(counts):
            totals = {t + s for t in totals for s in sums[g][c]}
        base = mpmath.fsum(c * lg for c, lg in zip(counts, logs))
        levels.update(base - t * ln2 for t in totals)
    return sorted(levels, key=lambda v: (float(v), v))  # float first: mpf compares are slow


def worst_error(log_probs, refs):
    """Largest distance from a built log-prob to the nearest exact level."""
    keys = [float(r) for r in refs]
    worst = mpf(0)
    for lp in log_probs:
        i = bisect.bisect_left(keys, lp)
        near = min(abs(mpf(lp) - refs[j]) for j in (i - 1, i) if 0 <= j < len(refs))
        worst = max(worst, near)
    return worst


@pytest.mark.parametrize("probs, n", SOURCES)
def test_lattice_log_probs_are_no_farther_from_exact_than_the_walk(probs, n):
    mp.dps = _dps(probs, n)
    base = sc.new_distribution(probs)
    lattice = sc.iid_extension(base, n)
    walk_lps, walk_mults = _normalize_atoms(
        *_type_class_atoms(n, [0.0], [base.log_probs], base.mults)
    )
    refs = exact_levels(probs, n)
    assert len(lattice.log_probs) == len(refs)
    assert sum(walk_mults) == sum(lattice.mults) == len(probs) ** n
    lattice_err = worst_error(lattice.log_probs, refs)
    walk_err = worst_error(walk_lps, refs)
    assert lattice_err <= walk_err, (float(lattice_err), float(walk_err))


def exact_smoothing(masses, eps):
    """(k_star, gamma_eps, boundary index, boundary symbol mass) by exact arithmetic."""
    target = 1 - mpf(eps)
    cum, before = mpf(0), 0
    for b, (p, mult) in enumerate(masses):
        if cum + mult * p >= target:
            j = int(mpmath.ceil((target - cum) / p))
            return before + j, target - cum - (j - 1) * p, b, p
        cum += mult * p
        before += mult
    raise AssertionError("the exact masses never reach 1 - eps")


# n = 9 puts heavy symbols at every boundary, where k_star must be exact
@pytest.mark.parametrize("probs, n", [(IID4, 9), *SOURCES])
def test_smoothing_matches_exact_arithmetic(probs, n):
    mp.dps = _dps(probs, n)
    dist = sc.iid_extension(sc.new_distribution(probs), n)
    refs = exact_levels(probs, n)[::-1]  # largest first, as the levels are stored
    assert len(refs) == len(dist.mults)
    masses, reached = [], mpf(0)
    for r, mult in zip(refs, dist.mults):  # down to the deepest boundary
        masses.append((mpmath.exp(r), mult))
        reached += mult * masses[-1][0]
        if reached >= 1 - mpf(min(EPSILONS)):
            break
    for eps in EPSILONS:
        sub = sc.optimal_smoothing(dist, eps)
        k_star, gamma, b, p = exact_smoothing(masses, eps)
        # so k_star is exact wherever one boundary symbol outweighs the float
        # resolution of the masses, and off by less than that much mass elsewhere
        assert abs(sub.k_star - k_star) * p <= MASS_RESOLUTION, (eps, sub.k_star, k_star)
        if p > MASS_RESOLUTION:
            assert abs(sub.gamma_eps - gamma) <= MASS_RESOLUTION
        # the float truncation, its mass taken exactly, keeps 1 - eps
        whole = sub.k_star - sum(dist.mults[:b]) - 1
        kept = mpmath.fsum(m * q for q, m in masses[:b]) + whole * p + mpf(sub.gamma_eps)
        assert abs(kept - (1 - mpf(eps))) <= MASS_RESOLUTION, (eps, float(kept))
