"""The column passes over (log_probs, mults) against the per-atom loops they replaced.

Each reference below is the per-atom code as it stood before the levels
became columns, over (log_prob, multiplicity) pairs. Same float operations
in the same order, so every result must agree exactly, sign bit included.
"""

import dataclasses
import math
import operator
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smoothcode as sc
from smoothcode import asymptotics
from smoothcode.asymptotics import spectrum_probability
from smoothcode.codes import LENGTH_SNAP, _level_lengths, _tilt
from smoothcode.distributions import MASS_TOL, Distribution, _normalize_atoms
from smoothcode.logspace import LN2, ceil_exp
from smoothcode.smooth_renyi import NEED_ULPS, SubDistribution, log_power_sum


def reference_logsumexp(values):
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    m = max(vals)
    if m == math.inf:
        return math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in vals))


def log_mass(lp, m):
    return math.log(m) + lp


def reference_log_total_mass(pairs):
    return reference_logsumexp(log_mass(lp, m) for lp, m in pairs)


def reference_check_mass(pairs):
    """The message of the exact mass check on the merged levels, or None where it accepts."""
    try:
        total = math.exp(reference_log_total_mass(pairs))
    except OverflowError:
        return "total mass overflows a float, expected 1"
    if abs(total - 1.0) > MASS_TOL:
        return f"total mass is {total!r}, expected 1 within {MASS_TOL}"
    return None


def reference_smoothing(pairs, eps):
    """(pairs kept, k_star, gamma_eps, total_mass) of the per-atom optimal_smoothing."""
    target = 1.0 - eps
    masses = [math.exp(log_mass(lp, m)) for lp, m in pairs]
    b = None
    cum = 0.0
    for i, m in enumerate(masses):
        if cum + m >= target:
            b = i
            break
        cum += m
    if b is None:
        b = len(pairs) - 1
    cum_before = math.fsum(masses[:b])
    reached = target - NEED_ULPS * math.ulp(1.0)
    while b > 0 and cum_before >= reached:
        b -= 1
        cum_before = math.fsum(masses[:b])
    boundary_lp, mult = pairs[b]
    need = target - cum_before
    p = math.exp(boundary_lp)
    if p > need * 1e-13:
        j = math.ceil(need / p - 1e-12)
        j = min(max(j, 1), mult)
        gamma = min(need - (j - 1) * p, p)
        if gamma > 0.0:
            log_gamma = math.log(gamma)
        else:  # j - 1 whole symbols already reach the target in floats
            j -= 1
            gamma = p
            log_gamma = boundary_lp
    else:
        log_j = math.log(need) - boundary_lp
        if log_j >= math.log(mult):
            j = mult
        else:
            j = min(max(ceil_exp(log_j), 1), mult)
        log_gamma = boundary_lp
        gamma = p
    kept = list(pairs[:b])
    if j > 1:
        kept.append((boundary_lp, j - 1))
    kept.append((log_gamma, 1))
    count_before = sum(m for _, m in pairs[:b])
    total = math.fsum(math.exp(log_mass(lp, m)) for lp, m in kept)
    return kept, count_before + j, gamma, total


def reference_log_power_sum(kept, alpha):
    return reference_logsumexp(math.log(m) + alpha * lp for lp, m in kept)


def reference_tilt(kept, lam):
    beta = 1.0 / (1.0 + lam)
    norm = reference_logsumexp(math.log(m) + beta * lp for lp, m in kept)
    return [(beta * lp - norm, m) for lp, m in kept]


def reference_lengths(tilted):
    xs = [-lp / LN2 for lp, _ in tilted]
    ceiled = [max(math.ceil(x), 0) for x in xs]
    snapped = [
        max(round(x), 0) if abs(x - round(x)) <= LENGTH_SNAP else l for x, l in zip(xs, ceiled)
    ]
    top = max(ceiled, default=0)
    if sum(m << (top - l) for (_, m), l in zip(tilted, snapped)) <= 1 << top:
        return snapped
    return ceiled


def reference_spectrum(pairs, query):
    slack = 1e-12
    picked, dropped = [], []
    for lp, m in pairs:
        rate = -lp / query.n
        if query.direction == "ge":
            ok = rate >= query.threshold - slack
        elif query.direction == "le":
            ok = rate <= query.threshold + slack
        else:
            ok = abs(rate - query.threshold) <= query.gamma + slack
        (picked if ok else dropped).append(math.exp(log_mass(lp, m)))
    # the larger side is read as the complement of the smaller
    kept, rest = math.fsum(picked), math.fsum(dropped)
    return 1.0 - rest if kept > rest else kept


def bits(x):
    """A float's value and sign bit, so that 0.0 and -0.0 compare unequal."""
    return x, math.copysign(1.0, x)


def same(got, expected):
    return got == expected and [bits(x) for x in got] == [bits(x) for x in expected]


@st.composite
def sources(draw):
    """A normalized distribution: random levels, huge multiplicities, near ties."""
    k = draw(st.integers(1, 6))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    mults = draw(st.lists(st.sampled_from([1, 1, 2, 3, 7, 2**70]), min_size=k, max_size=k))
    total = math.fsum(weights)
    pairs = [(math.log(w / total) - math.log(m), m) for w, m in zip(weights, mults)]
    if draw(st.booleans()):
        # split the first level's mass over two symbols a hair apart; apart
        # by 4e-13 they merge, by more than MERGE_TOL = 1e-12 they stay apart
        lp, m = pairs.pop(0)
        d = draw(st.sampled_from([2e-13, 2e-12, 1e-11, 1e-9]))
        half = lp + math.log(m) - math.log(2.0)
        pairs += [(half + d, 1), (half - d, 1)]
    return sc.distribution_from_atoms(pairs)


def eps_values(dist):
    """Budgets that hit partial sums exactly, and one drawn between them."""
    masses = [math.exp(log_mass(lp, m)) for lp, m in zip(dist.log_probs, dist.mults)]
    partial = [1.0 - math.fsum(masses[:i]) for i in range(1, len(masses))]
    return st.one_of(st.sampled_from([0.0, 0.3, 0.7, *[e for e in partial if 0.0 <= e < 1.0]]),
                     st.floats(0.0, 0.999))


@settings(deadline=None)
@given(data=st.data())
def test_column_passes_match_per_atom_references(data):
    dist = data.draw(sources())
    pairs = list(zip(dist.log_probs, dist.mults))
    assert same([dist.log_total_mass()], [reference_log_total_mass(pairs)])
    eps = data.draw(eps_values(dist))
    sub = sc.optimal_smoothing(dist, eps)
    kept, k_star, gamma, total = reference_smoothing(pairs, eps)
    assert same(list(sub.log_probs), [lp for lp, _ in kept])
    assert list(sub.mults) == [m for _, m in kept]
    assert sub.k_star == k_star
    assert same([sub.gamma_eps, sub.total_mass], [gamma, total])
    for alpha in (0.1, 0.5, data.draw(st.floats(0.01, 0.99))):
        assert same([log_power_sum(sub, alpha)], [reference_log_power_sum(kept, alpha)])
    lam = data.draw(st.sampled_from([0.25, 1.0, 2.0]) | st.floats(0.01, 20.0))
    tilted = _tilt(sub.log_probs, sub._log_mults, lam)
    expected = reference_tilt(kept, lam)
    assert same(tilted, [lp for lp, _ in expected])
    assert list(sub.mults) == [m for _, m in expected]
    lengths = reference_lengths(expected)
    top = max(lengths)
    if sum(m << (top - l) for (_, m), l in zip(expected, lengths)) <= 1 << top:
        assert _level_lengths(tilted, sub.mults) == lengths


MIXTURES = [
    [(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])],
    [(0.5, [0.4, 0.35, 0.25]), (0.3, [0.6, 0.3, 0.1]), (0.2, [0.8, 0.15, 0.05])],
    [(0.3, [0.2, 0.3, 0.5]), (0.7, [0.5, 0.5, 0.0])],
]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_spectrum_probability_matches_per_atom_reference(data):
    spec = sc.mixture_spec(data.draw(st.sampled_from(MIXTURES)))
    n = data.draw(st.integers(1, 40))
    dist = sc.mixture_extension(spec, n)
    # thresholds on a level's own rate, where the slack decides
    rate = data.draw(st.sampled_from([-lp / n for lp in dist.log_probs]))
    threshold = data.draw(st.sampled_from([rate, rate + 1e-12, rate - 2e-12, 0.7]))
    direction = data.draw(st.sampled_from(["ge", "le", "within"]))
    gamma = data.draw(st.sampled_from([0.0, 0.01, 0.2])) if direction == "within" else None
    query = sc.SpectrumQuery(n=n, direction=direction, threshold=threshold, gamma=gamma)
    got = spectrum_probability(spec, query)
    assert same([got], [reference_spectrum(list(zip(dist.log_probs, dist.mults)), query)])


def test_one_level_sources_match_references():
    for dist in (sc.new_distribution([1.0]), sc.distribution_from_atoms([(-70 * LN2, 2**70)])):
        pairs = list(zip(dist.log_probs, dist.mults))
        for eps in (0.0, 0.5, 0.9):
            sub = sc.optimal_smoothing(dist, eps)
            kept, k_star, gamma, total = reference_smoothing(pairs, eps)
            assert (sub.log_probs, sub.mults, sub.k_star) == (*map(tuple, zip(*kept)), k_star)
            assert same([sub.gamma_eps, sub.total_mass], [gamma, total])


def test_overfilled_lengths_get_one_more_bit_from_the_tail():
    # -log2 gives lengths 1 and 2 exactly, and 1/2 + 3/4 overfills the tree
    assert _level_lengths((-LN2, -2 * LN2), (1, 3)) == [1, 3]
    # the last level alone cannot make room: both levels get a bit
    assert _level_lengths((-LN2, -2 * LN2), (3, 1)) == [2, 3]


@pytest.fixture(scope="module")
def large_mixtures():
    spec = sc.mixture_spec(MIXTURES[0])
    return {n: sc.mixture_extension(spec, n) for n in (8192, 16384)}


@pytest.mark.parametrize("n", [8192, 16384])
@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 2.0])
def test_codes_fit_the_tree_at_large_blocklengths(large_mixtures, n, lam):
    # -log2 of a fair-coin level's tilted probability rounds onto an integer
    # from above, and the ceiled lengths overfill the tree by a hair
    dist = large_mixtures[n]
    for build in (sc.build_stochastic_code, sc.build_deterministic_code):
        code = build(dist, 0.3, lam)
        # canonical runs are prefix-free iff their dyadic intervals are disjoint in [0, 1)
        word_runs = code.word_runs
        top = word_runs[-1][0]
        end = 0
        for length, start, count in word_runs:
            assert start << (top - length) >= end
            end = (start + count) << (top - length)
        assert end <= 1 << top
    report = sc.sandwich_report(dist, 0.3, lam)
    assert report.error_prob <= 0.3 + 1e-12


@pytest.mark.parametrize("n", [16384, 65536])
def test_the_sandwich_holds_at_large_blocklengths(n):
    # the k=2 mixture's flat span is one level at its one probability, so the
    # model's total mass stays within float noise of 1 and the credited error,
    # summed from the rejected tail, within sandwich_report's 1e-12 of eps
    dist = sc.mixture_extension(sc.mixture_spec(MIXTURES[0]), n)
    assert abs(dist.total_mass() - 1.0) < 1e-11
    for eps in (0.1, 0.3, 0.7):
        report = sc.sandwich_report(dist, eps, 1.0)
        assert report.error_prob <= eps + 1e-12


U = 2.0**-53


@st.composite
def near_edge_levels(draw):
    """(log_prob, multiplicity) pairs whose total sits a few ulps from an edge.

    The edges are 1 +- MASS_TOL, where the exact check decides, and 1 +- the
    plain sum's margin, where the mass column's sum stops deciding. Up to
    10**5 levels; a few sources are far off 1, or overflow a float.
    """
    size = draw(st.sampled_from([1, 2, 3, 10, 1000, 10**5]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mults = [rng.choice([1, 1, 2, 7, 2**70]) for _ in range(size)]
    lps = [math.log(rng.uniform(0.01, 1.0)) - math.log(m) for m in mults]
    margin = MASS_TOL - (2 * size + 64) * U
    edge = draw(st.sampled_from([MASS_TOL, margin, 0.0, 0.5]))
    target = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * edge + draw(st.integers(-4, 4)) * U
    # scale by the target, then move the heaviest level to take up what rounding left over
    shift = math.log(target) - reference_log_total_mass(list(zip(lps, mults)))
    lps = [lp + shift for lp in lps]
    top = max(range(size), key=lambda i: lps[i] + math.log(mults[i]))
    for _ in range(2):
        rest = target - math.exp(reference_log_total_mass(list(zip(lps, mults))))
        lps[top] += math.log1p(rest / math.exp(lps[top] + math.log(mults[top])))
    if draw(st.sampled_from([False] * 19 + [True])):
        lps[top], mults[top] = 0.0, 10**400  # a mass past float range
    assume(max(lps) <= 0.0)  # distribution_from_atoms reads larger log-probs as malformed
    return list(zip(lps, mults))


@settings(deadline=None, max_examples=40)
@given(pairs=near_edge_levels())
def test_mass_check_decides_as_the_exact_check(pairs):
    lps, mults = zip(*pairs)
    expected = reference_check_mass(list(zip(*_normalize_atoms(lps, mults))))
    try:
        sc.distribution_from_atoms(pairs)
        got = None
    except sc.NotNormalized as exc:
        got = str(exc)
    assert got == expected


def test_mass_check_accepts_from_the_plain_sum(monkeypatch):
    # 10**5 levels summing to 1: the column's sum decides, the exact total is never taken
    rng = random.Random(5)
    weights = [rng.uniform(0.01, 1.0) for _ in range(10**5)]
    total = math.fsum(weights)
    pairs = [(math.log(w / total), 1) for w in weights]

    def exact_total(self):
        raise AssertionError("the exact total was taken")

    monkeypatch.setattr(Distribution, "total_mass", exact_total)
    dist = sc.distribution_from_atoms(pairs)
    assert abs(sum(dist._masses) - 1.0) < 1e-12


CACHES = ("_log_mults", "_masses")


def cold_copy(dist):
    """An equal distribution, less the columns the constructor's mass check built."""
    copy = Distribution(dist.log_probs, dist.mults, dist.n)
    for name in CACHES:
        del vars(copy)[name]
    return copy


@settings(deadline=None)
@given(data=st.data())
def test_mass_column_is_invisible(data):
    dist = data.draw(sources())
    fresh, warm = cold_copy(dist), cold_copy(dist)
    assert warm._masses == dist._masses
    assert same(list(warm._log_mults), list(dist._log_mults))
    assert all(name in vars(warm) and name not in vars(fresh) for name in CACHES)
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    assert pickle.dumps(warm) == pickle.dumps(fresh)
    assert not set(CACHES) & set(vars(pickle.loads(pickle.dumps(warm))))
    eps = data.draw(eps_values(dist))
    cold_sub, warm_sub = sc.optimal_smoothing(fresh, eps), sc.optimal_smoothing(warm, eps)
    assert same(list(cold_sub.log_probs) + [cold_sub.gamma_eps],
                list(warm_sub.log_probs) + [warm_sub.gamma_eps])
    assert (cold_sub.mults, cold_sub.k_star) == (warm_sub.mults, warm_sub.k_star)
    # the kept prefix of the log column rides on the smoothing's result, unseen
    by_hand = SubDistribution(warm_sub.log_probs, warm_sub.mults, warm_sub.k_star,
                              warm_sub.gamma_eps)
    assert "_log_mults" in vars(warm_sub) and "_log_mults" not in vars(by_hand)
    assert warm_sub == by_hand and hash(warm_sub) == hash(by_hand)
    assert repr(warm_sub) == repr(by_hand)
    assert pickle.dumps(warm_sub) == pickle.dumps(by_hand)
    assert "_log_mults" not in vars(pickle.loads(pickle.dumps(warm_sub)))


@settings(deadline=None)
@given(data=st.data())
def test_log_column_follows_the_counts_beside_it(data):
    # a sub-distribution built by hand, or copied with other counts, takes the
    # logs of its own counts: none reads a column left from another
    dist = data.draw(sources())
    sub = sc.optimal_smoothing(dist, data.draw(eps_values(dist)))
    by_hand = SubDistribution(sub.log_probs, sub.mults, sub.k_star, sub.gamma_eps)
    factors = data.draw(st.lists(st.sampled_from([1, 2, 3, 2**40]),
                                 min_size=len(sub.mults), max_size=len(sub.mults)))
    replaced = dataclasses.replace(sub, mults=tuple(map(operator.mul, sub.mults, factors)))
    alpha = data.draw(st.floats(0.01, 0.99))
    lam = data.draw(st.floats(0.01, 20.0))
    for kept_sub in (sub, by_hand, replaced):
        kept = list(zip(kept_sub.log_probs, kept_sub.mults))
        assert same(list(kept_sub._log_mults), [math.log(m) for m in kept_sub.mults])
        for a in (0.5, alpha):
            assert same([log_power_sum(kept_sub, a)], [reference_log_power_sum(kept, a)])
        tilted = _tilt(kept_sub.log_probs, kept_sub._log_mults, lam)
        assert same(tilted, [lp for lp, _ in reference_tilt(kept, lam)])


@pytest.mark.parametrize("direction, threshold, gamma", [
    ("ge", 0.5, None), ("le", 0.6, None), ("within", 0.6931, 0.05),
])
def test_spectrum_reads_the_same_cold_or_warm(monkeypatch, direction, threshold, gamma):
    spec = sc.mixture_spec(MIXTURES[1])
    query = sc.SpectrumQuery(n=60, direction=direction, threshold=threshold, gamma=gamma)
    warm = spectrum_probability(spec, query)  # the mass check leaves the column built
    dist = sc.mixture_extension(spec, 60)
    monkeypatch.setattr(asymptotics, "mixture_extension", lambda spec, n: cold_copy(dist))
    assert same([spectrum_probability(spec, query)], [warm])
