import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smoothcode as sc
from smoothcode.smooth_renyi import NEED_ULPS

WORKED = [0.5, 0.3, 0.2]
R_WORKED = math.sqrt(0.5) + math.sqrt(0.3) + math.sqrt(0.1)  # power sum of Q* at eps=0.1


def reference_smoothing(probs, eps):
    """Scalar reference for the truncation optimizer: per-symbol floats, no atoms.

    Returns the kept per-symbol masses, largest first.
    """
    probs = sorted(probs, reverse=True)
    target = 1.0 - eps
    kept = []
    acc = 0.0
    for p in probs:
        if acc + p < target:
            kept.append(p)
            acc += p
        else:
            kept.append(target - acc)
            return kept
    return kept  # parent mass fell short of the target by float error


def test_worked_instance():
    dist = sc.new_distribution(WORKED)
    sub = sc.optimal_smoothing(dist, 0.1)
    assert sub.k_star == 3
    assert sub.gamma_eps == pytest.approx(0.1, abs=1e-12)
    assert sub.probabilities() == pytest.approx([0.5, 0.3, 0.1], abs=1e-12)
    assert sub.total_mass == pytest.approx(0.9, abs=1e-12)


def test_eps_zero_keeps_everything():
    dist = sc.new_distribution(WORKED)
    sub = sc.optimal_smoothing(dist, 0.0)
    assert sub.k_star == 3
    assert sub.gamma_eps == pytest.approx(0.2, abs=1e-12)
    assert sub.probabilities() == pytest.approx(WORKED, abs=1e-12)


def test_uniform_boundary_inside_atom():
    uniform = sc.new_distribution([0.25] * 4)
    sub = sc.optimal_smoothing(uniform, 0.25)
    assert sub.k_star == 3
    assert sub.gamma_eps == pytest.approx(0.25, abs=1e-15)
    # clipped symbol stored separately even though it keeps full mass
    assert sub.mults == (2, 1)


def test_point_mass_collapses_to_one_symbol():
    dist = sc.new_distribution([0.9, 0.1])
    sub = sc.optimal_smoothing(dist, 0.5)
    assert sub.k_star == 1
    assert sub.gamma_eps == pytest.approx(0.5, abs=1e-12)


def test_matches_scalar_reference_on_random_grid():
    rng = np.random.default_rng(11)
    for _ in range(60):
        s = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(s))
        if rng.random() < 0.3:
            # force repeated probabilities so multi-symbol atoms appear
            probs = np.repeat(probs[: s // 2 + 1], 2)[:s]
            probs = probs / probs.sum()
        dist = sc.new_distribution(probs)
        for eps in (0.0, 0.03, 0.2, 0.5, 0.9):
            sub = sc.optimal_smoothing(dist, eps)
            expected = reference_smoothing(list(probs), eps)
            got = sub.probabilities()
            assert sub.k_star == len(expected)
            assert got == pytest.approx(expected, abs=1e-12)
            assert sub.total_mass == pytest.approx(1.0 - eps, abs=1e-12)
            # feasibility: pointwise below the parent
            parent = dist.probabilities()
            assert all(q <= p + 1e-15 for q, p in zip(got, parent))


def test_boundary_agrees_with_the_exact_prefix_sum():
    # eps lands on a partial sum that a running float sum misses by one ulp
    probs = [
        0.1827956989247312,
        0.1720430107526882,
        0.16129032258064518,
        0.13978494623655915,
        0.05376344086021506,
        0.07526881720430108,
        0.09677419354838711,
        0.11827956989247314,
    ]
    eps = 0.22580645161290314
    sub = sc.optimal_smoothing(sc.new_distribution(probs), eps)
    assert sub.k_star == 5
    assert sub.total_mass == 1.0 - eps


def test_mass_missing_by_float_noise_counts_as_reached():
    # 1 - 0.7 is 0.30000000000000004, one ulp above the 0.3 level, which
    # left a boundary at the 0.2 level with gamma_eps 5.55e-17
    dist = sc.new_distribution([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])
    sub = sc.optimal_smoothing(dist, 0.7)
    assert (sub.k_star, sub.gamma_eps) == (1, 0.3)
    assert sc.smooth_max_entropy(dist, 0.7) == 0.0
    code = sc.build_stochastic_code(dist, 0.7, 0.5)
    assert code.inner.codewords == ("",)
    assert code.gamma == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    # a real partial clip a little further on is kept
    sub = sc.optimal_smoothing(dist, 0.6999999999)
    assert sub.k_star == 2 and sub.gamma_eps == pytest.approx(1e-10, rel=1e-5)


def test_a_clip_that_cancels_keeps_its_symbols_whole():
    # need / p is 436,271,090 and a hair, so j is 436,271,091, and need - (j - 1) * p
    # cancels to 0.0: in floats the j - 1 whole symbols already reach the target,
    # and the last of them is the clipped one; j whole symbols would keep
    # p = 1.6e-9 more mass than 1 - eps
    dist = sc.distribution_from_atoms([
        (float.fromhex("-0x1.793b575b65cc8p+0"), 1),
        (float.fromhex("-0x1.43dbc3d48a7b7p+4"), 476008633),
    ])
    eps = float.fromhex("0x1.0798b523de9a5p-4")
    sub = sc.optimal_smoothing(dist, eps)
    assert (sub.k_star, sub.mults) == (1 + 436_271_090, (1, 436_271_089, 1))
    assert sub.gamma_eps == math.exp(dist.log_probs[1])
    assert abs(sub.total_mass - (1.0 - eps)) <= NEED_ULPS * math.ulp(1.0)
    report = sc.sandwich_report(dist, eps, 1.0)
    assert abs(report.error_prob_raw - eps) <= NEED_ULPS * math.ulp(1.0)


def test_parameter_validation():
    dist = sc.new_distribution(WORKED)
    for eps in (-0.01, 1.0, 1.5):
        with pytest.raises(sc.BadEpsilon):
            sc.optimal_smoothing(dist, eps)
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(sc.BadAlpha):
            sc.r_alpha_eps(dist, alpha, 0.1)


def test_power_sum_examples():
    dist = sc.new_distribution(WORKED)
    assert sc.r_alpha_eps(dist, 0.5, 0.1) == pytest.approx(R_WORKED, abs=1e-12)
    eps0 = math.sqrt(0.5) + math.sqrt(0.3) + math.sqrt(0.2)
    assert sc.r_alpha_eps(dist, 0.5, 0.0) == pytest.approx(eps0, abs=1e-12)
    point = sc.new_distribution([1.0])
    assert sc.r_alpha_eps(point, 0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
    uniform = sc.new_distribution([0.25] * 4)
    assert sc.r_alpha_eps(uniform, 0.5, 0.25) == pytest.approx(1.5, abs=1e-12)


def test_entropy_examples():
    dist = sc.new_distribution(WORKED)
    assert sc.smooth_renyi_entropy(dist, 0.5, 0.1) == pytest.approx(
        2.0 * math.log(R_WORKED), abs=1e-12
    )
    # uniform on 2**k at eps=0: every order gives k log 2
    for k in (1, 2, 3):
        uniform = sc.new_distribution([2.0**-k] * 2**k)
        for alpha in (0.2, 0.5, 0.8):
            assert sc.smooth_renyi_entropy(uniform, alpha, 0.0) == pytest.approx(
                k * math.log(2), abs=1e-12
            )
    point = sc.new_distribution([1.0])
    assert sc.smooth_renyi_entropy(point, 0.5, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_entropy_nonincreasing_in_eps():
    rng = np.random.default_rng(5)
    eps_grid = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8]
    for _ in range(25):
        dist = sc.new_distribution(rng.dirichlet(np.ones(int(rng.integers(2, 8)))))
        alpha = float(rng.uniform(0.1, 0.9))
        values = [sc.smooth_renyi_entropy(dist, alpha, e) for e in eps_grid]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12


MIXTURES = {
    2: [(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])],
    3: [(0.5, [0.4, 0.35, 0.25]), (0.3, [0.6, 0.3, 0.1]), (0.2, [0.8, 0.15, 0.05])],
}


@functools.lru_cache(maxsize=None)
def mixture_at(k, n):
    return sc.mixture_extension(sc.mixture_spec(MIXTURES[k]), n)


# blocklengths where many classes take one component's column in the engine;
# the first example of each builds its extension, hence no deadline
@settings(deadline=None)
@given(
    source=st.sampled_from([(2, 1024), (2, 4096), (3, 100), (3, 200)]),
    alpha=st.floats(0.05, 0.95),
    eps=st.lists(st.floats(0.0, 0.95), min_size=2, max_size=2).map(sorted),
)
# ulps halve just below 1.0, so a slack counted in ulps of the target 1 - eps
# would demand more mass at eps 2**-52 than at eps 0 on this source
@example(source=(3, 200), alpha=0.25, eps=[0.0, 2.220446049250313e-16])
def test_mixture_entropy_nonincreasing_in_eps(source, alpha, eps):
    dist = mixture_at(*source)
    low, high = (sc.smooth_renyi_entropy(dist, alpha, e) for e in eps)
    # float slack: a change of the boundary level can move the log-sum-exp's
    # shift and with it the rounding of every term's exponent, an ulp of
    # log-probs that grow with n; 1e-12 of the entropy covers that many times
    assert high <= low + 1e-12 * abs(low)


def test_boundary_below_float_noise_is_bisected(monkeypatch):
    # at eps=0 the last 4,924 of these 20,301 levels hold less mass than float
    # noise, so the boundary moves back past them; one exactly rounded prefix
    # sum per level moved took 15 s here
    dist = mixture_at(3, 200)
    real_fsum, calls = math.fsum, []
    monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or real_fsum(values))
    sub = sc.optimal_smoothing(dist, 0.0)
    monkeypatch.undo()
    assert len(calls) < 40
    # the boundary level b is the last before the first prefix whose exactly
    # rounded mass reaches 1 within NEED_ULPS
    masses = [math.exp(lp + math.log(m)) for lp, m in zip(dist.log_probs, dist.mults)]
    reached = 1.0 - NEED_ULPS * math.ulp(1.0)
    prefixes = itertools.accumulate(map(Fraction, masses), initial=Fraction(0))
    b = next(i for i, mass in enumerate(prefixes) if float(mass) >= reached) - 1
    assert b == 15377
    assert sub.log_probs[:b] == dist.log_probs[:b] and sub.mults[:b] == dist.mults[:b]
    assert len(sub.mults) in (b + 1, b + 2)  # the boundary keeps j - 1 whole symbols, then one


def test_smooth_max_entropy_examples():
    uniform = sc.new_distribution([0.25] * 4)
    assert sc.smooth_max_entropy(uniform, 0.25) == pytest.approx(math.log(3), abs=1e-15)
    assert sc.smooth_max_entropy(uniform, 0.0) == pytest.approx(math.log(4), abs=1e-15)
    dist = sc.new_distribution(WORKED)
    assert sc.smooth_max_entropy(dist, 0.0) == pytest.approx(math.log(3), abs=1e-15)
    point = sc.new_distribution([1.0])
    assert sc.smooth_max_entropy(point, 0.7) == 0.0


def test_never_undercut_by_random_feasible_points():
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        alpha = float(rng.uniform(0.1, 0.9))
        eps = float(rng.uniform(0.0, 0.5))
        r = sc.r_alpha_eps(dist, alpha, eps)
        sampled = sc.smoothing_feasible_search(dist, alpha, eps, trials=400, seed=3)
        assert sampled >= r - 1e-12


def test_lower_bound_against_smooth_max():
    # H_alpha^eps >= H_0^{eps+eps'} - log(1/eps')/(1-alpha)
    rng = np.random.default_rng(17)
    for _ in range(20):
        dist = sc.new_distribution(rng.dirichlet(np.ones(int(rng.integers(2, 9)))))
        for alpha in (0.3, 0.7):
            for eps in (0.0, 0.2):
                for extra in (0.05, 0.2):
                    h = sc.smooth_renyi_entropy(dist, alpha, eps)
                    floor = sc.smooth_max_entropy(dist, eps + extra)
                    floor -= math.log(1.0 / extra) / (1.0 - alpha)
                    assert h >= floor - 1e-9


def test_log_domain_path_at_huge_blocklength():
    # per-symbol probabilities underflow float; counts become big integers
    n = 4096
    coin = sc.new_distribution([0.5, 0.5])
    dist = sc.iid_extension(coin, n)
    sub = sc.optimal_smoothing(dist, 0.1)
    assert sub.k_star > 10**1200  # roughly 0.9 * 2**4096 symbols kept
    h0 = sc.smooth_max_entropy(dist, 0.1)
    assert h0 == pytest.approx(n * math.log(2) + math.log(0.9), abs=1e-9)
    for alpha in (0.3, 0.5):
        h = sc.smooth_renyi_entropy(dist, alpha, 0.1)
        expected = n * math.log(2) + math.log(0.9) / (1.0 - alpha)
        assert h == pytest.approx(expected, abs=1e-6)


def test_sub_distribution_expansion_is_capped(monkeypatch):
    dist = sc.iid_extension(sc.new_distribution(WORKED), 4)
    sub = sc.optimal_smoothing(dist, 0.0)
    monkeypatch.setenv("SMOOTHCODE_CAP", "80")
    with pytest.raises(sc.TooLarge):
        sub.probabilities()
    monkeypatch.setenv("SMOOTHCODE_CAP", "81")
    assert len(sub.probabilities()) == 81


def test_target_within_the_slack_keeps_part_of_the_first_symbol():
    # the target 1 - eps = 2**-53 is below the slack NEED_ULPS * ulp(1.0), so
    # even the empty prefix reaches it; the boundary stays the first level
    for probs in (WORKED, [0.25] * 4, [1.0]):
        sub = sc.optimal_smoothing(sc.new_distribution(probs), 1.0 - 2.0**-53)
        assert (sub.k_star, sub.gamma_eps, sub.mults) == (1, 2.0**-53, (1,))
        assert sub.log_probs == (math.log(2.0**-53),)
