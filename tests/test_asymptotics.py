import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import smoothcode as sc

H_FAIR = math.log(2.0)
H_SKEWED = 0.34651533691866615  # Shannon entropy of a (0.89, 0.11) coin, nats


def standard_mixture():
    return sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])


def test_theoretical_limit_examples():
    spec = standard_mixture()
    assert sc.theoretical_limit(spec, 0.3) == (1, pytest.approx(H_FAIR, abs=1e-12))
    assert sc.theoretical_limit(spec, 0.0) == (1, pytest.approx(H_FAIR, abs=1e-12))
    assert sc.theoretical_limit(spec, 0.59999) == (1, pytest.approx(H_FAIR, abs=1e-12))
    # the boundary budget is enough to delete the first component
    assert sc.theoretical_limit(spec, 0.6) == (2, pytest.approx(H_SKEWED, abs=1e-12))
    assert sc.theoretical_limit(spec, 0.9) == (2, pytest.approx(H_SKEWED, abs=1e-12))


def test_theoretical_limit_single_component():
    spec = sc.mixture_spec([(1.0, [0.7, 0.3])])
    h = sc.shannon_entropy([0.7, 0.3])
    for eps in (0.0, 0.5, 0.99):
        assert sc.theoretical_limit(spec, eps) == (1, pytest.approx(h, abs=1e-12))


def test_theoretical_limit_validation():
    spec = standard_mixture()
    with pytest.raises(sc.BadEpsilon):
        sc.theoretical_limit(spec, 1.0)
    with pytest.raises(sc.BadEpsilon):
        sc.theoretical_limit(spec, -0.1)


def test_achievable_exponent_examples():
    spec = standard_mixture()
    assert sc.achievable_exponent(spec, 1.0, 0.3) == pytest.approx(H_FAIR, abs=1e-12)
    assert sc.achievable_exponent(spec, 2.0, 0.7) == pytest.approx(
        2.0 * H_SKEWED, abs=1e-12
    )
    with pytest.raises(sc.BadLambda):
        sc.achievable_exponent(spec, 0.0, 0.3)


def test_achievable_exponent_point_mass_component():
    spec = sc.mixture_spec([(0.7, [0.5, 0.5]), (0.3, [1.0, 0.0])])
    for lam in (0.5, 1.0, 4.0):
        assert sc.achievable_exponent(spec, lam, 0.8) == 0.0


def test_rate_series_fair_coin_is_flat():
    spec = sc.mixture_spec([(1.0, [0.5, 0.5])])
    series = sc.entropy_rate_series(spec, 0.5, 0.0, [1, 2, 4, 8, 16, 64])
    assert series.component == 1
    assert series.limit == pytest.approx(H_FAIR, abs=1e-12)
    for _, value in series.entries:
        assert value == pytest.approx(H_FAIR, abs=1e-12)


def test_rate_series_matches_direct_computation():
    spec = standard_mixture()
    ns = [1, 2, 4, 8]
    series = sc.entropy_rate_series(spec, 0.3, 0.25, ns)
    assert [n for n, _ in series.entries] == ns
    for n, value in series.entries:
        ext = sc.mixture_extension(spec, n)
        assert value == sc.smooth_renyi_entropy(ext, 0.3, 0.25) / n
    assert series.values() == [v for _, v in series.entries]
    assert series.alpha == 0.3 and series.eps == 0.25
    assert (series.component, series.limit) == sc.theoretical_limit(spec, 0.25)


def test_rate_series_checks_alpha_after_eps_for_any_blocklengths():
    spec = standard_mixture()
    for alpha in (5.0, math.nan, 0.0, 1.0):
        for ns in ([], [0], [4]):
            with pytest.raises(sc.BadAlpha):
                sc.entropy_rate_series(spec, alpha, 0.3, ns)
    with pytest.raises(sc.BadEpsilon):
        sc.entropy_rate_series(spec, 5.0, 1.5, [])


def test_rate_series_limit_tracks_budget():
    spec = standard_mixture()
    low = sc.entropy_rate_series(spec, 0.5, 0.3, [4])
    high = sc.entropy_rate_series(spec, 0.5, 0.7, [4])
    assert (low.component, high.component) == (1, 2)
    assert low.limit == pytest.approx(H_FAIR, abs=1e-12)
    assert high.limit == pytest.approx(H_SKEWED, abs=1e-12)


def test_rate_series_monotone_in_eps():
    spec = standard_mixture()
    grid = [0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9]
    values = [sc.entropy_rate_series(spec, 0.5, e, [8]).values()[0] for e in grid]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev + 1e-12


def test_rate_series_smooth_max_lower_bound():
    # (1/n) H_a^eps >= (1/n) H_0^{eps+eps2} - log(1/eps2) / (n (1-a))
    spec = standard_mixture()
    alpha = 0.5
    for n in (1, 2, 4, 8):
        ext = sc.mixture_extension(spec, n)
        for eps in (0.0, 0.2):
            value = sc.smooth_renyi_entropy(ext, alpha, eps) / n
            for eps2 in (0.05, 0.2):
                floor = sc.smooth_max_entropy(ext, eps + eps2) / n
                floor -= math.log(1.0 / eps2) / (n * (1.0 - alpha))
                assert value >= floor - 1e-9


def test_rate_series_squeezes_toward_limit():
    # band 3*gamma comes from (1 + alpha) / (1 - alpha) at alpha = 0.5; the
    # finite-n correction constant below was measured once and frozen with
    # a comfortable margin. Budgets keep a margin of at least 12*gamma from
    # both ends of their weight interval.
    spec = standard_mixture()
    c = 3.0
    ns = [16, 32, 64, 128, 256, 512]
    for eps, gamma, limit in ((0.3, 0.02, H_FAIR), (0.7, 0.008, H_SKEWED)):
        band = 3.0 * gamma
        series = sc.entropy_rate_series(spec, 0.5, eps, ns)
        assert series.limit == pytest.approx(limit, abs=1e-12)
        for n, value in series.entries:
            assert abs(value - limit) <= band + c / n


def test_spectrum_fair_coin_degenerate():
    spec = sc.mixture_spec([(1.0, [0.5, 0.5])])
    for n in (1, 8, 32):
        mass = sc.spectrum_probability(
            spec, sc.SpectrumQuery(n, "within", H_FAIR, gamma=0.01)
        )
        assert mass == pytest.approx(1.0, abs=1e-12)
    assert sc.spectrum_probability(
        spec, sc.SpectrumQuery(8, "ge", H_FAIR - 0.1)
    ) == pytest.approx(1.0, abs=1e-12)
    assert sc.spectrum_probability(spec, sc.SpectrumQuery(8, "le", H_FAIR - 0.1)) == 0.0


def test_spectrum_hand_enumerated_blocklength_one():
    # symbol masses 0.656 and 0.344, rates -ln(0.656) ~ 0.4216 and ~ 1.0672
    spec = standard_mixture()
    ge = sc.spectrum_probability(spec, sc.SpectrumQuery(1, "ge", 1.0))
    le = sc.spectrum_probability(spec, sc.SpectrumQuery(1, "le", 1.0))
    assert ge == pytest.approx(0.344, abs=1e-12)
    assert le == pytest.approx(0.656, abs=1e-12)
    assert ge + le == pytest.approx(1.0, abs=1e-12)
    within = sc.spectrum_probability(spec, sc.SpectrumQuery(1, "within", 1.0, gamma=0.1))
    assert within == pytest.approx(0.344, abs=1e-12)
    empty = sc.spectrum_probability(spec, sc.SpectrumQuery(1, "within", 0.1, gamma=0.05))
    assert empty == 0.0


def brute_spectrum(pairs, n, direction, threshold, gamma=None):
    alphabet = len(pairs[0][1])
    slack = 1e-12
    picked = []
    for seq in product(range(alphabet), repeat=n):
        p = math.fsum(w * math.prod(probs[s] for s in seq) for w, probs in pairs)
        if p <= 0.0:
            continue
        rate = -math.log(p) / n
        if direction == "ge":
            ok = rate >= threshold - slack
        elif direction == "le":
            ok = rate <= threshold + slack
        else:
            ok = abs(rate - threshold) <= gamma + slack
        if ok:
            picked.append(p)
    return math.fsum(picked)


def test_spectrum_matches_sequence_enumeration():
    cases = [
        ([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])], 5),
        ([(0.7, [0.5, 0.3, 0.2]), (0.3, [0.8, 0.15, 0.05])], 4),
    ]
    for pairs, max_n in cases:
        spec = sc.mixture_spec(pairs)
        for n in range(1, max_n + 1):
            for direction, thr, g in (
                ("ge", 0.5, None),
                ("le", 0.9, None),
                ("within", 0.7, 0.2),
            ):
                got = sc.spectrum_probability(
                    spec, sc.SpectrumQuery(n, direction, thr, gamma=g)
                )
                want = brute_spectrum(pairs, n, direction, thr, g)
                assert got == pytest.approx(want, abs=1e-12)


def test_spectrum_query_validation():
    with pytest.raises(ValueError):
        sc.SpectrumQuery(4, "up", 0.5)
    with pytest.raises(ValueError):
        sc.SpectrumQuery(4, "within", 0.5)
    with pytest.raises(ValueError):
        sc.SpectrumQuery(4, "within", 0.5, gamma=-0.1)
    with pytest.raises(ValueError):
        sc.SpectrumQuery(0, "ge", 0.5)
    with pytest.raises(ValueError):
        sc.SpectrumQuery(4, "ge", math.nan)
    with pytest.raises(ValueError):
        sc.SpectrumQuery(4, "within", 0.5, gamma=math.nan)
    for threshold, gamma in ((math.inf, None), (-math.inf, None), (0.5, math.inf)):
        with pytest.raises(ValueError, match="infinite"):
            sc.SpectrumQuery(4, "within" if gamma else "ge", threshold, gamma=gamma)
    sc.SpectrumQuery(4, "ge", 0.5)  # gamma optional here
    sc.SpectrumQuery(4, "within", -1e308, gamma=1e308)


def first_holding_n(pairs, bound):
    for n, value in pairs:
        if value >= bound - 1e-12:
            return n
    return None


def test_spectrum_tail_bounds_with_onset():
    # For component i with entropy H_i, cumulative weights A and gamma > 0:
    #   mass(rate >= H_i - gamma) >= A_{i+1} - gamma
    #   mass(rate <= H_i + gamma) >= 1 - A_i - gamma
    #   w_i - 2*gamma <= mass(|rate - H_i| <= gamma) <= w_i + 2*gamma
    # each from some blocklength onward. The test records the first tested n
    # where each inequality holds and requires it to keep holding after that.
    spec = standard_mixture()
    gamma = 0.05
    ns = [256, 512, 1024, 2048]
    ents = [H_FAIR, H_SKEWED]
    cum = spec.cumulative_weights()
    weights = [0.6, 0.4]

    for i in (1, 2):
        h = ents[i - 1]
        ge = [
            (n, sc.spectrum_probability(spec, sc.SpectrumQuery(n, "ge", h - gamma)))
            for n in ns
        ]
        le = [
            (n, sc.spectrum_probability(spec, sc.SpectrumQuery(n, "le", h + gamma)))
            for n in ns
        ]
        within = [
            (n, sc.spectrum_probability(spec, sc.SpectrumQuery(n, "within", h, gamma=gamma)))
            for n in ns
        ]

        ge_onset = first_holding_n(ge, cum[i] - gamma)
        le_onset = first_holding_n(le, 1.0 - cum[i - 1] - gamma)
        assert ge_onset is not None and le_onset is not None
        for n, value in ge:
            if n >= ge_onset:
                assert value >= cum[i] - gamma - 1e-12
        for n, value in le:
            if n >= le_onset:
                assert value >= 1.0 - cum[i - 1] - gamma - 1e-12
        for _, value in within:
            assert weights[i - 1] - 2 * gamma - 1e-12 <= value
            assert value <= weights[i - 1] + 2 * gamma + 1e-12

        if i == 1:
            # all three hold from the first tested blocklength on
            assert ge_onset == 256 and le_onset == 256
        else:
            # the upper tail bound needs larger n before it first holds
            assert ge_onset == 256
            assert le_onset == 512


MIXTURES = [
    standard_mixture(),
    sc.mixture_spec(
        [(0.5, [0.4, 0.35, 0.25]), (0.3, [0.6, 0.3, 0.1]), (0.2, [0.8, 0.15, 0.05])]
    ),
]


@given(
    spec=st.sampled_from(MIXTURES),
    n=st.integers(1, 64),
    direction=st.sampled_from(["ge", "le", "within"]),
    threshold=st.one_of(st.floats(-1.0, 3.0), st.sampled_from([-1e308, 1e308])),
    gamma=st.one_of(st.floats(0.0, 2.0), st.just(1e308)),
)
def test_spectrum_probability_lies_in_unit_interval(spec, n, direction, threshold, gamma):
    query = sc.SpectrumQuery(n, direction, threshold, gamma if direction == "within" else None)
    assert 0.0 <= sc.spectrum_probability(spec, query) <= 1.0
