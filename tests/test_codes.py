import copy
import dataclasses
import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smoothcode as sc
from smoothcode import codes
from smoothcode.codes import CodeRun, _canonical_starts

WORKED = [0.5, 0.3, 0.2]


def worked_sub():
    return sc.optimal_smoothing(sc.new_distribution(WORKED), 0.1)


def test_tilted_uniform_is_fixed_point():
    sub = sc.optimal_smoothing(sc.new_distribution([0.25] * 4), 0.0)
    for lam in (0.5, 1.0, 3.0):
        for length in sc.ideal_real_lengths(sub, lam):
            assert math.exp(-length) == pytest.approx(0.25, abs=1e-15)


def test_tilted_worked_instance():
    # Q = (0.5, 0.3, 0.1), lambda = 1: tilt is sqrt(Q) renormalized
    norm = math.sqrt(0.5) + math.sqrt(0.3) + math.sqrt(0.1)
    expected = [math.sqrt(q) / norm for q in (0.5, 0.3, 0.1)]
    got = [math.exp(-length) for length in sc.ideal_real_lengths(worked_sub(), 1.0)]
    assert got == pytest.approx(expected, abs=1e-12)


def test_tilted_is_normalized_on_random_inputs():
    rng = np.random.default_rng(23)
    for _ in range(30):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        sub = sc.optimal_smoothing(dist, float(rng.uniform(0.0, 0.6)))
        tilted = codes._tilt(sub.log_probs, sub._log_mults, float(rng.uniform(0.1, 5.0)))
        total = math.fsum(m * math.exp(lp) for lp, m in zip(tilted, sub.mults))
        assert total == pytest.approx(1.0, abs=1e-12)
        # tilting preserves the ordering
        lps = list(tilted)
        assert lps == sorted(lps, reverse=True)


def test_tilted_requires_positive_lambda():
    for lengths in (sc.ideal_real_lengths, sc.shannon_lengths):
        with pytest.raises(sc.BadLambda):
            lengths(worked_sub(), 0.0)


def test_shannon_lengths_examples():
    uniform_sub = sc.optimal_smoothing(sc.new_distribution([0.25] * 4), 0.0)
    assert sc.shannon_lengths(uniform_sub, 2.0) == [2, 2, 2, 2]

    assert sc.shannon_lengths(worked_sub(), 1.0) == [2, 2, 3]

    point_sub = sc.optimal_smoothing(sc.new_distribution([1.0]), 0.0)
    assert sc.shannon_lengths(point_sub, 1.0) == [0]


def test_shannon_lengths_satisfy_kraft():
    rng = np.random.default_rng(29)
    for _ in range(40):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        sub = sc.optimal_smoothing(dist, float(rng.uniform(0.0, 0.5)))
        lengths = sc.shannon_lengths(sub, float(rng.uniform(0.2, 4.0)))
        assert sum(Fraction(1, 2**l) for l in lengths) <= 1


def test_canonical_codeword_examples():
    assert sc.assign_canonical_codewords([1, 2, 2]).codewords == ("0", "10", "11")
    assert sc.assign_canonical_codewords([2, 2, 2, 2]).codewords == ("00", "01", "10", "11")
    assert sc.assign_canonical_codewords([0]).codewords == ("",)
    # assignment follows the requested order, not the sorted one
    assert sc.assign_canonical_codewords([2, 1, 2]).codewords == ("10", "0", "11")


def test_canonical_rejects_overfull_lengths():
    for lengths in ([1, 1, 2], [0, 1], [0, 0], [1, 1, 1]):
        with pytest.raises(sc.KraftViolated):
            sc.assign_canonical_codewords(lengths)
    with pytest.raises(ValueError):
        sc.assign_canonical_codewords([-1])


def test_canonical_reads_integral_numbers_and_rejects_the_rest():
    assert sc.assign_canonical_codewords([1.0, 1.0]).codewords == ("0", "1")
    assert sc.assign_canonical_codewords([-0.0]).codewords == ("",)
    assert sc.assign_canonical_codewords([2.0, 1, 2]).codewords == ("10", "0", "11")
    for bad in (-1, -2.0, 1.5, math.inf, -math.inf, math.nan, "a", "1", None, 1j, [1]):
        with pytest.raises(ValueError, match="^codeword lengths must be nonnegative integers$"):
            sc.assign_canonical_codewords([1, bad])


def reference_canonical_codewords(lengths):
    """First-fit words symbol by symbol, as assign_canonical_codewords once numbered them."""
    order = sorted(range(len(lengths)), key=lambda i: lengths[i])
    words = [""] * len(lengths)
    value = 0
    prev_len = None
    for i in order:
        l = lengths[i]
        if prev_len is not None:
            value = (value + 1) << (l - prev_len)
        if value >= (1 << l):
            raise sc.KraftViolated(f"lengths {sorted(lengths)} overfill the binary tree")
        words[i] = bin((1 << l) + value)[3:]
        prev_len = l
    return tuple(words)


@settings(max_examples=300)
@given(st.lists(st.integers(0, 10), max_size=12))
def test_canonical_words_match_the_first_fit_reference(lengths):
    try:
        expected = reference_canonical_codewords(lengths)
    except sc.KraftViolated:
        with pytest.raises(sc.KraftViolated):
            sc.assign_canonical_codewords(lengths)
        return
    assert sc.assign_canonical_codewords(lengths).codewords == expected


def test_canonical_random_multisets_are_prefix_free():
    rng = np.random.default_rng(31)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        lengths = sorted(int(rng.integers(1, 9)) for _ in range(k))
        feasible = sum(Fraction(1, 2**l) for l in lengths) <= 1
        if not feasible:
            with pytest.raises(sc.KraftViolated):
                sc.assign_canonical_codewords(lengths)
            continue
        code = sc.assign_canonical_codewords(lengths)
        assert code.lengths_bits == tuple(lengths)
        assert code.is_prefix_free()
        assert code.kraft_sum() <= 1.0 + 1e-15


def test_prefix_code_helpers():
    assert not sc.PrefixCode(("0", "01")).is_prefix_free()
    assert not sc.PrefixCode(("1", "1")).is_prefix_free()
    assert sc.PrefixCode(("0", "10", "11")).kraft_sum() == pytest.approx(1.0)
    assert sc.PrefixCode(("",)).is_prefix_free()


def test_build_stochastic_worked_instance():
    dist = sc.new_distribution(WORKED)
    code = sc.build_stochastic_code(dist, 0.1, 1.0)
    assert code.gamma[0] == 1.0 and code.gamma[1] == 1.0
    assert code.gamma[2] == pytest.approx(0.5, abs=1e-12)
    assert code.inner.codewords == ("00", "01", "100")
    assert [code.accept_word(i) for i in range(3)] == ["000", "001", "0100"]
    assert [code.accept_length_bits(i) for i in range(3)] == [3, 3, 4]
    assert code.reject == "1"
    assert code.decoder_for_reject == 2
    assert not code.is_deterministic


def test_build_stochastic_uniform():
    uniform = sc.new_distribution([0.25] * 4)
    code = sc.build_stochastic_code(uniform, 0.0, 2.0)
    assert code.gamma == (1.0, 1.0, 1.0, 1.0)
    assert set(code.inner.lengths_bits) == {2}


def test_build_point_mass_codes():
    point = sc.new_distribution([1.0])
    stoch = sc.build_stochastic_code(point, 0.0, 1.0)
    assert stoch.accept_word(0) == "0"
    assert stoch.gamma == (1.0,)

    det = sc.build_deterministic_code(point, 0.0, 1.0)
    assert det.inner.codewords == ()
    assert det.gamma == (0.0,)
    assert det.decoder_for_reject == 0
    assert det.is_deterministic


def test_build_deterministic_worked_instance():
    dist = sc.new_distribution(WORKED)
    code = sc.build_deterministic_code(dist, 0.1, 1.0)
    assert code.gamma == (1.0, 1.0, 0.0)
    assert code.inner.codewords == ("0", "10")
    assert code.is_deterministic
    assert code.decoder_for_reject == 2


def test_flag_codes_are_prefix_free_with_reject():
    rng = np.random.default_rng(37)
    for _ in range(30):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        eps = float(rng.uniform(0.0, 0.5))
        lam = float(rng.uniform(0.2, 3.0))
        for build in (sc.build_stochastic_code, sc.build_deterministic_code):
            code = build(dist, eps, lam)
            words = [w for i in range(s) if (w := code.accept_word(i)) is not None]
            full = sc.PrefixCode(tuple(words) + (code.reject,))
            assert full.is_prefix_free()


def test_stochastic_gamma_structure():
    rng = np.random.default_rng(41)
    for _ in range(30):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        eps = float(rng.uniform(0.0, 0.6))
        code = sc.build_stochastic_code(dist, eps, 1.0)
        sub = sc.optimal_smoothing(dist, eps)
        k = sub.k_star
        assert all(g == 1.0 for g in code.gamma[: k - 1])
        assert 0.0 < code.gamma[k - 1] <= 1.0
        assert all(g == 0.0 for g in code.gamma[k:])


def test_length_bound_against_tilted_probabilities():
    # accepted length in nats stays within -log(tilted prob) + 2 log 2
    rng = np.random.default_rng(43)
    ln2 = math.log(2)
    for _ in range(30):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        eps = float(rng.uniform(0.0, 0.5))
        lam = float(rng.uniform(0.2, 3.0))
        sub = sc.optimal_smoothing(dist, eps)
        code = sc.build_stochastic_code(dist, eps, lam)
        for i, ideal in enumerate(sc.ideal_real_lengths(sub, lam)):
            nat_len = code.accept_length_bits(i) * ln2
            assert nat_len <= ideal + 2 * ln2 + 1e-9


def test_decode_round_trip():
    dist = sc.new_distribution(WORKED)
    code = sc.build_stochastic_code(dist, 0.1, 1.0)
    for i in range(3):
        assert code.decode(code.accept_word(i)) == i
    assert code.decode("1") == code.decoder_for_reject
    with pytest.raises(ValueError):
        code.decode("0111")


def test_decode_every_word_of_a_large_code():
    # 31,697 words: decoding each by a scan of the word list took about 17 s
    code = sc.build_stochastic_code(sc.iid_extension(sc.new_distribution(WORKED), 10), 0.1, 1.0)
    words = code.inner.codewords
    assert len(words) == 31697
    read_back = sc.codebook_from_json(sc.codebook_to_json(code))  # keeps explicit words
    for c in (code, read_back):
        assert list(map(c.decode, map("0".__add__, words))) == list(range(len(words)))
        assert c.decode(c.reject) == c.decoder_for_reject
        for word in ("", "0", "00", "0" + words[-1] + "0", "11"):
            with pytest.raises(ValueError, match="^not a codeword: "):
                c.decode(word)


def _reject_target_by_symbols(code, dist):
    """First symbol with the largest rejected mass p * (1 - gamma), symbol by symbol."""
    rejected = [p * (1.0 - g) for p, g in zip(dist.probabilities(), code.gamma)]
    return rejected.index(max(rejected))


def _dirichlet(rng, k):
    draws = [rng.gammavariate(1.0, 1.0) for _ in range(k)]
    total = sum(draws)
    return [x / total for x in draws]


def _underflowing(weights, log_prob, mult, deficit):
    """Weights normalized to 1 - deficit, then mult symbols of probability exp(log_prob).

    Below about exp(-745) that probability underflows to 0.0, and so does
    every rejected mass on its level.
    """
    total = sum(weights)
    atoms = [(math.log(w / total * (1.0 - deficit)), 1) for w in weights]
    return sc.distribution_from_atoms(atoms + [(log_prob, mult)])


# tied levels, random levels, levels whose masses underflow, and the
# benchmark's sources: small_many's seeded Dirichlet draws over supports 3-64
# and product_codes' [0.5,0.3,0.2]^n
_reject_sources = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=12).map(lambda w: [x / sum(w) for x in w]),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12).map(lambda w: [x / sum(w) for x in w]),
    st.builds(
        _underflowing,
        st.lists(st.integers(1, 4), min_size=1, max_size=6),
        st.floats(-900.0, -700.0),
        st.integers(1, 5),
        st.sampled_from([0.0, 1e-12, 1e-10]),
    ),
    st.tuples(st.integers(0, 2**32), st.integers(3, 64)).map(
        lambda a: _dirichlet(random.Random(a[0]), a[1])
    ),
    st.sampled_from([10, 12]),
)


@settings(deadline=None)
@given(
    source=_reject_sources,
    eps=st.one_of(
        st.just(0.0),
        st.floats(0.0, 0.99),
        st.sampled_from([0.05, 0.1, 0.2]),
        st.integers(1, 8).map(lambda k: 1.0 - k * 2.0**-53),  # within ulps of 1
    ),
    level=st.integers(0, 2**16),
    deterministic=st.booleans(),
)
def test_reject_target_matches_a_scan_over_symbols(source, eps, level, deterministic):
    if isinstance(source, int):
        dist = sc.iid_extension(sc.new_distribution(WORKED), source)
    elif isinstance(source, sc.Distribution):
        dist = source
    else:
        dist = sc.new_distribution(source)
    build = sc.build_deterministic_code if deterministic else sc.build_stochastic_code
    i = level % len(dist.mults)
    before, p = math.fsum(dist._masses[:i]), math.exp(dist.log_probs[i])
    budgets = (
        eps,
        1.0 - math.exp(dist.log_probs[0]),  # the first symbol alone: k_star = 1
        1.0 - 0.5 * math.exp(dist.log_probs[0]),  # k_star = 1, clipped to half
        1.0 - before - p,  # level i clipped at its first symbol, j = 1
        1.0 - before - dist._masses[i],  # level i clipped at its last symbol, j = mult
    )
    for budget in budgets:
        if 0.0 <= budget < 1.0:
            code = build(dist, budget, 1.0)
            assert code.decoder_for_reject == _reject_target_by_symbols(code, dist)


def _levels(mults, scale=1):
    """A distribution with these multiplicities times scale, on strictly decreasing levels."""
    weights = range(len(mults), 0, -1)
    total = sum(w * m for w, m in zip(weights, mults))
    return sc.distribution_from_atoms(
        [(math.log(w / total / scale), m * scale) for w, m in zip(weights, mults)]
    )


_codings = st.tuples(st.sampled_from([0.0, 0.25, 1.0]), st.sampled_from([None, 3, 4]))


@settings(deadline=None)
@given(
    mults=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    cuts=st.lists(st.integers(0, 48), max_size=12),
    codings=st.lists(_codings, min_size=13, max_size=13),
)
def test_segments_cut_runs_at_levels_by_counts(mults, cuts, codings):
    # runs end at arbitrary cuts, repeated ones giving empty runs, so a run
    # may span several levels and a level several runs
    total = sum(mults)
    ends = [*sorted(min(c, total) for c in cuts), total]
    counts = list(map(operator.sub, ends, [0, *ends[:-1]]))
    runs = [CodeRun(c, g, bits) for c, (g, bits) in zip(counts, codings)]
    dist = _levels(mults)
    # (log_prob, count, gamma, accept_bits) tuples, yielded as the cut is made
    segments = list(codes._segments(runs, dist))
    assert all(type(s) is tuple and len(s) == 4 and s[1] > 0 for s in segments)
    levels = sc.distributions._expand_levels(dist.log_probs, dist.mults)
    run_codings = sc.distributions._expand_levels([r[1:] for r in runs], counts)
    expanded = [(lp, (gamma, bits)) for lp, count, gamma, bits in segments for _ in range(count)]
    assert expanded == list(zip(levels, run_codings))
    # a segment ends exactly where a run or a level ends
    cut_at = sorted({*ends, *itertools.accumulate(mults)} - {0})
    assert list(itertools.accumulate(s[1] for s in segments)) == cut_at
    # the same walk with every count 2**70 times larger
    scale = 2**70
    big = codes._segments([r._replace(count=r.count * scale) for r in runs], _levels(mults, scale))
    big = list(big)
    assert [s[1] for s in big] == [s[1] * scale for s in segments]
    assert [s[2:] for s in big] == [s[2:] for s in segments]
    # totals off by one either way
    last = max(i for i, c in enumerate(counts) if c)
    shorter = [*runs[:last], runs[last]._replace(count=counts[last] - 1), *runs[last + 1 :]]
    for off, covered in ((runs + [CodeRun(1, 0.0, None)], total + 1), (shorter, total - 1)):
        with pytest.raises(
            sc.Misaligned, match=f"^code covers {covered} symbols, distribution has {total}$"
        ):
            list(codes._segments(off, dist))


@settings(deadline=None)
@given(
    mults=st.lists(st.integers(1, 6), min_size=1, max_size=8),
    eps=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
)
def test_boundary_level_is_read_off_the_kept_prefix(mults, eps):
    # the level holding symbol k_star - 1, counted down the levels; the
    # boundary may be clipped at its first symbol, its last, or between
    dist = _levels(mults)
    sub = sc.optimal_smoothing(dist, eps)
    index = sub.k_star - 1
    for level, mult in enumerate(dist.mults):
        if index < mult:
            break
        index -= mult
    assert codes._boundary_level(dist, sub) == level


def test_packed_keeps_the_count_of_a_lone_run():
    big = 2**4000 + 1
    runs = codes._packed([(big, 1.0, 3), (2, 0.5, 3), (big, 0.0, None), (5, 0.0, None)])
    assert runs == (CodeRun(big, 1.0, 3), CodeRun(2, 0.5, 3), CodeRun(big + 5, 0.0, None))
    assert runs[0].count is big


def test_ideal_real_lengths_worked_instance():
    sub = worked_sub()
    lengths = sc.ideal_real_lengths(sub, 1.0)
    norm = math.sqrt(0.5) + math.sqrt(0.3) + math.sqrt(0.1)
    expected = [-math.log(math.sqrt(q) / norm) for q in (0.5, 0.3, 0.1)]
    assert lengths == pytest.approx(expected, abs=1e-12)


def test_ideal_real_lengths_meet_kraft_with_equality():
    rng = np.random.default_rng(47)
    for _ in range(30):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        sub = sc.optimal_smoothing(dist, float(rng.uniform(0.0, 0.5)))
        lengths = sc.ideal_real_lengths(sub, float(rng.uniform(0.2, 4.0)))
        assert math.fsum(math.exp(-l) for l in lengths) == pytest.approx(1.0, abs=1e-12)


def test_ideal_real_lengths_are_locally_optimal():
    rng = np.random.default_rng(53)
    sub = worked_sub()
    lam = 1.0
    q = sub.probabilities()
    lengths = sc.ideal_real_lengths(sub, lam)
    base = math.fsum(qi * math.exp(lam * li) for qi, li in zip(q, lengths))
    for _ in range(100):
        delta = rng.normal(0.0, 0.1, len(lengths))
        pert = [l + d for l, d in zip(lengths, delta)]
        shift = math.log(math.fsum(math.exp(-l) for l in pert))
        pert = [l + shift for l in pert]  # back on the Kraft-equality surface
        value = math.fsum(qi * math.exp(lam * li) for qi, li in zip(q, pert))
        assert value >= base - 1e-9


def test_codebook_json_round_trip():
    # on the second source eps keeps the boundary symbol whole, so the
    # stochastic code's acceptance probabilities are all 0 or 1 as well
    for probs, eps in ((WORKED, 0.1), ([0.5, 0.25, 0.25], 0.25)):
        dist = sc.new_distribution(probs)
        for build in (sc.build_stochastic_code, sc.build_deterministic_code):
            code = build(dist, eps, 1.0)
            clone = sc.codebook_from_json(sc.codebook_to_json(code))
            assert type(code) is sc.StochasticCode
            assert clone == code
            assert clone.gamma == code.gamma
            assert clone.inner.codewords == code.inner.codewords
            assert clone.decoder_for_reject == code.decoder_for_reject
            assert clone.reject == code.reject
            assert clone.is_deterministic == code.is_deterministic


@settings(deadline=None)
@given(
    # small integer weights make ties; float weights make distinct letters
    weights=st.lists(st.one_of(st.integers(1, 4), st.floats(0.001, 1.0)), min_size=1, max_size=64),
    eps=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    lam=st.one_of(st.floats(0.01, 8.0), st.sampled_from([0.5, 1.0, 2.0])),
    deterministic=st.booleans(),
)
def test_codebook_round_trip_on_drawn_sources(weights, eps, lam, deterministic):
    total = math.fsum(weights)
    dist = sc.new_distribution([w / total for w in weights])
    build = sc.build_deterministic_code if deterministic else sc.build_stochastic_code
    code = build(dist, eps, lam)
    text = codes._codebook_text(code)
    compact = json.dumps(json.loads(text), separators=(",", ":"))
    clones = [
        sc.codebook_from_json(json.loads(text)),
        sc.codebook_from_json(json.loads(compact)),
        codes._codebook_from_bytes(text.encode()),
        codes._codebook_from_bytes(compact.encode()),
    ]
    for clone in clones:
        assert clone == code
        assert clone.gamma == code.gamma
        assert clone.inner.codewords == code.inner.codewords


def test_codebook_from_json_validation():
    good = sc.codebook_to_json(sc.build_stochastic_code(sc.new_distribution(WORKED), 0.1, 1.0))

    bad = {**good, "entries": [dict(e) for e in good["entries"]]}
    bad["entries"][0]["gamma"] = 1.5
    with pytest.raises(ValueError):
        sc.codebook_from_json(bad)

    bad = {**good, "entries": [dict(e) for e in good["entries"]]}
    bad["entries"][1]["codeword"] = None  # still has gamma 1.0
    with pytest.raises(ValueError):
        sc.codebook_from_json(bad)

    bad = {**good, "entries": [dict(e) for e in good["entries"]]}
    bad["entries"][0]["codeword"] = "0100"  # duplicates entry 2's word
    with pytest.raises(sc.KraftViolated):
        sc.codebook_from_json(bad)

    bad = {**good, "entries": [dict(e) for e in good["entries"]]}
    bad["entries"][0]["codeword"] = "100"  # missing the accept flag bit
    with pytest.raises(ValueError):
        sc.codebook_from_json(bad)

    bad = {**good, "decoder_for_reject": 9}
    with pytest.raises(ValueError):
        sc.codebook_from_json(bad)

    with pytest.raises(ValueError):
        sc.codebook_from_json({"reject": "1", "entries": []})


def per_symbol_code(dist, eps, lam, deterministic):
    """gamma, inner words and reject target of the flag-bit code, symbol by symbol."""
    sub = sc.optimal_smoothing(dist, eps)
    probs = dist.probabilities()
    k = sub.k_star
    if deterministic:
        gamma = [1.0] * (k - 1) + [0.0] * (len(probs) - k + 1)
        sub = dataclasses.replace(sub, log_probs=sub.log_probs[:-1], mults=sub.mults[:-1])
    else:
        g_b = min(sub.gamma_eps / probs[k - 1], 1.0)
        gamma = [1.0] * (k - 1) + [g_b] + [0.0] * (len(probs) - k)
    lengths = sc.shannon_lengths(sub, lam)
    words = sc.assign_canonical_codewords(lengths).codewords
    rejected = [p * (1.0 - g) for p, g in zip(probs, gamma)]
    return tuple(gamma), words, rejected.index(max(rejected))


def referee_sources():
    rng = np.random.default_rng(73)
    sources = [sc.new_distribution(rng.dirichlet(np.ones(int(rng.integers(2, 9))))) for _ in range(15)]
    sources += [
        sc.new_distribution([0.25] * 4),
        sc.new_distribution([0.3, 0.2, 0.2, 0.1, 0.1, 0.1]),
        sc.iid_extension(sc.new_distribution(WORKED), 8),
    ]
    return sources


@pytest.mark.parametrize("deterministic", [False, True])
def test_level_built_codes_match_per_symbol_construction(deterministic):
    build = sc.build_deterministic_code if deterministic else sc.build_stochastic_code
    for dist in referee_sources():
        for eps, lam in ((0.0, 1.0), (0.05, 0.5), (0.2, 2.0), (0.5, 1.0)):
            code = build(dist, eps, lam)
            gamma, words, decoder = per_symbol_code(dist, eps, lam, deterministic)
            assert code.gamma == gamma
            assert code.inner.codewords == words
            assert code.decoder_for_reject == decoder
            assert code.num_symbols == dist.support_size


def test_codebook_from_json_packs_equal_entries():
    dist = sc.new_distribution([0.25] * 4)
    code = sc.build_stochastic_code(dist, 0.3, 1.0)
    clone = sc.codebook_from_json(sc.codebook_to_json(code))
    assert [(r.count, r.gamma, r.accept_bits) for r in clone.runs] == [
        (2, 1.0, 3),
        (1, pytest.approx(0.8), 3),
        (1, 0.0, None),
    ]
    assert clone.inner.codewords == code.inner.codewords == ("00", "01", "10")


def test_code_views_respect_the_cap(monkeypatch):
    code = sc.build_stochastic_code(sc.iid_extension(sc.new_distribution(WORKED), 4), 0.0, 1.0)
    monkeypatch.setenv("SMOOTHCODE_CAP", "80")
    with pytest.raises(sc.TooLarge):
        code.gamma
    with pytest.raises(sc.TooLarge):
        code.inner
    monkeypatch.setenv("SMOOTHCODE_CAP", "81")
    assert len(code.gamma) == 81


def test_code_equality_ignores_how_the_code_was_made():
    dist = sc.new_distribution([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])
    for build in (sc.build_stochastic_code, sc.build_deterministic_code):
        code = build(dist, 0.15, 1.0)
        clone = sc.codebook_from_json(sc.codebook_to_json(code))
        assert clone == code and code == clone
        assert hash(clone) == hash(code)
        assert code == build(dist, 0.15, 1.0)
    # same runs, gammas and lengths, but two words swapped
    code = sc.build_stochastic_code(dist, 0.15, 1.0)
    book = sc.codebook_to_json(code)
    first, second = book["entries"][1]["codeword"], book["entries"][2]["codeword"]
    assert len(first) == len(second)
    book["entries"][1]["codeword"], book["entries"][2]["codeword"] = second, first
    swapped = sc.codebook_from_json(book)
    assert swapped.runs == code.runs
    assert swapped != code


def reference_codebook_from_json(obj):
    """The reader as it was before it checked column by column: one entry at a time."""
    entries = obj["entries"]
    if not entries:
        raise ValueError("codebook has no entries")
    reject = str(obj["reject"])
    codings = []
    inner_words = []
    for i, e in enumerate(entries):
        g = float(e["gamma"])
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"gamma out of [0, 1] at entry {i}")
        word = e["codeword"]
        if word is None:
            if g > 0.0:
                raise ValueError(f"entry {i} can be accepted but has no codeword")
            codings.append((1, g, None))
        else:
            if len(inner_words) != i:
                raise ValueError("coded symbols must form a leading block of the entries")
            if not word.startswith("0"):
                raise ValueError(f"accept codeword must start with the flag bit '0': {word!r}")
            inner_words.append(word[1:])
            codings.append((1, g, len(word)))
    runs = tuple(
        CodeRun(sum(run[0] for run in group), gamma, bits)
        for (gamma, bits), group in itertools.groupby(codings, key=lambda run: run[1:])
    )
    words = sorted(tuple("0" + w for w in inner_words) + (reject,))
    if any(b.startswith(a) for a, b in zip(words, words[1:])):
        raise sc.KraftViolated("codebook words are not prefix-free")
    decoder = int(obj.get("decoder_for_reject", 0))
    if not 0 <= decoder < len(entries):
        raise ValueError("decoder_for_reject out of range")
    # a word extends the previous word run when it has the same coding and
    # the next value; a word of other characters, which the reader rejects,
    # gets the value -2, which no word continues
    word_runs = []
    for i, word in enumerate(inner_words):
        value = int("0" + word, 2) if set(word) <= {"0", "1"} else -2
        if i and codings[i] == codings[i - 1] and value == sum(word_runs[-1][1:]):
            word_runs[-1] = (len(word), word_runs[-1][1], word_runs[-1][2] + 1)
        else:
            word_runs.append((len(word), value, 1))
    return sc.StochasticCode(
        runs=runs,
        decoder_for_reject=decoder,
        reject=reject,
        word_runs=tuple(word_runs),
    )


ODD_VALUES = [None, True, 0, 1, -1, 0.0, 0.5, 1.0, 1.5, -0.0, math.nan, math.inf, 10**400,
              "", "0", "1", "00", "0.5", "abc", [1], ["0"], {"gamma": 1.0}]


def mutate(book, rng):
    """Apply one random change to a codebook JSON object, in place; may return a new object."""
    entries = book["entries"]
    i = rng.randrange(len(entries)) if entries else 0
    kind = rng.randrange(10)
    if kind == 0 and entries and isinstance(entries[i], dict):
        entries[i]["gamma"] = rng.choice(ODD_VALUES + [0.0, 0.25, 1.0])
    elif kind == 1 and entries and isinstance(entries[i], dict):
        other = rng.choice(entries)
        word = other.get("codeword") if isinstance(other, dict) else None
        choices = ODD_VALUES + [word, "0" + "1" * rng.randrange(4), "01", "010"]
        if isinstance(word, str):
            choices += [word[:-1], word + "0", "1" + word[1:]]
        entries[i]["codeword"] = rng.choice(choices)
    elif kind == 2 and entries and isinstance(entries[i], dict):
        entries[i].pop(rng.choice(["gamma", "codeword"]), None)
    elif kind == 3 and entries:
        entries[i] = rng.choice(ODD_VALUES)
    elif kind == 4 and len(entries) > 1:
        j = rng.randrange(len(entries))
        entries[i], entries[j] = entries[j], entries[i]
    elif kind == 5:
        del entries[rng.randrange(len(entries) + 1):]
    elif kind == 6:
        book["decoder_for_reject"] = rng.choice(ODD_VALUES + [len(entries), 2.7, "2"])
    elif kind == 7:
        book.pop(rng.choice(["decoder_for_reject", "reject", "entries"]), None)
    elif kind == 8:
        book["reject"] = rng.choice(ODD_VALUES + ["11", "01"])
    elif kind == 9:
        book["entries"] = rng.choice([{}, {"a": 1}, "ab", 0, None, entries])
    return book


def outcome(reader, book):
    try:
        code = reader(copy.deepcopy(book))
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)
    return type(code), code, code.gamma, code.inner.codewords


def binary_words(book):
    """Whether the reject word and every codeword are nonempty strings of 0s and 1s."""
    words = [book["reject"], *(e["codeword"] for e in book["entries"] if e["codeword"] is not None)]
    return all(isinstance(w, str) and w != "" and set(w) <= {"0", "1"} for w in words)


def json_numbers(book):
    """Whether every gamma is a JSON number and the decode target, if given, a JSON integer."""
    gammas = [e["gamma"] for e in book["entries"] if isinstance(e, dict) and "gamma" in e]
    decoder = book.get("decoder_for_reject", 0)
    numbers = all(isinstance(g, (int, float)) and not isinstance(g, bool) for g in gammas)
    return numbers and isinstance(decoder, int) and not isinstance(decoder, bool)


def test_column_reader_matches_the_per_entry_reader_on_mutated_codebooks():
    rng = random.Random(2024)
    books = []
    for dist in referee_sources()[::3]:
        for build in (sc.build_stochastic_code, sc.build_deterministic_code):
            for eps, lam in ((0.0, 1.0), (0.2, 2.0), (0.5, 0.5)):
                books.append(sc.codebook_to_json(build(dist, eps, lam)))
    kinds = set()
    for trial in range(3000):
        book = copy.deepcopy(rng.choice(books))
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            if not isinstance(book.get("entries"), list):
                break
            book = mutate(book, rng)
        if rng.random() < 0.01:
            book = [book]
        expected = outcome(reference_codebook_from_json, book)
        got = outcome(sc.codebook_from_json, book)
        kinds.add(expected[0])
        if expected[0] in (TypeError, AttributeError, OverflowError):
            # malformed input the old reader failed on; the new one rejects it
            assert got[0] is ValueError, (book, expected, got)
        elif expected[0] is sc.StochasticCode and not binary_words(book):
            # a word the old reader took as given; the new one rejects it
            assert got[0] is ValueError, (book, expected, got)
        elif got != expected and not json_numbers(book):
            # a bool or string gamma, or a decode target that is no JSON integer,
            # the old reader converted; the new one rejects it
            assert got[0] is ValueError, (book, expected, got)
        else:
            assert got == expected, (book, expected, got)
    assert {ValueError, KeyError, sc.KraftViolated, TypeError, AttributeError} <= kinds
    assert sc.StochasticCode in kinds


def test_huge_counts_print_their_size_in_error_messages():
    with pytest.raises(sc.KraftViolated, match=r"^2\*\*20000 or more words of length 5 "):
        _canonical_starts([(5, 2**20000)])
    with pytest.raises(sc.KraftViolated, match="^3 words of length 1 "):
        _canonical_starts([(1, 3)])
    with pytest.raises(sc.TooLarge, match=r"^support of size 2\*\*20000 or more exceeds"):
        sc.distributions._expand_levels([0.0], [2**20000])
    with pytest.raises(sc.TooLarge, match=r"^2\*\*\d+ or more type classes at blocklength 20000 "):
        sc.distributions._guard_class_count(math.comb(39999, 20000), 20000)
    with pytest.raises(sc.Misaligned, match=r"^code covers 2\*\*20000 or more symbols"):
        list(sc.codes._segments([CodeRun(2**20000, 0.0, None)], sc.new_distribution([1.0])))


def printed_codebooks():
    """Codes and the codebooks `code` prints for them.

    The sources are the referee sources and [0.5,0.3,0.2]^n, n = 6..10.
    """
    products = [sc.iid_extension(sc.new_distribution(WORKED), n) for n in range(6, 11)]
    cases = []
    for dist in referee_sources() + products:
        for build in (sc.build_stochastic_code, sc.build_deterministic_code):
            for eps, lam in ((0.0, 1.0), (0.1, 1.0), (0.3, 0.5)):
                code = build(dist, eps, lam)
                cases.append((code, codes._codebook_text(code) + "\n"))
    return cases


def test_printed_codebooks_are_read_without_json(monkeypatch):
    cases = printed_codebooks()
    expected = [sc.codebook_from_json(json.loads(text)) for _, text in cases]

    def no_json(text):
        raise AssertionError("the codebook went through json.loads")

    monkeypatch.setattr(codes.json, "loads", no_json)
    for (code, text), want in zip(cases, expected):
        for printed in (text, text[:-1]):  # with and without print's newline
            got = codes._codebook_from_bytes(printed.encode())
            assert got == want == code
            assert got.gamma == want.gamma and got.inner.codewords == want.inner.codewords
            assert got.decoder_for_reject == want.decoder_for_reject and got.reject == want.reject


def mutate_text(text, rng):
    """One random change to a printed codebook, to its layout or to its content."""
    book = json.loads(text)
    entries = book["entries"]
    i = rng.randrange(len(entries))
    coded = [j for j, e in enumerate(entries) if e["codeword"] is not None]
    kind = rng.randrange(15)
    if kind == 0:  # compact, re-indented, or with the keys in another order
        return rng.choice([json.dumps(book), json.dumps(book, indent=rng.choice([1, 4, "\t"])),
                           json.dumps(dict(reversed(book.items())), indent=2)])
    if kind == 1:
        return text.replace("\n", "\r\n")
    if kind == 2:
        return "\ufeff" + text
    if kind == 3:  # trailing whitespace or garbage
        return text + rng.choice([" ", "\n", "\n\n", "\t", "x", "}", "{}", "\x00"])
    if kind == 4:
        return text[: rng.randrange(len(text))]
    if kind == 5:  # an integer where the writer prints a float
        old = rng.choice(['"gamma": 1.0', '"gamma": 0.0'])
        return text.replace(old, old[:-2], rng.choice([1, -1]))
    if kind == 6 and coded:  # an escaped '0' inside a word
        start = rng.choice([m.end() - 1 for m in re.finditer('"codeword": "0', text)])
        return text[:start] + "\\u0030" + text[start + 1 :]
    if kind == 7:  # a duplicate key, read by json as its last value
        return rng.choice([
            text.replace('{\n  "decoder', '{\n  "reject": "0",\n  "decoder', 1),
            text.replace('      "gamma"', '      "gamma": 0.5,\n      "gamma"', 1),
        ])
    if kind == 8 and coded:  # a flipped word bit
        j = rng.choice(coded)
        word = entries[j]["codeword"]
        if len(word) > 1:
            k = rng.randrange(1, len(word))
            entries[j]["codeword"] = word[:k] + "10"[int(word[k])] + word[k + 1 :]
    elif kind == 9 and len(entries) > 1:  # swapped entries
        j = rng.randrange(len(entries))
        entries[i], entries[j] = entries[j], entries[i]
    elif kind == 10:  # a run boundary moved by one entry
        edges = [j for j in range(len(entries) - 1) if entries[j] != entries[j + 1]
                 and (entries[j]["gamma"], entries[j]["codeword"] is None)
                 != (entries[j + 1]["gamma"], entries[j + 1]["codeword"] is None)]
        if edges:
            j = rng.choice(edges)
            entries[j]["gamma"] = entries[j + 1]["gamma"]
            if entries[j + 1]["codeword"] is None:
                entries[j]["codeword"] = None
    elif kind == 11:
        book["decoder_for_reject"] = rng.choice([len(entries), len(entries) + 1, -1, 10**30])
    elif kind == 12:
        book["reject"] = rng.choice(["0", "00", "01", "011", "0" * 30])
    elif kind == 13:
        book["decoder_for_reject"] = rng.choice([0, len(entries) - 1])
    # kind 14: the text as printed
    return json.dumps(book, indent=2, sort_keys=True) + rng.choice(["", "\n"])


def read_outcome(read, text):
    try:
        code = read(text)
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)
    return type(code), code, code.gamma, code.inner.codewords


def test_text_reader_matches_the_json_reader_on_mutated_texts(monkeypatch):
    fallbacks = []

    def counting(obj, read=codes.codebook_from_json):
        fallbacks.append(obj)
        return read(obj)

    monkeypatch.setattr(codes, "codebook_from_json", counting)
    rng = random.Random(2025)
    texts = []
    for dist in referee_sources()[:-1] + [sc.iid_extension(sc.new_distribution(WORKED), 5)]:
        for build in (sc.build_stochastic_code, sc.build_deterministic_code):
            for eps, lam in ((0.0, 1.0), (0.2, 2.0), (0.5, 0.5)):
                texts.append(codes._codebook_text(build(dist, eps, lam)) + "\n")
    kinds, fast = set(), 0
    for trial in range(1500):
        text = rng.choice(texts)
        for _ in range(rng.choice((1, 1, 2))):
            text = mutate_text(text, rng)
            try:
                json.loads(text)["entries"][0]["codeword"]
            except Exception:  # a later change needs a readable codebook
                break
        expected = read_outcome(lambda t: sc.codebook_from_json(json.loads(t)), text)
        fallbacks.clear()
        got = read_outcome(lambda t: codes._codebook_from_bytes(t.encode()), text)
        assert got == expected, (text[:300], expected[:2], got[:2])
        kinds.add(expected[0])
        fast += got[0] is sc.StochasticCode and not fallbacks
    assert {sc.StochasticCode, json.JSONDecodeError, ValueError, sc.KraftViolated} <= kinds
    assert fast > 100


def book_text(code):
    return json.dumps(sc.codebook_to_json(code), indent=2, sort_keys=True)


def test_bit_columns_match_the_spelled_words():
    rng = random.Random(23)
    cases = [(1, 0, 2), (1, 1, 1), (70, 2**69 - 3, 7), (12, 1, 4095), (17, 2**16 - 5000, 20000)]
    for _ in range(150):
        length = rng.randint(1, 70)
        count = rng.randint(1, min(20000, 2**length))
        cases.append((length, rng.randrange(2**length - count + 1), count))
    for length, start, count in cases:
        # character i of every word, i = 0 the most significant bit
        spelled = list(map("".join, zip(*codes._run_words(length, start, count))))
        for bit in range(length):
            column = codes._bit_column(bit, start, count)
            assert column.decode() == spelled[length - 1 - bit], (length, start, count, bit)


@pytest.mark.parametrize("deterministic", [False, True])
def test_codebook_text_matches_json_dumps_on_product_codes(deterministic):
    build = sc.build_deterministic_code if deterministic else sc.build_stochastic_code
    base = sc.new_distribution(WORKED)
    for n in range(1, 11):
        dist = sc.iid_extension(base, n)
        for lam in (0.5, 1.0, 2.0):  # the codebook round trip's lambdas in perfbench
            code = build(dist, 0.1, lam)
            assert codes._codebook_text(code) == book_text(code), (n, lam)


@settings(deadline=None)
@given(
    # n for [0.5, 0.3, 0.2]^n, or weights of a single-letter source
    source=st.one_of(st.integers(1, 6), st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12)),
    eps=st.sampled_from([0.0, 0.1, 0.3]),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    deterministic=st.booleans(),
    seed=st.integers(0, 2**32),
    across=st.booleans(),
)
# every word shuffled across lengths, on runs long enough for columns
@example(source=6, eps=0.1, lam=1.0, deterministic=False, seed=5, across=True)
def test_read_back_words_keep_their_order_in_maximal_word_runs(
    source, eps, lam, deterministic, seed, across
):
    if isinstance(source, int):
        dist = sc.iid_extension(sc.new_distribution(WORKED), source)
    else:
        dist = sc.new_distribution([w / math.fsum(source) for w in source])
    build = sc.build_deterministic_code if deterministic else sc.build_stochastic_code
    code = build(dist, eps, lam)
    book = sc.codebook_to_json(code)
    # the words permuted among the entries of equal length, or among all entries
    coded = [e for e in book["entries"] if e["codeword"] is not None]
    lengths = sorted({len(e["codeword"]) for e in coded})
    groups = [coded] if across else [[e for e in coded if len(e["codeword"]) == n] for n in lengths]
    rng = random.Random(seed)
    for group in groups:
        words = [e["codeword"] for e in group]
        rng.shuffle(words)
        for entry, word in zip(group, words):
            entry["codeword"] = word
    text = json.dumps(book, indent=2, sort_keys=True)
    read = sc.codebook_from_json(json.loads(text))
    assert read.inner.codewords == tuple(e["codeword"][1:] for e in coded)
    # each word run lies in one run, and neighbours in one run do not continue each other
    run_ends = set(itertools.accumulate(r.count for r in read.runs))
    word_ends = list(itertools.accumulate(count for _, _, count in read.word_runs))
    assert {end for end in run_ends if end <= len(coded)} <= set(word_ends)
    for (_, start, count), (_, after, _), end in zip(read.word_runs, read.word_runs[1:], word_ends):
        assert end in run_ends or after != start + count
    assert codes._codebook_text(read) == text
    for again in (codes._codebook_from_bytes(text.encode()), sc.codebook_from_json(book)):
        assert again == read and hash(again) == hash(read)
    assert (read == code) == (read.inner.codewords == code.inner.codewords)
    if read == code:
        assert hash(read) == hash(code)


def test_a_round_trip_compares_equal_without_expanding_the_code(monkeypatch):
    dist = sc.iid_extension(sc.new_distribution(WORKED), 6)
    book = sc.codebook_to_json(sc.build_stochastic_code(dist, 0.1, 1.0))
    swapped = copy.deepcopy(book)
    first, second = swapped["entries"][0]["codeword"], swapped["entries"][1]["codeword"]
    assert len(first) == len(second)
    swapped["entries"][0]["codeword"], swapped["entries"][1]["codeword"] = second, first
    # 729 symbols, none of them expanded below
    monkeypatch.setenv("SMOOTHCODE_CAP", "100")
    code = sc.build_stochastic_code(dist, 0.1, 1.0)
    clone = sc.codebook_from_json(book)
    assert clone == code and code == clone and hash(clone) == hash(code)
    assert sc.codebook_from_json(swapped) != code
    with pytest.raises(sc.TooLarge):
        code.inner


def test_canonical_numbering_needs_nondecreasing_lengths():
    message = "^canonical words need nondecreasing lengths$"
    with pytest.raises(ValueError, match=message):
        _canonical_starts([(2, 1), (1, 1)])
    with pytest.raises(ValueError, match=message):
        sc.StochasticCode(runs=(CodeRun(1, 1.0, 3), CodeRun(1, 1.0, 2)), decoder_for_reject=0)
    # the words of a codebook read back may come in any order of length
    book = {"reject": "1", "entries": [{"codeword": w, "gamma": 1.0} for w in ("011", "00", "010")]}
    assert sc.codebook_from_json(book).inner.codewords == ("11", "0", "10")


def test_a_run_at_the_column_boundary_is_written_as_columns(monkeypatch):
    columns = []

    def counting(bit, start, count, column=codes._bit_column):
        columns.append((bit, start, count))
        return column(bit, start, count)

    monkeypatch.setattr(codes, "_bit_column", counting)
    per_bit = codes._WORDS_PER_COLUMN
    # the 10-bit words 3 .. 3 + count - 1 differ in their 6 low bits for
    # count from 30 to 60: the boundary run has 6 * per_bit words
    for count, written in ((6 * per_bit, True), (6 * per_bit - 1, False)):
        assert (3 ^ (3 + count - 1)).bit_length() == 6
        runs = (CodeRun(3, 0.5, 11), CodeRun(count, 1.0, 11), CodeRun(2, 0.0, None))
        code = sc.StochasticCode(runs=runs, decoder_for_reject=1)
        columns.clear()
        assert codes._codebook_text(code) == book_text(code)
        assert columns == ([(bit, 3, count) for bit in range(6)] if written else [])


def test_the_cap_is_checked_before_the_codebook_buffer(monkeypatch):
    code = sc.build_stochastic_code(sc.iid_extension(sc.new_distribution(WORKED), 4), 0.0, 1.0)

    def no_buffer(*args):
        raise AssertionError("a buffer was allocated")

    monkeypatch.setenv("SMOOTHCODE_CAP", "80")
    monkeypatch.setattr(codes, "bytearray", no_buffer, raising=False)
    with pytest.raises(sc.TooLarge, match="^support of size 81 exceeds cap 80$"):
        codes._codebook_text(code)


def test_a_code_record_checks_its_runs():
    # a word after a run without one: accept_word would give symbol 1 the word
    # of symbol 2, and symbol 2 none, so the record refuses it
    runs = (CodeRun(1, 1.0, 2), CodeRun(1, 0.0, None), CodeRun(1, 1.0, 2))
    with pytest.raises(ValueError, match="^coded runs must form a leading block of the runs$"):
        sc.StochasticCode(runs=runs, decoder_for_reject=0)
    for gamma in (-0.5, 1.5, math.nan, math.inf, -math.inf):
        for bits in (2, None):
            bad = (CodeRun(1, 1.0, 2), CodeRun(2, gamma, bits))
            with pytest.raises(ValueError, match=r"^gamma out of \[0, 1\] in run 1$"):
                sc.StochasticCode(runs=bad, decoder_for_reject=0)
    # a count that is no int >= 1 would be scored (-1, 0) or fail in the word numbering (1.5)
    for bad, i in (
        ((CodeRun(-1, 0.0, None),), 0),
        ((CodeRun(1.5, 1.0, 2),), 0),
        ((CodeRun(0, 1.0, 2), CodeRun(3, 0.0, None)), 0),
        ((CodeRun(1, 1.0, 2), CodeRun(True, 0.0, None)), 1),
    ):
        with pytest.raises(ValueError, match=f"^count must be an int >= 1 in run {i}$"):
            sc.StochasticCode(runs=bad, decoder_for_reject=0)
    # word runs given, as a codebook reader gives them, are no way round the checks
    with pytest.raises(ValueError, match="^coded runs must form a leading block of the runs$"):
        sc.StochasticCode(runs=runs, decoder_for_reject=0, word_runs=((1, 0, 1), (1, 1, 1)))
    unworded = (CodeRun(1, 1.0, 2), CodeRun(2, 0.5, None))
    with pytest.raises(sc.Misaligned, match="^symbol 1 has gamma > 0 but no codeword$"):
        sc.StochasticCode(runs=unworded, decoder_for_reject=0, word_runs=((1, 0, 1),))
    runs = (CodeRun(1, 1.0, 2), CodeRun(2, -0.0, None))
    code = sc.StochasticCode(runs=runs, decoder_for_reject=2)
    assert code.gamma == (1.0, -0.0, -0.0) and code.inner.codewords == ("0",)


def test_a_codebook_that_breaks_the_run_rules_is_refused_in_both_readers():
    # in the writer's layout, so the guess runs; it leaves the rules to the
    # record, and the per-entry reader names the entry
    for rows, message in (
        ([("00", 1.0), (None, 0.0), ("01", 1.0)], "coded symbols must form a leading block"),
        ([("00", 1.0), (None, 0.5), (None, 0.0)], "entry 1 can be accepted but has no codeword"),
        ([("00", 1.0), ("01", 1.5), (None, 0.0)], r"gamma out of \[0, 1\] at entry 1"),
    ):
        entries = [{"codeword": w, "gamma": g} for w, g in rows]
        book = {"decoder_for_reject": 0, "entries": entries, "reject": "1"}
        data = (json.dumps(book, indent=2, sort_keys=True) + "\n").encode()
        assert codes._guess_code(data) is None
        with pytest.raises(ValueError, match=f"^{message}"):
            codes._codebook_from_bytes(data)
