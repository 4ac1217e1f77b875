import math
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import smoothcode as sc

WORKED = [0.5, 0.3, 0.2]


def test_kraft_multiset_examples():
    assert sc.enumerate_kraft_length_multisets(2, 2) == [(1, 1), (1, 2), (2, 2)]
    assert sc.enumerate_kraft_length_multisets(1, 1) == [(0,), (1,)]
    assert sc.enumerate_kraft_length_multisets(3, 1) == []


def test_kraft_multisets_are_exactly_feasible():
    for k in (1, 2, 3, 4, 5):
        seen = sc.enumerate_kraft_length_multisets(k, 5)
        assert len(set(seen)) == len(seen)
        for lengths in seen:
            assert list(lengths) == sorted(lengths)
            assert sum(Fraction(1, 2**l) for l in lengths) <= 1
        # nothing missed: cross-check against raw enumeration
        from itertools import combinations_with_replacement

        expected = [
            c
            for c in combinations_with_replacement(range(1, 6), k)
            if sum(Fraction(1, 2**l) for l in c) <= 1
        ]
        if k == 1:
            expected = [(0,)] + expected
        assert seen == expected


def test_kraft_multiset_caps():
    with pytest.raises(sc.TooLarge):
        sc.enumerate_kraft_length_multisets(9, 5)
    with pytest.raises(sc.TooLarge):
        sc.enumerate_kraft_length_multisets(2, 9)
    with pytest.raises(ValueError):
        sc.enumerate_kraft_length_multisets(0, 3)


def test_bruteforce_worked_instance():
    dist = sc.new_distribution(WORKED)
    result = sc.optimal_code_bruteforce(dist, 0.0, 1.0, max_len=3)
    assert result.best_moment == pytest.approx(3.0, abs=1e-12)
    assert sorted(len(w) for w in result.encoder) == [1, 2, 2]
    assert result.encoder == ("0", "10", "11")
    assert result.decoder == {"0": 0, "10": 1, "11": 2}
    assert result.search_space_size > 0


def test_bruteforce_point_mass():
    result = sc.optimal_code_bruteforce(sc.new_distribution([1.0]), 0.0, 1.0)
    assert result.best_moment == pytest.approx(1.0)
    assert result.encoder == ("",)


def test_bruteforce_degenerate_single_word():
    # one empty word covering both symbols: error 0.5 within budget, moment 1
    result = sc.optimal_code_bruteforce(sc.new_distribution([0.5, 0.5]), 0.5, 1.0)
    assert result.best_moment == pytest.approx(1.0)
    assert result.encoder == ("", "")
    assert result.decoder[""] == 0


def test_bruteforce_infeasible_budget():
    dist = sc.new_distribution(WORKED)
    with pytest.raises(sc.Infeasible):
        sc.optimal_code_bruteforce(dist, 0.0, 1.0, max_len=1)
    # with budget for the third symbol the two-word code works
    result = sc.optimal_code_bruteforce(dist, 0.2, 1.0, max_len=1)
    assert result.best_moment == pytest.approx(2.0, abs=1e-12)


def test_bruteforce_support_cap():
    dist = sc.new_distribution([0.3, 0.25, 0.2, 0.15, 0.07, 0.03])
    with pytest.raises(sc.TooLarge):
        sc.optimal_code_bruteforce(dist, 0.0, 1.0)


def test_oracles_check_the_support_before_expanding_it(monkeypatch):
    huge = sc.distribution_from_atoms([(math.log(0.5), 1), (-71 * math.log(2), 2**70)])
    with pytest.raises(sc.TooLarge, match=r"^brute force limited to support 5, got 2\*\*70 or more$"):
        sc.optimal_code_bruteforce(huge, 0.1, 1.0)
    with pytest.raises(sc.TooLarge, match=r"^random search limited to support 16, got 2\*\*70 or more$"):
        sc.smoothing_feasible_search(huge, 0.5, 0.1)
    # a product source within the size cap is not expanded to one float per symbol either
    p12 = sc.iid_extension(sc.new_distribution(WORKED), 12)
    monkeypatch.setattr(sc.Distribution, "probabilities", lambda self: pytest.fail("expanded"))
    with pytest.raises(sc.TooLarge, match=r"support 5, got 531441$"):
        sc.optimal_code_bruteforce(p12, 0.1, 1.0)
    with pytest.raises(sc.TooLarge, match=r"support 16, got 531441$"):
        sc.smoothing_feasible_search(p12, 0.5, 0.1)


def test_bruteforce_moment_past_float_range_is_too_large():
    dist = sc.new_distribution([0.5, 0.3, 0.2])
    # every admissible code has a 2-bit word, and 2**2000 overflows a float
    with pytest.raises(sc.TooLarge):
        sc.optimal_code_bruteforce(dist, 0.1, 1000.0)
    assert sc.optimal_code_bruteforce(dist, 0.1, 204.7, 5).best_moment == 8.722685802823588e122
    # a probability that underflows to 0.0 adds 0, not nan, beside an infinite
    # weight: every code overflows, which is TooLarge, not Infeasible
    dust = sc.distribution_from_atoms([(math.log(0.5), 2), (-800.0, 1)])
    assert dust.probabilities()[-1] == 0.0
    with pytest.raises(sc.TooLarge):
        sc.optimal_code_bruteforce(dust, 0.0, 1500.0, max_len=1)


def test_bruteforce_moment_past_float_range_with_finite_weights_is_too_large():
    # both words weigh 2**lam, just below the largest float, and the mass is
    # 1 + 2.5e-10, within MASS_TOL: each term is finite, their fsum is not
    dist = sc.distribution_from_atoms([(math.log(0.5) + 2.5e-10, 2)])
    lam = math.log2(sys.float_info.max) - 1.5e-10
    assert 2.0**lam < math.inf
    with pytest.raises(sc.TooLarge, match=rf"^moments overflow a float at lambda={lam}, max_len=1$"):
        sc.optimal_code_bruteforce(dist, 0.1, lam, max_len=1)


def test_bruteforce_permutation_invariance():
    rng = np.random.default_rng(73)
    for _ in range(5):
        probs = rng.dirichlet(np.ones(4))
        base = sc.optimal_code_bruteforce(sc.new_distribution(probs), 0.1, 1.0)
        shuffled = probs.copy()
        rng.shuffle(shuffled)
        other = sc.optimal_code_bruteforce(sc.new_distribution(shuffled), 0.1, 1.0)
        assert other.best_moment == pytest.approx(base.best_moment, abs=1e-12)


def test_bruteforce_lands_inside_the_bounds():
    rng = np.random.default_rng(79)
    for _ in range(15):
        s = int(rng.integers(2, 5))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        for eps in (0.0, 0.1, 0.3):
            result = sc.optimal_code_bruteforce(dist, eps, 1.0, max_len=5)
            lo = sc.converse_bound(dist, eps, 1.0)
            hi = sc.direct_bound(dist, eps, 1.0)
            assert lo * (1 - 1e-9) <= result.best_moment <= hi * (1 + 1e-9)


def test_bruteforce_encoder_error_is_credited():
    # reported best code really meets the budget when re-evaluated by hand
    dist = sc.new_distribution([0.6, 0.25, 0.15])
    eps = 0.15
    result = sc.optimal_code_bruteforce(dist, eps, 1.0, max_len=3)
    probs = dist.probabilities()
    survivors = {}
    for i, w in enumerate(result.encoder):
        if result.decoder[w] == i:
            survivors[i] = probs[i]
    error = 1.0 - math.fsum(survivors.values())
    assert error <= eps + 1e-12


def _weight(x):
    """2.0 ** x, or +inf past float range."""
    try:
        return 2.0**x
    except OverflowError:
        return math.inf


def _scored_pairs(probs, eps, lam, max_len):
    """Every (word count, lengths, assignment, moment) in the oracle's search order.

    The moment is None for an assignment whose credited error is past eps,
    and +inf past float range. The onto assignments and their credited-error
    checks are listed once per word count; every pair's moment is then summed
    on its own.
    """
    s = len(probs)
    total = math.fsum(probs)
    for c in range(1, s + 1):
        checked = []
        for assign in product(range(c), repeat=s):
            if len(set(assign)) != c:
                continue
            survivors = [0.0] * c
            for i, a in enumerate(assign):
                if probs[i] > survivors[a]:
                    survivors[a] = probs[i]
            checked.append((assign, total - math.fsum(survivors) <= eps + 1e-12))
        for lengths in sc.enumerate_kraft_length_multisets(c, max_len):
            weight = [_weight(lam * l) for l in lengths]
            for assign, fits in checked:
                moment = None
                if fits:
                    terms = [probs[i] * weight[a] if probs[i] else 0.0 for i, a in enumerate(assign)]
                    try:
                        moment = math.fsum(terms)
                    except OverflowError:
                        moment = math.inf
                yield c, lengths, assign, moment


def reference_code_search(dist, eps, lam, max_len):
    """Unfactored exhaustive search: every (assignment, length multiset) pair scored alone.

    Same enumeration order and strict improvement rule as the oracle; a moment
    past float range never wins.
    """
    probs = dist.probabilities()
    best_moment, best_assign, best_lengths, space, admissible = math.inf, None, None, 0, False
    for _, lengths, assign, moment in _scored_pairs(probs, eps, lam, max_len):
        space += 1
        if moment is None:
            continue
        admissible = True
        if moment < best_moment:
            best_moment, best_assign, best_lengths = moment, assign, lengths
    if best_assign is None:
        if admissible:
            raise sc.TooLarge(f"moments overflow a float at lambda={lam}, max_len={max_len}")
        raise sc.Infeasible(f"no code with at most {max_len}-bit words meets eps={eps}")
    best_words = sc.assign_canonical_codewords(best_lengths).codewords
    decoder = {}
    for j, w in enumerate(best_words):
        group = [i for i, a in enumerate(best_assign) if a == j]
        decoder[w] = max(group, key=lambda i: probs[i])
    return sc.OracleResult(
        best_moment=best_moment,
        encoder=tuple(best_words[a] for a in best_assign),
        decoder=decoder,
        search_space_size=space,
    )


def _outcome(search, *args):
    try:
        return search(*args)
    except (sc.Infeasible, sc.TooLarge) as exc:
        return (type(exc).__name__, str(exc))


_weights = st.one_of(
    st.integers(1, 5).map(lambda s: [1] * s),  # uniform: every assignment ties
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
)


# the ci profile runs 500 examples: this referee guards a search that skips
# symmetric assignments, so it gets more cases than the default 100
@settings(deadline=None, max_examples=500 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 100)
@given(
    weights=_weights,
    eps=st.floats(0.0, 0.6),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    max_len=st.integers(1, 5),
)
def test_bruteforce_matches_unfactored_search(weights, eps, lam, max_len):
    total = math.fsum(weights)
    dist = sc.new_distribution([w / total for w in weights])
    fast = _outcome(sc.optimal_code_bruteforce, dist, eps, lam, max_len)
    slow = _outcome(reference_code_search, dist, eps, lam, max_len)
    assert fast == slow  # moments compared with ==, not approx


def _sweep_sources():
    """Per support 1-5: uniform, [0.5, rest equal] and one seeded random source."""
    rng = np.random.default_rng(89)
    sources = []
    for s in range(1, 6):
        sources.append([1.0 / s] * s)
        if s > 1:
            sources.append([0.5] + [0.5 / (s - 1)] * (s - 1))
            sources.append(list(rng.dirichlet(np.ones(s))))
    return sources


def _fingerprint(search, *args):
    try:
        result = search(*args)
    except (sc.Infeasible, sc.TooLarge) as exc:
        return (type(exc).__name__, str(exc))
    return (result.best_moment.hex(), result.encoder, result.decoder, result.search_space_size)


def test_bruteforce_sweep_matches_unfactored_search():
    cases = [
        (sc.new_distribution(probs), eps, lam, max_len)
        for probs in _sweep_sources()
        for max_len in range(1, 6)
        for eps in (0.0, 0.1, 0.3, 0.6)
        for lam in (0.5, 1.0, 2.0)
    ]
    expected = [_fingerprint(reference_code_search, *case) for case in cases]
    assert {e[0] for e in expected} > {"Infeasible"}  # both outcomes occur
    for case, want in zip(cases, expected):
        assert _fingerprint(sc.optimal_code_bruteforce, *case) == want
    # again in reverse: a table cached across calls must not depend on the probabilities
    for case, want in zip(reversed(cases), reversed(expected)):
        assert _fingerprint(sc.optimal_code_bruteforce, *case) == want


def _exact_source(probs):
    """A Distribution whose probabilities() are exactly probs, largest first.

    new_distribution merges levels within 1e-12 in log, so probabilities a few
    ulps apart are set here as levels whose exp gives them back bit for bit.
    """
    levels = {}
    for q in probs:
        levels[q] = levels.get(q, 0) + 1
    lps = []
    for q in sorted(levels, reverse=True):
        near = [math.log(q)]
        for _ in range(3):
            near = [math.nextafter(near[0], -math.inf), *near, math.nextafter(near[-1], math.inf)]
        lps.append(next(lp for lp in near if math.exp(lp) == q))
    dist = sc.Distribution(tuple(lps), tuple(levels[q] for q in sorted(levels, reverse=True)))
    assert dist.probabilities() == sorted(probs, reverse=True)
    return dist


def _down(q, ulps):
    """q moved ulps floats toward 0."""
    for _ in range(ulps):
        q = math.nextafter(q, 0.0)
    return q


def _margin_sources():
    """Sources where ties, rounding and overflow decide the winner."""
    half = math.log(0.5)
    return [
        # one to three ulps apart
        _exact_source([0.45, _down(0.45, 1), _down(0.1, 2)]),
        _exact_source([0.3, _down(0.3, 2), 0.15, _down(0.15, 1), _down(0.1, 2)]),
        _exact_source([0.25, 0.2, _down(0.2, 1), _down(0.2, 3), _down(0.15, 1)]),
        # equal probabilities: every relabelling ties
        sc.new_distribution([0.25] * 4),
        sc.new_distribution([0.2] * 5),
        sc.new_distribution([0.4, 0.2, 0.2, 0.2]),
        # a dust symbol whose probability underflows to 0.0
        sc.distribution_from_atoms([(half, 2), (-800.0, 1)]),
        sc.distribution_from_atoms([(math.log(0.4), 1), (math.log(0.3), 2), (-800.0, 2)]),
        # mass a little past 1: a moment can pass float range while every weight is finite
        sc.new_distribution([0.6, 0.4 + 5e-10]),
    ]


def test_bruteforce_at_the_margin_matches_unfactored_search():
    # 2**(lambda * 4) overflows at 255.9; (1024 - 3e-10)/4 keeps it finite but
    # lets a moment on length-4 words pass float range; 1000 overflows every code
    lams = (1.0, 255.9, (1024 - 3e-10) / 4, 1000.0)
    cases = []
    for dist in _margin_sources():
        probs = dist.probabilities()
        total = math.fsum(probs)
        # eps exactly at the credited error of the top c symbols, and where
        # the check's 1e-12 slack just reaches it
        budgets = {0.0}
        for c in range(1, len(probs)):
            edge = total - math.fsum(probs[:c])
            budgets.update(e for e in (edge, edge - 1e-12) if 0.0 <= e < 1.0)
        for eps in sorted(budgets):
            for lam in lams:
                for max_len in (2, 4):
                    cases.append((dist, eps, lam, max_len))
    expected = [_fingerprint(reference_code_search, *case) for case in cases]
    outcomes = {e[0] for e in expected}
    assert {"Infeasible", "TooLarge"} < outcomes  # all three outcomes occur
    for case, want in zip(cases, expected):
        assert _fingerprint(sc.optimal_code_bruteforce, *case) == want, case


def _kraft_sum(lengths):
    return sum(Fraction(1, 2**l) for l in lengths)


def test_complete_filter_keeps_the_multisets_with_kraft_sum_one():
    from smoothcode import oracle

    for c in range(1, oracle.MAX_WORDS + 1):
        for max_len in range(1, oracle.MAX_WORD_LEN + 1):
            multisets = sc.enumerate_kraft_length_multisets(c, max_len)
            complete = oracle._complete(c, max_len)
            assert list(complete) == [m for m in multisets if _kraft_sum(m) == 1]
            # every other multiset's parent, its longest length one bit shorter,
            # is enumerated and comes earlier
            index = {m: j for j, m in enumerate(multisets)}
            for j, m in enumerate(multisets):
                if m not in complete:
                    assert index[tuple(sorted((*m[:-1], m[-1] - 1)))] < j, (c, max_len, m)
    assert [m for c in range(1, 6) for m in oracle._complete(c, 5)] == [
        (0,), (1, 1), (1, 2, 2), (1, 2, 3, 3), (2, 2, 2, 2),
        (1, 2, 3, 4, 4), (1, 3, 3, 3, 3), (2, 2, 2, 3, 3),
    ]


def test_first_minimum_lies_in_a_complete_block():
    # the search bounds and scores only the complete multisets: the unfactored
    # search never first reaches its minimum in any other block
    sources = [dist.probabilities() for dist in _margin_sources()]
    sources += [sc.new_distribution(probs).probabilities() for probs in _sweep_sources()]
    ties = 0
    # at lambda 1e-20 every weight rounds to 1.0, so every admissible code of
    # the least word count ties, and only the order decides
    for probs in sources:
        for eps, lam, max_len in product((0.0, 0.1, 0.3), (1e-20, 1.0, 255.9), (2, 4)):
            pairs = [
                (moment, lengths)
                for _, lengths, _, moment in _scored_pairs(probs, eps, lam, max_len)
                if moment is not None and moment < math.inf
            ]
            if pairs:
                best = min(moment for moment, _ in pairs)
                reached = [lengths for moment, lengths in pairs if moment == best]
                assert _kraft_sum(reached[0]) == 1, (probs, eps, lam, max_len)
                ties += any(_kraft_sum(lengths) < 1 for lengths in reached)
    assert ties


def test_bruteforce_with_weights_out_of_order_matches_unfactored_search(monkeypatch):
    # weights out of order, as a pow that is not monotone could give: a block
    # can score below its parent, so the search scores every multiset
    from smoothcode import oracle

    skew = lambda x: 2.0 ** (x if x % 2 else -x)
    monkeypatch.setattr(oracle, "_pow2", skew)
    monkeypatch.setitem(globals(), "_weight", skew)
    rng = np.random.default_rng(103)
    sources = [sorted(map(float, rng.dirichlet(np.ones(s))), reverse=True) for s in (3, 4, 5, 5)]
    sources.append(WORKED)
    incomplete = 0
    for probs, eps, lam in product(sources, (0.0, 0.1, 0.3), (0.5, 1.0)):
        case = (sc.new_distribution(probs), eps, lam, 5)
        want = _fingerprint(reference_code_search, *case)
        assert _fingerprint(sc.optimal_code_bruteforce, *case) == want, case
        incomplete += _kraft_sum(map(len, set(want[1]))) < 1
    assert incomplete  # some winners lie in a block that is not complete


def test_bruteforce_keeps_the_rearranged_code_where_rounding_reorders_near_ties():
    # all four symbols are decoded; the code that puts symbol 1 on a 3-bit
    # word prints a moment one ulp lower, yet is heavier in exact arithmetic
    probs = [0.40862678135566477, 0.234060193139914, 0.22751506985720635, 0.1297979556472149]
    eps, lam = 0.12540823355512984, 1.3694642031822436e-15
    result = sc.optimal_code_bruteforce(_exact_source(probs), eps, lam)
    assert result.encoder == ("0", "10", "110", "111")
    assert result.best_moment.hex() == "0x1.0000000000009p+0"
    weight = [2.0 ** (lam * l) for l in range(4)]
    exact = lambda lengths: sum(Fraction(p) * Fraction(weight[l]) for p, l in zip(probs, lengths))
    swapped = math.fsum(p * weight[l] for p, l in zip(probs, (1, 3, 2, 3)))
    assert swapped.hex() == "0x1.0000000000008p+0"
    assert Fraction(swapped) < exact((1, 2, 3, 3)) < exact((1, 3, 2, 3))


@settings(deadline=None)
@given(
    weights=_weights,
    moves=st.lists(st.integers(0, 4), min_size=5, max_size=5),
    eps=st.floats(0.0, 0.6),
    lam=st.sampled_from([1e-15, 0.5, 1.0, 2.0]),
    max_len=st.integers(1, 5),
)
def test_bruteforce_winner_is_a_rearranged_code(weights, moves, eps, lam, max_len):
    # near ties: equal weights, some moved a few ulps apart
    total = math.fsum(weights)
    try:
        dist = _exact_source([_down(w / total, ulps) for w, ulps in zip(weights, moves)])
    except StopIteration:  # exp of no float gives this probability back
        reject()
    probs = dist.probabilities()
    try:
        result = sc.optimal_code_bruteforce(dist, eps, lam, max_len)
    except sc.Infeasible:
        return
    encoder = result.encoder
    credited = sorted(result.decoder.values())
    assert credited[0] == 0 and len(credited) == len(set(encoder))
    # credited symbols by decreasing probability on nondecreasing lengths,
    # every other symbol on symbol 0's word
    lengths = [len(encoder[i]) for i in credited]
    assert lengths == sorted(lengths)
    assert all(encoder[i] == encoder[0] for i in range(len(probs)) if i not in credited)
    terms = [p * 2.0 ** (lam * len(w)) for p, w in zip(probs, encoder)]
    assert result.best_moment == math.fsum(terms)


def test_bruteforce_checks_max_len_before_any_weight(monkeypatch):
    from smoothcode import oracle

    calls = []
    monkeypatch.setattr(oracle, "_pow2", lambda x: calls.append(x) or 2.0**x)
    dist = sc.new_distribution(WORKED)
    with pytest.raises(sc.TooLarge, match=r"^search limited to k <= 8, max_len <= 8$"):
        sc.optimal_code_bruteforce(dist, 0.1, 1.0, max_len=10**6)
    with pytest.raises(ValueError, match=r"^need k >= 1 and max_len >= 1$"):
        sc.optimal_code_bruteforce(dist, 0.1, 1.0, max_len=0)
    assert calls == []


def test_bruteforce_takes_each_credited_set_list_and_weight_once(monkeypatch):
    from smoothcode import oracle

    calls = Counter()
    for name in ("_credited_sets", "_pow2"):
        f = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *a, f=f, name=name: calls.update([name]) or f(*a))
    sc.optimal_code_bruteforce(sc.new_distribution([0.3, 0.25, 0.2, 0.15, 0.1]), 0.1, 1.0, 5)
    # one list of decoded sets per word count and one weight per word length,
    # shared by every block
    assert calls == Counter({"_credited_sets": 5, "_pow2": 6})


def _stirling2(n, k):
    """Ways to split n labelled items into k nonempty unlabelled blocks."""
    table = [[1] + [0] * k] + [[0] * (k + 1) for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def test_bruteforce_search_space_closed_form():
    for s in range(1, 6):
        dist = sc.new_distribution([1.0 / s] * s)
        for max_len in range(1, 6):
            result = sc.optimal_code_bruteforce(dist, 0.9, 1.0, max_len)
            expected = sum(
                len(sc.enumerate_kraft_length_multisets(c, max_len))
                * math.factorial(c)
                * _stirling2(s, c)
                for c in range(1, s + 1)
            )
            assert result.search_space_size == expected


def test_smoothing_search_at_eps_zero_is_exact():
    dist = sc.new_distribution(WORKED)
    expected = math.fsum(p**0.5 for p in WORKED)
    assert sc.smoothing_feasible_search(dist, 0.5, 0.0) == expected


def test_smoothing_search_rejects_negative_trials():
    dist = sc.new_distribution(WORKED)
    with pytest.raises(ValueError, match=r"^trials must be >= 0, got -5$"):
        sc.smoothing_feasible_search(dist, 0.5, 0.1, trials=-5)
    # no trial leaves Q = P, the power sum of the source itself
    assert sc.smoothing_feasible_search(dist, 0.5, 0.1, trials=0) == math.fsum(p**0.5 for p in WORKED)


def test_smoothing_search_examples():
    dist = sc.new_distribution(WORKED)
    r = sc.r_alpha_eps(dist, 0.5, 0.1)
    value = sc.smoothing_feasible_search(dist, 0.5, 0.1, trials=1000, seed=0)
    assert value >= r - 1e-12

    uniform = sc.new_distribution([0.25] * 4)
    value = sc.smoothing_feasible_search(uniform, 0.5, 0.25, trials=1000, seed=0)
    assert value >= 1.5 - 1e-12


def test_smoothing_search_is_deterministic():
    dist = sc.new_distribution(WORKED)
    a = sc.smoothing_feasible_search(dist, 0.5, 0.2, trials=500, seed=9)
    b = sc.smoothing_feasible_search(dist, 0.5, 0.2, trials=500, seed=9)
    assert a == b
    c = sc.smoothing_feasible_search(dist, 0.5, 0.2, trials=500, seed=10)
    assert a != c  # different seed explores different points


def test_smoothing_search_caps_its_draws(monkeypatch):
    dist = sc.new_distribution(WORKED)
    with pytest.raises(sc.TooLarge):
        sc.smoothing_feasible_search(dist, 0.5, 0.1, trials=10**15)
    # 4 draws per trial on a support of 3: 500 trials fit a cap of 2000
    monkeypatch.setenv("SMOOTHCODE_CAP", "2000")
    sc.smoothing_feasible_search(dist, 0.5, 0.1, trials=500)
    with pytest.raises(sc.TooLarge):
        sc.smoothing_feasible_search(dist, 0.5, 0.1, trials=501)


def test_smoothing_search_support_cap():
    big = sc.new_distribution([1.0 / 20] * 20)
    with pytest.raises(sc.TooLarge):
        sc.smoothing_feasible_search(big, 0.5, 0.1)
