import itertools
import math
import random
from fractions import Fraction
from itertools import product
from operator import add

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import smoothcode as sc
from smoothcode import distributions
from smoothcode.distributions import (
    MERGE_TOL,
    WeightedAtom,
    _column,
    _count_rows,
    _grow,
    _lattice_atoms,
    _mixture_column,
    _normalize_atoms,
    _poly_mul,
    _power_of_two_groups,
    _scaled_logs,
    _type_class_atoms,
)
from smoothcode.logspace import logsumexp

H_SKEWED_COIN = 0.34651533691866615  # Shannon entropy of (0.89, 0.11) in nats


def brute_force_levels(seq_log_probs, tol=1e-9):
    """Group per-sequence log-probs into (log_prob, count) levels, largest first.

    Independent reference for the type-class compaction: enumerate every
    sequence, then merge equal probabilities.
    """
    levels = []
    for lp in sorted(seq_log_probs, reverse=True):
        if levels and abs(lp - levels[-1][0]) <= tol:
            levels[-1][1] += 1
        else:
            levels.append([lp, 1])
    return [(lp, count) for lp, count in levels]


def enumerate_iid(probs, n):
    """Log-prob of every length-n sequence under an i.i.d. source."""
    out = []
    for seq in product(range(len(probs)), repeat=n):
        out.append(math.fsum(math.log(probs[i]) for i in seq))
    return out


def enumerate_mixture(pairs, n):
    """Log-prob of every length-n sequence under a mixture of i.i.d. sources."""
    out = []
    k = len(pairs[0][1])
    for seq in product(range(k), repeat=n):
        per_comp = [
            math.log(w) + math.fsum(math.log(ps[i]) for i in seq) for w, ps in pairs
        ]
        m = max(per_comp)
        out.append(m + math.log(math.fsum(math.exp(v - m) for v in per_comp)))
    return out


def test_new_distribution_sorts_and_merges():
    dist = sc.new_distribution([0.2, 0.5, 0.3])
    assert [math.exp(a.log_prob) for a in dist.atoms] == pytest.approx([0.5, 0.3, 0.2])
    assert [a.multiplicity for a in dist.atoms] == [1, 1, 1]

    uniform = sc.new_distribution([0.25] * 4)
    assert len(uniform.atoms) == 1
    assert uniform.atoms[0].multiplicity == 4
    assert uniform.atoms[0].log_prob == math.log(0.25)
    assert uniform.support_size == 4


def test_new_distribution_drops_zeros():
    dist = sc.new_distribution([0.0, 1.0, 0.0])
    assert dist.support_size == 1
    assert dist.atoms[0].log_prob == 0.0


def test_new_distribution_validation():
    with pytest.raises(sc.NotNormalized):
        sc.new_distribution([0.5, 0.6])
    with pytest.raises(sc.NotNormalized):
        sc.new_distribution([0.7, 0.4, -0.1])
    with pytest.raises(sc.EmptyDistribution):
        sc.new_distribution([])
    with pytest.raises(sc.EmptyDistribution):
        sc.new_distribution([0.0, 0.0])
    for bad in ([1.0, math.nan], [math.nan], [1.0, math.inf], [math.inf, -math.inf]):
        with pytest.raises(sc.NotNormalized):
            sc.new_distribution(bad)
    with pytest.raises(sc.NotNormalized):
        sc.shannon_entropy([1.0, math.nan])


def test_total_mass_and_probabilities(monkeypatch):
    dist = sc.new_distribution([0.5, 0.3, 0.2])
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert dist.probabilities() == pytest.approx([0.5, 0.3, 0.2])
    monkeypatch.setenv("SMOOTHCODE_CAP", "2")
    with pytest.raises(sc.TooLarge):
        dist.probabilities()


def test_from_atoms():
    dist = sc.distribution_from_atoms([(math.log(0.25), 4)])
    assert dist.support_size == 4
    with pytest.raises(sc.NotNormalized):
        sc.distribution_from_atoms([(math.log(0.25), 3)])
    with pytest.raises(sc.NotNormalized):
        sc.distribution_from_atoms([(math.log(0.5), 0)])
    with pytest.raises(sc.NotNormalized, match=r"got -2\*\*1328 or less$"):
        sc.distribution_from_atoms([(0.0, -(10**400))])
    with pytest.raises(sc.NotNormalized, match=r"got 2\.5$"):
        sc.distribution_from_atoms([(0.0, 2.5)])
    with pytest.raises(sc.NotNormalized):
        sc.distribution_from_atoms([(0.5, 1)])
    with pytest.raises(sc.EmptyDistribution):
        sc.distribution_from_atoms([])


def test_constructor_checks_the_total_mass():
    # levels of mass 1.72: the public constructor once took them, and the
    # code oracle then scored the source as if it were a distribution
    with pytest.raises(sc.NotNormalized, match="^total mass is 1.72"):
        sc.Distribution((-0.1, -0.2), (1, 1))
    with pytest.raises(sc.NotNormalized, match="^total mass overflows"):
        sc.Distribution((0.0,), (10**400,))
    dist = sc.Distribution((math.log(0.5), math.log(0.25)), (1, 2))
    assert dist == sc.new_distribution([0.5, 0.25, 0.25])


def test_new_distribution_checks_the_mass_once_with_the_constructors_message():
    # 2e-9 off is past the 1e-9 tolerance on either side, 5e-10 is within it
    for off in (2e-9, -2e-9):
        with pytest.raises(sc.NotNormalized, match=r"^total mass is [01]\.\d+, expected 1 within 1e-09$"):
            sc.new_distribution([0.5, 0.5 + off])
    for off in (5e-10, -5e-10):
        dist = sc.new_distribution([0.5, 0.5 + off])
        assert dist.support_size == 2
    assert "_masses" in vars(dist)  # the check leaves the column built for the smoothing


def test_iid_fair_coin_is_single_atom():
    coin = sc.new_distribution([0.5, 0.5])
    d3 = sc.iid_extension(coin, 3)
    assert len(d3.atoms) == 1
    assert d3.atoms[0].multiplicity == 8
    assert d3.atoms[0].log_prob == pytest.approx(3 * math.log(0.5), abs=1e-15)
    assert d3.n == 3


def test_iid_blocklength_one_is_identity():
    base = sc.new_distribution([0.7, 0.3])
    assert sc.iid_extension(base, 1) is base


def test_iid_binary_example():
    d2 = sc.iid_extension(sc.new_distribution([0.7, 0.3]), 2)
    got = [(math.exp(a.log_prob), a.multiplicity) for a in d2.atoms]
    assert [m for _, m in got] == [1, 2, 1]
    assert [p for p, _ in got] == pytest.approx([0.49, 0.21, 0.09], abs=1e-12)


def test_iid_rejects_bad_inputs(monkeypatch):
    base = sc.new_distribution([0.7, 0.3])
    with pytest.raises(ValueError):
        sc.iid_extension(sc.iid_extension(base, 2), 2)
    with pytest.raises(ValueError):
        sc.iid_extension(base, 0)
    monkeypatch.setenv("SMOOTHCODE_CAP", "50")
    with pytest.raises(sc.TooLarge):
        sc.iid_extension(base, 100)


def test_iid_matches_bruteforce():
    cases = [([0.7, 0.3], 4), ([0.5, 0.25, 0.25], 3), ([0.6, 0.3, 0.1], 4)]
    for probs, n in cases:
        dist = sc.iid_extension(sc.new_distribution(probs), n)
        expected = brute_force_levels(enumerate_iid(probs, n))
        assert len(dist.atoms) == len(expected)
        for atom, (lp, count) in zip(dist.atoms, expected):
            assert atom.multiplicity == count
            assert atom.log_prob == pytest.approx(lp, abs=1e-12)
        assert dist.support_size == len(probs) ** n


def test_mixture_single_letter_example():
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    d1 = sc.mixture_extension(spec, 1)
    got = sorted(math.exp(a.log_prob) for a in d1.atoms for _ in range(a.multiplicity))
    assert got == pytest.approx([0.344, 0.656], abs=1e-12)


def test_mixture_one_component_equals_iid():
    spec = sc.mixture_spec([(1.0, [0.7, 0.3])])
    mix = sc.mixture_extension(spec, 5)
    iid = sc.iid_extension(sc.new_distribution([0.7, 0.3]), 5)
    assert len(mix.atoms) == len(iid.atoms)
    for a, b in zip(mix.atoms, iid.atoms):
        assert a.multiplicity == b.multiplicity
        assert a.log_prob == pytest.approx(b.log_prob, abs=1e-12)


def test_mixture_matches_bruteforce():
    pairs = [(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])]
    spec = sc.mixture_spec(pairs)
    for n in (1, 2, 3, 5):
        dist = sc.mixture_extension(spec, n)
        expected = brute_force_levels(enumerate_mixture(pairs, n))
        assert len(dist.atoms) == len(expected)
        for atom, (lp, count) in zip(dist.atoms, expected):
            assert atom.multiplicity == count
            assert atom.log_prob == pytest.approx(lp, abs=1e-12)


def test_mixture_mass_at_larger_blocklength():
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    d = sc.mixture_extension(spec, 64)
    assert d.support_size == 2**64
    assert d.total_mass() == pytest.approx(1.0, abs=1e-9)
    assert d.n == 64


def test_mixture_with_zero_prob_symbol():
    # second component never emits symbol 2; classes using it fall back to component 1
    spec = sc.mixture_spec([(0.5, [0.4, 0.3, 0.3]), (0.5, [0.9, 0.1, 0.0])])
    d = sc.mixture_extension(spec, 3)
    assert d.total_mass() == pytest.approx(1.0, abs=1e-12)


def lexicographic_classes(n, bins):
    """Per-bin counts summing to n, in lexicographic order."""
    for head in product(range(n + 1), repeat=bins - 1):
        if sum(head) <= n:
            yield head + (n - sum(head),)


def comb_product(counts, mults):
    """Exact class size: one math.comb per bin, times m**c for m symbols per bin."""
    size, rem = 1, sum(counts)
    for c, m in zip(counts, mults):
        size *= math.comb(rem, c) * m**c
        rem -= c
    return size


def reference_log_prob(counts, pairs):
    """Log-prob of one sequence in the class, fsum per component then logsumexp."""
    per_comp = []
    for w, ps in pairs:
        if any(c and p == 0.0 for c, p in zip(counts, ps)):
            continue
        per_comp.append(math.log(w) + math.fsum(c * math.log(p) for c, p in zip(counts, ps) if c))
    if not per_comp:
        return -math.inf
    m = max(per_comp)
    return m + math.log(math.fsum(math.exp(v - m) for v in per_comp))


ENGINE_SOURCES = [
    # (components as (weight, per-bin probability of one symbol), symbols per bin)
    ([(1.0, [0.7, 0.3])], [1, 1]),
    ([(1.0, [0.5, 0.25])], [1, 2]),  # base [0.25, 0.25, 0.5]: a repeated level
    ([(1.0, [0.4, 0.2, 0.1])], [1, 2, 2]),
    ([(1.0, [0.41, 0.29, 0.19, 0.11])], [1, 1, 1, 1]),
    ([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])], [1, 1]),
    ([(0.5, [0.4, 0.3, 0.3]), (0.5, [0.9, 0.1, 0.0])], [1, 1, 1]),  # -inf path
    ([(0.5, [0.4, 0.35, 0.25]), (0.3, [0.6, 0.3, 0.1]), (0.2, [0.8, 0.15, 0.05])], [1, 1, 1]),
    ([(0.7, [0.25, 0.25, 0.25, 0.25]), (0.3, [0.7, 0.1, 0.1, 0.1])], [1, 1, 1, 1]),
]


@pytest.mark.parametrize("pairs, mults", ENGINE_SOURCES)
def test_engine_counts_match_comb_products(pairs, mults):
    log_w = [math.log(w) for w, _ in pairs]
    log_p = [[math.log(p) if p > 0.0 else -math.inf for p in ps] for _, ps in pairs]
    for n in (1, 2, 7, 25):
        entries = list(zip(*_type_class_atoms(n, log_w, log_p, mults)))
        expected = []
        for counts in lexicographic_classes(n, len(mults)):
            lp = reference_log_prob(counts, pairs)
            if lp != -math.inf:
                expected.append((lp, comb_product(counts, mults)))
        assert [m for _, m in entries] == [m for _, m in expected]
        for (got_lp, _), (lp, _) in zip(entries, expected):
            assert got_lp == pytest.approx(lp, abs=1e-12)


@pytest.mark.parametrize("probs", [[0.25, 0.25, 0.5], [0.7, 0.3], [0.4, 0.3, 0.2, 0.1]])
def test_iid_extension_counts_match_comb_products(probs):
    base = sc.new_distribution(probs)
    for n in (2, 9, 25):
        classes = []
        for counts in lexicographic_classes(n, len(probs)):
            lp = math.fsum(c * math.log(p) for c, p in zip(counts, probs))
            classes.append((lp, comb_product(counts, [1] * len(probs))))
        expected = []  # merge classes of equal probability, largest first
        for lp, size in sorted(classes, reverse=True):
            if expected and expected[-1][0] - lp <= 1e-9:
                expected[-1][1] += size
            else:
                expected.append([lp, size])
        dist = sc.iid_extension(base, n)
        assert [a.multiplicity for a in dist.atoms] == [m for _, m in expected]
        for atom, (lp, _) in zip(dist.atoms, expected):
            assert atom.log_prob == pytest.approx(lp, abs=1e-9)
        assert dist.support_size == len(probs) ** n


def test_mixture_extension_at_blocklength_16384():
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    d = sc.mixture_extension(spec, 16384)
    assert d.support_size == 2**16384
    assert d.total_mass() == pytest.approx(1.0, abs=1e-9)
    # the flat span's 11,848 classes are one entry, at the span's one probability
    assert len(d.mults) == 4534


def test_mixture_validation():
    with pytest.raises(sc.BadMixture):
        sc.mixture_spec([(0.5, [0.5, 0.5]), (0.4, [0.89, 0.11])])  # weights != 1
    with pytest.raises(sc.BadMixture):
        sc.mixture_spec([(0.6, [0.89, 0.11]), (0.4, [0.5, 0.5])])  # entropies increase
    with pytest.raises(sc.BadMixture):
        sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11, 0.0])])  # alphabet size
    with pytest.raises(sc.BadMixture):
        sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [1.11, -0.11])])
    with pytest.raises(sc.BadMixture):
        sc.mixture_spec([])
    with pytest.raises(sc.BadMixture, match="^mixture needs one weight per component$"):
        sc.MixtureSpec((0.6, 0.4), ((1.0,),))
    with pytest.raises(sc.BadMixture):
        # equal entropies are not strictly decreasing
        sc.mixture_spec([(0.5, [0.2, 0.8]), (0.5, [0.8, 0.2])])
    for bad in (
        [(1.0, [1.0, math.nan])],
        [(1.0, [math.nan, math.nan])],
        [(1.0, [math.inf, 0.0])],
        [(math.nan, [0.5, 0.5])],
        [(math.inf, [0.5, 0.5])],
        [(0.6, [0.5, 0.5]), (0.4, [0.89, math.nan])],
    ):
        with pytest.raises(sc.BadMixture):
            sc.mixture_spec(bad)


def test_string_entries_and_misshapen_pairs_raise_typed_errors():
    numbers = "^mixture weights and probabilities must be finite numbers$"
    for bad in ([(0.5, [0.5, "x"]), (0.5, [0.5, 0.5])], [("x", [1.0])], ["ab"]):
        with pytest.raises(sc.BadMixture, match=numbers):
            sc.mixture_spec(bad)
    for bad in ([(0.5, [0.5, 0.5], 3)], [(1.0,)], [(0.5, [0.5, 0.5]), ()]):
        with pytest.raises(sc.BadMixture, match=r"^mixture components must be \(weight, probs\) pairs$"):
            sc.mixture_spec(bad)
    # the first bad pair names the error, as before
    with pytest.raises(sc.BadMixture, match=numbers):
        sc.mixture_spec([(None, [1.0]), (1.0,)])
    with pytest.raises(sc.NotNormalized, match="^probability entries must be finite numbers$"):
        sc.new_distribution(["x", 0.5])
    with pytest.raises(sc.NotNormalized, match="^probability entries must be finite numbers$"):
        sc.shannon_entropy([0.5, "x"])
    with pytest.raises(sc.NotNormalized, match="^log-probabilities must be finite numbers$"):
        sc.distribution_from_atoms([("x", 1)])
    with pytest.raises(sc.NotNormalized, match=r"^atoms must be \(log_prob, multiplicity\) pairs$"):
        sc.distribution_from_atoms([(0.0, 1, 2)])


def test_cumulative_weights_endpoints():
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    assert spec.cumulative_weights() == [0.0, 0.6, 1.0]


def test_shannon_entropy_values():
    assert sc.shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)
    assert sc.shannon_entropy([1.0]) == 0.0
    assert sc.shannon_entropy([0.89, 0.11]) == pytest.approx(H_SKEWED_COIN, abs=1e-15)
    assert sc.shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(math.log(2), abs=1e-15)
    with pytest.raises(sc.NotNormalized):
        sc.shannon_entropy([0.3, 0.3])


def test_json_loaders():
    dist = sc.distribution_from_json({"probs": [0.5, 0.3, 0.2]})
    assert dist.support_size == 3
    dist = sc.distribution_from_json(
        {"atoms": [{"log_prob": math.log(0.25), "multiplicity": 4}], "n": 2}
    )
    assert dist.support_size == 4
    assert dist.n == 2
    with pytest.raises(sc.NotNormalized):
        sc.distribution_from_json({"weights": [1.0]})

    spec = sc.mixture_from_json(
        {
            "components": [
                {"weight": 0.6, "probs": [0.5, 0.5]},
                {"weight": 0.4, "probs": [0.89, 0.11]},
            ]
        }
    )
    assert spec.alphabet_size == 2
    with pytest.raises(sc.BadMixture):
        sc.mixture_from_json({"components": []})


MIX2_JSON = {"components": [{"weight": 0.6, "probs": [0.5, 0.5]},
                            {"weight": 0.4, "probs": [0.89, 0.11]}]}


@pytest.mark.parametrize("n", [1, 2, 10, 300])
def test_json_blocklength_builds_the_extension(n):
    # "n" beside "probs" or "components" reads the library's extension, bit for bit
    for probs in ([0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]):
        got = sc.distribution_from_json({"probs": probs, "n": n})
        want = sc.iid_extension(sc.new_distribution(probs), n)
        assert got == want and got.n == n
        assert [x.hex() for x in got.log_probs] == [x.hex() for x in want.log_probs]
    got = sc.distribution_from_json({**MIX2_JSON, "n": n})
    want = sc.mixture_extension(sc.mixture_from_json(MIX2_JSON), n)
    assert got == want and got.n == n
    assert [x.hex() for x in got.log_probs] == [x.hex() for x in want.log_probs]


def test_json_blocklength_is_checked():
    # without "n" the probs form stays the one-letter source
    assert sc.distribution_from_json({"probs": [0.5, 0.3, 0.2]}) == sc.new_distribution(
        [0.5, 0.3, 0.2]
    )
    for bad in (True, 2.0, 0, -1, "2", None):
        for form in ({"probs": [0.5, 0.5]}, MIX2_JSON):
            with pytest.raises(sc.NotNormalized):
                sc.distribution_from_json({**form, "n": bad})
    atoms = [{"log_prob": 0.0, "multiplicity": 1}]
    with pytest.raises(sc.NotNormalized):
        sc.distribution_from_json({"probs": [1.0], "atoms": atoms, "n": 1})
    with pytest.raises(sc.BadMixture):
        sc.distribution_from_json({"components": [{"weight": 0.5, "probs": [1.0]}], "n": 2})


def test_cap_from_environment(monkeypatch):
    monkeypatch.setenv("SMOOTHCODE_CAP", "10")
    base = sc.new_distribution([0.5, 0.3, 0.2])
    with pytest.raises(sc.TooLarge):
        sc.iid_extension(base, 16)
    monkeypatch.setenv("SMOOTHCODE_CAP", "junk")
    with pytest.raises(ValueError):
        sc.iid_extension(base, 16)


def test_random_extensions_keep_mass(seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        base = sc.new_distribution(rng.dirichlet(np.ones(k)))
        n = int(rng.integers(2, 40))
        d = sc.iid_extension(base, n)
        assert d.total_mass() == pytest.approx(1.0, abs=1e-9)
        assert d.support_size == k**n


def test_expansions_of_huge_runs_raise_too_large():
    # one atom of 2**100 symbols: too long even to build a run iterator for
    dist = sc.iid_extension(sc.new_distribution([0.5, 0.5]), 100)
    with pytest.raises(sc.TooLarge):
        dist.probabilities()
    with pytest.raises(sc.TooLarge):
        sc.optimal_smoothing(dist, 0.1).probabilities()
    code = sc.build_stochastic_code(dist, 0.1, 1.0)
    with pytest.raises(sc.TooLarge):
        code.gamma
    with pytest.raises(sc.TooLarge):
        code.inner


def test_nonpositive_cap_is_rejected(monkeypatch):
    base = sc.new_distribution([0.5, 0.3, 0.2])
    spec = sc.mixture_spec([(1.0, [0.5, 0.5])])
    for cap in ("0", "-3"):
        monkeypatch.setenv("SMOOTHCODE_CAP", cap)
        with pytest.raises(ValueError, match="SMOOTHCODE_CAP must be >= 1"):
            sc.iid_extension(base, 4)
        with pytest.raises(ValueError, match="SMOOTHCODE_CAP must be >= 1"):
            sc.mixture_extension(spec, 4)
        with pytest.raises(ValueError, match="SMOOTHCODE_CAP must be >= 1"):
            base.probabilities()


def reference_walk(n, log_weights, level_log_probs, level_mults):
    """The per-class recursive walk the column engine replaced, kept as its referee.

    One (-log_prob, class_index, multiplicity) tuple per class of positive
    mass, every class visited by Python code in lexicographic order.
    """
    bins = len(level_mults)
    m_last = level_mults[-1]
    tables = [[_scaled_logs(comp[j], n) for comp in level_log_probs] for j in range(bins)]
    last_tables = tables[-1]
    single = len(log_weights) == 1
    entries = []
    index = itertools.count()

    def walk(j, rem, count, sums):
        if j == bins - 1:
            lps = [w + (s + t[rem]) for w, s, t in zip(log_weights, sums, last_tables)]
            lp = lps[0] if single else logsumexp(lps)
            idx = next(index)
            if lp != -math.inf:
                entries.append((-lp, idx, count))
            return
        m, bin_tables = level_mults[j], tables[j]
        for h in range(rem + 1):
            if h:
                count = count * (m * (rem - h + 1)) // (h * m_last)
            walk(j + 1, rem - h, count, [s + t[h] for s, t in zip(sums, bin_tables)])

    walk(0, n, m_last**n, [0.0] * len(log_weights))
    return entries


def reference_merge(entries):
    """The tuple sort and merge the columnar merge replaced."""
    entries = sorted(entries)
    atoms = []
    run_lp, run_mult = entries[0][0], 0
    for neg_lp, _, mult in entries:
        if neg_lp - run_lp > MERGE_TOL:
            atoms.append(WeightedAtom(-run_lp, run_mult))
            run_lp, run_mult = neg_lp, 0
        run_mult += mult
    atoms.append(WeightedAtom(-run_lp, run_mult))
    return tuple(atoms)


def float_bits(x):
    """A float's value and sign bit, so that 0.0 and -0.0 compare unequal."""
    return (x, math.copysign(1.0, x))


def atom_bits(atoms):
    return [(*float_bits(a.log_prob), a.multiplicity) for a in atoms]


@st.composite
def engine_sources(draw):
    """(log_weights, level_log_probs, level_mults) of a normalized mixture over bins.

    Components are often flat, one probability in the last two bins, so that
    two-bin sources fold their flat spans; the bins' own multiplicities differ
    as often, so that such a row is built from either end; and zero letters
    make -inf components, flat ones among them, which must never fold.
    """
    bins = draw(st.integers(1, 4))
    mults = draw(st.lists(st.integers(1, 3), min_size=bins, max_size=bins))
    n_comps = draw(st.integers(1, 3))
    raw_w = draw(st.lists(st.floats(0.05, 1.0), min_size=n_comps, max_size=n_comps))
    log_weights = [math.log(w / math.fsum(raw_w)) for w in raw_w]
    level = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    level_log_probs = []
    for _ in range(n_comps):
        raw = draw(st.lists(level, min_size=bins, max_size=bins).filter(any))
        if any(raw[:-1]) and draw(st.booleans()):
            raw[-1] = raw[-2]  # flat: one probability in the last two bins, zero included
        total = math.fsum(m * p for m, p in zip(mults, raw))
        level_log_probs.append([math.log(p / total) if p > 0.0 else -math.inf for p in raw])
    return log_weights, level_log_probs, mults


@given(source=engine_sources(), n=st.integers(1, 30))
def test_column_engine_matches_reference_walk(source, n):
    assert_engine_matches_reference(n, *source)


@st.composite
def long_two_bin_rows(draw):
    """(n, log_weights, level_log_probs, level_mults) of a two-bin source, n up to 2,000.

    One to three components, each flat (one probability in both bins) half
    the time, over bins of unequal multiplicities, so that the row is no
    palindrome and its counts are built from both ends; a component that is
    not flat gives one bin zero mass now and then.
    """
    n = draw(st.integers(1000, 2000) | st.integers(2, 1000))
    mults = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
    n_comps = draw(st.integers(1, 3))
    raw_w = draw(st.lists(st.floats(0.05, 1.0), min_size=n_comps, max_size=n_comps))
    log_weights = [math.log(w / math.fsum(raw_w)) for w in raw_w]
    level_log_probs = []
    for _ in range(n_comps):
        if draw(st.booleans()):
            raw = [1.0, 1.0]
        else:
            raw = draw(st.lists(st.one_of(st.floats(0.01, 1.0), st.just(0.0)),
                                min_size=2, max_size=2).filter(any))
        total = math.fsum(m * p for m, p in zip(mults, raw))
        level_log_probs.append([math.log(p / total) if p > 0.0 else -math.inf for p in raw])
    return n, log_weights, level_log_probs, mults


# a long row whose flat component holds most of it
LONG_FOLD = (1999, [math.log(0.7), math.log(0.3)],
             [[-math.log(3)] * 2, [math.log(0.9), math.log(0.05)]], [1, 2])


@given(source=long_two_bin_rows())
@example(source=LONG_FOLD)
@settings(max_examples=60, deadline=None)  # the reference walk visits up to 2,001 classes one by one
def test_long_two_bin_rows_fold_only_their_flat_span(source):
    # outside the folded span the entries are the reference walk's, bit for bit;
    # the span is one entry at w + (0.0 + n * a), with the exact sum of its counts
    folded = assert_engine_matches_reference(*source)
    if not all(map(math.isfinite, itertools.chain.from_iterable(source[2]))):
        assert folded == 0
    if source == LONG_FOLD:
        assert folded > 1000


MIX2 = [(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])]
MIX3 = [(0.5, [0.4, 0.35, 0.25]), (0.3, [0.6, 0.3, 0.1]), (0.2, [0.8, 0.15, 0.05])]


def mixture_engine_args(pairs):
    """(log_weights, level_log_probs, level_mults) of a mixture, as mixture_extension passes them."""
    log_weights = [math.log(w) for w, _ in pairs]
    level_log_probs = [[math.log(p) if p > 0.0 else -math.inf for p in ps] for _, ps in pairs]
    return log_weights, level_log_probs, [1] * len(pairs[0][1])


def assert_engine_matches_reference(n, log_weights, level_log_probs, mults):
    """The engine's columns are the reference walk's, bit for bit, but for one folded span.

    A fold replaces a stretch of at least two classes of a two-bin source,
    dominated by a component (w, a) that gives both bins one finite log-prob
    a, with one entry: the log-prob w + (0.0 + n * a) that a one-bin source
    gives its class, and the exact sum of their counts. The span's floats lie
    within rounding of it. The merged levels are the reference merge of
    these columns, and the reference merge's own levels but for those that
    start within MERGE_TOL above the span's floats or the folded entry.
    Returns the number of classes folded, 0 where none is.
    """
    columns = _type_class_atoms(n, log_weights, level_log_probs, mults)
    expected = reference_walk(n, log_weights, level_log_probs, mults)
    got = [(float_bits(lp), count) for lp, count in zip(*columns)]
    want = [(float_bits(-neg_lp), count) for neg_lp, _, count in expected]
    folded = len(want) - len(got) + 1 if len(got) < len(want) else 0
    if folded:
        assert len(mults) == 2 and folded >= 2
        assert all(map(math.isfinite, itertools.chain.from_iterable(level_log_probs)))
        # the folded entry's count exceeds each count it sums, so it is the first difference
        lo = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        span = [-neg_lp for neg_lp, _, _ in expected[lo : lo + folded]]
        top = got[lo][0][0]
        flat = [w + (0.0 + n * a) for w, (a, b) in zip(log_weights, level_log_probs) if a == b]
        assert top in flat
        assert all(abs(lp - top) <= 4 * math.ulp(top) for lp in span)
        assert got[lo] == (float_bits(top), sum(e[2] for e in expected[lo : lo + folded]))
        want[lo : lo + folded] = [got[lo]]
    assert got == want
    if expected:  # a source of zero mass everywhere has no classes to merge
        merged = atom_bits(map(WeightedAtom, *_normalize_atoms(*columns)))
        entries = [(-lp, i, count) for i, ((lp, _), count) in enumerate(got)]
        assert merged == atom_bits(reference_merge(entries))
        reference = atom_bits(reference_merge(expected))
        if folded:
            # a level that holds a span class or the folded entry starts at most
            # MERGE_TOL above it; the levels outside that window must not move
            low, high = min(*span, top), max(*span, top) + MERGE_TOL
            merged, reference = ([a for a in levels if not low <= a[0] <= high]
                                 for levels in (merged, reference))
        assert merged == reference
    return folded


@st.composite
def raw_columns(draw):
    """(log_probs, counts) as an engine emits them, unsorted and unmerged.

    Entries chain 0.4e-12 to 1.1e-12 apart, so that runs form within
    MERGE_TOL of their first entry and break just past it; with exact
    duplicates, 0.0 beside -0.0, and counts up to 2**200.
    """
    size = draw(st.integers(1, 30))
    lps = []
    for _ in range(size):
        kind = draw(st.sampled_from(["fresh", "step", "step", "duplicate", "zero"]))
        if kind == "fresh" or not lps:
            lps.append(draw(st.floats(-40.0, 0.0)))
        elif kind == "step":
            step = draw(st.floats(0.4e-12, 1.1e-12)) * draw(st.sampled_from([-1.0, 1.0]))
            lps.append(draw(st.sampled_from(lps)) + step)
        elif kind == "duplicate":
            lps.append(draw(st.sampled_from(lps)))
        else:
            lps.append(draw(st.sampled_from([0.0, -0.0])))
    counts = draw(st.lists(st.integers(1, 2**200), min_size=size, max_size=size))
    return lps, counts


@given(columns=raw_columns())
def test_merge_matches_reference_merge_on_raw_columns(columns):
    lps, counts = columns
    entries = [(-lp, i, count) for i, (lp, count) in enumerate(zip(lps, counts))]
    merged = map(WeightedAtom, *_normalize_atoms(lps, counts))
    assert atom_bits(merged) == atom_bits(reference_merge(entries))


def test_a_level_no_entry_joins_keeps_the_engines_count():
    # a level no other entry joins keeps the engine's int object, not a copy of it
    lps, counts = _type_class_atoms(300, *mixture_engine_args(MIX3))
    merged_lps, merged_counts = _normalize_atoms(lps, counts)
    # entries per merged level: the reference merge of the same column with unit counts
    runs = dict(reference_merge([(-lp, i, 1) for i, lp in enumerate(lps)]))
    engine_ids = set(map(id, counts))
    alone = 0
    for lp, count in zip(merged_lps, merged_counts):
        if count.bit_length() > 64:  # past the interpreter's cache of small ints
            assert (id(count) in engine_ids) == (runs[lp] == 1)
            alone += runs[lp] == 1
    assert alone > 40_000
    # by hand: the first and the last level stand alone, the middle two merge
    big = [3**200, 5**150, 7**100, 11**80]
    got = _normalize_atoms([-1.0, -2.0, -2.0 - 4e-13, -3.0], big)
    assert got[1][0] is big[0] and got[1][2] is big[3]
    assert got[1][1] == big[1] + big[2]


def mixture_row_parts(pairs, n, h0, picks):
    """The _RowPart of components `picks` of a three-letter mixture, below first-letter count h0."""
    log_weights, level_log_probs, _ = mixture_engine_args(pairs)
    return [
        (log_weights[c], 0.0 + _scaled_logs(level_log_probs[c][0], n)[h0],
         _scaled_logs(level_log_probs[c][1], n), _scaled_logs(level_log_probs[c][2], n))
        for c in picks
    ]


@pytest.mark.parametrize("pairs, picks", [
    (MIX3, (0, 0)), (MIX3, (1, 1, 1)), (MIX3, (0, 2, 2)), (MIX3, (2, 0, 2)),
    # component 1 gives the last letter no mass: -inf there on every class with h < rem
    ([(0.5, [0.4, 0.3, 0.3]), (0.5, [0.9, 0.1, 0.0])], (0, 1)),
    ([(0.5, [0.4, 0.3, 0.3]), (0.5, [0.9, 0.1, 0.0])], (1, 0, 1)),
    # both do: those classes have zero mass and come out nan, for the caller to drop
    ([(0.5, [0.6, 0.4, 0.0]), (0.5, [0.9, 0.1, 0.0])], (0, 1, 1)),
])
def test_mixture_column_on_tied_and_infinite_components_is_logsumexp(pairs, picks):
    # ties between components and -inf entries: the comparison max picks the
    # float builtin max picks, so each class equals logspace.logsumexp to the bit
    n, h0 = 40, 7
    rem = n - h0
    parts = mixture_row_parts(pairs, n, h0, picks)
    got = _mixture_column(parts, rem, 0, rem + 1)
    cols = [_column(part, rem, 0, rem + 1) for part in parts]
    expected = [logsumexp(col[h] for col in cols) for h in range(rem + 1)]
    zero = [lp == -math.inf for lp in expected]
    assert [math.isnan(lp) for lp in got] == zero
    assert [float_bits(x) for x, z in zip(got, zero) if not z] == [
        float_bits(x) for x, z in zip(expected, zero) if not z
    ]


@pytest.mark.parametrize("pairs, n", [(MIX3, 300), (MIX2, 4096)])
def test_engine_matches_reference_walk_where_one_component_dominates(pairs, n):
    # most of these classes take one component's column, not the log-sum-exp;
    # MIX3 has no flat component, and MIX2's uniform one folds its 2,949 classes
    folded = assert_engine_matches_reference(n, *mixture_engine_args(pairs))
    assert folded == (2949 if pairs is MIX2 else 0)


# [(0.6, [1/3] * 3), (0.4, [0.89, 0.055, 0.055])] as mixture_extension passes it:
# two bins, the last of two tied letters, so its row is no palindrome
TIED = (
    [math.log(0.6), math.log(0.4)],
    [[math.log(1 / 3)] * 2, [math.log(0.89), math.log(0.055)]],
    [1, 2],
)


@pytest.mark.parametrize("source, n, folded", [
    (mixture_engine_args(MIX2), 64, 29),
    (mixture_engine_args(MIX2), 512, 353),
    (mixture_engine_args(MIX2), 1024, 724),
    (mixture_engine_args(MIX2), 2048, 1466),
    # past n=4096 the span's floats straddle two merge levels, and it still folds
    (mixture_engine_args(MIX2), 5800, 4183),
    (mixture_engine_args(MIX2), 8192, 5915),
    # the counts outside the span come from the row's top end down
    (TIED, 512, 318),
    (TIED, 1024, 650),
])
def test_a_flat_span_folds_where_the_merge_keeps_it_one_level(source, n, folded):
    assert assert_engine_matches_reference(n, *source) == folded


@pytest.mark.parametrize("source, n, straddles", [
    (mixture_engine_args(MIX2), 64, False),
    (mixture_engine_args(MIX2), 2048, False),
    (mixture_engine_args(MIX2), 4096, False),
    (mixture_engine_args(MIX2), 5800, True),
    (mixture_engine_args(MIX2), 8192, True),
    (TIED, 512, False),
    (TIED, 1024, True),
])
def test_the_merged_levels_change_only_where_a_flat_span_straddles_two(source, n, straddles):
    # where the span's floats, rounded class by class, fall in one merge run,
    # the folded entry joins that run and every merged level keeps its log-prob
    # and its exact count; where they straddle two runs, the entry at the
    # span's one probability joins one of them
    merged = map(WeightedAtom, *_normalize_atoms(*_type_class_atoms(n, *source)))
    reference = reference_merge(reference_walk(n, *source))
    assert (atom_bits(merged) != atom_bits(reference)) == straddles


@st.composite
def skewed_sources(draw):
    """Mixtures of 2-4 components whose levels spread over many nats, with zeros.

    Components are often flat in the last two bins, as in engine_sources.

    Blocklengths go up to 200, kept to at most 5,000 classes, so that many
    classes have one component far above the others and the walk stays quick.
    """
    bins = draw(st.integers(1, 3))
    mults = draw(st.lists(st.integers(1, 3), min_size=bins, max_size=bins))
    n_comps = draw(st.integers(2, 4))
    raw_w = draw(st.lists(st.floats(-8.0, 0.0).map(math.exp), min_size=n_comps, max_size=n_comps))
    log_weights = [math.log(w / math.fsum(raw_w)) for w in raw_w]
    level = st.one_of(st.just(0.0), st.floats(-20.0, 0.0).map(math.exp))
    level_log_probs = []
    for _ in range(n_comps):
        raw = draw(st.lists(level, min_size=bins, max_size=bins).filter(any))
        if any(raw[:-1]) and draw(st.booleans()):
            raw[-1] = raw[-2]  # flat: one probability in the last two bins, zero included
        total = math.fsum(m * p for m, p in zip(mults, raw))
        level_log_probs.append([math.log(p / total) if p > 0.0 else -math.inf for p in raw])
    top = max(n for n in range(1, 201) if math.comb(n + bins - 1, bins - 1) <= 5000)
    return draw(st.integers(1, top)), log_weights, level_log_probs, mults


@settings(deadline=None)  # the reference walk visits up to 5,000 classes one by one
@given(source=skewed_sources())
def test_engine_matches_reference_walk_on_skewed_mixtures(source):
    assert_engine_matches_reference(*source)


def test_dominated_classes_lie_past_float_resolution(monkeypatch):
    # every class the engine hands to one component must have each other
    # component's float log-prob at least 53 ln 2 + ln(k - 1) below it, and the
    # spans must carry at least half of MIX3's classes at n=300: a silent
    # fallback to the full log-sum-exp fails here
    calls = []

    def recording(ends, rem, gap, spans_of=distributions._dominant_spans):
        spans = spans_of(ends, rem, gap)
        calls.append((ends, rem, spans))
        return spans

    monkeypatch.setattr(distributions, "_dominant_spans", recording)
    n, k = 300, 3
    log_weights, level_log_probs, mults = mixture_engine_args(MIX3)
    _type_class_atoms(n, log_weights, level_log_probs, mults)
    bound = 53 * math.log(2) + math.log(k - 1)
    tables = [[_scaled_logs(lp, n) for lp in comp] for comp in level_log_probs]
    # one row per count h0 of the first bin, in walk order; h0 = n is one class, no row
    assert [rem for _, rem, _ in calls] == list(range(n, 0, -1))
    marked = 0
    for h0, (ends, rem, spans) in enumerate(calls):
        cols = [
            [w + (((0.0 + t[0][h0]) + t[1][h]) + t[2][rem - h]) for h in range(rem + 1)]
            for w, t in zip(log_weights, tables)
        ]
        assert list(ends) == [(col[0], col[-1]) for col in cols]
        assert [lo for lo, _, _ in spans] == [0] + [hi for _, hi, _ in spans[:-1]]
        assert spans[-1][1] == rem + 1
        for lo, hi, c in spans:
            if c is None:
                continue
            marked += hi - lo
            for h in range(lo, hi):
                assert all(cols[d][h] - cols[c][h] <= -bound for d in range(k) if d != c)
    assert 2 * marked >= math.comb(n + 2, 2)  # 45,451 classes


def test_walk_depth_and_cost_do_not_grow_with_the_bins():
    # a walk that recursed once per bin overflowed the recursion limit on this
    # 1,000-level base, and one that descended through every bin for each class
    # took seconds on a few hundred levels at n=2
    rng = random.Random(11)
    raw = [1.0 + rng.random() for _ in range(1000)]
    total = math.fsum(raw)
    base = sc.new_distribution([r / total for r in raw])
    # grouped as at n=1, where the grouping runs to the last level
    refs, _, _ = _power_of_two_groups(base.log_probs, base.mults, 1)
    assert len(base.mults) == len(refs) == 1000  # no relation, so the walk builds it
    dist = sc.iid_extension(base, 2)
    # the classes of n=2 are the pairs i <= j, at lp_i + lp_j, 2 sequences each for i < j
    lps = base.log_probs
    pair_lps = itertools.chain.from_iterable(
        map(add, itertools.repeat(lps[i]), lps[i:]) for i in range(1000)
    )
    pair_counts = itertools.chain.from_iterable(
        itertools.chain((1,), itertools.repeat(2, 999 - i)) for i in range(1000)
    )
    expected = _normalize_atoms(list(pair_lps), list(pair_counts))
    assert (dist.log_probs, dist.mults) == expected
    assert sum(dist.mults) == 1000**2


def test_the_lattice_is_chosen_by_its_calls_not_only_its_points(monkeypatch):
    def refuse(*args):
        raise AssertionError("wrong engine")

    # 100 unrelated pairs (q, q/2) at n=2: the lattice has few points, but its
    # split runs C(102, 3) times, one polynomial product each, so the walk builds it
    rng = random.Random(5)
    raw = [1.0 + rng.random() for _ in range(100)]
    total = 1.5 * math.fsum(raw)
    base = sc.new_distribution([p for r in raw for p in (r / total, r / total / 2)])
    refs, _, _ = _power_of_two_groups(base.log_probs, base.mults, 2)
    assert len(refs) == 100
    with monkeypatch.context() as patch:
        patch.setattr(distributions, "_lattice_atoms", refuse)
        assert sum(sc.iid_extension(base, 2).mults) == 200**2
    # two groups at n=100 keep the lattice: 10,202 calls and points < 176,851 classes
    base = sc.new_distribution([0.4, 0.3, 0.2, 0.1])
    monkeypatch.setattr(distributions, "_type_class_atoms", refuse)
    assert sum(sc.iid_extension(base, 100).mults) == 4**100


@pytest.mark.parametrize("n", [1, 2, 3, 17, 100])
def test_one_bin_and_two_bin_builders_match_reference(n):
    # a one-level base: the whole walk is a single class
    base = sc.new_distribution([0.5, 0.5])
    got = sc.iid_extension(base, n)
    expected = reference_merge(reference_walk(n, [0.0], [[math.log(0.5)]], [2]))
    assert atom_bits(got.atoms) == atom_bits(expected)
    # a mixture whose letters are all tied is one bin, and one class too
    got = sc.mixture_extension(sc.mixture_spec([(1.0, [0.25] * 4)]), n)
    expected = reference_merge(reference_walk(n, [0.0], [[math.log(0.25)]], [4]))
    assert atom_bits(got.atoms) == atom_bits(expected)
    # one to three components over one bin, one of them of zero mass there,
    # and a bin of zero mass under every component, which leaves no class
    log_w = [math.log(0.5), math.log(0.3), math.log(0.2)]
    log_p = [[math.log(0.25)], [math.log(0.2)], [-math.inf]]
    for k in (1, 2, 3):
        assert_engine_matches_reference(n, log_w[:k], log_p[:k], [4])
    assert_engine_matches_reference(n, log_w[:1], [[-math.inf]], [4])
    # two bins: the whole walk is the inner column step
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    got = sc.mixture_extension(spec, n)
    log_w = [math.log(0.6), math.log(0.4)]
    log_p = [[math.log(0.5)] * 2, [math.log(0.89), math.log(0.11)]]
    expected = reference_merge(reference_walk(n, log_w, log_p, [1, 1]))
    assert atom_bits(got.atoms) == atom_bits(expected)


def test_a_one_bin_source_builds_no_count_rows(monkeypatch):
    # the one class is summed where it stands: building the n + 1 exact counts
    # of a row for it took quadratic time and memory in n
    def refuse(*args):
        raise AssertionError("a one-bin source built a row of counts")

    monkeypatch.setattr(distributions, "_count_rows", refuse)
    n = 50_000
    dist = sc.mixture_extension(sc.mixture_spec([(1.0, [0.001] * 1000)]), n)
    assert dist.mults == (1000**n,)
    assert dist.log_probs == (0.0 + (0.0 + n * math.log(0.001)),)
    dist = sc.iid_extension(sc.new_distribution([0.5, 0.5]), n)
    assert dist.mults == (2**n,)
    assert dist.log_probs == (0.0 + (0.0 + n * math.log(0.5)),)


@given(
    n=st.integers(1, 300),
    lone=st.booleans(),
    m_pen=st.integers(1, 4),
    m_last=st.integers(1, 4),
    tied=st.booleans(),
)
@example(n=300, lone=False, m_pen=1, m_last=1, tied=True)
@example(n=300, lone=False, m_pen=3, m_last=3, tied=True)
@example(n=300, lone=False, m_pen=2, m_last=1, tied=False)
@example(n=300, lone=True, m_pen=1, m_last=1, tied=True)
@example(n=300, lone=True, m_pen=1, m_last=3, tied=False)
@settings(max_examples=40, deadline=None)
def test_count_rows_match_comb_products(n, lone, m_pen, m_last, tied):
    if tied:
        m_last = m_pen
    pen_powers = [m_pen**h for h in range(n + 1)]
    last_powers = [m_last**h for h in range(n + 1)]

    def want(rem):
        return [math.comb(rem, h) * pen_powers[h] * last_powers[rem - h] for h in range(rem + 1)]

    if lone:
        # a two-bin source's one row, grown in steps from h = 0 up and from h = n down
        row, up, down = want(n), [m_last**n], [m_pen**n]
        for size in (1, n // 3 + 1, n // 3 + 1, n + 1):
            _grow(up, n, size, m_pen, m_last)
            _grow(down, n, size, m_last, m_pen)
            assert up == row[:size] and down == row[::-1][:size]
        return
    rows = _count_rows(n, m_pen, m_last)
    assert len(rows) == n + 1
    for rem, row in enumerate(rows):
        # a palindrome keeps h <= rem // 2, and the walk reads h > rem // 2 at rem - h
        assert len(row) == (rem // 2 + 1 if m_pen == m_last else rem + 1)
        read = [row[min(h, rem - h)] if m_pen == m_last else row[h] for h in range(rem + 1)]
        assert read == want(rem)


def naive_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


COEFFICIENTS = st.lists(st.sampled_from([0, 1, 1, 2, 3, 2**70]), min_size=1, max_size=6)


@given(a=COEFFICIENTS, b=COEFFICIENTS)
@example(a=[1], b=[1])
@example(a=[1], b=[3, 0, 1])
@example(a=[0, 1], b=[1])
def test_poly_mul_matches_a_double_loop(a, b):
    want = naive_poly_mul(a, b)
    assert _poly_mul(a, b) == want
    assert _poly_mul(b, a) == want
    assert _poly_mul(a, [1]) == a and _poly_mul([1], a) == a


def test_the_cap_bounds_the_count_of_the_engine_that_runs(monkeypatch):
    # 176,851 type classes at n=100, but 10,202 lattice calls and points
    base = sc.new_distribution([0.4, 0.3, 0.2, 0.1])
    expected = sc.iid_extension(base, 100)
    monkeypatch.setenv("SMOOTHCODE_CAP", "20000")
    got = sc.iid_extension(base, 100)
    assert len(got.mults) == 10201
    assert atom_bits(got.atoms) == atom_bits(expected.atoms)
    monkeypatch.setenv("SMOOTHCODE_CAP", "10000")
    with pytest.raises(sc.TooLarge, match="^10202 lattice calls and points at blocklength 100 exceed"):
        sc.iid_extension(base, 100)
    # the walk's classes are what a base without relations is refused for
    monkeypatch.setenv("SMOOTHCODE_CAP", "1000")
    with pytest.raises(sc.TooLarge, match="^5151 type classes at blocklength 100 exceed cap 1000$"):
        sc.iid_extension(sc.new_distribution([0.5, 0.3, 0.2]), 100)


def test_a_base_too_large_to_group_within_the_cap_is_refused_early(monkeypatch):
    # 5,000 unrelated levels at n=2 have 12,502,500 classes; a lattice within
    # the cap would need its G groups' C(2 + G, 3) splits to fit it, so G <= 227,
    # and the grouping stops at the 228th level that starts a group
    rng = random.Random(3)
    raw = [1.0 + rng.random() for _ in range(5000)]
    total = math.fsum(raw)
    base = sc.new_distribution([r / total for r in raw])
    read = []

    def counting(log_probs, mults, n, group=distributions._power_of_two_groups):
        return group((read.append(lp) or lp for lp in log_probs), mults, n)

    monkeypatch.setattr(distributions, "_power_of_two_groups", counting)
    with pytest.raises(sc.TooLarge, match="^12502500 type classes at blocklength 2 exceed"):
        sc.iid_extension(base, 2)
    assert len(read) == 228


def per_letter_levels(pairs, n):
    """The merged levels of a walk with one bin per letter, tied letters included."""
    return _normalize_atoms(*_type_class_atoms(n, *mixture_engine_args(pairs)))


@st.composite
def tied_mixtures(draw):
    """(pairs, n): mixtures whose letters come in shuffled runs of equal
    probability under every component, at most 5,000 classes per letter."""
    distinct = draw(st.integers(1, 3))
    repeats = draw(st.lists(st.integers(1, 3), min_size=distinct, max_size=distinct))
    order = draw(st.permutations([j for j, r in enumerate(repeats) for _ in range(r)]))
    level = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        raw = draw(st.lists(level, min_size=distinct, max_size=distinct).filter(any))
        letters = [raw[j] for j in order]
        total = math.fsum(letters)
        comps.append([p / total for p in letters])
    comps.sort(key=sc.shannon_entropy, reverse=True)
    ents = list(map(sc.shannon_entropy, comps))
    assume(all(a > b for a, b in zip(ents, ents[1:])))
    raw_w = draw(st.lists(st.floats(0.05, 1.0), min_size=len(comps), max_size=len(comps)))
    pairs = [(w / math.fsum(raw_w), comp) for w, comp in zip(raw_w, comps)]
    k = len(order)
    top = max(n for n in range(1, 31) if n == 1 or math.comb(n + k - 1, k - 1) <= 5000)
    return pairs, draw(st.integers(1, top))


@settings(deadline=None)
@given(source=tied_mixtures())
def test_tied_letters_share_a_bin(source):
    # one bin per run of tied letters sums each class in another order than
    # the per-letter walk, but merges into the same levels
    pairs, n = source
    got = sc.mixture_extension(sc.mixture_spec(pairs), n)
    lps, mults = per_letter_levels(pairs, n)
    assert got.mults == mults
    assert all(abs(a - b) <= 4 * math.ulp(b) for a, b in zip(got.log_probs, lps))


@pytest.mark.parametrize("pairs, n", [(MIX2, 4096), (MIX3, 300), (MIX3, 17)])
def test_untied_letters_keep_the_walk_bit_for_bit(pairs, n):
    got = sc.mixture_extension(sc.mixture_spec(pairs), n)
    lps, mults = per_letter_levels(pairs, n)
    assert got.mults == mults
    assert list(map(float_bits, got.log_probs)) == list(map(float_bits, lps))


def test_a_uniform_component_walks_one_class(monkeypatch):
    # 1,000 tied letters are one bin: one class at n=2, where one bin per
    # letter walked 500,500 classes that all merged into one level
    walked = []

    def recording(*args, walk=distributions._type_class_atoms):
        columns = walk(*args)
        walked.append(len(columns[1]))
        return columns

    monkeypatch.setattr(distributions, "_type_class_atoms", recording)
    dist = sc.mixture_extension(sc.mixture_spec([(1.0, [0.001] * 1000)]), 2)
    assert walked == [1]
    assert dist.mults == (10**6,)


def _report_or_error(dist, eps, lam):
    try:
        return sc.sandwich_report(dist, eps, lam).to_json_dict()
    except sc.SmoothcodeError as exc:
        return type(exc).__name__, str(exc)


_raw_weights = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=6),  # repeated values merge
    st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=1, max_size=6).filter(any),
)


@given(
    weights=_raw_weights,
    eps=st.floats(0.0, 0.9),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_levels_do_not_depend_on_input_order(weights, eps, lam, data):
    total = math.fsum(weights)
    probs = [w / total for w in weights]
    positive = [w for w in weights if w]
    mults = data.draw(st.lists(st.integers(1, 3), min_size=len(positive), max_size=len(positive)))
    scale = math.fsum(m * w for m, w in zip(mults, positive))
    pairs = [(math.log(w / scale), m) for w, m in zip(positive, mults)]
    for build, given_order in ((sc.new_distribution, probs), (sc.distribution_from_atoms, pairs)):
        shuffled = data.draw(st.permutations(given_order))
        a, b = build(given_order), build(shuffled)
        assert a == b
        assert sc.optimal_smoothing(a, eps) == sc.optimal_smoothing(b, eps)
        assert _report_or_error(a, eps, lam) == _report_or_error(b, eps, lam)


MERGE_SOURCE = [0.5] + [2**-10] * 511 + [2**-19] * 512


@pytest.mark.parametrize("n, levels", [(400, 801), (700, 1401), (1000, 2001)])
def test_power_of_two_levels_never_split(n, levels):
    # every probability is a power of two, 2**-(n + 9T) for a total shift
    # 0 <= T <= 2n, so there are exactly 2n + 1 levels; an absolute float merge
    # split some of them (802 / 1,738 / 3,256 levels)
    dist = sc.iid_extension(sc.new_distribution(MERGE_SOURCE), n)
    assert len(dist.log_probs) == levels
    assert sum(dist.mults) == 1024**n


@st.composite
def shared_mantissa_bases(draw):
    """Probabilities from a few mantissas, each scaled by a few powers of two.

    Dividing by the float total keeps every power-of-two relation exact.
    """
    raw = []
    for mantissa in draw(st.lists(st.floats(0.5, 1.0, exclude_max=True), min_size=1, max_size=3)):
        shifts = draw(st.lists(st.integers(0, 12), min_size=1, max_size=3, unique=True))
        for s in shifts:
            raw += [math.ldexp(mantissa, -s)] * draw(st.integers(1, 3))
    total = math.fsum(raw)
    return [p / total for p in raw]


def blocklengths(base, classes=5000):
    """n from 2 to 40, kept to at most `classes` type classes so the walk stays quick."""
    bins = len(base.mults)
    top = max(n for n in range(2, 41) if n == 2 or math.comb(n + bins - 1, bins - 1) <= classes)
    return st.integers(2, top)


@given(probs=shared_mantissa_bases(), data=st.data())
def test_lattice_levels_match_the_walk(probs, data):
    base = sc.new_distribution(probs)
    n = data.draw(blocklengths(base))
    refs, polys, unit = _power_of_two_groups(base.log_probs, base.mults, n)
    lattice_lps, lattice_mults = _normalize_atoms(*_lattice_atoms(n, refs, polys, unit))
    walk_lps, walk_mults = _normalize_atoms(
        *_type_class_atoms(n, [0.0], [base.log_probs], base.mults)
    )
    assert lattice_mults == walk_mults
    assert lattice_lps == pytest.approx(walk_lps, rel=1e-12)
    dist = sc.iid_extension(base, n)
    assert dist.mults == walk_mults
    assert sum(dist.mults) == len(probs) ** n


def test_levels_within_ulps_of_one_shift_add_their_counts():
    # 0.25 and the next float above it are both one shift below 0.5: the
    # grouping keeps both counts on that coefficient
    base = distributions.Distribution(
        (math.log(0.5), math.nextafter(math.log(0.25), 1.0), math.log(0.25)), (1, 1, 1)
    )
    dist = sc.iid_extension(base, 2)
    walk_lps, walk_mults = _normalize_atoms(
        *_type_class_atoms(2, [0.0], [base.log_probs], base.mults)
    )
    assert dist.mults == walk_mults  # the same levels, so the same level count

    def mass(log_probs, mults):
        return math.fsum(m * math.exp(lp) for lp, m in zip(log_probs, mults))

    assert mass(dist.log_probs, dist.mults) == pytest.approx(mass(walk_lps, walk_mults))


def power_of_two_related(p, q):
    ratio = Fraction(max(p, q)) / Fraction(min(p, q))
    return ratio.denominator == 1 and ratio.numerator & (ratio.numerator - 1) == 0


@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
    mults=st.lists(st.integers(1, 3), min_size=5, max_size=5),
    data=st.data(),
)
def test_unrelated_bases_keep_the_walk_bit_for_bit(weights, mults, data):
    raw = [w for w, m in zip(weights, mults) for _ in range(m)]
    total = math.fsum(raw)
    probs = [w / total for w in raw]
    levels = set(probs)
    assume(not any(power_of_two_related(p, q) for p, q in itertools.combinations(levels, 2)))
    base = sc.new_distribution(probs)
    n = data.draw(blocklengths(base))
    got = sc.iid_extension(base, n)
    expected = reference_merge(reference_walk(n, [0.0], [base.log_probs], base.mults))
    assert atom_bits(got.atoms) == atom_bits(expected)


def test_distribution_checks_its_columns():
    half = math.log(0.5)
    with pytest.raises(sc.EmptyDistribution, match="^distribution needs at least one atom$"):
        sc.Distribution((), ())
    with pytest.raises(sc.NotNormalized, match="^level columns must have equal lengths$"):
        sc.Distribution((0.0,), (1, 1))
    unsorted = "^atoms must be sorted by strictly decreasing log-prob$"
    for log_probs, mults in (((math.log(0.25), half), (2, 1)), ((half, half), (1, 1))):
        with pytest.raises(sc.NotNormalized, match=unsorted):
            sc.Distribution(log_probs, mults)
    for mult in (0, -1):
        with pytest.raises(sc.NotNormalized, match="^atom multiplicities must be >= 1$"):
            sc.Distribution((half, math.log(0.25)), (1, mult))
    assert sc.Distribution((half, math.log(0.25)), (1, 2)).support_size == 3


def test_mixture_checks_its_components_and_blocklength():
    with pytest.raises(sc.BadMixture, match="^component probabilities must sum to 1 within 1e-12$"):
        sc.MixtureSpec((1.0,), ((0.5, 0.4),))
    with pytest.raises(sc.BadMixture, match="^component probabilities must sum to 1 within 1e-12$"):
        sc.mixture_spec([(0.5, [0.5, 0.5]), (0.5, [0.9, 0.1 + 1e-9])])
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    for n in (0, -1):
        with pytest.raises(ValueError, match="^blocklength must be >= 1$"):
            sc.mixture_extension(spec, n)
