"""Exhaustive and randomized ground truth for small instances.

The code search enumerates raw length multisets and assignments, and the
smoothing search samples the ball directly, so their results can referee the
closed-form implementations. The one piece shared with the constructive
modules is codes.assign_canonical_codewords, which spells out the winning
lengths as words after the search; best_moment does not depend on it.

The code search takes four exact reductions (see optimal_code_bruteforce):
one scored assignment per orbit of tied words, the representatives
tabulated once per (support, word count, tie pattern); one moment pass per
(word count, length multiset) block; neither a bound nor a pass for a block
whose Kraft sum is below 1, as an earlier block scores no more; and no pass
for a block that a proven bound shows cannot hold the minimum. The bound and
the scorer share one credited-error test, on the set of symbols that first
use their words, and one moment sum. search_space_size still counts every
(assignment, multiset) pair, by its closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import combinations, combinations_with_replacement, product
from operator import le, mul
from typing import Iterable

from .codes import assign_canonical_codewords
from .distributions import Distribution, atom_cap
from .errors import (
    Infeasible,
    SmoothcodeError,
    TooLarge,
    check_alpha,
    check_eps,
    check_lambda,
    count_text,
)

# search limits: symbols in the exhaustive code search and in the random
# smoothing search, and words and word length of an enumerated length multiset
CODE_SEARCH_MAX_SUPPORT = 5
SMOOTHING_SEARCH_MAX_SUPPORT = 16
MAX_WORDS = 8
MAX_WORD_LEN = 8

# a block is scored unless min(bound, MAX) * _BOUND_SHRINK - _BOUND_TINY
# exceeds the least bound; _block_bound derives both constants
_BOUND_SHRINK = 1.0 - 2.0**-50
_BOUND_TINY = sys.float_info.min


@dataclass(frozen=True)
class OracleResult:
    """Best deterministic code found by exhaustive search."""

    best_moment: float
    encoder: tuple[str, ...]
    decoder: dict[str, int]
    search_space_size: int


def enumerate_kraft_length_multisets(k: int, max_len: int) -> list[tuple[int, ...]]:
    """All nondecreasing tuples of k codeword lengths satisfying Kraft.

    Checked in exact integer arithmetic (each length l consumes 2**(max_len-l)
    leaves of the depth-max_len tree). A one-word code may use the empty word,
    so k == 1 also yields (0,).
    """
    if k > MAX_WORDS or max_len > MAX_WORD_LEN:
        raise TooLarge(f"search limited to k <= {MAX_WORDS}, max_len <= {MAX_WORD_LEN}")
    if k < 1 or max_len < 1:
        raise ValueError("need k >= 1 and max_len >= 1")
    scale = 1 << max_len
    feasible = [
        lengths
        for lengths in combinations_with_replacement(range(1, max_len + 1), k)
        if sum(scale >> l for l in lengths) <= scale
    ]
    return [(0,), *feasible] if k == 1 else feasible


# the code search reads these lists and never edits them, so calls share them
_cached_multisets = cache(enumerate_kraft_length_multisets)


@cache
def _complete(c: int, max_len: int) -> tuple[tuple[int, ...], ...]:
    """The multisets of _cached_multisets(c, max_len) whose Kraft sum is exactly 1.

    Every other multiset has a parent, its longest length l one bit shorter:
    its Kraft sum is a multiple of 2**-l below 1, so the shorter word keeps
    it within Kraft, and l >= 2 unless it is the one-word (1,), whose parent
    is (0,). The parent's sorted lengths are entry-wise no longer than its
    child's, and not equal, so the parent comes earlier in enumeration
    order; _scored_blocks shows that its block scores no more.
    """
    scale = 1 << max_len
    return tuple(m for m in _cached_multisets(c, max_len) if sum(scale >> l for l in m) == scale)


@cache
def _orbits(s: int, c: int, ties: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One (assign, credited) pair per orbit of the onto maps from s symbols to c words.

    Bit j of ties is set when words j and j+1 have equal length; relabelling
    such tied words is the orbit. Each orbit's entry is its first member in
    product order, the one that uses tied words in order of first use, and
    entries come in product order. Bit i of credited is set when symbol i is
    the first to use its word, which, with the symbols largest first, is the
    symbol its word decodes.
    """
    orbits = []
    # every codeword must be used
    for assign in product(range(c), repeat=s):
        if len(set(assign)) == c:
            first = list(map(assign.index, range(c)))
            if all(first[j] < first[j + 1] for j in range(c - 1) if ties >> j & 1):
                orbits.append((assign, sum(1 << i for i in first)))
    return tuple(orbits)


@cache
def _onto(s: int, c: int) -> int:
    """Number of onto maps from s symbols to c words, c! * S(s, c), by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(c, j) * (c - j) ** s for j in range(c + 1))


def optimal_code_bruteforce(
    dist: Distribution, eps: float, lam: float, max_len: int = 5
) -> OracleResult:
    """Minimum moment over all deterministic prefix codes within the error budget.

    Enumerates the number of codewords, every Kraft-feasible length multiset
    up to max_len, and every surjective symbol-to-word assignment; the
    winning lengths get canonical words. Decoding maps each word to its most
    probable preimage, which is the error-minimizing decoder; with the
    symbols largest first that is the first symbol on the word, so a code's
    credited set is the set of symbols that first use their words. A code is
    admissible when that set passes the credited-error test of
    _credited_sets, at most eps with 1e-12 float slack. The first
    assignment, in product order, that reaches the minimum wins; every pair
    (assignment, length multiset) is counted in search_space_size, scored
    or not.

    Four exact reductions keep the result bit-identical to scoring every
    pair one by one, because fsum is exactly rounded and so does not depend
    on the order of its terms:

    - words of equal length have bit-equal weights, so relabelling them
      leaves every term, and the moment, unchanged; only the first member
      in product order of each such orbit is scored, the one that uses tied
      words in order of first use, and that member is where a first
      minimum can fall. These representatives, with their credited sets,
      are tabulated once per (support, word count, tie pattern) (_orbits),
      and a block keeps those whose credited set passes;
    - the weights 2**(lam * l) are taken once per search, and each (word
      count, length multiset) block's kept assignments are summed in one
      pass of _moments, the rule the bound sums with;
    - only the complete multisets, Kraft sum exactly 1, are bounded or
      scored (_scored_blocks): any other block's float minimum is no lower
      than its parent's, the multiset with its longest length one bit
      shorter, which comes earlier, so it never holds the first minimum;
    - before any block is scored, each gets a bound v, the moment of one of
      its own admissible codes (_block_bound), and reach = min v bounds the
      float minimum from above. Only blocks with
      min(v, MAX) * (1 - 2**-50) - 2**-1022 <= reach are scored, in their
      order; the others provably score above reach, so the first block
      that reaches the minimum is always among those scored. Orbit
      representatives are tabulated only for a tie pattern that a scored
      block has; search_space_size is the closed form
      sum over c of c! * S(s, c) * (number of multisets of c words).

    A weight or a moment past float range reads as +inf, so it never wins;
    such a block's moments are scored one by one. Raises TooLarge only when
    every admissible code's moment overflows a float.
    """
    check_eps(eps)
    check_lambda(lam)
    if (s := dist.support_size) > CODE_SEARCH_MAX_SUPPORT:
        limit = f"brute force limited to support {CODE_SEARCH_MAX_SUPPORT}"
        raise TooLarge(f"{limit}, got {count_text(s)}")
    probs = dist.probabilities()

    best_moment = math.inf
    best_assign: tuple[int, ...] | None = None
    best_lengths: tuple[int, ...] | None = None
    overflowed = False
    space = 0
    pows = [_pow2(lam * l) for l in range(max_len + 1)]
    for c, (rows, blocks) in _scored_blocks(probs, eps, pows, max_len).items():
        space += _onto(s, c) * len(_cached_multisets(c, max_len))
        # a row ranks symbol 0 and each symbol outside its credited set 0 (_bound_rows)
        passed = {sum(1 << i for i, r in enumerate(row) if r or not i) for row in rows}
        for lengths in blocks:
            ties = sum(1 << j for j in range(c - 1) if lengths[j] == lengths[j + 1])
            keep = [a for a, kept in _orbits(s, c, ties) if kept in passed]
            if not keep:
                continue
            moments = _moments(probs, list(map(pows.__getitem__, lengths)), keep)
            m = min(moments)
            overflowed = overflowed or m == math.inf
            if m < best_moment:
                best_moment = m
                best_assign = keep[moments.index(m)]
                best_lengths = lengths
    if best_assign is None:
        if overflowed:
            msg = f"moments overflow a float at lambda={lam}, max_len={max_len}"
            raise TooLarge(msg)
        raise Infeasible(f"no code with at most {max_len}-bit words meets eps={eps}")

    best_words = assign_canonical_codewords(best_lengths).codewords
    encoder = tuple(best_words[a] for a in best_assign)
    # a word decodes to its first symbol, the most probable one on it
    decoder = {w: best_assign.index(j) for j, w in enumerate(best_words)}
    return OracleResult(
        best_moment=best_moment,
        encoder=encoder,
        decoder=decoder,
        search_space_size=space,
    )


def _scored_blocks(
    probs: list[float], eps: float, pows: list[float], max_len: int
) -> dict[int, tuple[list[tuple[int, ...]], list[tuple[int, ...]]]]:
    """Per word count c that has length multisets, its _bound_rows and the blocks to score.

    pows[l] is the weight of an l-bit word. A complete multiset (_complete)
    is scored when min(v, MAX) * _BOUND_SHRINK - _BOUND_TINY <= reach, with
    v its _block_bound bound and reach the least such bound; the multisets
    come in enumeration order. Any other block B never holds the first minimum:
    - its parent, its longest length one bit shorter, comes earlier (_complete);
    - each assignment is admissible in both, as the credited set does not
      depend on lengths;
    - pows does not decrease in l, so the parent's sorted weights are
      entry-wise no heavier than B's, and each term p * w, which rounds
      monotonically and reads 0 where p is 0, is no lighter in B;
    - fsum rounds the exact sum of its terms once, or reads +inf from an exact
      sum past float range, so each moment, and the float minimum, is no
      lower in B.
    So B's chain of parents ends at an earlier complete block with a float
    minimum no higher, which has an admissible code when B has one. reach is
    a moment some block scores, so the block of the first minimum passes the
    test, and with reach = +inf every one does. Where a libm pow breaks the
    order of pows, every multiset is a candidate.
    """
    in_order = all(map(le, pows, pows[1:]))
    rows, bounds = {}, {}
    for c in range(1, len(probs) + 1):
        if multisets := _cached_multisets(c, max_len):
            rows[c] = _bound_rows(probs, eps, c)
            for lengths in _complete(c, max_len) if in_order else multisets:
                bounds[c, lengths] = _block_bound(probs, rows[c], pows, lengths)
    reach = min(bounds.values(), default=math.inf)
    scored = {c: (r, []) for c, r in rows.items()}
    for (c, lengths), v in bounds.items():
        if min(v, sys.float_info.max) * _BOUND_SHRINK - _BOUND_TINY <= reach:
            scored[c][1].append(lengths)
    return scored


def _credited_sets(probs: list[float], eps: float, c: int) -> list[tuple[int, ...]]:
    """The sets S of c symbols, holding symbol 0, that pass the credited-error test.

    With probs largest first, a word decodes to the first symbol on it, so
    a code's credited set is the set of symbols that first use their word;
    it holds symbol 0, and the code is admissible when its credited error
    passes total - fsum(P(S)) <= eps + 1e-12. Each S is in increasing symbol
    order, so in order of decreasing probability.
    """
    total = math.fsum(probs)
    return [
        (0, *others)
        for others in combinations(range(1, len(probs)), c - 1)
        if total - math.fsum([probs[0], *map(probs.__getitem__, others)]) <= eps + 1e-12
    ]


def _bound_rows(probs: list[float], eps: float, c: int) -> list[tuple[int, ...]]:
    """Per credited set S of c symbols, its rearranged code (see _block_bound):
    for each symbol, the rank of its word by weight, 0 for the lightest."""
    return [
        tuple(kept.index(i) if i in kept else 0 for i in range(len(probs)))
        for kept in _credited_sets(probs, eps, c)
    ]


def _block_bound(
    probs: list[float], rows: list[tuple[int, ...]], pows: list[float], lengths: tuple[int, ...]
) -> float:
    """The least moment of the rearranged codes of one length multiset, from _bound_rows.

    A rearranged code decodes a credited set S of c symbols (_credited_sets).
    It puts S, by decreasing probability, on the words by increasing weight
    w = pows[l] = 2**(lam * l), and every other symbol on the lightest word,
    beside the most probable one; so its credited set is S and it is an
    admissible code of the block. Its moment F(S) is the _moments sum of its
    own p * w terms, as the scorer sums that code's orbit. So the bound
    v = min F(S), +inf where no S passes, is a moment the block scores.

    Why a block with L = fl(fl(min(v, MAX) * (1 - 8u)) - 2**-1022) > reach
    cannot hold the minimum, with u = 2**-53, MAX the largest float and s <= 5
    symbols: let m be the block's float minimum, scored by a code A (a block
    with no admissible code scores nothing and has nothing to lose).
    - A's credited set is some S above. Over the extended reals with
      0 * inf = 0, the exact sum of A's p * w terms is at least the exact
      sum R of that S's terms: each other symbol's weight is at least the
      lightest one, and the rearrangement inequality pairs decreasing p
      with increasing w most cheaply.
    - A product rounds once, fl(x) within u*x + 2**-1075 of x (the absolute
      part for a subnormal result), or +inf from x >= Omega, the overflow
      threshold above MAX. fsum rounds the exact sum of its terms once: a
      relative u, no absolute part (floats that sum below 2**-1022 sum
      exactly), or +inf (its OverflowError, read as +inf) from an exact sum
      of at least Omega. So m >= (1 - u)**2 R - s * 2**-1075.
    - If F(S) is finite, F(S) <= (1 + u)**2 R + (1 + u)s * 2**-1075, and as
      (1 - u)**2 >= (1 - 4u)(1 + u)**2, m >= (1 - 4u) F(S) - s * 2**-1074.
    - If F(S) is +inf, either a positive p meets an infinite weight, and then
      one of A's does too (A's credited symbols on the infinite-weight words
      would be zeros, which S would put there), so m = +inf; or the exact sum
      of its rounded terms reached Omega, so (1 + u) R + s * 2**-1075 >=
      Omega and m >= (1 - 3u) Omega - s * 2**-1074 > (1 - 4u) MAX - s * 2**-1074.
    - Either way m >= (1 - 4u) min(F(S), MAX) - s * 2**-1074, and v <= F(S).
      The test's own two roundings cost (1 - 8u)(1 + u)**2 <= 1 - 6u and an
      absolute 2**-1075, which 2**-1022 covers with room for s * 2**-1074;
      where fl(min(v, MAX) * (1 - 8u)) <= 2**-1022, L <= 0 <= m. So L <= m.
    reach is a moment that some block scores, so m > reach puts the block
    above the float minimum; with reach = +inf (no S passes anywhere) every
    block is scored, so Infeasible and TooLarge are raised as before.
    """
    if not rows:
        return math.inf
    return min(_moments(probs, sorted(map(pows.__getitem__, lengths)), rows))


def _moments(
    probs: list[float], weight: list[float], assigns: list[tuple[int, ...]]
) -> list[float]:
    """Per assignment a of the symbols to weights, the fsum of its p_i * weight[a_i] terms.

    A moment past float range reads as +inf, and a probability that
    underflowed to 0 adds nothing, even against an infinite weight.
    """
    if max(weight) < math.inf:
        try:
            return [math.fsum(map(mul, probs, map(weight.__getitem__, a))) for a in assigns]
        except OverflowError:  # some moment past float range
            pass
    return [_fsum_or_inf([p * weight[j] if p else 0.0 for p, j in zip(probs, a)]) for a in assigns]


def _pow2(x: float) -> float:
    """2.0 ** x, or +inf past float range."""
    try:
        return 2.0**x
    except OverflowError:
        return math.inf


def _fsum_or_inf(terms: Iterable[float]) -> float:
    """fsum of nonnegative terms, or +inf when the sum is past float range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def smoothing_feasible_search(
    dist: Distribution,
    alpha: float,
    eps: float,
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Minimum of sum(Q**alpha) over random members of the smoothing ball.

    Each trial removes a uniformly drawn total amount of mass (at most eps),
    split across symbols by random proportions and clipped at zero, so every
    draw is feasible by construction. eps = 0 returns sum(P**alpha) exactly.
    The trials * (support + 1) draws must fit the size cap (atom_cap()),
    so a huge trial count raises TooLarge before anything is allocated.
    Needs numpy, the package's one optional dependency (the oracle extra).
    """
    try:  # imported here so the rest of the package starts without it
        import numpy as np
    except ImportError:
        raise SmoothcodeError(
            "the random smoothing search needs numpy: pip install 'smoothcode[oracle]'"
        ) from None

    check_alpha(alpha)
    check_eps(eps)
    if (size := dist.support_size) > SMOOTHING_SEARCH_MAX_SUPPORT:
        limit = f"random search limited to support {SMOOTHING_SEARCH_MAX_SUPPORT}"
        raise TooLarge(f"{limit}, got {count_text(size)}")
    probs = np.asarray(dist.probabilities(), dtype=float)
    best = float(np.sum(probs**alpha))  # Q = P is always in the ball
    if trials < 1 or eps == 0.0:
        return best
    cap = atom_cap()
    cells = trials * (probs.size + 1)  # the draws numpy allocates below
    if cells > cap:
        raise TooLarge(f"random search of {count_text(cells)} draws exceeds cap {cap}")
    rng = np.random.default_rng(seed)
    removed = rng.uniform(0.0, eps, size=trials)
    shares = rng.random((trials, probs.size))
    shares /= shares.sum(axis=1, keepdims=True)
    q = np.maximum(probs[None, :] - removed[:, None] * shares, 0.0)
    return min(best, float(np.sum(q**alpha, axis=1).min()))
