"""Exhaustive and randomized ground truth for small instances.

The code search enumerates length multisets and decoded sets, and the
smoothing search samples the ball directly, so their results can referee the
closed-form implementations. The one piece shared with the constructive
modules is codes.assign_canonical_codewords, which spells out the winning
lengths as words after the search; best_moment does not depend on it.

The code search scores one code per (decoded set, complete length multiset):
the rearranged code, which pairs the decoded symbols, most probable first,
with the words, lightest first, and puts every other symbol on the lightest
word (see optimal_code_bruteforce). search_space_size still counts every
(assignment, multiset) pair, by its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, combinations_with_replacement
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

    Every other multiset B has a parent, its longest length l one bit
    shorter: its Kraft sum is a multiple of 2**-l below 1, so the shorter word
    keeps it within Kraft, and l >= 2 unless it is the one-word (1,), whose
    parent is (0,). The parent's sorted lengths are entry-wise no longer than
    B's, and not equal, so the parent comes earlier in enumeration order.
    Where the weights do not decrease in l, each rearranged code of B (a row
    of _rearranged_rows) is one of the parent's too, with each term p * w no
    heavier, as a product rounds monotonically and reads 0 where p is 0; fsum
    rounds the exact sum of its terms once, or reads +inf past float range,
    so the code's moment is no lower. B's chain of parents thus ends at an
    earlier complete block whose minimum is no higher, and B never holds the
    first minimum.
    """
    scale = 1 << max_len
    return tuple(m for m in _cached_multisets(c, max_len) if sum(scale >> l for l in m) == scale)


@cache
def _onto(s: int, c: int) -> int:
    """Number of onto maps from s symbols to c words, c! * S(s, c), by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(c, j) * (c - j) ** s for j in range(c + 1))


def optimal_code_bruteforce(
    dist: Distribution, eps: float, lam: float, max_len: int = 5
) -> OracleResult:
    """Minimum moment over all deterministic prefix codes within the error budget.

    Decoding maps each word to its most probable preimage, the
    error-minimizing decoder: with the symbols largest first, the first
    symbol on it. A code is admissible when its credited set, the symbols
    that first use their words, passes the test of _credited_sets.

    For one length multiset and one credited set S, the moment
    sum p * 2**(lam * l) is least for the rearranged code (_rearranged_rows):
    S by decreasing probability on the words by increasing weight, every
    other symbol on the lightest word (Hardy, Littlewood and Polya,
    Inequalities, Thm 368; Campbell 1965). The search scores that one code
    per (word count, complete multiset (_complete), S), each moment the fsum
    of the code's own p * w terms. The first block in enumeration order that
    reaches the minimum wins, by strict <, and within it the least row; its
    ranks go to the words by increasing weight, tied words in index order.
    search_space_size counts every (onto assignment, multiset) pair by its
    closed form, the sum over word counts c of c! * S(s, c) * (number of
    multisets of c words).

    Each scored code is, in exact arithmetic, the lightest code of its
    multiset and credited set. As each term rounds once, where terms nearly
    tie another code can print a moment an ulp below the winner's while its
    exact moment is higher.

    A weight or a moment past float range reads as +inf and never wins.
    Raises TooLarge only when every admissible code's moment overflows, and,
    before any weight is built, enumerate_kraft_length_multisets' TooLarge or
    ValueError for a max_len out of range.
    """
    check_eps(eps)
    check_lambda(lam)
    if (s := dist.support_size) > CODE_SEARCH_MAX_SUPPORT:
        limit = f"brute force limited to support {CODE_SEARCH_MAX_SUPPORT}"
        raise TooLarge(f"{limit}, got {count_text(s)}")
    probs = dist.probabilities()
    # raises for a max_len out of range before any weight is built
    multisets = {c: _cached_multisets(c, max_len) for c in range(1, s + 1)}
    pows = [_pow2(lam * l) for l in range(max_len + 1)]
    in_order = all(map(le, pows, pows[1:]))

    best_moment = math.inf
    best_row: tuple[int, ...] | None = None
    best_lengths: tuple[int, ...] = ()
    overflowed = False
    space = 0
    for c, every in multisets.items():
        space += _onto(s, c) * len(every)
        if not every or not (rows := _rearranged_rows(probs, eps, c)):
            continue
        for lengths in _complete(c, max_len) if in_order else every:
            moments = _moments(probs, sorted(map(pows.__getitem__, lengths)), rows)
            m = min(moments)
            overflowed = overflowed or m == math.inf
            if m < best_moment:
                best_moment = m
                best_row = min(row for row, v in zip(rows, moments) if v == m)
                best_lengths = lengths
    if best_row is None:
        if overflowed:
            msg = f"moments overflow a float at lambda={lam}, max_len={max_len}"
            raise TooLarge(msg)
        raise Infeasible(f"no code with at most {max_len}-bit words meets eps={eps}")

    # the words by increasing weight, tied words in index order
    ranked = sorted(range(len(best_lengths)), key=lambda j: pows[best_lengths[j]])
    best_assign = tuple(ranked[r] for r in best_row)
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


def _rearranged_rows(probs: list[float], eps: float, c: int) -> list[tuple[int, ...]]:
    """Per credited set S of c symbols, its rearranged code: for each symbol,
    the rank of its word by weight, 0 for the lightest. S takes ranks 0 to
    c - 1 in order and every other symbol rank 0, after symbol 0, so the
    code's credited set is S."""
    return [
        tuple(kept.index(i) if i in kept else 0 for i in range(len(probs)))
        for kept in _credited_sets(probs, eps, c)
    ]


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
    draw is feasible by construction. eps = 0 or trials = 0 returns
    sum(P**alpha) exactly, and a negative trials raises ValueError.
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
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {count_text(trials)}")
    if (size := dist.support_size) > SMOOTHING_SEARCH_MAX_SUPPORT:
        limit = f"random search limited to support {SMOOTHING_SEARCH_MAX_SUPPORT}"
        raise TooLarge(f"{limit}, got {count_text(size)}")
    probs = np.asarray(dist.probabilities(), dtype=float)
    best = float(np.sum(probs**alpha))  # Q = P is always in the ball
    if trials == 0 or eps == 0.0:
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
