"""Exhaustive and randomized ground truth for small instances.

Nothing here shares logic with the constructive modules: the code search
enumerates raw prefix codes and the smoothing search samples the ball
directly, so their results can referee the closed-form implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .codes import assign_canonical_codewords
from .distributions import Distribution
from .errors import Infeasible, SmoothcodeError, TooLarge, check_alpha, check_eps, check_lambda

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
    out: list[tuple[int, ...]] = []
    if k == 1:
        out.append((0,))
    scale = 1 << max_len
    def rec(prefix: list[int], lo: int, used: int) -> None:
        if len(prefix) == k:
            out.append(tuple(prefix))
            return
        for l in range(lo, max_len + 1):
            cost = scale >> l
            if used + cost <= scale:
                prefix.append(l)
                rec(prefix, l, used + cost)
                prefix.pop()
    rec([], 1, 0)
    return out


def optimal_code_bruteforce(
    dist: Distribution, eps: float, lam: float, max_len: int = 5
) -> OracleResult:
    """Minimum moment over all deterministic prefix codes within the error budget.

    Enumerates the number of codewords, every Kraft-feasible length multiset
    up to max_len, and every surjective symbol-to-word assignment; the
    winning lengths get canonical words. Decoding maps each word to its most
    probable preimage, which is the error-minimizing decoder; a code is
    admissible when that credited error is at most eps (with 1e-12 float
    slack).

    The credited error does not depend on the lengths, so each word count
    scores its assignments once; each length multiset then sums only the
    admissible ones over a table of p_i * 2**(lam * l_a) terms. Every pair
    (assignment, length multiset) is still counted in search_space_size.
    """
    check_eps(eps)
    check_lambda(lam)
    probs = dist.probabilities()
    s = len(probs)
    if s > CODE_SEARCH_MAX_SUPPORT:
        raise TooLarge(f"brute force limited to support {CODE_SEARCH_MAX_SUPPORT}, got {s}")
    total = math.fsum(probs)

    best_moment = math.inf
    best_assign: tuple[int, ...] | None = None
    best_lengths: tuple[int, ...] | None = None
    space = 0
    for c in range(1, s + 1):
        multisets = enumerate_kraft_length_multisets(c, max_len)
        if not multisets:
            continue
        # (assignment, flat indices i*c + a into the term table) of each
        # surjection whose credited error fits the budget, in product order
        admissible = []
        surjections = 0
        for assign in product(range(c), repeat=s):
            if len(set(assign)) != c:
                continue  # every codeword must be used
            surjections += 1
            survivors = [0.0] * c
            for i, a in enumerate(assign):
                if probs[i] > survivors[a]:
                    survivors[a] = probs[i]
            if total - math.fsum(survivors) <= eps + 1e-12:
                admissible.append((assign, [i * c + a for i, a in enumerate(assign)]))
        space += surjections * len(multisets)
        for lengths in multisets:
            weight = [2.0 ** (lam * l) for l in lengths]
            terms = [p * w for p in probs for w in weight]
            for assign, cells in admissible:
                # fsum is exactly rounded, so the order of the terms is moot
                moment = math.fsum(map(terms.__getitem__, cells))
                if moment < best_moment:
                    best_moment = moment
                    best_assign = assign
                    best_lengths = lengths
    if best_assign is None:
        raise Infeasible(f"no code with at most {max_len}-bit words meets eps={eps}")

    best_words = assign_canonical_codewords(best_lengths).codewords
    encoder = tuple(best_words[a] for a in best_assign)
    decoder: dict[str, int] = {}
    for j, w in enumerate(best_words):
        group = [i for i, a in enumerate(best_assign) if a == j]
        decoder[w] = max(group, key=lambda i: probs[i])
    return OracleResult(
        best_moment=best_moment,
        encoder=encoder,
        decoder=decoder,
        search_space_size=space,
    )


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
    probs = np.asarray(dist.probabilities(), dtype=float)
    if probs.size > SMOOTHING_SEARCH_MAX_SUPPORT:
        raise TooLarge(f"random search limited to support {SMOOTHING_SEARCH_MAX_SUPPORT}")
    best = float(np.sum(probs**alpha))  # Q = P is always in the ball
    if trials < 1 or eps == 0.0:
        return best
    rng = np.random.default_rng(seed)
    removed = rng.uniform(0.0, eps, size=trials)
    shares = rng.random((trials, probs.size))
    shares /= shares.sum(axis=1, keepdims=True)
    q = np.maximum(probs[None, :] - removed[:, None] * shares, 0.0)
    return min(best, float(np.sum(q**alpha, axis=1).min()))
