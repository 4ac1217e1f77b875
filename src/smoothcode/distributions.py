"""Finite distributions stored as probability levels in the log domain.

A level groups every symbol that shares one probability: it keeps the
natural-log probability of a single symbol together with the exact count of
symbols at that level. Product and mixture extensions of a base alphabet stay
compact this way, because all sequences in a type class have the same
probability and the class collapses to one level whose multiplicity is an
exact multinomial count. The levels are stored as parallel columns, and
every consumer works on whole columns at once.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import add, gt, mul, sub
from typing import Iterable, NamedTuple, Sequence, TypeVar

from .errors import BadMixture, EmptyDistribution, NotNormalized, TooLarge, count_text
from .logspace import LN2, logsumexp

MASS_TOL = 1e-9
# two probability levels merge into one atom iff their log-probs are this close
MERGE_TOL = 1e-12
DEFAULT_ATOM_CAP = 2_000_000
# float probabilities (at most 1) span fewer than 2**11 binary exponents, so
# an exact power-of-two relation between two of them shifts by less than this
_MAX_SHIFT = 2**11

T = TypeVar("T")


def atom_cap() -> int:
    """Size cap for expansions and type-class enumerations.

    Reads the SMOOTHCODE_CAP environment variable, falling back to 2_000_000;
    it is the one setting of the cap, for every function and subcommand.
    """
    raw = os.environ.get("SMOOTHCODE_CAP")
    if raw is None:
        return DEFAULT_ATOM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"SMOOTHCODE_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"SMOOTHCODE_CAP must be >= 1, got {cap}")
    return cap


def _check_size(size: int) -> None:
    """TooLarge if size per-symbol entries exceed the size cap (atom_cap())."""
    cap = atom_cap()
    if size > cap:
        raise TooLarge(f"support of size {count_text(size)} exceeds cap {cap}")


def _log_masses(log_probs: Iterable[float], log_mults: Iterable[float]) -> map:
    """log(multiplicity) + log_prob of each level: the log of its total mass."""
    return map(add, log_mults, log_probs)


class WeightedAtom(NamedTuple):
    """One level of a Distribution, as read through Distribution.atoms."""

    log_prob: float
    multiplicity: int


@dataclass(frozen=True)
class Distribution:
    """A finite distribution as levels sorted by strictly decreasing log-prob.

    log_probs[i] is the log-prob of one symbol of level i and mults[i] the
    exact number of symbols at that level; nothing else is compared, so equal
    levels make equal distributions whatever order they were given in. `n`
    is the blocklength the distribution lives on (1 for a single letter).
    The total mass must be 1 within MASS_TOL, or the constructor raises
    NotNormalized. Beside the fields sit the caches: the column of log
    multiplicities (_log_mults), the column of level masses (_masses), the
    support size, and the last smoothing optimal_smoothing made of it
    (_smoothing).
    """

    log_probs: tuple[float, ...]
    mults: tuple[int, ...]
    n: int = 1

    def __post_init__(self) -> None:
        lps, mults = self.log_probs, self.mults
        if not lps:
            raise EmptyDistribution("distribution needs at least one atom")
        if len(mults) != len(lps):
            raise NotNormalized("level columns must have equal lengths")
        if not all(map(gt, lps, lps[1:])):
            raise NotNormalized("atoms must be sorted by strictly decreasing log-prob")
        if min(mults) < 1:
            raise NotNormalized("atom multiplicities must be >= 1")
        _check_mass(self)

    @cached_property
    def _log_mults(self) -> tuple[float, ...]:
        """log(multiplicity) of each level; optimal_smoothing passes on its kept prefix."""
        return tuple(map(math.log, self.mults))

    @cached_property
    def _masses(self) -> tuple[float, ...]:
        """exp(log(multiplicity) + log_prob) of each level: its total mass.

        Built by the mass check at construction and kept, since the
        smoothing and the spectrum read it whole as well. No cache is a
        field: ==, hash and repr never see them, and __getstate__ leaves them
        out of pickles and copies.
        """
        return tuple(map(math.exp, _log_masses(self.log_probs, self._log_mults)))

    def __getstate__(self) -> dict:
        return {"log_probs": self.log_probs, "mults": self.mults, "n": self.n}

    @property
    def atoms(self) -> tuple[WeightedAtom, ...]:
        """The levels as (log_prob, multiplicity) records, largest first."""
        return tuple(map(WeightedAtom, self.log_probs, self.mults))

    @cached_property
    def support_size(self) -> int:
        """Number of symbols, summed once: a count has about n bits at blocklength n."""
        return sum(self.mults)

    def log_total_mass(self) -> float:
        return logsumexp(_log_masses(self.log_probs, self._log_mults))

    def total_mass(self) -> float:
        return math.exp(self.log_total_mass())

    def probabilities(self) -> list[float]:
        """Expand to one probability per symbol, largest first."""
        return _expand_levels(list(map(math.exp, self.log_probs)), self.mults)


def _expand_levels(values: Sequence[T], counts: Sequence[int]) -> list[T]:
    """Each value repeated its count times, the size cap checked on the counts first."""
    _check_size(sum(counts))
    return list(itertools.chain.from_iterable(map(itertools.repeat, values, counts)))


def _normalize_atoms(
    log_probs: Sequence[float], mults: Sequence[int]
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Merge equal levels of (log_prob, multiplicity) columns.

    Returns the (log_probs, mults) columns of a Distribution. A merged level
    takes the largest log_prob of its run, the first in input order among
    equal ones, and the exact sum of its counts, so the result depends only
    on the input levels, not on their order. A level no other entry joins
    keeps its count object as it is.
    """
    # a reversed sort is stable too: equal log-probs keep their input order
    order = sorted(range(len(log_probs)), key=log_probs.__getitem__, reverse=True)
    out_lps: list[float] = []
    out_mults: list[int] = []
    put_lp, put_mult = out_lps.append, out_mults.append
    run_lp, run_mult = log_probs[order[0]], mults[order[0]]
    for i in itertools.islice(order, 1, None):
        lp = log_probs[i]
        if run_lp - lp > MERGE_TOL:  # sorted, so never negative
            put_lp(run_lp)
            put_mult(run_mult)
            run_lp, run_mult = lp, mults[i]
        else:
            run_mult += mults[i]
    put_lp(run_lp)
    put_mult(run_mult)
    del order  # freed before the columns are copied into tuples
    return tuple(out_lps), tuple(out_mults)


def _check_mass(dist: Distribution) -> None:
    """NotNormalized unless the total mass of dist is 1 within MASS_TOL.

    The decision is that of the total T = exp(logsumexp) of the level
    log-masses L_i, which also writes every message. A plain sum S of the
    mass column settles it at once wherever S is far enough inside the
    tolerance. With u = 2**-53, N levels and E the exact sum of exp(L_i)
    (both totals start from the same float L_i):
    - S: each entry is exp(L_i) within one ulp, a relative 2u, and a
      recursive sum of N nonnegative terms adds at most a relative (N - 1)u
      (Higham, Accuracy and Stability of Numerical Algorithms, 4.2); the
      compensated float sum of Python 3.12 on adds less. So
      |S - E| <= (N + 1)u * E.
    - T: with m = max L_i, rounding L_i - m moves exp(L_i - m) by a relative
      (m - L_i)u, which weighs at most exp(-1)u against the shifted sum,
      whose largest term is 1; with exp's 2u each term is off by at most
      (1/e + 2 exp(L_i - m))u, so N/e + 2 relative to the sum. fsum rounds
      once (u), log of a sum below N is off by 2u ln N, adding m rounds by
      u |ln T|, at most u near 1, and the last exp is 2u. So
      |T - E| <= (N/e + 2 ln N + 6)u * E.
    Near 1, E is 1 within 2e-9, so |S - T| <= (2N + 64)u wherever that margin
    is below MASS_TOL, with at least 0.6N + 26 ulps to spare for the
    second-order terms, masses that underflow (2**-1074 each at most) and the
    rounding of the margin below. A sum within MASS_TOL - (2N + 64)u of 1
    thus puts T within MASS_TOL of 1, where the exact check accepts too.
    Every other sum, and a column whose entry overflows, goes to the exact
    check as it stands.
    """
    try:
        total = sum(dist._masses)
    except OverflowError:  # a level's mass past float range: the exact check says so
        total = math.inf
    if abs(total - 1.0) <= MASS_TOL - (2 * len(dist.mults) + 64) * 2.0**-53:
        return
    try:
        total = dist.total_mass()
    except OverflowError:  # exp of a log total past about 709.78
        raise NotNormalized("total mass overflows a float, expected 1") from None
    if abs(total - 1.0) > MASS_TOL:
        raise NotNormalized(f"total mass is {total!r}, expected 1 within {MASS_TOL}")


def _checked_probs(probs: Sequence[float]) -> list[float]:
    try:
        probs = [float(p) for p in probs]
    except (TypeError, ValueError, OverflowError):  # not a number, or an integer past float range
        raise NotNormalized("probability entries must be finite numbers") from None
    if not all(math.isfinite(p) for p in probs):
        raise NotNormalized("probability entries must be finite")
    if any(p < 0.0 for p in probs):
        raise NotNormalized("negative probability entry")
    # checked before any sum, which would overflow on entries near float max
    if any(p > 1.0 + MASS_TOL for p in probs):
        raise NotNormalized(f"probability entry above 1 + {MASS_TOL}")
    return probs


def _check_sum(probs: list[float]) -> None:
    total = math.fsum(probs)
    if abs(total - 1.0) > MASS_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}, expected 1")


def new_distribution(probs: Sequence[float]) -> Distribution:
    """Build a single-letter distribution from raw probabilities.

    Zero entries are dropped, equal probabilities merge into one atom, and
    atoms come out sorted with the largest probability first.
    """
    probs = _checked_probs(probs)
    lps = [math.log(p) for p in probs if p > 0.0]
    if not lps:
        raise EmptyDistribution("no strictly positive probability entry")
    # the constructor checks the total mass
    return Distribution(*_normalize_atoms(lps, [1] * len(lps)), n=1)


def distribution_from_atoms(pairs: Sequence[tuple[float, int]], n: int = 1) -> Distribution:
    """Build a distribution from (log_prob, multiplicity) pairs, validating total mass."""
    lps: list[float] = []
    mults: list[int] = []
    for pair in pairs:
        try:
            lp, mult = pair
        except ValueError:
            raise NotNormalized("atoms must be (log_prob, multiplicity) pairs") from None
        try:
            lp = float(lp)
        except (TypeError, ValueError, OverflowError):  # not a number, or an int past float range
            raise NotNormalized("log-probabilities must be finite numbers") from None
        if not math.isfinite(lp) or lp > 0.0:
            raise NotNormalized(f"log-probabilities must be finite and <= 0, got {lp!r}")
        try:
            whole = int(mult) == mult
        except (TypeError, ValueError, OverflowError):  # not a number, nan or inf
            whole = False
        if not whole or mult < 1:
            shown = count_text(mult) if isinstance(mult, int) else repr(mult)
            raise NotNormalized(f"multiplicities must be positive integers, got {shown}")
        lps.append(lp)
        mults.append(int(mult))
    if not lps:
        raise EmptyDistribution("no atoms supplied")
    return Distribution(*_normalize_atoms(lps, mults), n=n)


def shannon_entropy(probs: Sequence[float]) -> float:
    """Shannon entropy in nats, with 0 log(1/0) read as 0."""
    probs = _checked_probs(probs)
    _check_sum(probs)
    return -math.fsum(p * math.log(p) for p in probs if p > 0.0)


@dataclass(frozen=True)
class MixtureSpec:
    """Mixture of memoryless components over one shared finite alphabet.

    Component c has weight weights[c] and letter probabilities probs[c].
    Components must be listed with strictly decreasing Shannon entropy; the
    limit theory for the mixture reads off intervals of cumulative weight, and
    that bookkeeping needs the order fixed up front.
    """

    weights: tuple[float, ...]
    probs: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.probs):
            raise BadMixture("mixture needs one weight per component")
        if not self.probs:
            raise BadMixture("mixture needs at least one component")
        for weight, probs in zip(self.weights, self.probs):
            if len(probs) != self.alphabet_size:
                raise BadMixture("all components must share one alphabet size")
            if not 0.0 < weight <= 1.0:  # also rejects nan
                raise BadMixture("component weights must lie in (0, 1]")
            if not all(math.isfinite(p) for p in probs):
                raise BadMixture("component probabilities must be finite")
            if any(p < 0.0 for p in probs):
                raise BadMixture("negative component probability")
            if any(p > 1.0 + 1e-12 for p in probs):  # before the sum can overflow
                raise BadMixture("component probability above 1 + 1e-12")
            if abs(math.fsum(probs) - 1.0) > 1e-12:
                raise BadMixture("component probabilities must sum to 1 within 1e-12")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise BadMixture("component weights must sum to 1 within 1e-12")
        ents = self.component_entropies()
        for a, b in zip(ents, ents[1:]):
            if not a > b:
                raise BadMixture("component entropies must be strictly decreasing")

    @property
    def alphabet_size(self) -> int:
        return len(self.probs[0])

    def component_entropies(self) -> list[float]:
        """Shannon entropy of each component, in nats."""
        return list(map(shannon_entropy, self.probs))

    def cumulative_weights(self) -> list[float]:
        """Prefix sums of the weights: first entry 0, last entry exactly 1."""
        acc = list(itertools.accumulate(self.weights, initial=0.0))
        acc[-1] = 1.0
        return acc


def mixture_spec(pairs: Sequence[tuple[float, Sequence[float]]]) -> MixtureSpec:
    """Build a MixtureSpec from (weight, probs) pairs."""
    weights, probs = [], []
    try:
        for pair in pairs:
            try:
                w, ps = pair
            except ValueError:
                raise BadMixture("mixture components must be (weight, probs) pairs") from None
            weights.append(float(w))
            probs.append(tuple(map(float, ps)))
    except (TypeError, ValueError, OverflowError):  # not a number, or an integer past float range
        raise BadMixture("mixture weights and probabilities must be finite numbers") from None
    return MixtureSpec(tuple(weights), tuple(probs))


def _scaled_logs(log_p: float, n: int) -> list[float]:
    """h * log_p for h = 0..n, reading 0 * log 0 as 0."""
    if log_p == -math.inf:
        return [0.0] + [-math.inf] * n
    return [h * log_p for h in range(n + 1)]


def _scaled(values: Iterable[int], m: int) -> Iterable[int]:
    """values times m, lazily; the values themselves when m is 1."""
    return values if m == 1 else map(mul, values, itertools.repeat(m))


def _count_rows(n: int, m_pen: int, m_last: int) -> list[list[int]]:
    """rows[rem][h] = C(rem, h) * m_pen**h * m_last**(rem - h) for 0 <= rem <= n.

    Exact integers: the last two bins' share of a class count, built upward
    by Pascal's rule, row[h] = m_last * below[h] + m_pen * below[h - 1],
    which is additions alone when both are 1. When m_pen == m_last, every
    row is a palindrome, C(rem, h) * m**rem, and keeps only its entries
    h <= rem // 2; entry h > rem // 2 is entry rem - h.
    """
    half = m_pen == m_last
    rows = [[1]]
    for rem in range(1, n + 1):
        row = rows[-1]
        # below[h] one past the kept entries: 0 past a full row's end, and
        # in a half row the mirror of its last entry (used when rem is even)
        below = itertools.chain(row, (row[-1] if half else 0,))
        shifted = itertools.chain((0,), row)
        step = map(add, _scaled(below, m_last), _scaled(shifted, m_pen))
        rows.append(list(itertools.islice(step, rem // 2 + 1 if half else rem + 1)))
    return rows


def _grow(row: list[int], n: int, size: int, m_up: int, m_down: int) -> None:
    """Extend row, entry i C(n, i) * m_up**i * m_down**(n - i), to `size` entries.

    Entry i is entry i - 1 times m_up * (n - i + 1), divided exactly by
    i * m_down. With (m_up, m_down) = (m_pen, m_last) these are a two-bin
    row's entries h = i from h = 0 up; swapped, its entries h = n - i from
    h = n down.
    """
    for i in range(len(row), size):
        row.append(row[-1] * (m_up * (n - i + 1)) // (i * m_down))


def _dominant_spans(
    ends: Sequence[tuple[float, float]], rem: int, gap: float
) -> list[tuple[int, int, int | None]]:
    """Spans (lo, hi, c) that cover the classes h = 0..rem of a row, in order.

    ends[c] holds component c's log-prob at h = 0 and at h = rem, and in
    between it is affine in h, so the gap from c to each other component d
    crosses `gap` at most once. On lo <= h < hi, component c lies at least
    `gap` above every other one; c is None on the contested spans between.
    Since gap > 0, no two components hold the same h.
    """
    found = []
    for c, (first, last) in enumerate(ends):
        lo, hi = 0, rem
        for d, (first_d, last_d) in enumerate(ends):
            if d == c:
                continue
            a, b = first - first_d, last - last_d  # the gap to d at h = 0 and at h = rem
            if a == b:
                if a < gap:
                    break
            elif b > a:  # rising: held from h = q on, clipped before ceil so q = inf is safe
                lo = max(lo, math.ceil(min((gap - a) * rem / (b - a), rem + 1)))
            else:  # falling: held up to h = q
                hi = min(hi, math.floor(max((gap - a) * rem / (b - a), -1)))
        else:
            if lo <= hi:
                found.append((lo, hi + 1, c))
    spans: list[tuple[int, int, int | None]] = []
    h = 0
    for lo, hi, c in sorted(found):
        if h < lo:
            spans.append((h, lo, None))
        spans.append((lo, hi, c))
        h = hi
    if h <= rem:
        spans.append((h, rem + 1, None))
    return spans


# one component's (log weight, partial log-sum, second-to-last and last bin tables) in a row
_RowPart = tuple[float, float, list[float], list[float]]


def _column(part: _RowPart, rem: int, lo: int, hi: int) -> list[float]:
    """One component's log-probs of the classes lo <= h < hi of a row.

    Class h holds h positions in the second-to-last bin and rem - h in the
    last, at w + ((s + pen[h]) + last[rem - h]), summed in the order of a
    per-class walk.
    """
    w, s, pen, last = part
    pen_sums = map(add, itertools.repeat(s), pen[lo:hi])
    lasts = reversed(last[rem - hi + 1 : rem - lo + 1])
    return list(map(add, itertools.repeat(w), map(add, pen_sums, lasts)))


def _logsumexp_columns(cols: list[list[float]]) -> list[float]:
    """The logsumexp of each class's entries, one per column, as column operations.

    Bit-identical to logspace.logsumexp, since fsum is exactly rounded and
    exp(-inf) is 0. A class of zero mass has max -inf and comes out nan. The
    max keeps the first greatest entry, as builtin max does, by one
    comparison pass per column.
    """
    if len(cols) == 1:
        return cols[0]
    mx = cols[0]
    for col in cols[1:]:
        mx = [y if y > x else x for x, y in zip(mx, col)]
    shifted = [map(math.exp, map(sub, col, mx)) for col in cols]
    return list(map(add, mx, map(math.log, map(math.fsum, zip(*shifted)))))


def _mixture_column(parts: Sequence[_RowPart], rem: int, lo: int, hi: int) -> list[float]:
    """The mixture's log-probs of the classes lo <= h < hi of a row (_logsumexp_columns)."""
    return _logsumexp_columns([_column(part, rem, lo, hi) for part in parts])


def _span_columns(
    parts: Sequence[_RowPart], rem: int, gap: float
) -> list[tuple[int, int, int | None, list[float]]] | None:
    """(lo, hi, c, log-probs) per span of a walk's row, or None if a row end is -inf.

    A span dominated by component c takes c's column, a contested one
    (c None) the mixture's (see _dominant_spans and _type_class_atoms). The
    walk's rows all read one set of tables of h * log p (_RowPart).
    """
    ends = [(w + ((s + pen[0]) + last[rem]), w + ((s + pen[rem]) + last[0]))
            for w, s, pen, last in parts]
    if not all(map(math.isfinite, itertools.chain.from_iterable(ends))):
        return None
    return [
        (lo, hi, c, _column(parts[c], rem, lo, hi) if c is not None
         else _mixture_column(parts, rem, lo, hi))
        for lo, hi, c in _dominant_spans(ends, rem, gap)
    ]


def _finite_classes(
    log_probs: list[float], counts: Iterable[int]
) -> tuple[list[float], list[int]]:
    """The classes of positive mass: a zero-mass class comes out -inf or nan."""
    keep = list(map(math.isfinite, log_probs))
    return list(itertools.compress(log_probs, keep)), list(itertools.compress(counts, keep))


def _two_bin_column(w: float, a: float, b: float, n: int, lo: int, hi: int) -> list[float]:
    """One component's log-probs w + (h * a + (n - h) * b) of a two-bin row, lo <= h < hi.

    With letter log-probs a and b finite, these are the walk's sums to the bit:
    h * a is the product _scaled_logs tabulates, and the walk's 0.0 + before
    it adds nothing, as n * b != 0 stands beside h * a = 0.
    """
    pens = map(mul, range(lo, hi), itertools.repeat(a))
    lasts = map(mul, range(n - lo, n - hi, -1), itertools.repeat(b))
    return list(map(add, itertools.repeat(w), map(add, pens, lasts)))


def _two_bin_atoms(
    n: int, log_weights: Sequence[float], letters: Sequence[Sequence[float]], gap: float,
    m_pen: int, m_last: int,
) -> tuple[list[float], list[int]]:
    """Columns of a two-bin source, whose one row (rem = n) is the whole distribution.

    Component c has log weight log_weights[c] and letter log-probs letters[c].
    Each span (_dominant_spans) takes its log-probs from the letters, over its
    own classes only (_two_bin_column). A row with a zero-probability letter,
    where h * log 0 must read as 0 at h = 0, reads the walk's tables
    (_scaled_logs) instead, drops its classes of zero mass and never folds.
    The counts are built from both ends inward (_grow), only as far as the
    classes that take their own entry: `low` holds h = 0, 1, ... and `high`
    h = n, n - 1, ..., one list when the row is a palindrome.

    A dominated span (lo, hi, c) with hi - lo >= 2 is flat when component c
    gives both bins one log-prob a: its classes share one probability and
    differ only in how each sum is rounded. A flat component has equal row
    ends, so against another flat one it holds all of the row or none of it:
    a row has at most one flat span. It is one entry, at the log-prob a
    one-bin source gives its class, w + (0.0 + n * a), and the exact count
    (m_pen + m_last)**n less the counts outside it (the binomial theorem);
    the span's own log-probs and counts are never built.
    """
    low = [m_last**n]
    high = low if m_pen == m_last else [m_pen**n]

    def build(a: int, b: int) -> None:
        """Build entries h < a and h > n - b."""
        if high is low:  # entry h > n // 2 of a palindrome is entry n - h
            _grow(low, n, min(max(a, b), n // 2 + 1), m_pen, m_last)
        else:
            _grow(low, n, a, m_pen, m_last)
            _grow(high, n, b, m_last, m_pen)

    def take(lo: int, hi: int) -> list[int]:
        """Entries lo <= h < hi, all built: from low while it reaches, then from high."""
        split = min(max(lo, len(low)), hi)
        entries = low[lo:split]
        entries.extend(reversed(high[n + 1 - hi : n + 1 - split]))
        return entries

    comps = [(w, a, b) for w, (a, b) in zip(log_weights, letters)]
    if not all(map(math.isfinite, itertools.chain.from_iterable(letters))):
        parts = [(w, 0.0, _scaled_logs(a, n), _scaled_logs(b, n)) for w, a, b in comps]
        build(n + 1, 0)
        return _finite_classes(_mixture_column(parts, n, 0, n + 1), take(0, n + 1))
    # the row's ends, h = 0 and h = n, where the zero product adds nothing
    spans = _dominant_spans([(w + n * b, w + n * a) for w, a, b in comps], n, gap)
    fold = next((span for span in spans if span[2] is not None and span[1] - span[0] >= 2
                 and comps[span[2]][1] == comps[span[2]][2]), None)  # flat: a == b
    lo, hi = fold[:2] if fold else (n + 1, n + 1)
    build(lo, n + 1 - hi)
    before, after = take(0, lo), take(hi, n + 1)
    middle = [(m_pen + m_last) ** n - sum(before) - sum(after)] if fold else []
    counts = [*before, *middle, *after]
    log_probs: list[float] = []
    for span in spans:
        lo, hi, c = span
        if span is fold:
            log_probs.append(comps[c][0] + (0.0 + n * comps[c][1]))
        else:  # c's own column where c dominates, the mixture's where none does
            picks = comps if c is None else comps[c : c + 1]
            log_probs.extend(_logsumexp_columns([_two_bin_column(*p, n, lo, hi) for p in picks]))
    return log_probs, counts


def _type_class_atoms(
    n: int,
    log_weights: Sequence[float],
    level_log_probs: Sequence[Sequence[float]],
    level_mults: Sequence[int],
) -> tuple[list[float], list[int]]:
    """Columns (log_prob, multiplicity), one entry per type class of positive mass.

    The source is a mixture of memoryless components over bins: component c
    has log weight log_weights[c] and gives each of the level_mults[j]
    symbols of bin j the log-prob level_log_probs[c][j] (-inf for zero). A
    type class counts how many of the n positions fall in each bin. Classes
    are walked in lexicographic order of their counts, which fixes the order
    of the entries, and classes of zero mass under every component are skipped.
    A two-bin source's one row is built by _two_bin_atoms, which folds its flat span.

    The walk goes down the prefix tree of counts, depth first from an explicit
    stack, to the second-to-last bin. A node that has placed all but rem
    positions carries each component's partial log-sum and the exact integer
    product of C(rem_i, h_i) * m_i**h_i over the bins fixed so far; raising
    bin j's count from h - 1 to h multiplies that prefix by m_j * (rem - h + 1)
    and divides it, exactly, by h. The rem + 1 classes below a
    second-to-last-bin node, h positions there and rem - h in the last bin,
    form a row and are taken at once as columns: log-probs by lookups in
    tables of h * log p that all rows share, and column operations, and the
    counts as the prefix times row rem of _count_rows; a half row's products
    are mirrored, so a palindrome's repeated entries are the same ints. A
    node higher up with one position left has one class per bin from its own
    to the last, and takes them at once as a column too. Per node of the
    walk the Python work is constant; per class it runs inside the builtins.

    Along a row each of the k components' log-probs is affine in h. Where one
    component lies at least gap = 53 ln 2 + ln(k - 1) + 1 above every other,
    the mixture's logsumexp returns that component's log-prob to the bit: each
    of the k - 1 other terms exp(col - mx) is below 2**-53 / (k - 1) / e, so
    their sum is below 2**-53, half an ulp of 1.0; fsum([1.0, *terms]) rounds
    to 1.0, log(1.0) is 0.0, and mx + 0.0 is mx. The extra nat covers the
    rounding of exp and of each class's sums against the straight line through
    the row's end points, a few ulps of a log-prob of size at most about
    745 * n: far below a nat for any n whose classes fit in memory. So those
    classes take one component's column, and only the contested spans between
    run the logsumexp (see _dominant_spans).
    """
    bins = len(level_mults)
    if bins == 1:
        # one class: the rule below for rem = 0, on the sums 0.0 + t[n] it would carry
        sums = [0.0 + n * comp[0] for comp in level_log_probs]
        lp = logsumexp(map(add, log_weights, sums))
        return ([lp], [level_mults[0] ** n]) if lp > -math.inf else ([], [])
    m_pen, m_last = level_mults[-2], level_mults[-1]
    gap = 53 * LN2 + math.log(len(log_weights) - 1 or 1) + 1.0
    if bins == 2:  # the walk would reach the second-to-last bin at once: one row, rem = n
        return _two_bin_atoms(n, log_weights, level_log_probs, gap, m_pen, m_last)
    tables = [[_scaled_logs(comp[j], n) for comp in level_log_probs] for j in range(bins)]
    pen_tables, last_tables = tables[-2], tables[-1]
    rows = _count_rows(n, m_pen, m_last)
    # t[1] = 1 * log p of each bin, which is log p itself, last bin first; and
    # the bins' multiplicities alike
    reversed_ones = [comp[::-1] for comp in level_log_probs]
    reversed_mults = level_mults[::-1]
    log_probs: list[float] = []
    counts: list[int] = []

    def leaves(rem: int, prefix: int, sums: list[float]) -> None:
        parts = list(zip(log_weights, sums, pen_tables, last_tables))
        kept = list(_scaled(rows[rem], prefix))
        # a palindrome row keeps h <= rem // 2; its other entries are the same ints
        row_counts = itertools.chain(kept, reversed(kept[: rem + 1 - len(kept)]))
        pieces = _span_columns(parts, rem, gap)
        if pieces is None:  # a zero-probability letter
            lps, row_counts = _finite_classes(_mixture_column(parts, rem, 0, rem + 1), row_counts)
            log_probs.extend(lps)
        else:  # every class of the row is finite, so none is dropped
            for piece in pieces:
                log_probs.extend(piece[3])
        counts.extend(row_counts)

    stack = [(0, n, 1, [0.0] * len(log_weights))]
    while stack:
        j, rem, prefix, sums = stack.pop()
        if not rem:
            # one class: each bin left would add t[0] = +-0.0 to every sum, and a
            # sum that starts at 0.0 is never -0.0, so it would stay as it is
            lp = logsumexp(map(add, log_weights, sums))
            if lp > -math.inf:
                log_probs.append(lp)
                counts.append(prefix)
            continue
        if j == bins - 2:
            leaves(rem, prefix, sums)
            continue
        if rem == 1:
            # one position left, in bin i = bins - 1 down to j in walk order:
            # class w + (s + t_i[1]), count prefix * m_i, by that same rule
            cols = [
                list(map(add, itertools.repeat(w), map(add, itertools.repeat(s), ones[: bins - j])))
                for w, s, ones in zip(log_weights, sums, reversed_ones)
            ]
            lps, cs = _finite_classes(
                _logsumexp_columns(cols), _scaled(reversed_mults[: bins - j], prefix)
            )
            log_probs.extend(lps)
            counts.extend(cs)
            continue
        m, bin_tables = level_mults[j], tables[j]
        children = []
        for h in range(rem + 1):
            if h:
                prefix = prefix * (m * (rem - h + 1)) // h
            children.append((j + 1, rem - h, prefix, [s + t[h] for s, t in zip(sums, bin_tables)]))
        stack.extend(reversed(children))  # popped in order of h, as a recursive walk visits them
    return log_probs, counts


def _power_of_two_groups(
    log_probs: Sequence[float], mults: Sequence[int], n: int
) -> tuple[list[float], list[list[int]], int] | None:
    """The base levels grouped by exact power-of-two relation, decided once.

    Levels i < j are related when log_probs[i] - log_probs[j] is s * ln 2 for
    an integer 0 < s < _MAX_SHIFT, to within 2 ulps of log_probs[j]: the two
    logs are each rounded to half an ulp, so float probabilities p and
    p * 2**-s always pass. Levels come sorted largest first, so each group's
    first level is its reference and every other member sits s >= 1 below it.
    Shifts are then divided by their common gcd. Returns each group's
    reference log-prob and its shift polynomial: entry t is the number of base
    symbols t gcd-units below the reference; or None once the G groups found
    put the C(n + G, n + 1) splits of _lattice_atoms past the size cap.
    """
    cap, reach = atom_cap(), _MAX_SHIFT * LN2
    refs: list[float] = []
    members: list[list[tuple[int, int]]] = []
    for lp, mult in zip(log_probs, mults):
        for ref, group in zip(refs, members):
            gap = ref - lp
            if gap < reach:
                s = round(gap / LN2)
                if s and abs(gap - s * LN2) <= 2 * math.ulp(lp):
                    group.append((s, mult))
                    break
        else:
            if math.comb(n + len(refs) + 1, n + 1) > cap:
                return None
            refs.append(lp)
            members.append([(0, mult)])
    unit = math.gcd(*(s for group in members for s, _ in group)) or 1
    polys = []
    for group in members:
        poly = [0] * (max(s for s, _ in group) // unit + 1)
        for s, mult in group:
            # two levels within 2 ulps of one shift share its coefficient
            poly[s // unit] += mult
        polys.append(poly)
    return refs, polys, unit


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Coefficients of the product of two polynomials with exact integer coefficients.

    A factor [1] gives back the other factor itself, and a coefficient 1 adds
    the longer factor without scaling it; callers only read the result.
    """
    if len(a) < len(b):
        a, b = b, a  # one column pass per coefficient of the shorter factor
    if b == [1]:
        return a
    out = [0] * (len(a) + len(b) - 1)
    for s, coef in enumerate(b):
        if coef:
            end = s + len(a)
            out[s:end] = map(add, out[s:end], _scaled(a, coef))
    return out


def _poly_power(poly: list[int], c: int) -> list[int]:
    """Coefficients of poly**c by J.C.P. Miller's recurrence, for poly[0] != 0.

    From P * (P**c)' = c * P' * P**c: q[0] = a[0]**c, and
    m * a[0] * q[m] = sum over k = 1..min(m, deg) of ((c + 1) * k - m) * a[k] * q[m - k],
    so each coefficient is one exact division (Knuth, TAOCP vol. 2, 4.7).
    """
    a0, terms = poly[0], [(k, a) for k, a in enumerate(poly) if k and a]
    q = [a0**c]
    for m in range(1, c * (len(poly) - 1) + 1):
        total = sum(((c + 1) * k - m) * a * q[m - k] for k, a in terms if k <= m)
        q.append(total // (m * a0))
    return q


def _lattice_size(n: int, polys: Sequence[Sequence[int]]) -> int:
    """Calls and points of _lattice_atoms, reachable or not, without making them.

    split runs once per composition of at most n among the first g of the G
    groups, g < G: C(n + G, n + 1) calls, each with a _poly_mul or more. Its
    leaves, the C(n + G - 1, G - 1) compositions (c_g) of n, visit
    1 + sum_g c_g * D_g total shifts each, where D_g is group g's largest
    shift; over those compositions each c_g sums to C(n + G - 1, G).
    """
    groups = len(polys)
    spans = sum(len(poly) - 1 for poly in polys)
    return math.comb(n + groups, n + 1) + spans * math.comb(n + groups - 1, groups)


def _lattice_atoms(
    n: int, refs: Sequence[float], polys: Sequence[list[int]], unit: int
) -> tuple[list[float], list[int]]:
    """Columns (log_prob, multiplicity), one entry per nonempty lattice point.

    A type class of the n-fold product puts c_g positions in group g, and its
    probability is fixed by those counts and its total shift T:
    sum_g c_g * refs[g] - T * unit * ln 2. The number of sequences at that
    point is the multinomial n! / prod(c_g!) times the coefficient of x**T in
    prod_g polys[g]**c_g, in exact integers. Several groups need every power
    up to n, each one multiplication from the last; one group needs only the
    n-th, which Miller's recurrence gives in far fewer big-int steps.
    """
    last = len(polys) - 1
    if last:
        powers = [list(itertools.accumulate([poly] * n, _poly_mul, initial=[1])) for poly in polys]
    else:
        powers = [{n: _poly_power(polys[0], n)}]
    log_probs: list[float] = []
    counts: list[int] = []

    def split(g: int, rem: int, factor: int, coefs: list[int], log_prob: float) -> None:
        for c in range(rem + 1) if g < last else (rem,):
            here = _poly_mul(coefs, powers[g][c])
            lp = log_prob + c * refs[g]
            if g < last:
                split(g + 1, rem - c, factor * math.comb(rem, c), here, lp)
                continue
            shifts = map(mul, range(0, unit * len(here), unit), itertools.repeat(LN2))
            lps = map(sub, itertools.repeat(lp), shifts)
            log_probs.extend(itertools.compress(lps, here))
            counts.extend(map(mul, itertools.repeat(factor), filter(None, here)))

    split(0, n, 1, [1], 0.0)
    # split reaches itself through its closure; without this cycle the columns
    # are freed as soon as the caller drops them, not at the next collection
    del split
    return log_probs, counts


def _guard_class_count(count: int, n: int, what: str = "type classes") -> None:
    """TooLarge if an engine's count of what it builds at blocklength n exceeds the cap."""
    cap = atom_cap()
    if count > cap:
        raise TooLarge(f"{count_text(count)} {what} at blocklength {n} exceed cap {cap}")


def iid_extension(base: Distribution, n: int) -> Distribution:
    """n-fold product of a single-letter distribution, one atom per type class.

    A type class records how many of the n positions land in each probability
    level of the base; every sequence in a class has the same probability, and
    the class size is an exact product of a multinomial coefficient with the
    level multiplicities. When base levels differ by exact powers of two, many
    classes share one probability, and the levels are built on the lattice of
    _lattice_atoms instead, whenever its calls and points (_lattice_size) are
    fewer than the classes. The size cap bounds the count of the one that runs.
    """
    if base.n != 1:
        raise ValueError("base distribution must live on a single letter (n = 1)")
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    if n == 1:
        return base
    classes = math.comb(n + len(base.mults) - 1, n)
    groups = _power_of_two_groups(base.log_probs, base.mults, n)
    lattice = _lattice_size(n, groups[1]) if groups else classes
    if lattice < classes:
        _guard_class_count(lattice, n, "lattice calls and points")
        columns = _lattice_atoms(n, *groups)
    else:
        _guard_class_count(classes, n)
        columns = _type_class_atoms(n, [0.0], [base.log_probs], base.mults)
    return Distribution(*_normalize_atoms(*columns), n=n)


def mixture_extension(spec: MixtureSpec, n: int) -> Distribution:
    """Blocklength-n distribution of a mixture of memoryless components.

    The probability of a sequence depends only on its symbol counts, so one
    atom per type class; classes whose mixture probabilities coincide merge
    into a single atom. Letters with equal probabilities under every component
    share one bin, in the order of their first letter, and a class counts
    positions per bin. Classes of zero mass under every component are left out.
    """
    if n < 1:
        raise ValueError("blocklength must be >= 1")
    bins = Counter(zip(*spec.probs))
    _guard_class_count(math.comb(n + len(bins) - 1, n), n)
    log_w = list(map(math.log, spec.weights))
    log_p = [[math.log(p) if p > 0.0 else -math.inf for p in comp] for comp in zip(*bins)]
    columns = _type_class_atoms(n, log_w, log_p, list(bins.values()))
    if not columns[0]:
        raise EmptyDistribution("mixture extension has empty support")
    return Distribution(*_normalize_atoms(*columns), n=n)


def _json_numbers(values: list, error: type[Exception], what: str) -> list:
    """values, each checked to be a JSON number: an int or a float, not a bool or a str."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise error(f"{what} must be numbers, got {v!r}")
    return values


def distribution_from_json(obj: dict) -> Distribution:
    """Read a distribution from one of three JSON forms, on blocklength "n".

    - {"probs": [...]}: a single letter, or with "n" its n-fold i.i.d.
      extension (iid_extension);
    - {"components": [{"weight": w, "probs": [...]}, ...]}: a mixture of
      memoryless sources (mixture_extension), checked as mixture_from_json;
    - {"atoms": [{"log_prob": r, "multiplicity": k}, ...]}: levels already
      built, which live on blocklength "n".

    "n" is an integer >= 1, 1 when absent. An object holding more than one
    form is rejected. Input of the wrong shape raises NotNormalized
    (BadMixture for a mixture), a missing key KeyError.
    """
    if not isinstance(obj, dict):
        raise NotNormalized("distribution JSON must be an object")
    n = obj.get("n", 1)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise NotNormalized("'n' must be an integer >= 1")
    if sum(key in obj for key in ("probs", "atoms", "components")) > 1:
        raise NotNormalized("use one of 'probs', 'atoms' and 'components', not several")
    if "probs" in obj:
        probs = obj["probs"]
        if not isinstance(probs, list):
            raise NotNormalized("'probs' must be a list")
        base = new_distribution(_json_numbers(probs, NotNormalized, "probability entries"))
        return iid_extension(base, n)
    if "atoms" in obj:
        atoms = obj["atoms"]
        if not isinstance(atoms, list) or not all(isinstance(a, dict) for a in atoms):
            raise NotNormalized("'atoms' must be a list of objects")
        lps = _json_numbers([a["log_prob"] for a in atoms], NotNormalized, "log-probabilities")
        mults = _json_numbers([a["multiplicity"] for a in atoms], NotNormalized, "multiplicities")
        return distribution_from_atoms(list(zip(lps, mults)), n=n)
    if "components" in obj:
        return mixture_extension(mixture_from_json(obj), n)
    raise NotNormalized("distribution JSON needs a 'probs', 'atoms' or 'components' key")


def mixture_from_json(obj: dict) -> MixtureSpec:
    """Read {"components": [{"weight": w, "probs": [...]}, ...]}.

    Input of the wrong shape raises BadMixture, a missing key KeyError.
    """
    comps = obj.get("components") if isinstance(obj, dict) else None
    if not comps or not isinstance(comps, list):
        raise BadMixture("mixture JSON needs a nonempty 'components' list")
    if not all(isinstance(c, dict) and isinstance(c["probs"], list) for c in comps):
        raise BadMixture("mixture components must be objects with a 'probs' list")
    _json_numbers([c["weight"] for c in comps], BadMixture, "mixture weights")
    for c in comps:
        _json_numbers(c["probs"], BadMixture, "mixture probabilities")
    return mixture_spec([(c["weight"], c["probs"]) for c in comps])
