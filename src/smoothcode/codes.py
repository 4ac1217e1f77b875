"""Prefix-code construction around a smoothed source.

The flag-bit construction codes the support of the smoothing truncation Q:
a tilted copy of Q fixes integer codeword lengths, canonical assignment turns
lengths into binary words, and each symbol x is accepted with probability
Q(x)/P(x). Accepted symbols emit '0' followed by their inner word, everything
else emits the single-bit reject word '1'.

Every symbol of one probability level gets the same length and the same
acceptance probability, so a code is stored as runs of consecutive symbols
and built one level at a time. Per-symbol words exist only when asked for.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add, itemgetter, lshift, mul, ne, neg, sub, truediv
from typing import Iterable, Iterator, NamedTuple, Sequence

from .distributions import Distribution, _check_size, _expand_levels, _log_masses
from .errors import KraftViolated, Misaligned, TooLarge, check_lambda, count_text
from .logspace import LN2, logsumexp
from .smooth_renyi import SubDistribution, optimal_smoothing

# -log2(q) this close to an integer snaps to it instead of rounding up, so
# exact powers of two are not bumped a full bit by float noise
LENGTH_SNAP = 1e-9


def _tilt(log_probs: Sequence[float], log_mults: Sequence[float], lam: float) -> list[float]:
    """log-prob of one symbol of each level of Q**(1/(1+lam)), normalized over the levels of Q."""
    beta = 1.0 / (1.0 + lam)
    scaled = list(map(mul, itertools.repeat(beta), log_probs))
    norm = logsumexp(_log_masses(scaled, log_mults))
    return list(map(sub, scaled, itertools.repeat(norm)))


def _level_lengths(log_probs: Sequence[float], mults: Sequence[int]) -> list[int]:
    """Codeword length in bits of each tilted level: -log2 of its probability, rounded up.

    log_probs is the tilted column _tilt returns, mults its multiplicities.

    A length within LENGTH_SNAP above an integer snaps down to it when the
    snapped lengths still fit the binary tree, checked exactly in integers.
    When they do not (a tilted probability a hair below 1 snaps to the empty
    word), every length is rounded up. When even the rounded-up lengths
    overfill the tree, because -log2 of a tilted probability fell within
    rounding of an integer from above, the least probable levels get one
    more bit each, from the last level back, until the lengths fit. Either
    way the lengths stay nondecreasing along levels in decreasing order.
    """
    xs = list(map(truediv, map(neg, log_probs), itertools.repeat(LN2)))
    ceiled = list(map(max, map(math.ceil, xs), itertools.repeat(0)))
    rounded = list(map(round, xs))
    near = map(LENGTH_SNAP.__ge__, map(abs, map(sub, xs, rounded)))
    snapped = [max(r, 0) if close else c for r, c, close in zip(rounded, ceiled, near)]
    excess = _kraft_excess(mults, snapped)
    if excess <= 0:
        return snapped
    # the same excess for the ceiled lengths, in units of 2**-top: a length
    # that snapped down gives back half its share as it is ceiled
    top = max(ceiled)
    excess <<= top - max(snapped)
    for i in itertools.compress(range(len(ceiled)), map(ne, snapped, ceiled)):
        excess -= mults[i] << (top - ceiled[i])
    # in units of 2**-(top + 1), one more bit on level i frees mults[i] << (top - l_i)
    excess <<= 1
    i = len(ceiled)
    while excess > 0 and i:
        i -= 1
        excess -= mults[i] << (top - ceiled[i])
    return ceiled[:i] + [l + 1 for l in ceiled[i:]]


def _kraft_excess(mults: Sequence[int], lengths: Sequence[int]) -> int:
    """sum(mults * 2**-lengths) - 1, scaled by 2**max(lengths) to an exact integer."""
    top = max(lengths, default=0)
    return sum(map(lshift, mults, map(sub, itertools.repeat(top), lengths))) - (1 << top)


def shannon_lengths(sub: SubDistribution, lam: float) -> list[int]:
    """Per-symbol codeword lengths in bits: -log2 of the tilted probability, rounded up.

    The tilt is the one of ideal_real_lengths, Q**(1/(1+lam)) normalized over
    the support of Q. Rounded as _level_lengths does, so the lengths fit the
    binary tree.
    """
    check_lambda(lam)
    lengths = _level_lengths(_tilt(sub.log_probs, sub._log_mults, lam), sub.mults)
    return _expand_levels(lengths, sub.mults)


def ideal_real_lengths(sub: SubDistribution, lam: float) -> list[float]:
    """Real-valued lengths in nats that minimize the tilted average length.

    These are -log of the tilted probabilities, so they satisfy the Kraft
    condition with equality: sum(exp(-length)) == 1.
    """
    check_lambda(lam)
    tilted = _tilt(sub.log_probs, sub._log_mults, lam)
    return _expand_levels(list(map(neg, tilted)), sub.mults)


@dataclass(frozen=True)
class PrefixCode:
    """Binary codewords, one per symbol, no word a prefix of another."""

    codewords: tuple[str, ...]

    @property
    def lengths_bits(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.codewords)

    def kraft_sum(self) -> float:
        return math.fsum(2.0 ** -len(w) for w in self.codewords)

    def is_prefix_free(self) -> bool:
        words = sorted(self.codewords)
        return not any(map(str.startswith, words[1:], words[:-1]))


def assign_canonical_codewords(lengths_bits: Sequence[int]) -> PrefixCode:
    """First-fit codeword assignment in nondecreasing length order.

    Sorting the requested lengths ascending, each word is the numerically
    smallest string of its length that extends no earlier word; ties keep the
    input order. Integral floats are read as ints; any other entry that is
    not a nonnegative int raises ValueError. Raises KraftViolated when the
    lengths do not fit, detected exactly in integer arithmetic. A single
    length-0 request yields the empty word.
    """
    lengths = list(map(_length_bits, lengths_bits))
    runs = sorted(Counter(lengths).items())
    spelled = itertools.chain.from_iterable(
        _run_words(length, start, count)
        for (length, count), start in zip(runs, _canonical_starts(runs))
    )
    # the sorted order is stable, so equal lengths take their words in input order
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    words = [""] * len(lengths)
    for i, word in zip(order, spelled):
        words[i] = word
    return PrefixCode(tuple(words))


def _length_bits(length) -> int:
    """length as an int, if it is a nonnegative integral number; ValueError otherwise."""
    try:
        bits = int(length)
        if bits == length and bits >= 0:
            return bits
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("codeword lengths must be nonnegative integers")


def _canonical_starts(runs: Sequence[tuple[int, int]]) -> list[int]:
    """Value of the first canonical word of each (length, count) run.

    A run takes the count smallest values of its length that extend no
    earlier word: the first-fit words of assign_canonical_codewords. The
    lengths must be nondecreasing, else ValueError. Kraft is checked
    exactly, in integers, as each run closes: the next free word may reach
    2**length only by being it, which the bit length settles short of that.
    """
    starts: list[int] = []
    value = prev = 0  # value: first free word at the previous run's length
    for length, count in runs:
        if length < prev:
            raise ValueError("canonical words need nondecreasing lengths")
        value <<= length - prev
        starts.append(value)
        value += count
        if value.bit_length() > length and value != 1 << length:
            raise KraftViolated(
                f"{count_text(count)} words of length {length} overfill the binary tree"
            )
        prev = length
    return starts


# bin(2**length + value) is "0b1" and then the canonical word, "" at length 0
_CUT_MARK = itemgetter(slice(3, None))


def _run_words(length: int, start: int, count: int) -> Iterable[str]:
    """The count canonical words of one length from value start on, counted out with bin."""
    first = start + (1 << length)
    return map(_CUT_MARK, map(bin, range(first, first + count)))


class CodeRun(NamedTuple):
    """count consecutive symbols, in the distribution's sorted order, coded alike.

    Each is accepted with probability gamma and then emits a word of
    accept_bits bits, flag bit included; accept_bits is None for symbols
    without a word.
    """

    count: int
    gamma: float
    accept_bits: int | None


_COUNT, _CODING = itemgetter(0), itemgetter(1, 2)


def _packed(runs: Iterable[tuple[int, float, int | None]]) -> tuple[CodeRun, ...]:
    """Join neighbouring (count, gamma, accept_bits) runs that code alike.

    Packed runs are maximal, so cutting them at level boundaries gives the
    same segments however the code was made. A run joined to no other keeps
    its count object.
    """
    return tuple(
        CodeRun(reduce(add, map(_COUNT, group)), gamma, bits)
        for (gamma, bits), group in itertools.groupby(runs, key=_CODING)
    )


def _segments(runs: Sequence[CodeRun], dist: Distribution) -> Iterator[tuple]:
    """Cut the runs at the level boundaries of the distribution they cover.

    Yields (log_prob, count, gamma, accept_bits) for the symbols of one
    level that one run codes, as one walk down both by counts makes them:
    each segment takes what is left of the current run or of the current
    level, whichever ends first. Raises Misaligned, once consumed that far,
    when the runs and the distribution count different numbers of symbols,
    which shows as one side running out before the other; only then are the
    totals summed, for the message.
    """
    levels = zip(dist.log_probs, dist.mults)
    left = 0  # symbols of the current level not yet cut
    try:
        for count, gamma, bits in runs:
            while count:
                if not left:
                    log_prob, left = next(levels)
                take = count if count < left else left
                yield log_prob, take, gamma, bits
                count -= take
                left -= take
        aligned = not left and next(levels, None) is None
    except StopIteration:  # runs left over after the last level
        aligned = False
    if not aligned:
        coded, support = sum(map(_COUNT, runs)), dist.support_size
        raise Misaligned(
            f"code covers {count_text(coded)} symbols, distribution has {count_text(support)}"
        )


@dataclass(frozen=True)
class StochasticCode:
    """Flag-bit code: accepted symbols emit '0' + inner word, rejects emit '1'.

    runs covers the symbols in the distribution's sorted order. Checked in
    one pass at construction: every run counts an int >= 1 of symbols, only
    a leading block of runs carries words, every gamma lies in [0, 1], and a
    run without words has gamma 0.
    word_runs holds the inner words as (inner length, first value, count)
    runs of consecutive values, each a maximal run within one CodeRun. Left
    out, it is the canonical numbering along the runs, checked against the
    tree exactly, so no code whose words overfill it is made. The per-symbol
    views gamma and inner are expanded on first use, within atom_cap(), and
    so is the word index decode looks words up in. The reject word decodes
    to decoder_for_reject (>= 0), the symbol whose rejected mass is largest.
    Two codes are equal when their fields are, so a built code equals its
    codebook round trip, compared without expanding it.
    """

    runs: tuple[CodeRun, ...]
    decoder_for_reject: int
    reject: str = "1"
    word_runs: tuple[tuple[int, int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.decoder_for_reject < 0:
            raise ValueError("decoder_for_reject must be >= 0")
        coded = []  # (inner length, count) of the leading runs with words
        for i, (count, gamma, bits) in enumerate(self.runs):
            if type(count) is not int or count < 1:
                raise ValueError(f"count must be an int >= 1 in run {i}")
            if not 0.0 <= gamma <= 1.0:
                raise ValueError(f"gamma out of [0, 1] in run {i}")
            if bits is None:
                if gamma > 0.0:
                    first = sum(map(_COUNT, self.runs[:i]))
                    raise Misaligned(f"symbol {first} has gamma > 0 but no codeword")
            elif len(coded) != i:
                raise ValueError("coded runs must form a leading block of the runs")
            else:
                coded.append((bits - 1, count))
        if self.word_runs is None:
            starts = _canonical_starts(coded)
            canonical = ((length, start, count) for (length, count), start in zip(coded, starts))
            object.__setattr__(self, "word_runs", tuple(canonical))

    @property
    def num_symbols(self) -> int:
        return sum(r.count for r in self.runs)

    @property
    def is_deterministic(self) -> bool:
        return all(r.gamma in (0.0, 1.0) for r in self.runs)

    @cached_property
    def gamma(self) -> tuple[float, ...]:
        """Acceptance probability of each symbol."""
        return tuple(_expand_levels([r.gamma for r in self.runs], [r.count for r in self.runs]))

    @cached_property
    def inner(self) -> PrefixCode:
        """Inner words, flag bit excluded, of the leading symbols that have one."""
        _check_size(sum(count for _, _, count in self.word_runs))
        words = itertools.chain.from_iterable(itertools.starmap(_run_words, self.word_runs))
        return PrefixCode(tuple(words))

    def accept_word(self, i: int) -> str | None:
        if 0 <= i < len(self.inner.codewords):
            return "0" + self.inner.codewords[i]
        return None

    def accept_length_bits(self, i: int) -> int | None:
        if 0 <= i < len(self.inner.codewords):
            return 1 + len(self.inner.codewords[i])
        return None

    @cached_property
    def _word_index(self) -> dict[str, int]:
        """Position of each inner word, the first one where a word repeats."""
        words = self.inner.codewords
        return dict(zip(reversed(words), reversed(range(len(words)))))

    def decode(self, word: str) -> int:
        if word == self.reject:
            return self.decoder_for_reject
        if word.startswith("0"):
            index = self._word_index.get(word[1:])
            if index is not None:
                return index
        raise ValueError(f"not a codeword: {word!r}")


def _flag_code(
    dist: Distribution, sub: SubDistribution, b: int, levels: int, last_gamma: float, lam: float
) -> StochasticCode:
    """Code whose words go to the first `levels` levels of the smoothing truncation sub.

    One length per tilted level. The symbols of the last coded level are
    accepted with probability last_gamma, the others surely; every later
    symbol of dist rejects. b is the level of dist the smoothing clipped;
    the last coded level lies in it when last_gamma is below 1.

    The reject word decodes to the first symbol whose rejected mass
    P(x) * (1 - gamma(x)) is largest. That mass is 0 on surely coded
    symbols, P * (1 - last_gamma) on the last coded level, and P on the
    rejected symbols, whose P never grows along the sorted order. So the
    first symbol of the last coded level and the first rejected symbol are
    the only candidates, and where both masses are 0 it is symbol 0.
    """
    mults = sub.mults[:levels]
    coded = sub.k_star - sum(sub.mults[levels:])  # the clipped symbol, or none
    rest = dist.support_size - coded
    runs = []
    candidates = []  # (rejected mass, first symbol)
    if mults:
        # tilting keeps the sorted order, so the lengths are nondecreasing as
        # canonical numbering needs
        tilted = _tilt(sub.log_probs[:levels], sub._log_mults[:levels], lam)
        accept_bits = [l + 1 for l in _level_lengths(tilted, mults)]
        runs = list(zip(mults, itertools.repeat(1.0), accept_bits))
        runs[-1] = (mults[-1], last_gamma, runs[-1][2])
        candidates.append((math.exp(dist.log_probs[b]) * (1.0 - last_gamma), coded - mults[-1]))
    if rest:
        runs.append((rest, 0.0, None))
        # the boundary level's symbols that are not coded reject first
        first = b if dist.mults[b] > sum(sub.mults[b:levels]) else b + 1
        candidates.append((math.exp(dist.log_probs[first]), coded))
    mass, target = max(candidates, key=itemgetter(0))  # the first of equal masses
    return StochasticCode(runs=_packed(runs), decoder_for_reject=target if mass > 0.0 else 0)


def _boundary_level(dist: Distribution, sub: SubDistribution) -> int:
    """The level of dist whose symbol optimal_smoothing clipped, read off its kept prefix.

    sub keeps the levels before it whole, then the clipped symbol, with the
    boundary's j - 1 whole symbols between them when j > 1. Those are fewer
    than the boundary level has, where a level kept whole has them all.
    """
    b = len(sub.mults) - 1
    if b and sub.mults[b - 1] != dist.mults[b - 1]:
        b -= 1
    return b


def build_stochastic_code(dist: Distribution, eps: float, lam: float) -> StochasticCode:
    """Flag-bit code for the smoothing truncation at budget eps.

    The k_star - 1 most probable symbols are always accepted, the boundary
    symbol is accepted with probability gamma_eps / P(boundary), and the rest
    always reject. Credited error probability stays within eps.
    """
    check_lambda(lam)
    sub = optimal_smoothing(dist, eps)
    b = _boundary_level(dist, sub)
    boundary_p = math.exp(dist.log_probs[b])
    gamma_b = 1.0 if boundary_p == 0.0 else min(sub.gamma_eps / boundary_p, 1.0)
    return _flag_code(dist, sub, b, len(sub.mults), gamma_b, lam)


def build_deterministic_code(dist: Distribution, eps: float, lam: float) -> StochasticCode:
    """All-or-nothing variant: only the k_star - 1 most probable symbols are coded.

    Every acceptance probability is 0 or 1, so the code is_deterministic.

    Dropping the boundary symbol entirely raises the error probability to
    exactly eps + gamma_eps of the smoothing truncation at budget eps.
    """
    check_lambda(lam)
    sub = optimal_smoothing(dist, eps)
    # everything except the clipped boundary symbol
    return _flag_code(dist, sub, _boundary_level(dist, sub), len(sub.mults) - 1, 1.0, lam)


def codebook_to_json(code: StochasticCode) -> dict:
    """Wire format: reject word, decode target, and per-symbol codeword + gamma."""
    gammas = code.gamma
    words = code.inner.codewords
    codewords = itertools.chain(
        map("0".__add__, words), itertools.repeat(None, len(gammas) - len(words))
    )
    return {
        "reject": code.reject,
        "decoder_for_reject": code.decoder_for_reject,
        "entries": [{"codeword": w, "gamma": g} for w, g in zip(codewords, gammas)],
    }


# the fixed bytes of the canonical layout around each entry's word and gamma
_HEAD = b'{\n  "decoder_for_reject": '
_ENTRIES = b',\n  "entries": [\n'
_REJECT = b'\n  ],\n  "reject": '
_WORD = b'    {\n      "codeword": "0'
_NULL = b'    {\n      "codeword": null,\n      "gamma": '
_WORD_END = b'",\n      "gamma": '
_CLOSE = b"\n    }"


def _codebook_text(code: StochasticCode) -> str:
    """json.dumps(codebook_to_json(code), indent=2, sort_keys=True), byte for byte."""
    return _codebook_bytes(code).decode("ascii")


def _codebook_bytes(code: StochasticCode) -> bytes | bytearray:
    """The codebook text of code as bytes, which json.dumps keeps ASCII.

    The entries of one word run differ only in their word, so a word run is
    count fixed-width records: its first word between its fixed entry text.
    A run without words is count copies of one fixed entry. The bytes are
    written into one bytearray of their exact length, each run by doubling
    its first record in place. What is left are the words after each word
    run's first. They are consecutive values, and bit k of consecutive
    values is a periodic 0/1 pattern, so each bit that changes within the
    run is one strided write of a _bit_column down the run's records. A word
    run with fewer than _WORDS_PER_COLUMN words per changing bit is spelled
    word by word with bin instead and written over its records in one piece.
    The size cap is checked on the whole support before anything is
    allocated.
    """
    _check_size(code.num_symbols)
    decoder = _json_number(code.decoder_for_reject).encode()
    reject = json.dumps(code.reject).encode()
    if not code.runs:  # json.dumps writes an empty list inline
        return b'%b%b,\n  "entries": [],\n  "reject": %b\n}' % (_HEAD, decoder, reject)
    word_runs = iter(code.word_runs)
    # per record: count, record, word length, and the words: a range of
    # values to write as columns, words to spell, or None
    plan = []
    for run in code.runs:
        gamma = _json_number(run.gamma).encode()
        if run.accept_bits is None:
            plan.append((run.count, b"%b%b%b,\n" % (_NULL, gamma, _CLOSE), 0, None))
            continue
        left = run.count  # the word runs of one run cover it
        while left > 0:
            length, start, count = next(word_runs)
            left -= count
            words = range(start, start + count)
            # the low bits that change within the word run
            if count < _WORDS_PER_COLUMN * (start ^ words[-1]).bit_length():
                words = _run_words(length, start, count)
            first = _CUT_MARK(bin((1 << length) + start)).encode()
            record = b"%b%b%b%b%b,\n" % (_WORD, first, _WORD_END, gamma, _CLOSE)
            plan.append((count, record, length, words))
    head = _HEAD + decoder + _ENTRIES
    tail = _REJECT + reject + b"\n}"  # in place of the last record's ",\n"
    buf = bytearray(len(head) + sum(c * len(r) for c, r, _, _ in plan) - 2 + len(tail))
    with memoryview(buf) as view:
        view[: len(head)] = head
        pos = len(head)
        for count, record, length, words in plan:
            width, end = len(record), pos + count * len(record)
            if words is None:
                _repeat_record(view, pos, record, count)
            elif isinstance(words, range):
                _repeat_record(view, pos, record, count)
                # bit k of every word, written from the word's last character back
                last = pos + len(_WORD) + length - 1
                for bit in range((words.start ^ words[-1]).bit_length()):
                    buf[last - bit : end : width] = _bit_column(bit, words.start, count)
            else:
                rest = record[len(_WORD) + length :]
                view[pos:end] = _WORD + (rest + _WORD).join(map(str.encode, words)) + rest
            pos = end
        view[pos - 2 :] = tail
    return buf


# a word run is written as bit columns when it has at least this many words
# per bit that changes within it, and spelled with bin below that: a column
# costs about as much as spelling 5 words (CPython 3.11, runs of 8-96 words)
_WORDS_PER_COLUMN = 6


def _json_number(x) -> str:
    """json.dumps(x); a finite float or an int is its repr, with no encoder set up per call."""
    if type(x) is int or type(x) is float and math.isfinite(x):
        return repr(x)
    return json.dumps(x)


def _repeat_record(view: memoryview, pos: int, record: bytes, count: int) -> None:
    """Write count copies of record from view[pos] on: up to 64 at once, then doubling them."""
    first = record * min(count, 64)
    filled, end = pos + len(first), pos + count * len(record)
    view[pos:filled] = first
    while filled < end:
        step = min(filled - pos, end - filled)
        view[filled : filled + step] = view[pos : pos + step]
        filled += step


def _bit_column(bit: int, start: int, count: int) -> bytearray:
    """Bit `bit` of start, start + 1, ..., start + count - 1, each as b"0" or b"1".

    The bit is 0 for 2**bit consecutive values and then 1 for as many, so the
    column is a window of that periodic pattern. A bytearray, which a strided
    bytearray slice takes without a copy.
    """
    half = 1 << bit
    if half >= count:  # the bit changes once at most
        stay = min(half - (start & (half - 1)), count)
        now, then = (b"1", b"0") if start & half else (b"0", b"1")
        return bytearray(now) * stay + bytearray(then) * (count - stay)
    phase = start & (2 * half - 1)
    column = bytearray(b"0" * half + b"1" * half) * ((phase + count) // (2 * half) + 1)
    del column[:phase]
    del column[count:]
    return column


def _codebook_from_bytes(data: bytes) -> StochasticCode:
    """codebook_from_json(json.loads(data)), reading the writer's layout directly.

    A code is guessed from the bytes and kept only when it passes every
    check of codebook_from_json and _codebook_bytes writes it back as the
    bytes, exactly, up to one trailing newline. The writer prints
    codebook_to_json(code), so json.loads is then that object, which
    codebook_from_json reads back to an equal code. Any other input, valid
    JSON in another layout or not, is decoded as strict UTF-8 and goes
    through json.loads and codebook_from_json.
    """
    code = _guess_code(data)
    if code is not None:
        try:
            written = _codebook_bytes(code)
        except TooLarge:  # a cap set lower than the one the codebook was written under
            written = None
        if written is not None and data.startswith(written):
            if data[len(written) :] in (b"", b"\n"):
                return code
    return codebook_from_json(_json_loads(data.decode("utf-8")))


def _json_loads(text: str):
    """json.loads(text); text nested past the recursion limit raises ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def _guess_code(data: bytes) -> StochasticCode | None:
    """The built code whose codebook bytes would be these bytes, if they plainly may be.

    The entries of one run have one width, so each run ends where a binary
    search over entry starts first finds an entry of another shape. None
    where the bytes do not look like the writer's layout, or the code fails
    a check of codebook_from_json. The guess is only a candidate: the caller
    keeps it only if it writes back to the bytes.
    """
    entries = data.find(_ENTRIES)
    end = data.rfind(_REJECT)
    if not data.startswith(_HEAD) or not 0 < entries < end:
        return None
    decoder = data[len(_HEAD) : entries]
    quote = end + len(_REJECT)
    reject = data[quote + 1 : data.find(b'"', quote + 1)]
    runs = []
    pos = entries + len(_ENTRIES)
    try:
        while pos < end:
            entry = data[pos : data.find(_CLOSE, pos) + len(_CLOSE)]
            # an entry of this run starts with head and has tail from offset cut on
            if entry.startswith(_NULL):
                head, cut, bits = entry, len(entry), None
                gamma = entry[len(_NULL) : -len(_CLOSE)]
            elif entry.startswith(_WORD) and _WORD_END in entry:
                head, cut = _WORD, entry.index(_WORD_END)
                bits, gamma = cut - len(_WORD) + 1, entry[cut + len(_WORD_END) : -len(_CLOSE)]
            else:
                return None
            tail, width = entry[cut:], len(entry) + 2  # ",\n" after each
            # entry lo - 1 has this shape; entry hi would end past the list
            lo, hi = 1, (end + 2 - pos) // width
            while lo < hi:
                mid = (lo + hi) // 2
                at = pos + mid * width
                if data.startswith(head, at) and data.startswith(tail, at + cut):
                    lo = mid + 1
                else:
                    hi = mid
            runs.append((lo, float(gamma), bits))
            pos += lo * width
        if pos != end + 2 or reject.translate(None, b"01"):
            return None
        code = StochasticCode(
            runs=_packed(runs), decoder_for_reject=int(decoder), reject=reject.decode()
        )
    except (ValueError, KraftViolated, Misaligned):  # not a code the writer prints
        return None
    # what the record cannot know: the support, and that no flagged word
    # extends the reject word or is its prefix
    if code.decoder_for_reject < code.num_symbols and reject:
        if reject[:1] == b"1" or not code.word_runs:
            return code
    return None


def codebook_from_json(obj: dict) -> StochasticCode:
    """Rebuild a code from its wire format, revalidating the prefix property.

    The words are kept as given, as the runs of consecutive values they
    form; consecutive entries with equal gamma and word length share one
    run, as in a built code, so both evaluate alike. Input of the wrong
    shape raises ValueError, a missing key KeyError, each for the first bad
    entry. The reject word and the codewords must be nonempty strings of '0'
    and '1', each gamma a JSON number (an int or a float, not a bool or a
    string) and the decode target an int.
    """
    if not isinstance(obj, dict):
        raise ValueError("codebook JSON must be an object")
    entries = obj["entries"]
    if not entries:
        raise ValueError("codebook has no entries")
    reject = obj["reject"]
    if not isinstance(entries, list):
        raise ValueError("codebook entries must be a list")
    gammas, flagged = _entry_columns(entries)
    lengths = itertools.chain(map(len, flagged), itertools.repeat(None, len(gammas) - len(flagged)))
    runs = _packed(zip(itertools.repeat(1), gammas, lengths))
    if not PrefixCode((*flagged, str(reject))).is_prefix_free():
        raise KraftViolated("codebook words are not prefix-free")
    decoder = obj.get("decoder_for_reject", 0)
    if isinstance(decoder, bool) or not isinstance(decoder, int):
        raise ValueError("decoder_for_reject must be an integer")
    if not 0 <= decoder < len(entries):
        raise ValueError("decoder_for_reject out of range")
    # the alphabet of the words is checked last, so the checks above keep
    # precedence over it
    if not _is_binary("".join(flagged)):
        bad = next(i for i, word in enumerate(flagged) if not _is_binary(word))
        raise ValueError(f"codeword at entry {bad} is not a string of 0s and 1s: {flagged[bad]!r}")
    if not isinstance(reject, str) or not reject or not _is_binary(reject):
        raise ValueError(f"reject word must be a nonempty string of 0s and 1s, got {reject!r}")
    return StochasticCode(
        runs=runs, decoder_for_reject=decoder, reject=reject, word_runs=_value_runs(flagged, runs)
    )


def _value_runs(flagged: list[str], runs: Sequence[CodeRun]) -> tuple[tuple[int, int, int], ...]:
    """The word runs of the flagged words: maximal runs of consecutive values within one CodeRun.

    A word after the flag bit '0' has the value of the whole word.
    """
    if not flagged:
        return ()
    values = list(map(int, flagged, itertools.repeat(2)))
    steps = map(sub, itertools.islice(values, 1, None), values)
    ends = set(itertools.compress(range(1, len(values)), map((1).__ne__, steps)))
    ends.update(itertools.takewhile(len(values).__ge__, itertools.accumulate(map(_COUNT, runs))))
    ends = sorted(ends)
    firsts = [0, *ends[:-1]]
    inner_lengths = map(sub, map(len, map(flagged.__getitem__, firsts)), itertools.repeat(1))
    return tuple(zip(inner_lengths, map(values.__getitem__, firsts), map(sub, ends, firsts)))


def _is_binary(text: str) -> bool:
    """Whether text holds only the characters '0' and '1', checked at C speed."""
    try:
        return not text.encode("ascii").translate(None, b"01")
    except UnicodeEncodeError:
        return False


def _entry_columns(entries: list) -> tuple[list[float], list[str]]:
    """Each entry's gamma, and the words of the leading entries that have one.

    The entries are checked in turn; the first bad one raises its error.
    """
    gammas: list[float] = []
    flagged: list[str] = []
    for i, e in enumerate(entries):
        try:
            g = e["gamma"]
        except TypeError:
            raise ValueError(f"entry {i} is not a JSON object") from None
        if type(g) is not float:  # a JSON float needs no check or conversion
            if isinstance(g, bool) or not isinstance(g, (int, float)):
                raise ValueError(f"gamma at entry {i} is not a number")
            try:
                g = float(g)
            except OverflowError:
                g = math.nan  # out of range
        if not 0.0 <= g <= 1.0:
            raise ValueError(f"gamma out of [0, 1] at entry {i}")
        word = e["codeword"]
        if word is None:
            if g > 0.0:
                raise ValueError(f"entry {i} can be accepted but has no codeword")
        elif len(flagged) != i:  # entries with a word must be all the entries so far
            raise ValueError("coded symbols must form a leading block of the entries")
        elif not isinstance(word, str):
            raise ValueError(f"codeword at entry {i} is neither a string nor null")
        elif word[:1] != "0":
            raise ValueError(f"accept codeword must start with the flag bit '0': {word!r}")
        else:
            flagged.append(word)
        gammas.append(g)
    return gammas, flagged
