"""Exact code evaluation and the one-shot exponential-moment bounds.

For a flag-bit code the moment E[exp(lam * length-in-nats)] averages over both
the source and the encoder's acceptance coin. The converse bound exp(lam * H)
uses the smooth Renyi entropy of order 1/(1 + lam) at the same budget; the
direct bound adds the two-bit overhead factor and the reject-word term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import StochasticCode, build_stochastic_code
from .distributions import Distribution
from .errors import BadEpsilon, Misaligned, SandwichViolated, check_lambda
from .logspace import LN2, logsumexp
from .smooth_renyi import log_r_alpha_eps


@dataclass(frozen=True)
class CodeReport:
    """One evaluation: error probabilities, exact moment, and both bounds."""

    eps: float
    lam: float
    error_prob: float
    error_prob_raw: float
    exp_moment: float
    converse_bound: float
    direct_bound: float

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "lambda": self.lam,
            "error_prob": self.error_prob,
            "error_prob_raw": self.error_prob_raw,
            "exp_moment": self.exp_moment,
            "converse_bound": self.converse_bound,
            "direct_bound": self.direct_bound,
        }


def _aligned_probs(code: StochasticCode, dist: Distribution) -> list[float]:
    probs = dist.probabilities()
    if len(probs) != code.num_symbols:
        raise Misaligned(
            f"code covers {code.num_symbols} symbols, distribution has {len(probs)}"
        )
    return probs


def error_probability(code: StochasticCode, dist: Distribution) -> tuple[float, float]:
    """(raw, credited) error probability of the code on the distribution.

    Raw is the total rejected mass. Credited forgives the symbol the reject
    word decodes to, since that symbol survives decoding.
    """
    probs = _aligned_probs(code, dist)
    rejected = [p * (1.0 - g) for p, g in zip(probs, code.gamma)]
    raw = math.fsum(rejected)
    credited = raw - rejected[code.decoder_for_reject]
    return raw, max(credited, 0.0)


def exponential_moment(code: StochasticCode, dist: Distribution, lam: float) -> float:
    """E[exp(lam * codeword length in nats)], exact up to float rounding.

    Accumulated in the log domain so large tilts cannot overflow
    intermediate terms.
    """
    check_lambda(lam)
    probs = _aligned_probs(code, dist)
    reject_len = len(code.reject)
    terms = []
    for i, (p, g) in enumerate(zip(probs, code.gamma)):
        if p == 0.0:
            continue
        lp = math.log(p)
        if g > 0.0:
            bits = code.accept_length_bits(i)
            if bits is None:
                raise Misaligned(f"symbol {i} has gamma > 0 but no codeword")
            terms.append(lp + math.log(g) + lam * bits * LN2)
        if g < 1.0:
            terms.append(lp + math.log1p(-g) + lam * reject_len * LN2)
    return _exp_or_inf(logsumexp(terms))


def _exp_or_inf(log_x: float) -> float:
    """exp(log_x), reading a result beyond float range as inf."""
    try:
        return math.exp(log_x)
    except OverflowError:
        return math.inf


def _lambda_entropy(dist: Distribution, eps: float, lam: float) -> float:
    """lam * smooth entropy of order 1/(1+lam); -inf once eps reaches 1.

    The budget eps + gamma_eps of the all-or-nothing code can equal 1 exactly
    (when even the single most probable symbol already covers 1 - eps), so
    unlike the rest of the package the bounds accept the closed endpoint.
    """
    if not 0.0 <= eps <= 1.0 + 1e-12:
        raise BadEpsilon("eps must be in [0, 1] for the moment bounds")
    if eps >= 1.0:
        return -math.inf
    alpha = 1.0 / (1.0 + lam)
    # lam * H equals (1 + lam) * log r, since 1 - alpha = lam / (1 + lam)
    return (1.0 + lam) * log_r_alpha_eps(dist, alpha, eps)


def converse_bound(dist: Distribution, eps: float, lam: float) -> float:
    """Lower bound on the moment of any code with credited error within eps."""
    check_lambda(lam)
    return _exp_or_inf(_lambda_entropy(dist, eps, lam))


def direct_bound(dist: Distribution, eps: float, lam: float) -> float:
    """Achievable upper bound: 2**(2 lam) * exp(lam * H) + eps * 2**lam.

    Summed in the log domain, so a large lam gives inf rather than an error.
    """
    check_lambda(lam)
    lam_entropy = _lambda_entropy(dist, eps, lam)
    log_eps = math.log(eps) if eps > 0.0 else -math.inf
    return _exp_or_inf(logsumexp([2.0 * lam * LN2 + lam_entropy, log_eps + lam * LN2]))


def evaluate_code(
    code: StochasticCode, dist: Distribution, eps: float, lam: float
) -> CodeReport:
    """Evaluate a given code against the bounds at budget eps (no assertions)."""
    raw, credited = error_probability(code, dist)
    return CodeReport(
        eps=eps,
        lam=lam,
        error_prob=credited,
        error_prob_raw=raw,
        exp_moment=exponential_moment(code, dist, lam),
        converse_bound=converse_bound(dist, eps, lam),
        direct_bound=direct_bound(dist, eps, lam),
    )


def sandwich_report(
    dist: Distribution, eps: float, lam: float, slack: float = 1e-9
) -> CodeReport:
    """Build the stochastic flag-bit code and verify it lands between the bounds.

    Raises SandwichViolated if the credited error exceeds eps or the exact
    moment escapes [converse, direct] beyond the relative slack; either one
    would mean an implementation bug, not a property of the input.
    """
    code = build_stochastic_code(dist, eps, lam)
    report = evaluate_code(code, dist, eps, lam)
    lo = report.converse_bound * (1.0 - slack)
    hi = report.direct_bound * (1.0 + slack)
    if report.error_prob > eps + 1e-12:
        raise SandwichViolated(
            f"credited error {report.error_prob} exceeds budget {eps}"
        )
    if not lo <= report.exp_moment <= hi:
        raise SandwichViolated(
            f"moment {report.exp_moment} outside [{report.converse_bound}, "
            f"{report.direct_bound}] at eps={eps}, lambda={lam}"
        )
    return report
