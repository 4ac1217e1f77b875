"""Exact code evaluation and the one-shot exponential-moment bounds.

For a flag-bit code the moment E[exp(lam * length-in-nats)] averages over both
the source and the encoder's acceptance coin. The converse bound exp(lam * H)
uses the smooth Renyi entropy of order 1/(1 + lam) at the same budget; the
direct bound adds the two-bit overhead factor and the reject-word term.

Every sum runs over segments, consumed as codes._segments cuts them: the
symbols of one probability level that the code treats alike, weighted by
their count, so no source is ever expanded symbol by symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import StochasticCode, _segments, build_stochastic_code
from .distributions import Distribution
from .errors import BadEpsilon, Misaligned, SandwichViolated, check_lambda
from .logspace import LN2, logsumexp
from .smooth_renyi import log_power_sum, optimal_smoothing

# relative slack of sandwich_report's check that the moment lies between the bounds
SANDWICH_SLACK = 1e-9


@dataclass(frozen=True)
class CodeReport:
    """One evaluation: error probabilities, and the exact moment and both bounds as logs.

    The logs are in nats. exp_moment, converse_bound and direct_bound read
    them back as floats, inf beyond float range, where the logs stay finite.
    """

    eps: float
    lam: float
    error_prob: float
    error_prob_raw: float
    log_exp_moment: float
    log_converse: float
    log_direct: float

    @property
    def exp_moment(self) -> float:
        return _exp_or_inf(self.log_exp_moment)

    @property
    def converse_bound(self) -> float:
        return _exp_or_inf(self.log_converse)

    @property
    def direct_bound(self) -> float:
        return _exp_or_inf(self.log_direct)

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "lambda": self.lam,
            "error_prob": self.error_prob,
            "error_prob_raw": self.error_prob_raw,
            "exp_moment": self.exp_moment,
            "converse_bound": self.converse_bound,
            "direct_bound": self.direct_bound,
            "log_exp_moment": self.log_exp_moment,
            "log_converse": self.log_converse,
            "log_direct": self.log_direct,
        }


def _walk(code: StochasticCode, dist: Distribution, lam: float) -> tuple[float, float, float]:
    """(raw error, credited error, log moment at lam) from one pass over the segments."""
    reject_nats = lam * len(code.reject) * LN2
    rejected = []
    forgiven = 0.0
    terms = []
    target = code.decoder_for_reject  # counted down until it lands in a segment
    for log_prob, count, gamma, bits in _segments(code.runs, dist):
        log_mass = log_prob + math.log(count)
        if gamma > 0.0:
            terms.append(log_mass + math.log(gamma) + lam * bits * LN2)
        if gamma < 1.0:
            rejected.append(math.exp(log_mass) * (1.0 - gamma))
            terms.append(log_mass + math.log1p(-gamma) + reject_nats)
        if target >= 0:
            if target < count and gamma < 1.0:
                forgiven = math.exp(log_prob) * (1.0 - gamma)
            target -= count
    if target >= 0:
        raise Misaligned(f"decode target {code.decoder_for_reject} is past the last symbol")
    raw = math.fsum(rejected)
    return raw, max(raw - forgiven, 0.0), logsumexp(terms)


def error_probability(code: StochasticCode, dist: Distribution) -> tuple[float, float]:
    """(raw, credited) error probability of the code on the distribution.

    Raw is the total rejected mass. Credited forgives the symbol the reject
    word decodes to, since that symbol survives decoding.
    """
    raw, credited, _ = _walk(code, dist, 0.0)
    return raw, credited


def exponential_moment(code: StochasticCode, dist: Distribution, lam: float) -> float:
    """E[exp(lam * codeword length in nats)], exact up to float rounding.

    Accumulated in the log domain so large tilts cannot overflow
    intermediate terms; a moment beyond float range reads inf.
    """
    check_lambda(lam)
    return _exp_or_inf(_walk(code, dist, lam)[2])


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
    The smoothing is the one dist keeps, so a code built at this eps and
    its bounds share it.
    """
    if not 0.0 <= eps <= 1.0:
        raise BadEpsilon("eps must be in [0, 1] for the moment bounds")
    if eps == 1.0:
        return -math.inf
    alpha = 1.0 / (1.0 + lam)
    # lam * H equals (1 + lam) * log r, since 1 - alpha = lam / (1 + lam). alpha
    # lies in (0, 1]: below lam = 2**-53 it rounds to 1, and log r is then the
    # log of the kept mass, the limit of lam * H as lam goes to 0
    return (1.0 + lam) * log_power_sum(optimal_smoothing(dist, eps), alpha)


def converse_bound(dist: Distribution, eps: float, lam: float) -> float:
    """Lower bound on the moment of any code with credited error within eps."""
    check_lambda(lam)
    return _exp_or_inf(_lambda_entropy(dist, eps, lam))


def direct_bound(dist: Distribution, eps: float, lam: float) -> float:
    """Achievable upper bound: 2**(2 lam) * exp(lam * H) + eps * 2**lam.

    Summed in the log domain, so a large lam gives inf rather than an error.
    """
    check_lambda(lam)
    return _exp_or_inf(_log_direct(_lambda_entropy(dist, eps, lam), eps, lam))


def _log_direct(lam_entropy: float, eps: float, lam: float) -> float:
    """log of the direct bound from lam_entropy, the log of the converse bound."""
    log_eps = math.log(eps) if eps > 0.0 else -math.inf
    return logsumexp([2.0 * lam * LN2 + lam_entropy, log_eps + lam * LN2])


def evaluate_code(
    code: StochasticCode, dist: Distribution, eps: float, lam: float
) -> CodeReport:
    """Evaluate a given code against the bounds at budget eps (no assertions)."""
    check_lambda(lam)
    raw, credited, log_moment = _walk(code, dist, lam)
    log_converse = _lambda_entropy(dist, eps, lam)
    return CodeReport(
        eps=eps,
        lam=lam,
        error_prob=credited,
        error_prob_raw=raw,
        log_exp_moment=log_moment,
        log_converse=log_converse,
        log_direct=_log_direct(log_converse, eps, lam),
    )


def sandwich_report(dist: Distribution, eps: float, lam: float) -> CodeReport:
    """Build the stochastic flag-bit code and verify it lands between the bounds.

    Raises SandwichViolated if the credited error exceeds eps or the exact
    moment escapes [converse, direct] beyond the relative SANDWICH_SLACK;
    either one would mean an implementation bug, not a property of the
    input. The moment and the bounds are compared as logs, so the check
    still holds where they overflow a float.
    """
    code = build_stochastic_code(dist, eps, lam)
    report = evaluate_code(code, dist, eps, lam)
    if report.error_prob > eps + 1e-12:
        raise SandwichViolated(f"credited error {report.error_prob} exceeds budget {eps}")
    low = report.log_converse + math.log1p(-SANDWICH_SLACK)
    high = report.log_direct + math.log1p(SANDWICH_SLACK)
    if not low <= report.log_exp_moment <= high:
        raise SandwichViolated(
            f"log moment {report.log_exp_moment} outside "
            f"[{report.log_converse}, {report.log_direct}] at eps={eps}, lambda={lam}"
        )
    return report
