import dataclasses
import math

import numpy as np
import pytest

import smoothcode as sc
from smoothcode import evaluation
from smoothcode.codes import CodeRun

WORKED = [0.5, 0.3, 0.2]
R_WORKED = math.sqrt(0.5) + math.sqrt(0.3) + math.sqrt(0.1)


def test_worked_instance_report():
    dist = sc.new_distribution(WORKED)
    code = sc.build_stochastic_code(dist, 0.1, 1.0)

    raw, credited = sc.error_probability(code, dist)
    assert raw == pytest.approx(0.1, abs=1e-12)
    assert credited == pytest.approx(0.0, abs=1e-12)

    # lengths with flag are (3, 3, 4); boundary symbol accepted half the time
    expected_moment = 0.5 * 8 + 0.3 * 8 + 0.2 * (0.5 * 16 + 0.5 * 2)
    assert expected_moment == pytest.approx(8.2, abs=1e-12)
    assert sc.exponential_moment(code, dist, 1.0) == pytest.approx(8.2, abs=1e-9)

    # converse exp(H) = r**2 at lambda=1; direct adds the 4x overhead and eps term
    assert sc.converse_bound(dist, 0.1, 1.0) == pytest.approx(R_WORKED**2, abs=1e-9)
    assert sc.direct_bound(dist, 0.1, 1.0) == pytest.approx(
        4.0 * R_WORKED**2 + 0.2, abs=1e-9
    )

    report = sc.sandwich_report(dist, 0.1, 1.0)
    assert report.exp_moment == pytest.approx(8.2, abs=1e-9)
    assert report.error_prob_raw == pytest.approx(0.1, abs=1e-12)
    assert report.error_prob == pytest.approx(0.0, abs=1e-12)


def test_error_probability_all_accepted():
    uniform = sc.new_distribution([0.25] * 4)
    code = sc.build_stochastic_code(uniform, 0.0, 1.0)
    raw, credited = sc.error_probability(code, uniform)
    assert raw <= 1e-12
    assert credited == 0.0


def test_moment_examples():
    uniform = sc.new_distribution([0.25] * 4)
    code1 = sc.build_stochastic_code(uniform, 0.0, 1.0)
    assert sc.exponential_moment(code1, uniform, 1.0) == pytest.approx(8.0, abs=1e-9)
    code2 = sc.build_stochastic_code(uniform, 0.0, 2.0)
    assert sc.exponential_moment(code2, uniform, 2.0) == pytest.approx(64.0, abs=1e-9)

    point = sc.new_distribution([1.0])
    for lam in (0.5, 1.0, 2.0):
        code = sc.build_stochastic_code(point, 0.0, lam)
        assert sc.exponential_moment(code, point, lam) == pytest.approx(
            2.0**lam, abs=1e-12
        )


def test_moment_matches_linear_summation():
    # log-domain accumulation agrees with a plain bits-based sum to 1e-12 relative
    rng = np.random.default_rng(59)
    for _ in range(25):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        eps = float(rng.uniform(0.0, 0.5))
        lam = float(rng.uniform(0.2, 3.0))
        code = sc.build_stochastic_code(dist, eps, lam)
        probs = dist.probabilities()
        direct_sum = math.fsum(
            p
            * (
                g * 2.0 ** (lam * code.accept_length_bits(i))
                + (1.0 - g) * 2.0 ** (lam * len(code.reject))
            )
            if g > 0.0
            else p * 2.0 ** (lam * len(code.reject))
            for i, (p, g) in enumerate(zip(probs, code.gamma))
        )
        got = sc.exponential_moment(code, dist, lam)
        assert got == pytest.approx(direct_sum, rel=1e-12)


def test_moment_is_monotone_in_lambda_for_fixed_code():
    dist = sc.new_distribution(WORKED)
    code = sc.build_stochastic_code(dist, 0.1, 1.0)
    values = [sc.exponential_moment(code, dist, lam) for lam in (0.3, 0.7, 1.0, 2.0, 4.0)]
    for a, b in zip(values, values[1:]):
        assert b > a


def test_bounds_nonincreasing_in_eps():
    rng = np.random.default_rng(61)
    eps_grid = [0.0, 0.05, 0.1, 0.3, 0.6, 0.9]
    for _ in range(20):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        lam = float(rng.uniform(0.2, 3.0))
        conv = [sc.converse_bound(dist, e, lam) for e in eps_grid]
        for a, b in zip(conv, conv[1:]):
            assert b <= a + 1e-12


def test_bounds_at_closed_endpoint():
    dist = sc.new_distribution(WORKED)
    assert sc.converse_bound(dist, 1.0, 1.0) == 0.0
    assert sc.direct_bound(dist, 1.0, 1.0) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(sc.BadEpsilon):
        sc.converse_bound(dist, 1.1, 1.0)
    with pytest.raises(sc.BadEpsilon):
        sc.direct_bound(dist, -0.1, 1.0)
    with pytest.raises(sc.BadLambda):
        sc.direct_bound(dist, 0.1, 0.0)


def test_misaligned_code_and_distribution():
    code = sc.build_stochastic_code(sc.new_distribution(WORKED), 0.1, 1.0)
    other = sc.new_distribution([0.5, 0.5])
    with pytest.raises(sc.Misaligned):
        sc.error_probability(code, other)
    with pytest.raises(sc.Misaligned):
        sc.exponential_moment(code, other, 1.0)


def test_sandwich_examples():
    uniform = sc.new_distribution([0.25] * 4)
    report = sc.sandwich_report(uniform, 0.0, 1.0)
    assert report.converse_bound == pytest.approx(4.0, abs=1e-9)
    assert report.exp_moment == pytest.approx(8.0, abs=1e-9)
    assert report.direct_bound == pytest.approx(16.0, abs=1e-9)

    point = sc.new_distribution([1.0])
    report = sc.sandwich_report(point, 0.0, 1.0)
    assert report.converse_bound == pytest.approx(1.0, abs=1e-12)
    assert report.exp_moment == pytest.approx(2.0, abs=1e-12)
    assert report.direct_bound == pytest.approx(4.0, abs=1e-12)


def test_deterministic_error_and_direct_bound():
    rng = np.random.default_rng(67)
    for _ in range(30):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        eps = float(rng.uniform(0.0, 0.5))
        lam = float(rng.uniform(0.2, 3.0))
        sub = sc.optimal_smoothing(dist, eps)
        det = sc.build_deterministic_code(dist, eps, lam)
        raw, credited = sc.error_probability(det, dist)
        assert raw == pytest.approx(eps + sub.gamma_eps, abs=1e-12)
        assert credited <= raw
        moment = sc.exponential_moment(det, dist, lam)
        bound = sc.direct_bound(dist, min(eps + sub.gamma_eps, 1.0), lam)
        assert moment <= bound * (1.0 + 1e-9) + 1e-12


def test_evaluate_code_report_fields():
    dist = sc.new_distribution(WORKED)
    code = sc.build_stochastic_code(dist, 0.1, 1.0)
    report = sc.evaluate_code(code, dist, 0.1, 1.0)
    d = report.to_json_dict()
    assert set(d) == {
        "eps",
        "lambda",
        "error_prob",
        "error_prob_raw",
        "exp_moment",
        "converse_bound",
        "direct_bound",
        "log_exp_moment",
        "log_converse",
        "log_direct",
    }
    assert d["lambda"] == 1.0
    assert d["exp_moment"] == report.exp_moment == math.exp(d["log_exp_moment"])


def test_stochastic_moment_between_bounds_on_random_grid():
    rng = np.random.default_rng(71)
    for _ in range(40):
        s = int(rng.integers(2, 9))
        dist = sc.new_distribution(rng.dirichlet(np.ones(s)))
        for lam in (0.5, 1.0, 2.0):
            for eps in (0.0, 0.1, 0.3):
                report = sc.sandwich_report(dist, eps, lam)
                assert report.error_prob <= eps + 1e-12
                lo = report.converse_bound * (1 - 1e-9)
                hi = report.direct_bound * (1 + 1e-9)
                assert lo <= report.exp_moment <= hi


def test_moment_and_bounds_beyond_float_range():
    dist = sc.new_distribution(WORKED)
    code = sc.build_stochastic_code(dist, 0.1, 2000.0)
    assert sc.exponential_moment(code, dist, 2000.0) == math.inf
    assert sc.converse_bound(dist, 0.1, 2000.0) == math.inf
    assert sc.direct_bound(dist, 0.1, 2000.0) == math.inf
    # 2**(2 lam) overflows on its own, but the bound is eps * 2**lam here
    assert sc.direct_bound(dist, 1.0, 600.0) == pytest.approx(2.0**600, rel=1e-12)


def per_symbol_error_and_moment(code, dist, lam):
    """(raw, credited, moment) summed symbol by symbol with fsum."""
    probs = dist.probabilities()
    rejected = [p * (1.0 - g) for p, g in zip(probs, code.gamma)]
    raw = math.fsum(rejected)
    reject_weight = 2.0 ** (lam * len(code.reject))
    moment = math.fsum(
        p * (g * 2.0 ** (lam * code.accept_length_bits(i)) if g > 0.0 else 0.0)
        + p * (1.0 - g) * reject_weight
        for i, (p, g) in enumerate(zip(probs, code.gamma))
    )
    return raw, raw - rejected[code.decoder_for_reject], moment


def test_level_sums_match_per_symbol_sums():
    rng = np.random.default_rng(79)
    sources = [sc.new_distribution(rng.dirichlet(np.ones(int(rng.integers(2, 9))))) for _ in range(15)]
    sources += [
        sc.new_distribution([0.3, 0.2, 0.2, 0.1, 0.1, 0.1]),
        sc.iid_extension(sc.new_distribution(WORKED), 8),
    ]
    for dist in sources:
        for eps, lam in ((0.0, 1.0), (0.05, 0.5), (0.2, 2.0), (0.5, 1.0)):
            for build in (sc.build_stochastic_code, sc.build_deterministic_code):
                code = build(dist, eps, lam)
                raw, credited, moment = per_symbol_error_and_moment(code, dist, lam)
                got_raw, got_credited = sc.error_probability(code, dist)
                assert got_raw == pytest.approx(raw, rel=1e-12)
                # credited = raw - forgiven can cancel, so measure it against raw
                assert abs(got_credited - max(credited, 0.0)) <= 1e-12 * raw
                assert sc.exponential_moment(code, dist, lam) == pytest.approx(moment, rel=1e-12)


def test_credited_error_forgives_the_decode_target_wherever_it_lands():
    # levels of 1, 3 and 2 symbols; the codes cut them into segments of one
    # to three symbols, so the target lands on a segment's first, middle and
    # last symbol and on the last symbol of the source, and in a surely
    # accepted segment right after a rejected one
    dist = sc.new_distribution([0.3, 0.15, 0.15, 0.15, 0.125, 0.125])
    layouts = [
        ((1, 1.0, 2), (3, 0.5, 4), (2, 0.0, None)),
        ((2, 0.75, 3), (4, 0.0, None)),
        ((2, 0.5, 3), (1, 1.0, 3), (3, 0.0, None)),
        ((6, 0.0, None),),
    ]
    for layout in layouts:
        runs = tuple(CodeRun(*r) for r in layout)
        for target in range(dist.support_size):
            code = sc.StochasticCode(runs=runs, decoder_for_reject=target)
            raw, credited, moment = per_symbol_error_and_moment(code, dist, 1.0)
            got_raw, got_credited = sc.error_probability(code, dist)
            assert got_raw == pytest.approx(raw, rel=1e-12)
            assert abs(got_credited - max(credited, 0.0)) <= 1e-12 * raw, (layout, target)


def test_gamma_without_a_codeword_names_its_first_symbol():
    for runs, first in (
        (((1, 1.0, 2), (5, 0.5, None)), 1),
        (((1, 1.0, 2), (3, 1.0, 4), (2, 0.5, None)), 4),
    ):
        # the code record raises at construction, before any evaluation
        with pytest.raises(
            sc.Misaligned, match=f"^symbol {first} has gamma > 0 but no codeword$"
        ):
            sc.StochasticCode(runs=tuple(CodeRun(*r) for r in runs), decoder_for_reject=0)


def test_built_and_read_codes_evaluate_alike():
    for dist in (
        sc.new_distribution(WORKED),
        sc.new_distribution([0.25] * 4),
        sc.iid_extension(sc.new_distribution(WORKED), 6),
    ):
        for eps, lam in ((0.0, 1.0), (0.1, 0.5), (0.3, 2.0)):
            for build in (sc.build_stochastic_code, sc.build_deterministic_code):
                code = build(dist, eps, lam)
                clone = sc.codebook_from_json(sc.codebook_to_json(code))
                assert sc.evaluate_code(clone, dist, eps, lam) == sc.evaluate_code(
                    code, dist, eps, lam
                )


def test_sandwich_on_a_mixture_beyond_the_cap():
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    dist = sc.mixture_extension(spec, 1024)
    assert dist.support_size == 2**1024
    for eps in (0.1, 0.3, 0.7):
        report = sc.sandwich_report(dist, eps, 1.0)
        assert report.error_prob <= eps + 1e-12
        assert report.converse_bound <= report.exp_moment <= report.direct_bound


def test_sandwich_compares_logs_beyond_float_range(monkeypatch):
    dist = sc.new_distribution(WORKED)
    report = sc.sandwich_report(dist, 0.1, 600.0)
    assert report.exp_moment == math.inf and report.direct_bound == math.inf

    walk = evaluation._walk

    def above_direct(code, dist, lam):
        raw, credited, _ = walk(code, dist, lam)
        log_direct = evaluation._log_direct(evaluation._lambda_entropy(dist, 0.1, lam), 0.1, lam)
        return raw, credited, log_direct + 1.0

    monkeypatch.setattr(evaluation, "_walk", above_direct)
    with pytest.raises(sc.SandwichViolated):
        sc.sandwich_report(dist, 0.1, 600.0)


def test_sandwich_keeps_the_logs_past_float_range():
    # ROADMAP item 2's n=4096 row: moment, converse and direct bound per letter
    # of the k=2 mixture at eps 0.3, lambda 1, all about exp(2838) as floats
    n = 4096
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    report = sc.sandwich_report(sc.mixture_extension(spec, n), 0.3, 1.0)
    logs = (report.log_converse, report.log_exp_moment, report.log_direct)
    assert [x / n for x in logs] == pytest.approx([0.69268, 0.69285, 0.69302], abs=1e-5)
    assert logs[0] <= logs[1] <= logs[2]
    assert report.exp_moment == report.converse_bound == report.direct_bound == math.inf


def test_a_decode_target_outside_the_code_is_refused():
    # the built code forgives its target 2; a target past the last symbol
    # forgives nothing and a negative one is no symbol, so neither is scored
    dist = sc.new_distribution(WORKED)
    code = sc.build_stochastic_code(dist, 0.1, 1.0)
    assert code.decoder_for_reject == 2
    assert sc.error_probability(code, dist) == pytest.approx((0.1, 0.0), abs=1e-15)
    for target in (3, 4, 2**70):
        past = dataclasses.replace(code, decoder_for_reject=target)
        message = f"^decode target {target} is past the last symbol$"
        with pytest.raises(sc.Misaligned, match=message):
            sc.error_probability(past, dist)
        with pytest.raises(sc.Misaligned):
            sc.evaluate_code(past, dist, 0.1, 1.0)
    for target in (-1, -(2**70)):
        with pytest.raises(ValueError, match="^decoder_for_reject must be >= 0$"):
            dataclasses.replace(code, decoder_for_reject=target)


def test_the_bounds_take_no_eps_above_1():
    # the closed endpoint is 1 exactly, not 1 within a tolerance
    dist = sc.new_distribution(WORKED)
    message = r"^eps must be in \[0, 1\] for the moment bounds$"
    for eps in (math.nextafter(1.0, 2.0), 1.0000000000005, math.nan):
        for bound in (sc.converse_bound, sc.direct_bound):
            with pytest.raises(sc.BadEpsilon, match=message):
                bound(dist, eps, 1.0)
