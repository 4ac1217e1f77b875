"""Runs one workload's jobs in passes and checks every output.

    python3 perfbench/worker.py --inputs DIR --seconds S --trace 0|1
                                [--references FILE] [--spans FILE]

`run.py` starts this in a fresh interpreter after the workload's set-up has
written DIR. One caller issues each job only after the previous one returned
(a closed loop with one client). CLI jobs go through `smoothcode.cli.run(argv)`
with stdout captured, so argument parsing and JSON I/O are timed and
interpreter start-up is not. One untimed warm-up pass runs first. The last
line of stdout is a JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import time
import traceback
from collections import Counter
from pathlib import Path

from speed import Sampler
from tracing import CHECK, Patches, Recorder, layer_metrics, package_namespaces

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
REL_TOL, ABS_TOL = 1e-9, 1e-12  # headline values against their references
SLACK = 1e-9  # relative slack of the sandwich, as in smoothcode.sandwich_report
PATH_FLAGS = ("--dist", "--spec", "--code")


def import_smoothcode():
    """Import the package, refusing any copy but this checkout's src/."""
    import smoothcode
    import smoothcode.cli  # noqa: F401  (the package does not import its CLI)

    where = Path(smoothcode.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"smoothcode imported from {where}, not from {ROOT / 'src'}")
    return smoothcode


def prefix_free_and_kraft(words: list[str]) -> str | None:
    """None when the words form a prefix code; Kraft is checked in integers."""
    ordered = sorted(words)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return f"word {a!r} is a prefix of {b!r}"
    depth = max(map(len, words))
    used = sum(count << (depth - length) for length, count in Counter(map(len, words)).items())
    if used > 1 << depth:
        return f"Kraft sum {used}/2^{depth} exceeds 1"
    return None


class InlineChecks:
    """Checks on values a CLI job never prints: each type-class extension and
    each built code, verified where they are returned.

    The time spent checking is taken out of the job's latency and, when a
    recorder is active, kept as a span of its own so no layer is charged.
    """

    def __init__(self, pkg, namespaces_patch):
        self.pkg = pkg
        self.problems: list[str] = []
        self.spent = 0.0
        self.recorder = None
        self._patch = namespaces_patch

    def install(self) -> None:
        D, C = self.pkg.distributions, self.pkg.codes
        for mod, name, check in (
            (D, "iid_extension", self._extension),
            (D, "mixture_extension", self._extension),
            (C, "build_stochastic_code", self._code),
            (C, "build_deterministic_code", self._code),
        ):
            fn = getattr(mod, name)
            self._patch.replace(fn, self._checked(fn, check))

    def uninstall(self) -> None:
        self._patch.undo()

    def _checked(self, fn, check):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            start = time.perf_counter()
            problem = check(args, kwargs, result)
            end = time.perf_counter()
            self.spent += end - start
            if self.recorder is not None:
                self.recorder.add(CHECK, start, end)
            if problem:
                self.problems.append(f"{fn.__name__}: {problem}")
            return result

        return wrapper

    @staticmethod
    def _extension(args, kwargs, dist):
        source, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
        k = source.alphabet_size if hasattr(source, "alphabet_size") else source.support_size
        if dist.support_size != k**n:
            return f"support_size {dist.support_size} != {k}**{n}"
        return None

    @staticmethod
    def _code(args, kwargs, code):
        if not all(0.0 <= g <= 1.0 for g in code.gamma):
            return "acceptance probability outside [0, 1]"
        return prefix_free_and_kraft(["0" + w for w in code.inner.codewords] + [code.reject])


def _library_jobs(pkg):
    D, S, A, C, E, O = (
        pkg.distributions, pkg.smooth_renyi, pkg.asymptotics, pkg.codes, pkg.evaluation, pkg.oracle
    )

    def iid_entropy(probs, n, alpha, eps):
        dist = D.iid_extension(D.new_distribution(probs), n)
        return [S.smooth_renyi_entropy(dist, alpha, eps)]

    def all_layers():
        dist = D.new_distribution([0.5, 0.3, 0.2])
        spec = D.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
        rate = A.entropy_rate_series(spec, 0.5, 0.1, [16]).values()[0]
        mass = A.spectrum_probability(spec, A.SpectrumQuery(16, "ge", 0.5))
        report = E.sandwich_report(dist, 0.1, 1.0)
        code = C.codebook_from_json(C.codebook_to_json(C.build_deterministic_code(dist, 0.1, 1.0)))
        best = O.optimal_code_bruteforce(dist, 0.1, 1.0, max_len=3).best_moment
        search = O.smoothing_feasible_search(dist, 0.5, 0.1, trials=100, seed=0)
        return [rate, mass, report.exp_moment, report.converse_bound, report.direct_bound,
                len(code.inner.codewords), best, search]

    return {"iid_entropy": iid_entropy, "all_layers": all_layers}


class Runner:
    """Runs the job list of one input directory, pass by pass."""

    def __init__(self, pkg, inputs: Path, references: dict):
        self.pkg = pkg
        self.inputs = inputs
        self.references = references
        self.jobs = json.loads((inputs / "jobs.json").read_text())
        self.library = _library_jobs(pkg)
        self.recorder = Recorder(pkg)
        self.checks = InlineChecks(pkg, Patches(package_namespaces(pkg)))
        self.sampler = Sampler()
        self.last_spans: list[list] = []
        self.checks.install()

    def _argv(self, argv: list[str]) -> list[str]:
        return [
            str(self.inputs / tok) if i and argv[i - 1] in PATH_FLAGS else tok
            for i, tok in enumerate(argv)
        ]

    def run_job(self, job: dict):
        """(latency in s, speed factor or None, output or None, problems) of one job."""
        self.checks.problems, self.checks.spent = [], 0.0
        sampled, first = self.sampler.spent, len(self.sampler.samples)
        try:
            if "argv" in job:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    rc = self.pkg.cli.run(self._argv(job["argv"]))
                    end = time.perf_counter()
                result = out.getvalue()
                if rc != 0:
                    return end - start, None, None, [f"exit code {rc}: {err.getvalue().strip()}"]
                if "save" in job["check"]:
                    (self.inputs / job["check"]["save"]).write_text(result)
            else:
                start = time.perf_counter()
                result = self.library[job["call"]](**job["args"])
                end = time.perf_counter()
        except Exception:  # a job that raises is a failed job, not a stopped benchmark
            return 0.0, None, None, [traceback.format_exc(limit=3)]
        spent = self.checks.spent + self.sampler.spent - sampled
        factor = self.sampler.factor(first)
        return end - start - spent, factor, result, list(self.checks.problems)

    def run_pass(self, traced: bool) -> dict:
        """One pass over the job list; outputs are checked after the pass ends."""
        if traced:
            self.recorder.clear()
            self._trace(True)
        self.sampler.start()
        raw = []
        try:
            for i, job in enumerate(self.jobs):
                self.recorder.job = i
                raw.append(self.run_job(job))
        finally:
            self.sampler.stop()
            if traced:
                self._trace(False)
        pass_factor = self.sampler.factor()
        latencies, scales, failures, out_bytes = [], [], [], 0
        for job, (latency, factor, result, problems) in zip(self.jobs, raw):
            if result is not None and not problems:
                try:
                    problems, headline = self.check_output(job, result)
                except (ValueError, KeyError, TypeError) as exc:  # malformed output
                    problems, headline = [f"output check raised {exc!r}"], None
                if job["ref"] is not None and headline is not None:
                    problems += self._against_reference(job["ref"], headline)
            if isinstance(result, str):
                out_bytes += len(result.encode())
            latencies.append(latency)
            scales.append(factor or pass_factor)
            if problems:
                failures.append(f"{' '.join(job.get('argv') or [job['call']])}: {'; '.join(problems)}")
        summary = {"latencies": latencies, "scales": scales, "failures": failures}
        if traced:
            summary["layers"] = layer_metrics(self.recorder.spans, math.fsum(latencies), out_bytes)
            self.last_spans = self.recorder.spans[:]
            self.recorder.clear()
        return summary

    def _trace(self, on: bool) -> None:
        """Install or remove the span wrappers, always beneath the check wrappers,
        so that checking never counts as time of the function checked."""
        self.checks.uninstall()
        (self.recorder.install if on else self.recorder.uninstall)()
        self.checks.install()
        self.checks.recorder = self.recorder if on else None

    # output checks --------------------------------------------------------

    def _dist(self, job):
        return self.pkg.distributions.distribution_from_json(
            json.loads((self.inputs / job["check"]["dist"]).read_text())
        )

    def check_output(self, job: dict, result) -> tuple[list[str], list[float]]:
        """Problems with a job's output, and its headline values."""
        if "argv" not in job:
            return (self._check_all_layers(result) if job["call"] == "all_layers" else []), result
        sub = job["argv"][0]
        if sub == "oracle" and "--mode" in job["argv"]:
            sub = "smoothing"
        return getattr(self, f"_check_{sub}")(job, json.loads(result))

    def _against_reference(self, key: str, headline: list) -> list[str]:
        expected = self.references.get(key)
        if expected is None:
            return [f"no recorded reference for {key!r}"]
        if len(expected) != len(headline) or not all(
            math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL) for a, b in zip(headline, expected)
        ):
            return [f"headline {headline} != reference {expected}"]
        return []

    def _sandwich(self, report: dict, eps: float) -> list[str]:
        problems = []
        if not report["error_prob"] <= eps + 1e-12:
            problems.append(f"credited error {report['error_prob']} > eps {eps}")
        if not (report["converse_bound"] * (1 - SLACK) <= report["exp_moment"]
                <= report["direct_bound"] * (1 + SLACK)):
            problems.append(f"moment {report['exp_moment']} outside "
                            f"[{report['converse_bound']}, {report['direct_bound']}]")
        return problems

    def _report_headline(self, report: dict) -> list[float]:
        return [report[k] for k in ("error_prob", "error_prob_raw", "exp_moment",
                                    "converse_bound", "direct_bound")]

    def _check_evaluate(self, job, payload):
        c = job["check"]
        if c["mode"] == "stochastic":
            return self._sandwich(payload, c["eps"]), self._report_headline(payload)
        # the all-or-nothing code drops the boundary symbol as well, so its raw
        # error is eps + gamma_eps and the bounds hold at that budget
        E, dist = self.pkg.evaluation, self._dist(job)
        target = c["eps"] + self.pkg.smooth_renyi.optimal_smoothing(dist, c["eps"]).gamma_eps
        problems = []
        if not math.isclose(payload["error_prob_raw"], target, rel_tol=0.0, abs_tol=1e-9):
            problems.append(f"raw error {payload['error_prob_raw']} != eps + gamma_eps {target}")
        if not payload["error_prob"] <= payload["error_prob_raw"] + 1e-12:
            problems.append("credited error above raw error")
        budget = min(target, 1.0)
        lo = E.converse_bound(dist, budget, c["lam"]) * (1 - SLACK)
        hi = E.direct_bound(dist, budget, c["lam"]) * (1 + SLACK) + 1e-12
        if not lo <= payload["exp_moment"] <= hi:
            problems.append(f"moment {payload['exp_moment']} outside [{lo}, {hi}] at eps + gamma_eps")
        return problems, self._report_headline(payload)

    def _check_sweep(self, job, payload):
        problems, headline = [], []
        for report in payload["reports"]:
            problems += self._sandwich(report, report["eps"])
            headline += self._report_headline(report)
        return problems, headline

    def _check_code(self, job, payload):
        entries = payload["entries"]
        words = [e["codeword"] for e in entries if e["codeword"] is not None]
        support = self._dist(job).support_size
        problems = [] if len(entries) == support else [f"{len(entries)} entries for {support} symbols"]
        if not all(0.0 <= e["gamma"] <= 1.0 for e in entries):
            problems.append("acceptance probability outside [0, 1]")
        problem = prefix_free_and_kraft(words + [payload["reject"]])
        if problem:
            problems.append(problem)
        bits = sum(map(len, words))
        return problems, [len(entries), len(words), bits, payload["decoder_for_reject"]]

    def _check_oracle(self, job, payload):
        c = job["check"]
        converse = self.pkg.evaluation.converse_bound(self._dist(job), c["eps"], c["lam"])
        problems = []
        if not payload["best_moment"] >= converse * (1 - SLACK):
            problems.append(f"brute-force moment {payload['best_moment']} below converse {converse}")
        problem = prefix_free_and_kraft(list(set(payload["encoder"])))
        if problem:
            problems.append(problem)
        return problems, [payload["best_moment"], payload["search_space_size"]]

    def _check_smoothing(self, job, payload):
        c = job["check"]
        r = self.pkg.smooth_renyi.r_alpha_eps(self._dist(job), c["alpha"], c["eps"])
        problems = []
        if not payload["best_power_sum"] >= r - 1e-12:
            problems.append(f"random search {payload['best_power_sum']} below r_alpha_eps {r}")
        return problems, [payload["best_power_sum"]]

    def _check_entropy(self, job, payload):
        c = job["check"]
        probs = json.loads((self.inputs / c["dist"]).read_text())["probs"]
        entropy, k_star = reference_entropy(probs, c["alpha"], c["eps"])
        problems = []
        if not math.isclose(payload["entropy"], entropy, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"entropy {payload['entropy']} != reference {entropy}")
        if payload["k_star"] != k_star:
            problems.append(f"k_star {payload['k_star']} != reference {k_star}")
        if not math.isclose(payload["smooth_max_entropy"], math.log(k_star), abs_tol=ABS_TOL):
            problems.append("smooth max entropy is not log k_star")
        return problems, [payload["entropy"], payload["smooth_max_entropy"], payload["k_star"]]

    def _check_mixture(self, job, payload):
        argv = job["argv"]
        n_list = [int(tok) for tok in argv[argv.index("--n-list") + 1].split(",")]
        values = [e["value"] for e in payload["entries"]]
        problems = []
        if [e["n"] for e in payload["entries"]] != n_list:
            problems.append("series blocklengths differ from --n-list")
        if not all(math.isfinite(v) and v > 0.0 for v in values):
            problems.append(f"non-finite or non-positive rate in {values}")
        return problems, [payload["limit"]] + values

    def _check_spectrum(self, job, payload):
        p = payload["probability"]
        problems = [] if 0.0 <= p <= 1.0 + 1e-12 else [f"spectrum mass {p} outside [0, 1]"]
        return problems, [p]

    def _check_all_layers(self, values):
        rate, mass, moment, converse, direct, _, best, search = values
        dist = self.pkg.distributions.new_distribution([0.5, 0.3, 0.2])
        problems = []
        if not 0.0 <= mass <= 1.0 + 1e-12:
            problems.append(f"spectrum mass {mass} outside [0, 1]")
        if not converse * (1 - SLACK) <= moment <= direct * (1 + SLACK):
            problems.append("sandwich violated")
        if not best >= self.pkg.evaluation.converse_bound(dist, 0.1, 1.0) * (1 - SLACK):
            problems.append("brute force below converse")
        if not search >= self.pkg.smooth_renyi.r_alpha_eps(dist, 0.5, 0.1) - 1e-12:
            problems.append("random search below r_alpha_eps")
        return problems


def reference_entropy(probs: list[float], alpha: float, eps: float) -> tuple[float, int]:
    """Smooth Renyi entropy and k_star by the plain definition, independent of
    the package: keep the largest probabilities until 1 - eps is covered, clip
    the last one kept to the mass still missing."""
    target, kept = 1.0 - eps, []
    for p in sorted(probs, reverse=True):
        if math.fsum(kept) + p >= target:
            kept.append(target - math.fsum(kept))
            break
        kept.append(p)
    return math.log(math.fsum(q**alpha for q in kept)) / (1.0 - alpha), len(kept)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=HERE / "references.json")
    parser.add_argument("--spans", type=Path, default=None,
                        help="write the last traced pass's spans here, one JSON list each")
    args = parser.parse_args()

    pkg = import_smoothcode()
    runner = Runner(pkg, args.inputs, json.loads(args.references.read_text()))
    warmup = runner.run_pass(traced=False)
    # peak memory of one pass: later passes only add allocator drift, and how
    # many passes fit in the run depends on the machine's speed
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes, traced = [], []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < args.seconds:
        passes.append(runner.run_pass(traced=False))
        if args.trace:
            traced.append(runner.run_pass(traced=True))
    everything = [warmup] + passes + traced
    out = {
        "latencies": [p["latencies"] for p in passes],
        "scales": [p["scales"] for p in passes],
        "traced_latencies": [p["latencies"] for p in traced],
        "traced_scales": [p["scales"] for p in traced],
        "attempted": len(runner.jobs) * len(everything),
        "failures": [f for p in everything for f in p["failures"]],
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "layers": [p["layers"] for p in traced],
    }
    if args.spans is not None:
        with open(args.spans, "w", encoding="utf-8") as f:
            for span in runner.last_spans:
                f.write(json.dumps(span) + "\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
