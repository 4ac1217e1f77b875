"""smoothcode's benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists): mixture_series,
product_codes, small_many. The program is the checkout's own src/smoothcode.

Set-up runs several times, each in a fresh interpreter that imports
smoothcode (numpy included) and writes the workload's input files;
`setup_s` is the median. The jobs then run in one more fresh interpreter
(worker.py): an untimed warm-up pass, then timed passes for S seconds. With
--trace 1 every timed pass is followed by a traced one, and the per-layer
metrics are the medians over the traced passes.

Times are scaled to a reference machine speed (see speed.py); the raw times
are printed beside them. Every metric is printed with its unit, then the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. `failed_frac` is
printed but is not in that object: it is 0 on a correct program, so no
relative bound can hold it; `failed` and `attempted` carry it instead.

The self-test is `python3 -m pytest perfbench/selftest.py`. After a change
that alters a headline value on purpose, `python3 perfbench/make_references.py`
records the references again.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # timed set-ups per run; setup_s is their median
# every child process is killed once the run has taken this long, so a hung
# job cannot keep the benchmark past its 180 s limit
RUN_LIMIT_S = 170
WORKLOADS = ("mixture_series", "product_codes", "small_many")
UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_p95_ms": "ms",
         "peak_rss_mb": "MB", "failed_frac": "ratio"}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "SMOOTHCODE_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run(argv: list[str], deadline: float) -> str:
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0),
                          env=_child_env(), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup(workload: str, seed: int, size: str, out: Path, deadline: float) -> tuple[float, float]:
    """Seconds one fresh interpreter takes to import smoothcode and write the
    inputs, and the speed scale factor sampled here while it ran."""
    sampler = Sampler()
    sampler.start()
    start = time.perf_counter()
    try:
        _run([sys.executable, str(HERE / "setup_inputs.py"), workload, str(seed), size,
              str(out)], deadline)
    finally:
        took = time.perf_counter() - start
        sampler.stop()
    return took, sampler.factor()


def scale(passes: list[list[float]], factors: list[list[float]]) -> list[list[float]]:
    """Each job latency times its speed factor (see speed.py)."""
    return [[t * k for t, k in zip(p, ks)] for p, ks in zip(passes, factors)]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile of the values."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main() -> int:
    parser = argparse.ArgumentParser(description="smoothcode benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input, for the self-test")
    parser.add_argument("--references", default=str(HERE / "references.json"))
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the last traced pass's spans to this file")
    args = parser.parse_args()

    # on SIGTERM, unwind so subprocess.run kills its child and the inputs go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "smoothcode" / "__init__.py").is_file():
        print(f"error: no smoothcode package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        # the first set-up compiles bytecode; users pay that once, so it is untimed
        setup(args.workload, args.seed, args.size, work, deadline)
        setup_times = [setup(args.workload, args.seed, args.size, work, deadline)
                       for _ in range(SETUPS)]
        measured = json.loads(_run(
            [sys.executable, str(HERE / "worker.py"), "--inputs", str(work),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--references", args.references,
             *(["--spans", str(Path(args.spans).resolve())] if args.spans else [])],
            deadline,
        ).splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(measured["failures"])
    passes = measured["latencies"]  # one list of job latencies per timed pass
    samples = sum(map(len, passes))
    scaled_passes = scale(passes, measured["scales"])

    def median_over_passes(stat):
        """(raw, scaled) median over the timed passes of a per-pass statistic."""
        return (statistics.median(map(stat, passes)),
                statistics.median(map(stat, scaled_passes)))

    # per-pass percentiles, then their median: a pooled percentile would fall
    # between two kinds of job whenever the number of passes changes its rank
    wall = median_over_passes(math.fsum)
    p50 = median_over_passes(lambda p: 1e3 * percentile(p, 0.50))
    p95 = median_over_passes(lambda p: 1e3 * percentile(p, 0.95))
    setup_raw = statistics.median(t for t, _ in setup_times)
    e2e = {
        "setup_s": statistics.median(t * k for t, k in setup_times),
        "wall_s": wall[1],
        "job_p50_ms": p50[1],
        "job_p95_ms": p95[1],
        "peak_rss_mb": measured["peak_rss_mb"],
        "failed_frac": failed / measured["attempted"],
    }
    notes = {
        "setup_s": f"median of {SETUPS} set-ups; raw {setup_raw:.4g}",
        "wall_s": f"median of {len(passes)} passes of {len(passes[0])} jobs; "
                  f"raw {wall[0]:.4g}",
        "job_p50_ms": f"median over passes; {samples} samples; raw {p50[0]:.4g}",
        "job_p95_ms": f"median over passes; {samples} samples, "
                      f"{sum(t > p95[0] / 1e3 for p in passes for t in p)} beyond; raw {p95[0]:.4g}",
        "peak_rss_mb": "worker process, through its first pass",
        "failed_frac": f"{failed} of {measured['attempted']} jobs",
    }
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    for name, value in e2e.items():
        print(f"  {name:32s} {value:14.6g} {UNITS[name]:6s} {notes[name]}")
    for failure in measured["failures"][:10]:
        print(f"  FAILED {failure}")

    if args.trace:
        from tracing import PER_LAYER

        traced = measured["layers"]
        layers = {name: statistics.median_low(p[name] for p in traced) for name in traced[0]}
        traced_wall = statistics.median(
            map(math.fsum, scale(measured["traced_latencies"], measured["traced_scales"]))
        )
        layers["trace.overhead_frac"] = traced_wall / wall[1] - 1.0
        print(f"  per-layer medians of {len(traced)} traced passes (raw times):")
        for name, (unit, _, moves) in PER_LAYER.items():
            print(f"  {name:32s} {layers[name]:14.6g} {unit:6s} -> {moves}")
        chosen = {m["name"]: (layers[m["name"]], m["unit"]) for m in declared["per_layer"]}
    else:
        chosen = {m["name"]: (e2e[m["name"]], m["unit"]) for m in declared["end_to_end"]}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": measured["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
