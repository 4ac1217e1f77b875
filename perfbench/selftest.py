"""Self-test of the benchmark, at toy size.

    python3 -m pytest perfbench/selftest.py

Each workload prints every metric with its unit, in both modes; traced spans
nest inside their parents and carry their job; a wrong reference value shows
up as failed jobs; and without the program's source the benchmark exits
non-zero and prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from run import UNITS, WORKLOADS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def bench(workload, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "toy", *extra],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def printed(lines):
    """name -> (value, unit) of every metric line of the report."""
    out = {}
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and fields[0] in UNITS.keys() | PER_LAYER.keys():
            out[fields[0]] = (float(fields[1]), fields[2])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    shown = printed(report)
    assert UNITS == {name: shown[name][1] for name in UNITS}
    if trace:
        assert {name: spec[0] for name, spec in PER_LAYER.items()} == {
            name: shown[name][1] for name in PER_LAYER
        }


def test_spans_nest_and_name_their_job():
    WORK.mkdir(exist_ok=True)
    path = WORK / "spans.jsonl"
    try:
        proc = bench("product_codes", 1, "--spans", str(path))
        spans = [json.loads(line) for line in path.read_text().splitlines()]
    finally:
        path.unlink(missing_ok=True)
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in spans}
    assert {"cli.run", "distributions.Distribution.probabilities"} <= names
    # the copy of build_stochastic_code that evaluation imported is wrapped too
    assert any(name == "codes.build_stochastic_code"
               and spans[parent][0] == "evaluation.sandwich_report"
               for name, _, _, parent, _, _ in spans)
    for name, start, end, parent, job, _ in spans:
        assert start <= end and job is not None
        if parent >= 0:
            p_start, p_end, p_job = spans[parent][1], spans[parent][2], spans[parent][4]
            assert p_start <= start <= end <= p_end and p_job == job


def test_wrong_reference_counts_as_failure():
    refs = json.loads((HERE / "references.json").read_text())
    for key, values in refs.items():
        if key.startswith("mixture --spec mix2.json"):
            values[-1] *= 1.001
    WORK.mkdir(exist_ok=True)
    wrong = WORK / "wrong-references.json"
    wrong.write_text(json.dumps(refs))
    try:
        proc = bench("mixture_series", 0, "--references", str(wrong))
    finally:
        wrong.unlink()
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert not result["correct"] and result["failed"] > 0
    assert printed(report)["failed_frac"][0] > 0


def test_without_the_program_it_fails_without_a_result():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("small_many", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
