import argparse
import contextlib
import copy
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothcode as sc
from smoothcode import cli, codes, smooth_renyi

WORKED = {"probs": [0.5, 0.3, 0.2]}
MIXTURE = {
    "components": [
        {"weight": 0.6, "probs": [0.5, 0.5]},
        {"weight": 0.4, "probs": [0.89, 0.11]},
    ]
}


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps(WORKED))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps(MIXTURE))
    return str(path)


def run_cli(capsys, argv):
    rc = cli.run(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_entropy_json_output(capsys, dist_file):
    rc, out, err = run_cli(
        capsys, ["entropy", "--dist", dist_file, "--alpha", "0.5", "--eps", "0.1"]
    )
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["entropy"] == pytest.approx(0.9034974157725816, abs=1e-9)
    assert payload["smooth_max_entropy"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert payload["r_alpha_eps"] == pytest.approx(1.5710571047085515, abs=1e-12)
    assert payload["k_star"] == 3
    assert payload["gamma_eps"] == pytest.approx(0.1, abs=1e-12)
    assert payload["unit"] == "nats"


def test_entropy_bits_unit(capsys, dist_file):
    base = ["entropy", "--dist", dist_file, "--alpha", "0.5", "--eps", "0.1"]
    rc, out, _ = run_cli(capsys, base)
    nats = json.loads(out)
    rc, out, _ = run_cli(capsys, base + ["--unit", "bits"])
    bits = json.loads(out)
    assert bits["unit"] == "bits"
    for key in ("entropy", "smooth_max_entropy"):
        assert bits[key] == pytest.approx(nats[key] / math.log(2.0), rel=1e-15)
    # the power sum itself is unitless and must not be rescaled
    assert bits["r_alpha_eps"] == nats["r_alpha_eps"]


def test_entropy_accepts_atom_format(capsys, tmp_path, dist_file):
    atoms = {
        "atoms": [
            {"log_prob": math.log(p), "multiplicity": 1} for p in WORKED["probs"]
        ],
        "n": 1,
    }
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(atoms))
    args = ["entropy", "--alpha", "0.5", "--eps", "0.1"]
    rc, out_a, _ = run_cli(capsys, args + ["--dist", str(path)])
    rc_b, out_b, _ = run_cli(capsys, args + ["--dist", dist_file])
    assert rc == rc_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["entropy"] == pytest.approx(b["entropy"], abs=1e-12)
    assert a["k_star"] == b["k_star"]


@pytest.mark.parametrize(
    "described, library",
    [
        ({**WORKED, "n": 10}, lambda: sc.iid_extension(sc.new_distribution(WORKED["probs"]), 10)),
        ({**MIXTURE, "n": 300},
         lambda: sc.mixture_extension(sc.mixture_from_json(MIXTURE), 300)),
    ],
    ids=["probs", "components"],
)
def test_dist_reads_a_described_extension(capsys, tmp_path, described, library):
    # "n" is the blocklength; 0.9035 is the one-letter source's entropy
    path = tmp_path / "described.json"
    path.write_text(json.dumps(described))
    rc, out, err = run_cli(capsys, ["entropy", "--dist", str(path), "--alpha", "0.5",
                                    "--eps", "0.1"])
    assert rc == 0 and err == ""
    got = json.loads(out)
    dist = library()
    assert got["entropy"] == sc.smooth_renyi_entropy(dist, 0.5, 0.1)
    assert got["k_star"] == sc.optimal_smoothing(dist, 0.1).k_star
    assert got["entropy"] != pytest.approx(0.9034974157725816)


def test_validation_errors_exit_2(capsys, dist_file):
    rc, out, err = run_cli(
        capsys, ["entropy", "--dist", dist_file, "--alpha", "1.5", "--eps", "0.1"]
    )
    assert rc == 2 and out == ""
    assert err == "error: alpha must be in (0, 1)\n"
    rc, _, err = run_cli(
        capsys, ["entropy", "--dist", dist_file, "--alpha", "0.5", "--eps=-0.1"]
    )
    assert rc == 2
    assert err == "error: eps must be in [0, 1)\n"


def test_missing_and_malformed_input_files(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys,
        ["entropy", "--dist", str(tmp_path / "nope.json"), "--alpha", "0.5", "--eps", "0"],
    )
    assert rc == 2 and err.startswith("error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run_cli(capsys, ["entropy", "--dist", str(bad), "--alpha", "0.5", "--eps", "0"])
    assert rc == 2 and err.startswith("error:")

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"something": 1}))
    rc, _, err = run_cli(capsys, ["entropy", "--dist", str(wrong), "--alpha", "0.5", "--eps", "0"])
    assert rc == 2 and err.startswith("error:")


def test_a_missing_json_key_is_named(capsys, tmp_path, dist_file):
    # a distribution file given as the codebook has no 'entries', and a
    # mixture component without a weight has no 'weight'
    component = tmp_path / "component.json"
    component.write_text(json.dumps({"components": [{"probs": [0.5, 0.5]}]}))
    for argv, key in (
        (["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "1", "--code", dist_file],
         "entries"),
        (["mixture", "--spec", str(component), "--alpha", "0.5", "--eps", "0.1", "--n-list", "2"],
         "weight"),
    ):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert err == f"error: missing key '{key}'\n"


def test_deeply_nested_json_exits_2(capsys, tmp_path, dist_file):
    # json.dumps cannot build this payload, so the raw text is written
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (
        ["entropy", "--dist", str(deep), "--alpha", "0.5", "--eps", "0.1"],
        ["mixture", "--spec", str(deep), "--alpha", "0.5", "--eps", "0.1", "--n-list", "2"],
        ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "1", "--code", str(deep)],
    ):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert err == "error: JSON nested too deeply to read\n"


def test_code_output_and_roundtrip(capsys, tmp_path, dist_file):
    rc, out, _ = run_cli(
        capsys, ["code", "--dist", dist_file, "--eps", "0.1", "--lambda", "1"]
    )
    assert rc == 0
    book = json.loads(out)
    assert book["reject"] == "1"
    assert book["decoder_for_reject"] == 2
    assert [e["codeword"] for e in book["entries"]] == ["000", "001", "0100"]
    assert [e["gamma"] for e in book["entries"]] == pytest.approx([1.0, 1.0, 0.5])

    code_path = tmp_path / "code.json"
    code_path.write_text(out)
    base = ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "1"]
    rc, built_out, _ = run_cli(capsys, base)
    rc2, loaded_out, _ = run_cli(capsys, base + ["--code", str(code_path)])
    assert rc == rc2 == 0
    assert built_out == loaded_out


def test_evaluate_report_fields(capsys, dist_file):
    rc, out, _ = run_cli(
        capsys, ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "1"]
    )
    assert rc == 0
    report = json.loads(out)
    r = 1.5710571047085515
    assert report["eps"] == 0.1
    assert report["lambda"] == 1.0
    assert report["error_prob"] == pytest.approx(0.0, abs=1e-12)
    assert report["error_prob_raw"] == pytest.approx(0.1, abs=1e-12)
    assert report["exp_moment"] == pytest.approx(8.2, abs=1e-9)
    assert report["converse_bound"] == pytest.approx(r * r, abs=1e-9)
    assert report["direct_bound"] == pytest.approx(4 * r * r + 0.2, abs=1e-9)


def test_evaluate_deterministic_mode(capsys, dist_file):
    rc, out, _ = run_cli(
        capsys,
        [
            "evaluate",
            "--dist",
            dist_file,
            "--eps",
            "0.1",
            "--lambda",
            "1",
            "--mode",
            "deterministic",
        ],
    )
    assert rc == 0
    report = json.loads(out)
    assert report["error_prob_raw"] == pytest.approx(0.2, abs=1e-12)
    assert report["exp_moment"] == pytest.approx(4.8, abs=1e-9)


def test_oracle_code_mode(capsys, dist_file):
    rc, out, _ = run_cli(
        capsys,
        ["oracle", "--dist", dist_file, "--eps", "0", "--lambda", "1", "--max-len", "3"],
    )
    assert rc == 0
    result = json.loads(out)
    assert result["best_moment"] == pytest.approx(3.0, abs=1e-12)
    assert result["encoder"] == ["0", "10", "11"]
    assert result["decoder"] == {"0": 0, "10": 1, "11": 2}
    assert result["search_space_size"] > 0


def test_oracle_smoothing_mode(capsys, dist_file):
    rc, out, _ = run_cli(
        capsys,
        [
            "oracle",
            "--dist",
            dist_file,
            "--mode",
            "smoothing",
            "--alpha",
            "0.5",
            "--eps",
            "0.1",
            "--trials",
            "200",
            "--seed",
            "3",
        ],
    )
    assert rc == 0
    result = json.loads(out)
    dist = sc.new_distribution(WORKED["probs"])
    assert result["best_power_sum"] >= sc.r_alpha_eps(dist, 0.5, 0.1) - 1e-12
    assert result["trials"] == 200 and result["seed"] == 3

    rc, _, err = run_cli(
        capsys, ["oracle", "--dist", dist_file, "--mode", "smoothing", "--eps", "0.1"]
    )
    assert rc == 2
    assert "needs --alpha" in err


def test_oracle_smoothing_trials_past_the_cap_exit_3(capsys, dist_file):
    # 10**15 trials would ask numpy for petabytes; the cap refuses them first
    argv = ["oracle", "--dist", dist_file, "--mode", "smoothing", "--alpha", "0.5"]
    rc, out, err = run_cli(capsys, argv + ["--eps", "0.1", "--trials", str(10**15)])
    assert rc == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_oracle_smoothing_negative_trials_exit_2(capsys, dist_file):
    argv = ["oracle", "--dist", dist_file, "--mode", "smoothing", "--alpha", "0.5"]
    rc, out, err = run_cli(capsys, argv + ["--eps", "0.1", "--trials", "-1"])
    assert rc == 2 and out == ""
    assert err == "error: trials must be >= 0, got -1\n"


def test_mixture_over_a_thousand_letters_exits_0(capsys, tmp_path):
    # the type-class walk once took one stack frame per letter, and this spec
    # exited 1 with a RecursionError traceback
    spec = tmp_path / "uniform.json"
    spec.write_text(json.dumps({"components": [{"weight": 1.0, "probs": [0.001] * 1000}]}))
    argv = ["mixture", "--spec", str(spec), "--alpha", "0.5", "--eps", "0.1", "--n-list", "2"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0 and err == ""
    (entry,) = json.loads(out)["entries"]
    # 10**6 blocks of mass 1e-6, 900,000 of them kept: ln(900,000 * 1e-3) / (1 - 0.5) / 2
    assert entry["value"] == pytest.approx(math.log(900.0), rel=1e-12)


def test_mixture_of_a_thousand_tied_letters_at_n3_exits_0(capsys, tmp_path):
    # with one bin per letter this was 167,167,000 type classes, past the
    # cap (exit 3); tied letters now share one bin, a single class
    spec = tmp_path / "uniform.json"
    spec.write_text(json.dumps({"components": [{"weight": 1.0, "probs": [0.001] * 1000}]}))
    argv = ["mixture", "--spec", str(spec), "--alpha", "0.5", "--eps", "0.1", "--n-list", "3"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0 and err == ""
    (entry,) = json.loads(out)["entries"]
    # 10**9 blocks of mass 1e-9, 9 * 10**8 of them kept
    assert entry["value"] == pytest.approx(math.log(9e8 * 1e-9**0.5) / (1 - 0.5) / 3, rel=1e-12)


def test_mixture_checks_alpha_with_no_blocklengths(capsys, spec_file):
    base = ["mixture", "--spec", spec_file, "--eps", "0.3", "--alpha"]
    for alpha, n_list in (("5", ""), ("nan", ""), ("5", "0"), ("-1", "1")):
        rc, out, err = run_cli(capsys, base + [alpha, "--n-list", n_list])
        assert (rc, out) == (2, "")
        assert err.startswith("error:") and "alpha must be in (0, 1)" in err
    # eps is still checked first
    rc, _, err = run_cli(capsys, base + ["5", "--eps", "1.5", "--n-list", ""])
    assert rc == 2 and "eps must be in [0, 1)" in err


def test_mixture_csv_format(capsys, spec_file):
    rc, out, _ = run_cli(
        capsys,
        [
            "mixture",
            "--spec",
            spec_file,
            "--alpha",
            "0.5",
            "--eps",
            "0.3",
            "--n-list",
            "1,2,4",
            "--format",
            "csv",
        ],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,limit"
    assert len(lines) == 4
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    series = sc.entropy_rate_series(spec, 0.5, 0.3, [1, 2, 4])
    for row, (n, value) in zip(lines[1:], series.entries):
        n_tok, value_tok, limit_tok = row.split(",")
        assert int(n_tok) == n
        assert float(value_tok) == pytest.approx(value, rel=1e-11)
        assert float(limit_tok) == pytest.approx(math.log(2.0), rel=1e-11)
        for tok in (value_tok, limit_tok):
            # 12 significant digits, stable under reparsing
            assert format(float(tok), ".12g") == tok


def test_mixture_json_and_units(capsys, spec_file):
    base = [
        "mixture",
        "--spec",
        spec_file,
        "--alpha",
        "0.5",
        "--eps",
        "0.3",
        "--n-list",
        "1,2,4",
    ]
    rc, out, _ = run_cli(capsys, base)
    nats = json.loads(out)
    assert nats["component"] == 1
    assert [e["n"] for e in nats["entries"]] == [1, 2, 4]
    assert nats["limit"] == pytest.approx(math.log(2.0), abs=1e-12)

    rc, out, _ = run_cli(capsys, base + ["--unit", "bits"])
    bits = json.loads(out)
    assert bits["limit"] == pytest.approx(1.0, abs=1e-12)
    for a, b in zip(bits["entries"], nats["entries"]):
        assert a["value"] == pytest.approx(b["value"] / math.log(2.0), rel=1e-15)


def test_spectrum_json(capsys, spec_file):
    rc, out, _ = run_cli(
        capsys,
        [
            "spectrum",
            "--spec",
            spec_file,
            "--n",
            "16",
            "--direction",
            "ge",
            "--threshold",
            "0.5",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    spec = sc.mixture_spec([(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])])
    want = sc.spectrum_probability(spec, sc.SpectrumQuery(16, "ge", 0.5))
    assert payload["probability"] == want
    assert payload["gamma"] is None
    assert payload["direction"] == "ge"

    rc, _, err = run_cli(
        capsys,
        [
            "spectrum",
            "--spec",
            spec_file,
            "--n",
            "16",
            "--direction",
            "within",
            "--threshold",
            "0.5",
        ],
    )
    assert rc == 2
    assert "gamma" in err


def test_sweep_grid_order(capsys, dist_file):
    base = ["sweep", "--dist", dist_file, "--epsilons", "0.0,0.1", "--lambdas", "1.0,2.0"]
    rc, out, _ = run_cli(capsys, base)
    assert rc == 0
    reports = json.loads(out)["reports"]
    assert [(r["eps"], r["lambda"]) for r in reports] == [
        (0.0, 1.0),
        (0.0, 2.0),
        (0.1, 1.0),
        (0.1, 2.0),
    ]
    for r in reports:
        assert r["converse_bound"] * (1 - 1e-9) <= r["exp_moment"]
        assert r["exp_moment"] <= r["direct_bound"] * (1 + 1e-9)

    rc, out, _ = run_cli(capsys, base + ["--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,lambda,error_prob,error_prob_raw,exp_moment,converse_bound,direct_bound"
    assert len(lines) == 5
    for row in lines[1:]:
        for tok in row.split(","):
            assert format(float(tok), ".12g") == tok


@pytest.mark.parametrize("lam", ["1e-320", "1e-17", "1e-16"])
def test_lambdas_too_small_to_move_the_entropy_order(capsys, dist_file, lam):
    # below 2**-53 the order 1/(1 + lambda) rounds to 1; the bounds then take
    # their lambda -> 0 limits, the kept mass and 1, instead of rejecting an alpha
    argv = ["sweep", "--dist", dist_file, "--epsilons", "0,0.1,0.5", "--lambdas", lam]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0 and err == ""
    reports = json.loads(out)["reports"]
    assert [r["converse_bound"] for r in reports] == pytest.approx([1.0, 0.9, 0.5], abs=1e-12)
    for r in reports:
        assert r["exp_moment"] == pytest.approx(1.0, abs=1e-12)
        assert r["direct_bound"] == pytest.approx(1.0, abs=1e-12)

    argv = ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", lam]
    rc, out, err = run_cli(capsys, argv + ["--mode", "deterministic"])
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["converse_bound"] == pytest.approx(0.9, abs=1e-12)
    assert report["exp_moment"] == pytest.approx(1.0, abs=1e-12)
    assert report["direct_bound"] == pytest.approx(1.0, abs=1e-12)


def test_env_cap_applies(capsys, spec_file, monkeypatch):
    # 9 type classes at blocklength 8 over two letters
    monkeypatch.setenv("SMOOTHCODE_CAP", "5")
    for argv in (
        ["mixture", "--spec", spec_file, "--alpha", "0.5", "--eps", "0.3", "--n-list", "8"],
        ["spectrum", "--spec", spec_file, "--n", "8", "--direction", "ge",
         "--threshold", "0.5"],
    ):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 3 and out == ""
        assert err.startswith("error: 9 type classes at blocklength 8 exceed cap 5")


def test_malformed_env_cap_exits_2(capsys, dist_file, monkeypatch):
    for raw, message in (
        ("abc", "SMOOTHCODE_CAP must be an integer"),
        ("0", "SMOOTHCODE_CAP must be >= 1"),
    ):
        monkeypatch.setenv("SMOOTHCODE_CAP", raw)
        rc, out, err = run_cli(
            capsys, ["entropy", "--dist", dist_file, "--alpha", "0.5", "--eps", "0.1"]
        )
        assert rc == 2 and out == ""
        assert err.startswith(f"error: {message}")


def test_cap_flag_is_gone_and_cannot_mask_a_malformed_env_cap(capsys, spec_file, monkeypatch):
    # --cap once skipped reading SMOOTHCODE_CAP, so "junk" there went unnoticed
    monkeypatch.setenv("SMOOTHCODE_CAP", "junk")
    for argv in (
        ["mixture", "--spec", spec_file, "--alpha", "0.5", "--eps", "0.3", "--n-list", "8"],
        ["spectrum", "--spec", spec_file, "--n", "8", "--direction", "ge",
         "--threshold", "0.5"],
    ):
        rc, out, err = run_cli(capsys, argv + ["--cap", "100"])
        assert rc == 2 and out == ""
        assert "unrecognized arguments: --cap 100" in err
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: SMOOTHCODE_CAP must be an integer, got 'junk'")


def test_usage_errors_exit_2(capsys, dist_file):
    assert cli.run(["bogus"]) == 2
    capsys.readouterr()
    assert cli.run([]) == 2
    capsys.readouterr()
    # missing a required option
    assert cli.run(["entropy", "--alpha", "0.5", "--eps", "0"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    rc, out, _ = run_cli(capsys, ["--version"])
    assert rc == 0
    assert out.strip() == f"smoothcode {sc.__version__}"


def test_module_entry_point(dist_file):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "smoothcode",
            "entropy",
            "--dist",
            dist_file,
            "--alpha",
            "0.5",
            "--eps",
            "0.1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["k_star"] == 3


def test_non_finite_inputs_exit_2(capsys, tmp_path):
    # json.load parses NaN and Infinity, so these reach the validators
    dist = tmp_path / "nan_dist.json"
    dist.write_text('{"probs": [1.0, NaN]}')
    rc, out, err = run_cli(
        capsys, ["entropy", "--dist", str(dist), "--alpha", "0.5", "--eps", "0"]
    )
    assert rc == 2 and out == "" and err.startswith("error:")

    spec = tmp_path / "bad_mixture.json"
    argv = ["mixture", "--spec", str(spec), "--alpha", "0.5", "--eps", "0.1", "--n-list", "4"]
    for component in (
        '{"weight": 1.0, "probs": [NaN, 1.0]}',
        '{"weight": Infinity, "probs": [0.5, 0.5]}',
    ):
        spec.write_text('{"components": [%s]}' % component)
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == "" and err.startswith("error:")


def test_huge_lambda_reports_inf(capsys, dist_file):
    rc, out, err = run_cli(
        capsys, ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "2000"]
    )
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["exp_moment"] == math.inf and report["direct_bound"] == math.inf

    rc, out, err = run_cli(
        capsys, ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "1000"]
    )
    assert rc == 0 and err == ""
    report = json.loads(out)
    # the float fields overflow, but their logs (nats) print as finite numbers
    assert [report[k] for k in ("exp_moment", "converse_bound", "direct_bound")] == [math.inf] * 3
    logs = [report[k] for k in ("log_exp_moment", "log_converse", "log_direct")]
    assert logs == pytest.approx([2079.34, 1098.31, 2484.61], abs=0.01)
    assert out.count("Infinity") == 3

    rc, out, err = run_cli(
        capsys, ["sweep", "--dist", dist_file, "--epsilons", "0,0.1", "--lambdas", "1,2000"]
    )
    assert rc == 0 and err == ""
    reports = json.loads(out)["reports"]
    assert [r["exp_moment"] == math.inf for r in reports] == [False, True, False, True]


def test_import_leaves_numpy_out():
    code = "import sys, smoothcode, smoothcode.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_only_the_smoothing_search_needs_numpy(dist_file):
    code = f"""
import sys
sys.modules["numpy"] = None  # import numpy now fails
import smoothcode
from smoothcode import cli
base = ["--dist", {dist_file!r}, "--eps", "0.1"]
print([
    cli.run(["entropy", *base, "--alpha", "0.5"]),
    cli.run(["code", *base, "--lambda", "1"]),
    cli.run(["evaluate", *base, "--lambda", "1"]),
    cli.run(["oracle", *base]),
    cli.run(["oracle", *base, "--mode", "smoothing", "--alpha", "0.5"]),
])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 2]"
    assert proc.stderr.count("\n") == 1 and "smoothcode[oracle]" in proc.stderr


def test_infinite_lambda_is_a_bad_lambda(capsys, dist_file):
    for argv in (
        ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "inf"],
        ["code", "--dist", dist_file, "--eps", "0.1", "--lambda", "inf"],
        ["sweep", "--dist", dist_file, "--epsilons", "0.1", "--lambdas", "1,inf"],
    ):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2 and out == ""
        assert "lambda" in err


def test_oracle_moment_past_float_range_exits_3(capsys, dist_file):
    base = ["oracle", "--dist", dist_file, "--eps", "0.1"]
    rc, out, err = run_cli(capsys, base + ["--lambda", "1000"])
    assert rc == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    # 2**(204.7 * 5) still fits a float, and the search result is unchanged
    rc, out, err = run_cli(capsys, base + ["--lambda", "204.7", "--max-len", "5"])
    assert rc == 0 and err == ""
    assert json.loads(out)["best_moment"] == 8.722685802823588e122


def test_oracle_finite_optimum_beside_overflowing_blocks(capsys, tmp_path):
    path = tmp_path / "coin.json"
    path.write_text(json.dumps({"probs": [0.5, 0.5]}))
    base = ["oracle", "--dist", str(path), "--eps", "0", "--lambda", "1000"]
    rc, out, err = run_cli(capsys, base + ["--max-len", "1"])
    assert rc == 0 and err == ""
    assert json.loads(out)["best_moment"] == 1.0715086071862673e301
    # longer words weigh 2**2000 and more, past float range, but cannot win
    rc, longer, err = run_cli(capsys, base)
    assert rc == 0 and err == ""
    assert json.loads(longer)["best_moment"] == json.loads(out)["best_moment"]


@pytest.mark.parametrize(
    "query",
    [
        ["--n", "2048", "--direction", "le", "--threshold=1e300"],
        ["--n", "16", "--direction", "within", "--threshold", "0.6", "--gamma", "1e300"],
    ],
)
def test_spectrum_keeping_every_class_prints_one(capsys, spec_file, query):
    rc, out, err = run_cli(capsys, ["spectrum", "--spec", spec_file, *query])
    assert rc == 0 and err == ""
    assert json.loads(out)["probability"] == 1.0


@pytest.mark.parametrize(
    "query",
    [["ge", "--threshold", "nan"], ["within", "--threshold", "0.6", "--gamma", "nan"]],
)
def test_spectrum_rejects_nan(capsys, spec_file, query):
    argv = ["spectrum", "--spec", spec_file, "--n", "16", "--direction", *query]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "NaN" in err
    # the largest finite thresholds and gammas are questions with an answer
    rc, out, _ = run_cli(capsys, ["1e308" if a == "nan" else a for a in argv])
    assert rc == 0 and 0.0 <= json.loads(out)["probability"] <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "query",
    [
        ["ge", "--threshold", "inf"],
        ["le", "--threshold=-inf"],
        ["within", "--threshold", "0.6", "--gamma", "inf"],
    ],
)
def test_spectrum_rejects_infinity(capsys, spec_file, query):
    # the query is echoed in the output, and JSON has no Infinity
    argv = ["spectrum", "--spec", spec_file, "--n", "16", "--direction", *query]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "infinite" in err


def test_cap_limits_only_printed_codebooks(capsys, dist_file, monkeypatch):
    # evaluation works per probability level, so only the codebook expands
    monkeypatch.setenv("SMOOTHCODE_CAP", "2")
    rc, _, err = run_cli(capsys, ["code", "--dist", dist_file, "--eps", "0.1", "--lambda", "1"])
    assert rc == 3 and err.startswith("error:")
    for argv in (
        ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "1"],
        ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "1", "--mode", "deterministic"],
        ["sweep", "--dist", dist_file, "--epsilons", "0,0.1", "--lambdas", "1,2"],
    ):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 0 and err == ""


def test_codebook_of_a_huge_level_exits_3(capsys, tmp_path):
    atoms = {"atoms": [{"log_prob": -70 * math.log(2), "multiplicity": 2**70}], "n": 1}
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps(atoms))
    base = ["--dist", str(path), "--eps", "0.1", "--lambda", "1"]
    rc, out, err = run_cli(capsys, ["code"] + base)
    assert rc == 3 and out == "" and err.startswith("error:")
    rc, out, err = run_cli(capsys, ["evaluate"] + base)
    assert rc == 0 and err == ""


def test_cached_parser_keeps_no_state(capsys, dist_file):
    smoothing = ["oracle", "--dist", dist_file, "--mode", "smoothing"]
    smoothing += ["--alpha", "0.5", "--eps", "0.1", "--trials", "50"]
    rc, out, _ = run_cli(capsys, smoothing + ["--seed", "5"])
    assert rc == 0 and json.loads(out)["seed"] == 5
    rc, out, _ = run_cli(capsys, smoothing)
    assert rc == 0 and json.loads(out)["seed"] == 0

    argv = ["entropy", "--dist", dist_file, "--alpha", "0.5", "--eps", "0.1"]
    fresh = subprocess.run(
        [sys.executable, "-m", "smoothcode", *argv], capture_output=True, text=True
    )
    assert fresh.returncode == 0
    rc, _, _ = run_cli(capsys, argv + ["--unit", "bits", "--bogus"])
    assert rc == 2
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0 and out == fresh.stdout

    rc, out, _ = run_cli(capsys, ["--version"])
    assert rc == 0 and out.strip() == f"smoothcode {sc.__version__}"


# every subcommand once with --opt=value and abbreviated options, then usage
# errors, help and version; DIST and SPEC stand for the input files
PARSE_CORPUS = [
    ["entropy", "--dist=DIST", "--alph", "0.5", "--ep", "0.1", "--unit=bits"],
    ["code", "--dist", "DIST", "--ep=0.1", "--lambda", "1", "--mode", "deterministic"],
    ["evaluate", "--dist", "DIST", "--eps", "0.1", "--lam=1"],
    ["oracle", "--dist", "DIST", "--eps", "0.1", "--max", "3"],
    ["mixture", "--spec", "SPEC", "--alpha=0.5", "--ep", "0.3", "--n-list", "8,16", "--form", "csv"],
    ["spectrum", "--spec", "SPEC", "--n", "64", "--dir", "within", "--thr", "0.69", "--gam", "0.05"],
    ["sweep", "--dist", "DIST", "--epsilons", "0,0.1", "--lambdas=1,2", "--format", "csv"],
    ["entropy", "--dist", "DIST", "--alpha", "0.5", "--eps", "0.1", "--bogus"],
    ["entropy", "--dist", "DIST", "--alpha", "0.5", "--eps", "0.1", "extra"],
    ["entropy", "--dist", "DIST", "--alpha", "0.5", "--eps", "0.1", "--unit", "octal"],
    ["entropy", "--dist", "DIST", "--alpha", "half", "--eps", "0.1"],
    ["entropy", "--dist", "DIST", "--eps", "0.1"],
    ["entropy", "--dist", "DIST", "--alpha", "1.5", "--eps", "0.1"],
    ["-h"],
    ["entropy", "-h"],
    ["--version"],
    ["entropy", "--version"],
    ["bogus"],
    [],
    ["--", "entropy", "--dist", "DIST", "--alpha", "0.5", "--eps", "0.1"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_one_pass_parse_matches_the_full_parser(capsys, dist_file, spec_file, monkeypatch, argv):
    argv = [tok.replace("DIST", dist_file).replace("SPEC", spec_file) for tok in argv]
    one_pass = run_cli(capsys, argv)
    full, _ = cli._parser()
    monkeypatch.setattr(cli, "_parser", lambda: (full, {}))  # no subcommand's parser is found
    assert run_cli(capsys, argv) == one_pass


def test_a_subcommand_call_is_parsed_once(capsys, dist_file, monkeypatch):
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    # plain --option value pairs are read off the option table, with no argparse call
    argv = ["entropy", "--dist", dist_file, "--alpha", "0.5", "--eps", "0.1"]
    rc, plain, _ = run_cli(capsys, argv)
    assert rc == 0 and parsed == []
    rc, _, _ = run_cli(capsys, ["code", "--dist", dist_file, "--eps", "0.1", "--lambda", "1"])
    assert rc == 0 and parsed == []
    # any other call is parsed once, by the subcommand's own parser: the full
    # parser would add "smoothcode"
    rc, out, _ = run_cli(capsys, ["entropy", f"--dist={dist_file}", "--alpha=0.5", "--eps=0.1"])
    assert rc == 0 and parsed == ["smoothcode entropy"] and out == plain


# values a subcommand's parser takes for an option of each type, values its
# type refuses, and values argparse reads as something other than a value
_GOOD_VALUES = {
    float: ["0.1", "0.5", "1", "nan", "inf", "1e400", " 2 ", "1_0"],
    int: ["0", "3", "1_000", " 4 "],
    None: ["DIST", "a=b", "", "x y"],
}
_REFUSED_VALUES = {float: ["half", "1.5.2", ""], int: ["2.5", "x", ""], None: []}
_DASH_VALUES = ["-1", "-0.5", "-inf", "--", "-h", "-", "--eps"]
_BENDS = ["value", "equals", "abbreviated", "repeated", "left out", "extra"]


@st.composite
def option_tokens(draw):
    """(subcommand, tokens after it), drawn from the subcommand's own options.

    A call is plain --option value pairs with values the options take, and
    most calls then bend one of them in one way that argparse reads
    otherwise or refuses.
    """
    name = draw(st.sampled_from(sorted(cli._parser()[1])))
    _, options, _ = cli._parser()[1][name]
    given = [flag for flag, action in options.items() if action.required or draw(st.booleans())]
    values = {}
    for flag in given:
        action = options[flag]
        values[flag] = draw(st.sampled_from(action.choices or _GOOD_VALUES[action.type]))
    pieces = {flag: [flag, value] for flag, value in values.items()}
    bend, flag = draw(st.sampled_from([None] + _BENDS)), draw(st.sampled_from(given))
    action = options[flag]
    if bend == "value":
        refused = ["octal"] if action.choices else _REFUSED_VALUES[action.type]
        odd = refused if refused and draw(st.booleans()) else _DASH_VALUES
        pieces[flag] = [flag, draw(st.sampled_from(odd))]
    elif bend == "equals":
        pieces[flag] = [f"{flag}={values[flag]}"]
    elif bend == "abbreviated" and len(flag) > 3:
        pieces[flag] = [flag[: draw(st.integers(3, len(flag) - 1))], values[flag]]
    elif bend == "repeated":
        pieces[flag] *= 2
    elif bend == "left out":
        del pieces[flag]
    elif bend == "extra":
        extra = [["--"], ["-h"], ["--bogus"], ["junk"], ["--bogus", "1"], ["--unit"]]
        pieces["extra"] = draw(st.sampled_from(extra))
    return name, [tok for piece in draw(st.permutations(list(pieces.values()))) for tok in piece]


@given(option_tokens())
@settings(max_examples=400, deadline=None)
def test_plain_options_match_the_subcommand_parser(call):
    name, tokens = call
    own, options, defaults = cli._parser()[1][name]
    args = cli._plain_options(options, defaults, tokens)
    if args is not None:
        try:
            parsed, extras = own.parse_known_args(tokens)
        except SystemExit:
            pytest.fail(f"plain options took {tokens}, which argparse refuses")
        # by repr, so that nan equals nan and 1 differs from 1.0
        assert {k: repr(v) for k, v in vars(args).items()} == {
            k: repr(v) for k, v in vars(parsed).items()
        }
        assert extras == []


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, 2**64 + 1, -(2**70), 10**30]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "é☃\U0001d11e\ud800", ""]),
)


def _json_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        # keys json.dumps converts or refuses, and a type it refuses
        st.dictionaries(st.integers() | st.text(max_size=2), children, max_size=2),
        st.sets(st.integers(), max_size=2),
    )


@given(st.recursive(_JSON_LEAVES, _json_containers, max_leaves=25))
@settings(max_examples=400, deadline=None)
def test_report_writer_matches_json_dumps(obj):
    def outcome(write):
        try:
            return write()
        except TypeError as exc:
            return type(exc)

    expected = outcome(lambda: json.dumps(obj, indent=2, sort_keys=True))
    assert outcome(lambda: cli._json_text(obj)) == expected


def test_entropy_report_smooths_once(capsys, dist_file, monkeypatch):
    smoothings = []
    optimal_smoothing = smooth_renyi.optimal_smoothing

    def counted(dist, eps):
        smoothings.append(eps)
        return optimal_smoothing(dist, eps)

    # the library's entropies call it from their own module
    monkeypatch.setattr(cli, "optimal_smoothing", counted)
    monkeypatch.setattr(smooth_renyi, "optimal_smoothing", counted)
    rc, out, _ = run_cli(capsys, ["entropy", "--dist", dist_file, "--alpha", "0.3", "--eps", "0.1"])
    assert rc == 0 and smoothings == [0.1]
    report = json.loads(out)
    dist = sc.distribution_from_json(WORKED)
    assert report["entropy"] == sc.smooth_renyi_entropy(dist, 0.3, 0.1)
    assert report["smooth_max_entropy"] == sc.smooth_max_entropy(dist, 0.1)
    assert report["r_alpha_eps"] == sc.r_alpha_eps(dist, 0.3, 0.1)

    # eps is checked before alpha, as the report's smoothing comes first
    rc, out, err = run_cli(capsys, ["entropy", "--dist", dist_file, "--alpha", "1.5", "--eps", "1.5"])
    assert rc == 2 and out == ""
    assert err == "error: eps must be in [0, 1)\n"


def test_a_report_smooths_once_per_eps(capsys, tmp_path, dist_file, monkeypatch):
    # every smoothing computed makes one SubDistribution; one a distribution
    # kept from before makes none, so this counts computations, not lookups
    made = []
    sub_distribution = smooth_renyi.SubDistribution

    def counted(*args, **kwargs):
        made.append(kwargs)
        return sub_distribution(*args, **kwargs)

    monkeypatch.setattr(smooth_renyi, "SubDistribution", counted)

    def smoothings(argv):
        made.clear()
        rc, out, err = run_cli(capsys, argv)
        assert rc == 0 and err == "", err
        return len(made), out

    base = ["--dist", dist_file, "--eps", "0.1", "--lambda", "1"]
    book = tmp_path / "code.json"
    book.write_text(smoothings(["code"] + base)[1])
    # the builder and the converse bound share one smoothing, and a codebook
    # read back needs the bound's alone
    assert smoothings(["evaluate"] + base)[0] == 1
    assert smoothings(["evaluate"] + base + ["--mode", "deterministic"])[0] == 1
    assert smoothings(["evaluate", "--code", str(book)] + base)[0] == 1
    assert smoothings(["entropy", "--dist", dist_file, "--alpha", "0.5", "--eps", "0.1"])[0] == 1
    # one per eps across the lambda grid
    grid = ["sweep", "--dist", dist_file, "--epsilons", "0.1,0.3", "--lambdas", "0.5,1,2"]
    assert smoothings(grid)[0] == 2

    dist, fresh = sc.distribution_from_json(WORKED), sc.distribution_from_json(WORKED)
    made.clear()
    sc.sandwich_report(dist, 0.1, 1.0)
    assert len(made) == 1
    assert sc.optimal_smoothing(dist, 0.1) == sc.optimal_smoothing(fresh, 0.1)
    assert len(made) == 2  # fresh smooths for itself
    sc.optimal_smoothing(dist, 0.3)
    assert len(made) == 3 and vars(dist)["_smoothing"][0] == 0.3  # the last one is kept

    # the kept smoothing and the support size are no fields: ==, hash, repr
    # and pickles never see them
    kept = ("_smoothing", "support_size")
    cold = sc.distribution_from_json(WORKED)
    assert all(name in vars(dist) and name not in vars(cold) for name in kept)
    assert dist == cold and hash(dist) == hash(cold) and repr(dist) == repr(cold)
    assert pickle.dumps(dist) == pickle.dumps(cold)
    for clone in (pickle.loads(pickle.dumps(dist)), copy.copy(dist), copy.deepcopy(dist)):
        assert clone == dist and not set(kept) & set(vars(clone))


def test_code_with_a_tilted_probability_just_below_one(capsys, tmp_path):
    # the 0.2 level keeps 1e-10 of mass, so at lambda 0.01 the 0.3 level's
    # tilted probability falls 4e-10 below 1; snapping its length down to the
    # empty word would overfill the tree
    path = tmp_path / "six.json"
    path.write_text(json.dumps({"probs": [0.3, 0.2, 0.2, 0.1, 0.1, 0.1]}))
    argv = ["code", "--dist", str(path), "--eps", "0.6999999999", "--lambda", "0.01"]
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0 and err == ""
    book = json.loads(out)
    words = [e["codeword"] for e in book["entries"] if e["codeword"] is not None]
    assert [len(w) for w in words] == [2, 33]
    assert sc.PrefixCode(tuple(words) + (book["reject"],)).is_prefix_free()


ENTRY = {"codeword": "00", "gamma": 1.0}
# the codebook `code` prints for WORKED at eps 0.1 and lambda 1, less its reject word
WORKED_BOOK = {
    "decoder_for_reject": 2,
    "entries": [{"codeword": "000", "gamma": 1.0}, {"codeword": "001", "gamma": 1.0},
                {"codeword": "0100", "gamma": 0.4999999999999999}],
}
BAD_INPUTS = [
    ("code", {"reject": "1", "entries": [{"codeword": 5, "gamma": 1.0}]}),
    ("code", {"reject": "1", "entries": [{"codeword": "00", "gamma": [1]}]}),
    ("code", {"reject": "1", "entries": [1, 2]}),
    ("code", [ENTRY]),
    ("code", {"reject": "1", "entries": ENTRY}),
    ("code", {"reject": "1", "entries": [{"codeword": "00", "gamma": 10**400}]}),
    ("code", {"reject": "1", "decoder_for_reject": None, "entries": [ENTRY]}),
    ("code", {"reject": "1", "decoder_for_reject": 1e400, "entries": [ENTRY]}),
    ("dist", {"probs": [0.5, None]}),
    ("dist", {"probs": 0.5}),
    ("dist", [0.5, 0.5]),
    ("dist", {"atoms": [[-0.7, 2]]}),
    ("dist", {"atoms": [{"log_prob": None, "multiplicity": 1}]}),
    ("dist", {"atoms": [{"log_prob": 0.0, "multiplicity": 1e400}]}),
    ("dist", {"atoms": [{"log_prob": 0.0, "multiplicity": 1}], "n": None}),
    ("spec", {"components": [1]}),
    ("spec", {"components": [{"weight": 1.0, "probs": None}]}),
    ("spec", {"components": [{"weight": None, "probs": [1.0]}]}),
    ("spec", ["components"]),
    ("code", {**WORKED_BOOK, "reject": None}),
    ("code", {**WORKED_BOOK, "reject": 1}),
    ("code", {**WORKED_BOOK, "reject": "1x"}),
    ("code", {"reject": "1", "entries": [*WORKED_BOOK["entries"][:2], {"codeword": "0ab", "gamma": 0.5}]}),
    ("code", {"reject": "1", "entries": [*WORKED_BOOK["entries"][:2], {"codeword": "01\u00e9", "gamma": 0.5}]}),
    # entries near float max once overflowed the sum check
    ("dist", {"probs": [1e308, 1e308]}),
    ("spec", {"components": [{"weight": 1.0, "probs": [1e308, 1e308]}]}),
    # an exact integer multiplicity whose total mass overflows a float
    ("dist", {"atoms": [{"log_prob": 0.0, "multiplicity": 10**400}]}),
    # integer literals past float range, where a float is read
    ("dist", {"probs": [10**400, 0.5]}),
    ("dist", {"atoms": [{"log_prob": -(10**400), "multiplicity": 1}]}),
    ("spec", {"components": [{"weight": 10**400, "probs": [1.0]}]}),
    ("spec", {"components": [{"weight": 1.0, "probs": [10**400, 0.5]}]}),
    # bools and strings are not JSON numbers, and n is a whole blocklength
    ("dist", {"probs": [True, False]}),
    ("dist", {"probs": ["0.5", "0.5"]}),
    ("dist", {"atoms": [{"log_prob": 0.0, "multiplicity": True}]}),
    ("dist", {"atoms": [{"log_prob": "0", "multiplicity": 1}]}),
    ("dist", {"atoms": [{"log_prob": 0.0, "multiplicity": 1}], "n": 1.9}),
    ("dist", {"atoms": [{"log_prob": 0.0, "multiplicity": 1}], "n": 0}),
    ("dist", {"atoms": [{"log_prob": 0.0, "multiplicity": 1}], "n": True}),
    ("spec", {"components": [{"weight": True, "probs": [1.0]}]}),
    ("spec", {"components": [{"weight": 1.0, "probs": ["1.0"]}]}),
    ("spec", {"components": [{"weight": 1.0, "probs": "1"}]}),
    # a huge rejected multiplicity is named by its size, not printed in full
    ("dist", {"atoms": [{"log_prob": 0.0, "multiplicity": -(10**400)}]}),
    # codebook numbers are JSON numbers too: a gamma is an int or a float, the
    # decode target an int, and neither is a bool or a string
    ("code", {**WORKED_BOOK, "reject": "1", "decoder_for_reject": True}),
    ("code", {**WORKED_BOOK, "reject": "1", "decoder_for_reject": "1"}),
    ("code", {**WORKED_BOOK, "reject": "1", "decoder_for_reject": 1.7}),
    ("code", {**WORKED_BOOK, "reject": "1", "entries": [
        {"codeword": "000", "gamma": True}, *WORKED_BOOK["entries"][1:]]}),
    ("code", {**WORKED_BOOK, "reject": "1", "entries": [
        *WORKED_BOOK["entries"][:2], {"codeword": "0100", "gamma": "0.5"}]}),
    # the blocklength of a described source is a whole number >= 1 too, and
    # belongs to one form: beside both probs and atoms it would mean two things
    ("dist", {"probs": [0.5, 0.5], "n": 0}),
    ("dist", {"probs": [0.5, 0.5], "n": 2.0}),
    ("dist", {"probs": [0.5, 0.5], "n": True}),
    ("dist", {**MIXTURE, "n": 0}),
    ("dist", {**MIXTURE, "n": "4"}),
    ("dist", {"components": [{"weight": 1.0, "probs": "1"}], "n": 2}),
    ("dist", {"probs": [1.0], "atoms": [{"log_prob": 0.0, "multiplicity": 1}], "n": 1}),
    # and without "n" an object holding two forms is as ambiguous
    ("dist", {"probs": [0.5, 0.5], "components": [{"weight": 1.0, "probs": [0.9, 0.1]}]}),
    ("dist", {"probs": [1.0], "atoms": [{"log_prob": 0.0, "multiplicity": 1}]}),
]


@pytest.mark.parametrize("kind, payload", BAD_INPUTS)
def test_malformed_input_files_exit_2(capsys, tmp_path, dist_file, kind, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))  # 1e400 is written as Infinity
    argv = {
        "code": ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "1", "--code"],
        "dist": ["entropy", "--alpha", "0.5", "--eps", "0.1", "--dist"],
        "spec": ["mixture", "--alpha", "0.5", "--eps", "0.1", "--n-list", "4", "--spec"],
    }[kind]
    rc, out, err = run_cli(capsys, argv + [str(path)])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert len(err.encode()) < 120


def dumped(code):
    return json.dumps(sc.codebook_to_json(code), indent=2, sort_keys=True)


def test_evaluate_reads_a_printed_codebook_without_json(capsys, tmp_path, monkeypatch):
    dist = sc.iid_extension(sc.new_distribution([0.5, 0.3, 0.2]), 8)
    atoms = [{"log_prob": lp, "multiplicity": m} for lp, m in zip(dist.log_probs, dist.mults)]
    p8 = tmp_path / "p8.json"
    p8.write_text(json.dumps({"atoms": atoms, "n": 8}))
    base = ["--dist", str(p8), "--eps", "0.1", "--lambda", "1"]
    rc, out, _ = run_cli(capsys, ["code"] + base)
    printed, compact = tmp_path / "code.json", tmp_path / "compact.json"
    printed.write_text(out)
    compact.write_text(json.dumps(json.loads(out)))
    # another layout of the same codebook goes through json to the same report
    rc_json, report, _ = run_cli(capsys, ["evaluate", "--code", str(compact)] + base)
    monkeypatch.setattr(codes, "codebook_from_json", None)  # the printed one never reaches it
    rc_text, fast, _ = run_cli(capsys, ["evaluate", "--code", str(printed)] + base)
    assert rc == rc_json == rc_text == 0
    assert fast == report


def test_evaluate_checks_eps_before_it_reads_a_codebook(capsys, tmp_path, dist_file):
    # a read codebook skips the builder, whose eps check evaluate then makes
    # itself: the same calls exit alike with a codebook, a missing one, or none
    rc, out, _ = run_cli(capsys, ["code", "--dist", dist_file, "--eps", "0.1", "--lambda", "1"])
    book = tmp_path / "code.json"
    book.write_text(out)
    base = ["evaluate", "--dist", dist_file, "--lambda", "1"]
    for eps in ("1", "1.0000000000005", "-0.1", "nan"):
        for extra in ([], ["--code", str(book)], ["--code", str(tmp_path / "missing.json")]):
            got = run_cli(capsys, base + ["--eps", eps] + extra)
            assert got == (2, "", "error: eps must be in [0, 1)\n"), (eps, extra)
    rc, out, err = run_cli(capsys, base + ["--eps", "0.1", "--code", str(book)])
    assert rc == 0 and err == "" and json.loads(out)["error_prob"] == 0.0


def test_a_codebook_past_the_cap_is_read_through_json(capsys, tmp_path, monkeypatch, dist_file):
    # the printed layout is recognised by writing the guess back; with the
    # cap below the support the writer refuses, and json reads the same code
    base = ["--dist", dist_file, "--eps", "0.1", "--lambda", "1"]
    rc, out, _ = run_cli(capsys, ["code"] + base)
    book = tmp_path / "code.json"
    book.write_text(out)
    reads = []

    def counted(obj, read=codes.codebook_from_json):
        reads.append(obj)
        return read(obj)

    monkeypatch.setattr(codes, "codebook_from_json", counted)
    evaluate = ["evaluate", "--code", str(book)] + base
    expected = run_cli(capsys, evaluate)
    assert expected[0] == 0 and reads == []
    monkeypatch.setenv("SMOOTHCODE_CAP", "2")
    assert run_cli(capsys, evaluate) == expected
    assert reads == [json.loads(out)]


def test_evaluate_reads_a_codebook_as_bytes(capsys, tmp_path, dist_file):
    # only input that is not the printed layout is decoded, as strict UTF-8,
    # for json: CRLF line ends read to the same report, a byte order mark
    # and a byte that is no UTF-8 are input errors
    base = ["evaluate", "--dist", dist_file, "--eps", "0.1", "--lambda", "1", "--code"]
    rc, out, _ = run_cli(capsys, ["code"] + base[1:-1])
    printed = out.encode()
    copies = {
        "printed": printed,
        "crlf": printed.replace(b"\n", b"\r\n"),
        "bom": b"\xef\xbb\xbf" + printed,
        "not_utf8": printed[:40] + b"\xff" + printed[40:],
    }
    outcomes = {}
    for name, data in copies.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        outcomes[name] = run_cli(capsys, base + [str(path)])
    assert outcomes["printed"][0] == 0 and outcomes["printed"][2] == ""
    assert outcomes["crlf"] == outcomes["printed"]
    assert outcomes["bom"] == (
        2, "", "error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"
    )
    assert outcomes["not_utf8"] == (
        2, "", "error: 'utf-8' codec can't decode byte 0xff in position 40: invalid start byte\n"
    )


def test_code_prints_the_codebook_as_json_dumps_does(capsys, tmp_path):
    dist = sc.iid_extension(sc.new_distribution([0.5, 0.3, 0.2]), 6)
    atoms = [{"log_prob": a.log_prob, "multiplicity": a.multiplicity} for a in dist.atoms]
    p6 = tmp_path / "p6.json"
    p6.write_text(json.dumps({"atoms": atoms, "n": 6}))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"probs": [1.0]}))
    worked = tmp_path / "worked.json"
    worked.write_text(json.dumps(WORKED))
    cases = [
        # (source, eps, lambda, mode, what the printed codebook shows)
        (p6, 0.1, 1.0, "stochastic", "null tail"),
        (p6, 0.3, 0.5, "deterministic", "null tail"),
        (p6, 0.0, 1.0, "stochastic", "no null"),
        (point, 0.0, 1.0, "stochastic", "one word, 0"),
        (worked, 0.19999, 1.0, "stochastic", "gamma in exponent form"),
    ]
    for path, eps, lam, mode, shows in cases:
        argv = ["code", "--dist", str(path), "--eps", str(eps), "--lambda", str(lam)]
        rc, out, _ = run_cli(capsys, argv + ["--mode", mode])
        assert rc == 0
        build = sc.build_stochastic_code if mode == "stochastic" else sc.build_deterministic_code
        code = build(sc.distribution_from_json(json.loads(path.read_text())), eps, lam)
        assert out == dumped(code) + "\n"
        codewords = [e["codeword"] for e in json.loads(out)["entries"]]
        if shows == "null tail":
            assert codewords[-1] is None
        elif shows == "no null":
            assert None not in codewords
        elif shows == "one word, 0":
            assert codewords == ["0"]
        else:
            assert '"gamma": 4.999999999977245e-05\n' in out

    # words as a codebook gave them, not canonical, and a longer reject word
    book = {
        "reject": "11",
        "decoder_for_reject": 1,
        "entries": [
            {"codeword": "011", "gamma": 1.0},
            {"codeword": "00", "gamma": 0.25},
            {"codeword": "0101", "gamma": 0.25},
            {"codeword": None, "gamma": 0.0},
        ],
    }
    code = sc.codebook_from_json(book)
    assert codes._codebook_text(code) == dumped(code) == json.dumps(book, indent=2, sort_keys=True)
    empty = sc.StochasticCode(runs=(), decoder_for_reject=0)  # no reader or builder makes one
    assert codes._codebook_text(empty) == dumped(empty)


@st.composite
def read_back_codes(draw):
    """Codes read from codebooks: prefix-free words in any order, gammas in [0, 1]."""
    lengths = sorted(draw(st.lists(st.integers(1, 6), min_size=1, max_size=8)))
    while sum(2.0 ** -l for l in lengths) > 1.0:
        lengths.pop()
    words = draw(st.permutations(sc.assign_canonical_codewords(lengths).codewords))
    gamma = st.sampled_from([1.0, 0.5, 1e-05, 5e-324, 0.30000000000000004]) | st.floats(0.0, 1.0)
    entries = [{"codeword": "0" + w, "gamma": draw(gamma)} for w in words]
    entries += [{"codeword": None, "gamma": 0.0}] * draw(st.integers(0, 3))
    decoder = draw(st.integers(0, len(entries) - 1))
    return sc.codebook_from_json({"reject": "1", "decoder_for_reject": decoder, "entries": entries})


@given(
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
    st.floats(0.0, 0.9),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.booleans(),
    read_back_codes(),
)
@settings(max_examples=100)
def test_codebook_writer_matches_json_dumps(weights, eps, lam, deterministic, read_back):
    dist = sc.new_distribution([w / sum(weights) for w in weights])
    build = sc.build_deterministic_code if deterministic else sc.build_stochastic_code
    for code in (build(dist, eps, lam), read_back):
        assert codes._codebook_text(code) == dumped(code)


# CLI fuzz: argv for every subcommand, with numbers from a fixed set of edge
# values and input files from a small grammar of valid and broken payloads
FUZZ_NUMBERS = ["0", "-0.0", "1", "-1", "1e-320", "1e-17", "1e308", "nan", "inf", "-inf",
                "", "abc"]
FUZZ_LEAVES = [0, 1, -1, 0.5, 1e-320, 1e308, math.nan, math.inf, 10**400, -(10**400),
               True, False, "0.5", "", None]


def _fuzz_value(*valid):
    # three times in four a valid value, so runs get past validation
    ok = st.sampled_from(valid)
    return st.one_of(ok, ok, ok, st.sampled_from(FUZZ_LEAVES))


def _fuzz_list(item, max_size):
    return st.lists(item, max_size=max_size) | st.sampled_from(FUZZ_LEAVES)


# half of the files are valid inputs, the rest drawn from the grammar
VALID_DISTS = st.sampled_from(
    [WORKED, {"probs": [1.0]}, {"probs": [0.4, 0.3, 0.2, 0.05, 0.05]},
     {"atoms": [{"log_prob": math.log(0.25), "multiplicity": 4}], "n": 2}]
)
FUZZ_DISTS = VALID_DISTS | VALID_DISTS | st.fixed_dictionaries(
    {"probs": _fuzz_list(_fuzz_value(0.5, 0.25), 5)}
) | st.fixed_dictionaries(
    {"atoms": _fuzz_list(
        st.fixed_dictionaries({"log_prob": _fuzz_value(math.log(0.5), math.log(0.25), 0.0),
                               "multiplicity": _fuzz_value(1, 2)}), 3)},
    optional={"n": _fuzz_value(1, 2)},
)
VALID_SPECS = st.sampled_from(
    [MIXTURE, {"components": [{"weight": 1.0, "probs": [0.5, 0.3, 0.2]}]}]
)
FUZZ_SPECS = VALID_SPECS | st.fixed_dictionaries({"components": _fuzz_list(
    st.fixed_dictionaries({"weight": _fuzz_value(0.6, 0.4, 1.0),
                           "probs": _fuzz_list(_fuzz_value(0.5, 0.89, 0.11), 3)}), 2)})
FUZZ_BOOKS = st.sampled_from([{**WORKED_BOOK, "reject": "1"}]) | st.fixed_dictionaries(
    {"reject": _fuzz_value("1", "11", "1x"),
     "decoder_for_reject": _fuzz_value(0, 2),
     "entries": _fuzz_list(
         st.fixed_dictionaries({"codeword": _fuzz_value("000", "001", "0100", "0ab"),
                                "gamma": _fuzz_value(1.0, 0.5, 0.0)}), 3)}
)


@st.composite
def fuzzed_runs(draw):
    """(argv, {placeholder: payload}, SMOOTHCODE_CAP); argv names files by placeholder."""
    edge = st.sampled_from(FUZZ_NUMBERS)
    sane, whole = st.sampled_from(["0.1", "0.5"]), st.sampled_from(["1", "3"])
    num, count = st.one_of(sane, sane, edge), st.one_of(whole, whole, edge)
    nums = st.lists(num, min_size=1, max_size=3).map(",".join)
    blocklength = st.one_of(*[st.sampled_from(["1", "8", "64"])] * 2, edge)

    def opt(flag, value):
        return [f"{flag}={draw(value)}"]

    def maybe(flag, value):
        return opt(flag, value) if draw(st.booleans()) else []

    files = {}
    sub = draw(st.sampled_from(list(cli._parser()[1])))
    if sub in ("mixture", "spectrum"):
        files["SPEC"] = draw(FUZZ_SPECS)
        argv = [sub, "--spec", "SPEC"]
    else:
        files["DIST"] = draw(FUZZ_DISTS)
        argv = [sub, "--dist", "DIST"]
    modes = st.sampled_from(["stochastic", "deterministic"])
    if sub == "entropy":
        argv += opt("--alpha", num) + opt("--eps", num) + maybe("--unit", st.just("bits"))
    elif sub in ("code", "evaluate"):
        argv += opt("--eps", num) + opt("--lambda", num) + opt("--mode", modes)
        if sub == "evaluate" and draw(st.booleans()):
            files["BOOK"] = draw(FUZZ_BOOKS)
            argv += ["--code", "BOOK"]
    elif sub == "oracle":
        argv += opt("--eps", num) + maybe("--lambda", num) + maybe("--alpha", num)
        argv += opt("--mode", st.sampled_from(["code", "smoothing"]))
        argv += maybe("--max-len", count) + maybe("--trials", count) + maybe("--seed", count)
    elif sub == "mixture":
        argv += opt("--alpha", num) + opt("--eps", num)
        argv += opt("--n-list", st.lists(blocklength, min_size=1, max_size=3).map(",".join))
        argv += maybe("--format", st.just("csv")) + maybe("--unit", st.just("bits"))
    elif sub == "spectrum":
        argv += opt("--n", blocklength) + opt("--threshold", num) + maybe("--gamma", num)
        argv += opt("--direction", st.sampled_from(["ge", "le", "within", "bogus"]))
    else:
        argv += opt("--epsilons", nums) + opt("--lambdas", nums)
        argv += maybe("--format", st.just("csv"))
    cap = draw(st.sampled_from([None] * 5 + ["5", "0", "junk"]))
    return argv, files, cap


@given(fuzzed_runs())
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_exits_0_2_or_3(run):
    argv, files, cap = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("SMOOTHCODE_CAP", None)
        if cap is not None:
            os.environ["SMOOTHCODE_CAP"] = cap
        paths = {}
        for name, payload in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as f:
                f.write(json.dumps(payload))
        argv = [paths.get(tok, tok) for tok in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)  # an uncaught exception fails the test
    assert rc in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        assert out.getvalue() == "", argv
