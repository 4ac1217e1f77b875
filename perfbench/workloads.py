"""Inputs and job lists of the benchmark's workloads.

`write_inputs` is the workload's set-up: it writes every input file into a
directory, plus `jobs.json`, the list of jobs one pass runs. A job is either a
CLI argument list (file names are relative to the input directory) or the name
of a library call, for work the CLI cannot express. Sizes never depend on the
seed: `small_many` draws its distributions and parameters from it, the other
two workloads only use it to pick one parameter set from a fixed list.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from smoothcode import distributions as D

# The k=2 mixture of ROADMAP's baseline table, a k=3 mixture with strictly
# decreasing component entropies, and the bases of the two product sources.
MIX2 = [(0.6, [0.5, 0.5]), (0.4, [0.89, 0.11])]
MIX3 = [(0.5, [0.4, 0.35, 0.25]), (0.3, [0.6, 0.3, 0.1]), (0.2, [0.8, 0.15, 0.05])]
IID_BASE = [0.4, 0.3, 0.2, 0.1]
PRODUCT_BASE = [0.5, 0.3, 0.2]

SIZES = {
    "full": {
        "mix2_n": [512, 1024, 2048, 4096],
        "mix3_n": [100, 200, 300],
        "spectrum_n": 2048,
        "iid_n": 100,
        "product_n": 12,
        "roundtrip_n": 10,
        "small_jobs": 240,
    },
    "toy": {
        "mix2_n": [64, 128],
        "mix3_n": [10, 20],
        "spectrum_n": 128,
        "iid_n": 10,
        "product_n": 6,
        "roundtrip_n": 5,
        "small_jobs": 24,
    },
}

# The seed picks one of these sets. Every set costs the same: the type-class
# work of mixture_series does not depend on (alpha, eps), and product_codes
# keeps each eps fixed, since eps sets k_star and with it the size of the code
# (and the peak memory); only lambda, which leaves sizes alone, varies.
MIXTURE_PARAMS = [
    {"alpha": 0.5, "eps": 0.1, "spectrum": ["within", "0.6931", "--gamma", "0.05"]},
    {"alpha": 0.25, "eps": 0.3, "spectrum": ["within", "0.6931", "--gamma", "0.1"]},
    {"alpha": 0.75, "eps": 0.65, "spectrum": ["le", "0.5"]},
    {"alpha": 0.5, "eps": 0.45, "spectrum": ["ge", "0.5"]},
]
PRODUCT_PARAMS = [
    {"stochastic": (0.05, 1.0), "deterministic": (0.2, 0.5), "roundtrip_lam": 2.0},
    {"stochastic": (0.05, 2.0), "deterministic": (0.2, 1.0), "roundtrip_lam": 0.5},
    {"stochastic": (0.05, 0.5), "deterministic": (0.2, 2.0), "roundtrip_lam": 1.0},
    {"stochastic": (0.05, 1.0), "deterministic": (0.2, 2.0), "roundtrip_lam": 0.5},
]
SWEEP_GRID = ("0.1,0.3", "1")
ROUNDTRIP_EPS = 0.1


def param_index(seed: int, workload: str) -> int:
    """Which fixed parameter set a seed picks for mixture_series and product_codes."""
    count = len(MIXTURE_PARAMS if workload == "mixture_series" else PRODUCT_PARAMS)
    return random.Random(seed).randrange(count)


def _job(argv: list[str], ref: bool = True, **check) -> dict:
    """A CLI job; `ref` says whether its headline values have a recorded reference."""
    return {"argv": argv, "ref": " ".join(argv) if ref else None, "check": check}


def _call(name: str, ref: str, **args) -> dict:
    """A library job, for work no CLI subcommand expresses."""
    return {"call": name, "args": args, "ref": ref, "check": {}}


def _write(path: Path, obj) -> None:
    path.write_text(json.dumps(obj))


def _mixture_json(pairs) -> dict:
    return {"components": [{"weight": w, "probs": ps} for w, ps in pairs]}


def _atoms_json(dist: D.Distribution) -> dict:
    atoms = [{"log_prob": a.log_prob, "multiplicity": a.multiplicity} for a in dist.atoms]
    return {"atoms": atoms, "n": dist.n}


def all_layers_job() -> dict:
    """One small library job that enters every layer, appended to every workload.

    It keeps each per-layer figure measured, not absent, on every workload, at
    a few milliseconds per pass.
    """
    return _call("all_layers", "all_layers")


def _mixture_series(out: Path, size: dict, params: dict) -> list[dict]:
    _write(out / "mix2.json", _mixture_json(MIX2))
    _write(out / "mix3.json", _mixture_json(MIX3))
    alpha, eps = str(params["alpha"]), str(params["eps"])
    series = [
        _job(["mixture", "--spec", spec, "--alpha", alpha, "--eps", eps,
              "--n-list", ",".join(map(str, ns))])
        for spec, ns in (("mix2.json", size["mix2_n"]), ("mix3.json", size["mix3_n"]))
    ]
    direction, threshold, *gamma = params["spectrum"]
    spectrum = _job(["spectrum", "--spec", "mix2.json", "--n", str(size["spectrum_n"]),
                     "--direction", direction, "--threshold", threshold, *gamma])
    iid = _call(
        "iid_entropy",
        f"iid_entropy {IID_BASE} n={size['iid_n']} alpha={alpha} eps={eps}",
        probs=IID_BASE, n=size["iid_n"], alpha=params["alpha"], eps=params["eps"],
    )
    return series + [spectrum, iid]


def _product_codes(out: Path, size: dict, params: dict) -> list[dict]:
    base = D.new_distribution(PRODUCT_BASE)
    n, m = size["product_n"], size["roundtrip_n"]
    big, small = f"p{n}.json", f"p{m}.json"
    _write(out / big, _atoms_json(D.iid_extension(base, n)))
    _write(out / small, _atoms_json(D.iid_extension(base, m)))
    jobs = []
    for mode in ("stochastic", "deterministic"):
        eps, lam = params[mode]
        jobs.append(_job(["evaluate", "--dist", big, "--eps", str(eps), "--lambda", str(lam),
                          "--mode", mode], dist=big, eps=eps, lam=lam, mode=mode))
    jobs.append(_job(["sweep", "--dist", big, "--epsilons", SWEEP_GRID[0],
                      "--lambdas", SWEEP_GRID[1]]))
    eps, lam = str(ROUNDTRIP_EPS), str(params["roundtrip_lam"])
    jobs.append(_job(["code", "--dist", small, "--eps", eps, "--lambda", lam],
                     dist=small, save="code.json"))
    jobs.append(_job(["evaluate", "--dist", small, "--eps", eps, "--lambda", lam,
                      "--code", "code.json"],
                     dist=small, eps=ROUNDTRIP_EPS, lam=params["roundtrip_lam"],
                     mode="stochastic"))
    return jobs


def _dirichlet(rng: random.Random, k: int) -> list[float]:
    draws = [rng.gammavariate(1.0, 1.0) for _ in range(k)]
    total = sum(draws)
    return [x / total for x in draws]


def _spread(count: int, lo: int, hi: int) -> list[int]:
    """`count` supports spread evenly over [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + ((hi - lo) * i) // (count - 1) for i in range(count)]


def _small_many(out: Path, size: dict, rng: random.Random) -> list[dict]:
    """Many single-letter jobs: a quarter each of entropy, code and evaluate over
    supports 3-64, the rest brute-force oracles over supports 3-5, a few of
    them random smoothing searches (the numpy path)."""
    total = size["small_jobs"]
    per_kind = total // 4
    n_oracle = total - 3 * per_kind
    n_smoothing = max(1, total // 40)
    n_code = n_oracle - n_smoothing
    # a tenth of all jobs are the slowest kind (support-5 code searches), so the
    # 95th percentile falls inside one kind of job, not on a boundary between two
    n5 = max(1, total // 10)
    n3 = (n_code - n5) // 2
    specs = (
        [("entropy", s) for s in _spread(per_kind, 3, 64)]
        + [("code", s) for s in _spread(per_kind, 3, 64)]
        + [("evaluate", s) for s in _spread(per_kind, 3, 64)]
        + [("oracle", s) for s in [3] * n3 + [4] * (n_code - n5 - n3) + [5] * n5]
        + [("smoothing", s) for s in _spread(n_smoothing, 3, 5)]
    )
    jobs = []
    for i, (kind, support) in enumerate(specs):
        name = f"d{i:03d}.json"
        _write(out / name, {"probs": _dirichlet(rng, support)})
        eps = rng.uniform(0.0, 0.3)
        lam = rng.choice([0.5, 1.0, 2.0])
        alpha = rng.uniform(0.1, 0.9)
        if kind == "entropy":
            jobs.append(_job(["entropy", "--dist", name, "--alpha", repr(alpha),
                              "--eps", repr(eps)], ref=False, dist=name, alpha=alpha, eps=eps))
        elif kind in ("code", "evaluate"):
            mode = "deterministic" if i % 3 == 2 else "stochastic"
            jobs.append(_job([kind, "--dist", name, "--eps", repr(eps), "--lambda", str(lam),
                              "--mode", mode], ref=False, dist=name, eps=eps, lam=lam, mode=mode))
        elif kind == "oracle":
            jobs.append(_job(["oracle", "--dist", name, "--eps", repr(eps), "--lambda", str(lam),
                              "--max-len", "5"], ref=False, dist=name, eps=eps, lam=lam))
        else:
            jobs.append(_job(["oracle", "--dist", name, "--mode", "smoothing", "--eps", repr(eps),
                              "--alpha", repr(alpha), "--seed", str(i)],
                             ref=False, dist=name, eps=eps, alpha=alpha))
    rng.shuffle(jobs)
    return jobs


def write_inputs(workload: str, seed: int, size: str, out: Path,
                 params: int | None = None) -> list[dict]:
    """Write the workload's input files and `jobs.json` into `out`; return the jobs.

    `params` overrides the parameter set the seed would pick; recording the
    references uses it to cover every set.
    """
    out.mkdir(parents=True, exist_ok=True)
    sizes = SIZES[size]
    if workload == "small_many":
        jobs = _small_many(out, sizes, random.Random(seed))
    else:
        index = param_index(seed, workload) if params is None else params
        if workload == "mixture_series":
            jobs = _mixture_series(out, sizes, MIXTURE_PARAMS[index])
        else:
            jobs = _product_codes(out, sizes, PRODUCT_PARAMS[index])
    jobs.append(all_layers_job())
    _write(out / "jobs.json", jobs)
    return jobs
