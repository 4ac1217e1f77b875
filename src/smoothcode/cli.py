"""Command-line front end: JSON and CSV reports over the library operations.

Exit codes: 0 on success, 2 for validation or usage errors, 3 when a size cap
is exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .asymptotics import SpectrumQuery, entropy_rate_series, spectrum_probability
from .codes import (
    _codebook_from_bytes,
    _codebook_text,
    _json_loads,
    _json_number,
    build_deterministic_code,
    build_stochastic_code,
)
from .distributions import atom_cap, distribution_from_json, mixture_from_json
from .errors import SmoothcodeError, TooLarge, check_alpha, check_eps
from .evaluation import evaluate_code, sandwich_report
from .logspace import LN2
from .oracle import optimal_code_bruteforce, smoothing_feasible_search
from .smooth_renyi import log_power_sum, optimal_smoothing


def _in_unit(nats: float, unit: str) -> float:
    return nats / LN2 if unit == "bits" else nats


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load_json(path: str) -> dict:
    return _json_loads(_read_text(path))


def _emit_json(obj) -> None:
    print(_json_text(obj))


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    json.dumps encodes in pure Python whenever indent is set; a report is a
    few dicts and lists of strings and numbers, which _indented writes in one
    call per value. Any other type, or a dict key that is not a str, is
    json.dumps's own, error included.
    """
    try:
        return _indented(obj, "\n")
    except TypeError:
        return json.dumps(obj, indent=2, sort_keys=True)


_ENCODE = json.encoder.encode_basestring_ascii
_LITERALS = {True: "true", False: "false", None: "null"}


def _indented(obj, newline: str) -> str:
    """obj as json.dumps writes it at the depth whose line break and indent is newline."""
    kind = type(obj)
    if kind is str:
        return _ENCODE(obj)
    if kind is float or kind is int:
        return _json_number(obj)
    if kind is bool or obj is None:
        return _LITERALS[obj]
    inner = newline + "  "
    if kind is dict:
        if not obj:
            return "{}"
        # _ENCODE raises TypeError on a key that is not a str
        items = [_ENCODE(key) + ": " + _indented(obj[key], inner) for key in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        items = [_indented(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"{kind.__name__} is left to json.dumps")


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _fmt12(x: float) -> str:
    return format(x, ".12g")


def _cmd_entropy(args) -> int:
    dist = distribution_from_json(_load_json(args.dist))
    # one smoothing for all five values, as smooth_renyi_entropy,
    # smooth_max_entropy and r_alpha_eps derive them; eps is checked first
    sub = optimal_smoothing(dist, args.eps)
    check_alpha(args.alpha)
    log_r = log_power_sum(sub, args.alpha)
    _emit_json(
        {
            "alpha": args.alpha,
            "eps": args.eps,
            "unit": args.unit,
            "entropy": _in_unit(log_r / (1.0 - args.alpha), args.unit),
            "smooth_max_entropy": _in_unit(math.log(sub.k_star), args.unit),
            "r_alpha_eps": math.exp(log_r),
            "k_star": sub.k_star,
            "gamma_eps": sub.gamma_eps,
        }
    )
    return 0


def _build_code(args, dist):
    build = build_deterministic_code if args.mode == "deterministic" else build_stochastic_code
    return build(dist, args.eps, args.lam)


def _cmd_code(args) -> int:
    dist = distribution_from_json(_load_json(args.dist))
    print(_codebook_text(_build_code(args, dist)))
    return 0


def _cmd_evaluate(args) -> int:
    dist = distribution_from_json(_load_json(args.dist))
    if args.code is not None:
        check_eps(args.eps)  # the builder's check, which a read code skips
        with open(args.code, "rb") as f:  # the reader decodes only what it hands to json
            code = _codebook_from_bytes(f.read())
    else:
        code = _build_code(args, dist)
    report = evaluate_code(code, dist, args.eps, args.lam)
    _emit_json(report.to_json_dict())
    return 0


def _cmd_oracle(args) -> int:
    dist = distribution_from_json(_load_json(args.dist))
    if args.mode == "code":
        _emit_json(vars(optimal_code_bruteforce(dist, args.eps, args.lam, args.max_len)))
    else:
        if args.alpha is None:
            raise ValueError("oracle smoothing mode needs --alpha")
        best = smoothing_feasible_search(
            dist, args.alpha, args.eps, trials=args.trials, seed=args.seed
        )
        _emit_json(
            {
                "alpha": args.alpha,
                "eps": args.eps,
                "trials": args.trials,
                "seed": args.seed,
                "best_power_sum": best,
            }
        )
    return 0


def _cmd_mixture(args) -> int:
    spec = mixture_from_json(_load_json(args.spec))
    series = entropy_rate_series(spec, args.alpha, args.eps, _int_list(args.n_list))
    limit = _in_unit(series.limit, args.unit)
    if args.format == "csv":
        print("n,value,limit")
        for n, value in series.entries:
            print(f"{n},{_fmt12(_in_unit(value, args.unit))},{_fmt12(limit)}")
    else:
        _emit_json(
            {
                "alpha": series.alpha,
                "eps": series.eps,
                "unit": args.unit,
                "component": series.component,
                "limit": limit,
                "entries": [
                    {"n": n, "value": _in_unit(v, args.unit)} for n, v in series.entries
                ],
            }
        )
    return 0


def _cmd_spectrum(args) -> int:
    spec = mixture_from_json(_load_json(args.spec))
    query = SpectrumQuery(
        n=args.n, direction=args.direction, threshold=args.threshold, gamma=args.gamma
    )
    prob = spectrum_probability(spec, query)
    _emit_json(
        {
            "n": args.n,
            "direction": args.direction,
            "threshold": args.threshold,
            "gamma": args.gamma,
            "probability": prob,
        }
    )
    return 0


def _cmd_sweep(args) -> int:
    dist = distribution_from_json(_load_json(args.dist))
    reports = [
        sandwich_report(dist, eps, lam)
        for eps in _float_list(args.epsilons)
        for lam in _float_list(args.lambdas)
    ]
    if args.format == "csv":
        cols = [
            "eps",
            "lambda",
            "error_prob",
            "error_prob_raw",
            "exp_moment",
            "converse_bound",
            "direct_bound",
        ]
        print(",".join(cols))
        for r in reports:
            d = r.to_json_dict()
            print(",".join(_fmt12(d[c]) for c in cols))
    else:
        _emit_json({"reports": [r.to_json_dict() for r in reports]})
    return 0


@functools.cache  # built on first use, not at import; parsing keeps no state
def _parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The full parser and, by subcommand name, (own parser, options, defaults).

    options maps each option string of the subcommand to the Action that
    add_argument returned for it; defaults maps each dest to its default and
    "handler" to the subcommand's handler, as its own parser fills them in.
    """
    parser = argparse.ArgumentParser(
        prog="smoothcode",
        description="Smooth Renyi entropies, error-tolerant prefix codes, and moment bounds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    subcommands = {}

    def add(name, handler, help):
        """Declare a subcommand; the function returned declares one of its options."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        options, defaults = {}, {"handler": handler}
        subcommands[name] = (p, options, defaults)

        def option(flag, **kwargs):
            action = p.add_argument(flag, **kwargs)
            options[flag] = action
            defaults[action.dest] = action.default

        return option

    def common(option, unit=False, fmt=False, seed=False):
        if unit:
            option("--unit", choices=("nats", "bits"), default="nats")
        if fmt:
            option("--format", choices=("json", "csv"), default="json")
        if seed:
            option("--seed", type=int, default=0)

    opt = add("entropy", _cmd_entropy, "smooth Renyi and smooth max entropy of a distribution")
    opt("--dist", required=True)
    opt("--alpha", type=float, required=True)
    opt("--eps", type=float, required=True)
    common(opt, unit=True)

    opt = add("code", _cmd_code, "construct a flag-bit codebook")
    opt("--dist", required=True)
    opt("--eps", type=float, required=True)
    opt("--lambda", dest="lam", type=float, required=True)
    opt("--mode", choices=("stochastic", "deterministic"), default="stochastic")

    opt = add("evaluate", _cmd_evaluate, "error probability, exact moment, and bounds")
    opt("--dist", required=True)
    opt("--eps", type=float, required=True)
    opt("--lambda", dest="lam", type=float, required=True)
    opt("--mode", choices=("stochastic", "deterministic"), default="stochastic")
    opt("--code", default=None, help="evaluate this codebook instead of building one")

    opt = add("oracle", _cmd_oracle, "brute-force optimal code or random smoothing search")
    opt("--dist", required=True)
    opt("--mode", choices=("code", "smoothing"), default="code")
    opt("--eps", type=float, required=True)
    opt("--lambda", dest="lam", type=float, default=1.0)
    opt("--max-len", type=int, default=5)
    opt("--alpha", type=float, default=None)
    opt("--trials", type=int, default=1000)
    common(opt, seed=True)

    opt = add("mixture", _cmd_mixture, "per-symbol entropy series of a mixture source")
    opt("--spec", required=True)
    opt("--alpha", type=float, required=True)
    opt("--eps", type=float, required=True)
    opt("--n-list", required=True, help="comma-separated blocklengths")
    common(opt, unit=True, fmt=True)

    opt = add("spectrum", _cmd_spectrum, "exact mass of a self-information rate predicate")
    opt("--spec", required=True)
    opt("--n", type=int, required=True)
    opt("--direction", choices=("ge", "le", "within"), required=True)
    opt("--threshold", type=float, required=True)
    opt("--gamma", type=float, default=None)

    opt = add("sweep", _cmd_sweep, "sandwich reports over an (eps, lambda) grid")
    opt("--dist", required=True)
    opt("--epsilons", required=True, help="comma-separated eps values")
    opt("--lambdas", required=True, help="comma-separated lambda values")
    common(opt, fmt=True)

    return parser, subcommands


def _plain_options(
    options: dict[str, argparse.Action], defaults: dict, tokens: list[str]
) -> argparse.Namespace | None:
    """The namespace a subcommand's parser makes of tokens, when they are plain.

    Plain tokens are --option value pairs, each option named in full and
    given once, no value starting with "-", every value one that the
    option's type and choices take, and every required option given. For
    those the parser would only convert and store each value over the
    defaults. Anything else is None, and left to the parser.
    """
    if len(tokens) % 2:
        return None
    values = dict(defaults)
    given = set()
    for flag, text in zip(tokens[::2], tokens[1::2]):
        action = options.get(flag)
        if action is None or flag in given or text.startswith("-"):
            return None
        given.add(flag)
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if any(action.required and flag not in given for flag, action in options.items()):
        return None
    return argparse.Namespace(**values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv, reading it once when it starts with a subcommand.

    A call made only of plain --option value pairs is read off the
    subcommand's option table; any other call of a subcommand goes to its
    own parser, to which the full parser would hand the same strings after
    reading them itself. Anything else (no arguments, help, version, an
    unknown subcommand, a string the subcommand does not take) goes through
    the full parser, so every usage line and message is argparse's own.
    """
    parser, subcommands = _parser()
    own = subcommands.get(argv[0]) if argv else None
    if own is not None:
        own_parser, options, defaults = own
        args = _plain_options(options, defaults, argv[1:])
        if args is not None:
            return args
        args, extras = own_parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        atom_cap()  # a malformed SMOOTHCODE_CAP fails every subcommand
        return args.handler(args)
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SmoothcodeError, ValueError, KeyError, OSError) as exc:
        missing = "missing key " if isinstance(exc, KeyError) else ""  # str(exc) is the key alone
        print(f"error: {missing}{exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
