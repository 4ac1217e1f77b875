"""Spans around smoothcode's layers, recorded from outside the package.

A layer is one package module: distributions, smooth_renyi, codes,
evaluation, asymptotics, oracle and cli. Every public function a layer
defines is wrapped under every name that refers to it in any package module,
so the copy of `build_stochastic_code` that `evaluation` imported from `codes`
is wrapped too; `Distribution.probabilities` is wrapped as well. Private
helpers and the `logspace` and `errors` leaves stay unwrapped, so their time
is self time of whichever wrapped function called them.

A span is [name, start, end, parent span index, job id, counts]. Spans stay in
memory until the pass ends. A span's self time is its duration minus the
durations of its child spans, which on one thread never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time

LAYERS = ("distributions", "smooth_renyi", "codes", "evaluation", "asymptotics", "oracle", "cli")
CHECK = "bench.check"  # output checks that run inside a job; never layer time

# Each per-layer metric: unit, the better direction, and the end-to-end metric
# it should move. This is the map the benchmark predicts changes with.
PER_LAYER = {
    "distributions.extension_s": ("s", "lower", "mixture_series.wall_s; about 0 elsewhere"),
    "distributions.classes": ("count", "lower", "mixture_series.wall_s"),
    "distributions.atoms": ("count", "lower", "mixture_series.wall_s"),
    "distributions.merge_ratio": ("ratio", "lower", "mixture_series.wall_s"),
    "distributions.expand_s": ("s", "lower", "product_codes.wall_s, product_codes.peak_rss_mb"),
    "distributions.expanded_symbols": ("count", "lower", "product_codes.wall_s, product_codes.peak_rss_mb"),
    "distributions.parse_s": ("s", "lower", "small_many.job_p50_ms"),
    "distributions.self_s": ("s", "lower", "wall_s of every workload"),
    "smooth_renyi.smoothing_s": ("s", "lower", "small_many.job_p50_ms; under 1% of mixture_series.wall_s"),
    "smooth_renyi.smoothing_calls": ("count", "lower", "small_many.job_p50_ms"),
    "smooth_renyi.entropy_s": ("s", "lower", "small_many.job_p50_ms; under 1% of mixture_series.wall_s"),
    "smooth_renyi.self_s": ("s", "lower", "small_many.job_p50_ms"),
    "codes.build_s": ("s", "lower", "product_codes.wall_s, product_codes.peak_rss_mb"),
    "codes.assign_s": ("s", "lower", "product_codes.wall_s, product_codes.peak_rss_mb"),
    "codes.codewords": ("count", "lower", "product_codes.wall_s, product_codes.peak_rss_mb"),
    "codes.json_s": ("s", "lower", "product_codes.wall_s, product_codes.peak_rss_mb"),
    "codes.self_s": ("s", "lower", "product_codes.wall_s"),
    "evaluation.moment_s": ("s", "lower", "product_codes.wall_s"),
    "evaluation.error_s": ("s", "lower", "product_codes.wall_s"),
    "evaluation.bounds_s": ("s", "lower", "product_codes.wall_s"),
    "evaluation.sandwich_calls": ("count", "lower", "product_codes.wall_s"),
    "evaluation.self_s": ("s", "lower", "product_codes.wall_s"),
    "asymptotics.self_s": ("s", "lower", "mixture_series.wall_s"),
    "asymptotics.blocklengths": ("count", "lower", "mixture_series.wall_s"),
    "oracle.code_search_s": ("s", "lower", "small_many.job_p95_ms"),
    "oracle.search_space": ("count", "lower", "small_many.job_p95_ms"),
    "oracle.codes_per_s": ("1/s", "higher", "small_many.job_p95_ms"),
    "oracle.smoothing_search_s": ("s", "lower", "small_many.job_p95_ms"),
    "oracle.self_s": ("s", "lower", "small_many.job_p95_ms"),
    "cli.self_s": ("s", "lower", "small_many.job_p50_ms; product_codes.wall_s (codebook dump)"),
    "cli.out_bytes": ("bytes", "lower", "small_many.job_p50_ms; product_codes.wall_s"),
    "cli.calls": ("count", "lower", "small_many.job_p50_ms"),
    "trace.wall_s": ("s", "lower", "traced wall_s, unscaled: the base of every share below"),
    "trace.overhead_frac": ("ratio", "lower", "(traced wall_s - untraced wall_s) / untraced wall_s, both scaled"),
    "trace.layer_share": ("ratio", "higher", "share of traced wall_s in the named layers' self times"),
    "distributions.self_share": ("ratio", "lower", "share of traced wall_s in the type-class layer"),
    "distributions.extension_share": ("ratio", "lower", "share of traced wall_s in extension_s"),
}


class Patches:
    """Replaces a function under every name that refers to it; undone in reverse."""

    def __init__(self, namespaces):
        self.namespaces = namespaces
        self._saved = []

    def replace(self, original, replacement) -> None:
        for ns in self.namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._saved.append((ns, name, value))
                    setattr(ns, name, replacement)

    def undo(self) -> None:
        while self._saved:
            ns, name, value = self._saved.pop()
            setattr(ns, name, value)


def package_namespaces(pkg) -> list:
    """The package, each of its modules, and the Distribution class."""
    mods = [pkg] + [
        importlib.import_module(f"{pkg.__name__}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
        if info.name != "__main__"  # importing it would run the CLI
    ]
    return mods + [pkg.distributions.Distribution]


def layer_functions(pkg) -> dict:
    """Qualified span name -> the function it wraps."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{pkg.__name__}.{layer}")
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ == mod.__name__ and not name.startswith("_"):
                out[f"{layer}.{name}"] = fn
    out["distributions.Distribution.probabilities"] = vars(pkg.distributions.Distribution)[
        "probabilities"
    ]
    return out


def _extension_counts(args, kwargs, result):
    source, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    bins = source.alphabet_size if hasattr(source, "alphabet_size") else len(source.atoms)
    return {"classes": math.comb(n + bins - 1, bins - 1), "atoms": len(result.atoms)}


COUNTERS = {
    "distributions.iid_extension": _extension_counts,
    "distributions.mixture_extension": _extension_counts,
    "distributions.Distribution.probabilities": lambda a, k, r: {"symbols": len(r)},
    "codes.assign_canonical_codewords": lambda a, k, r: {"codewords": len(r.codewords)},
    "oracle.optimal_code_bruteforce": lambda a, k, r: {"space": r.search_space_size},
    "asymptotics.entropy_rate_series": lambda a, k, r: {"blocklengths": len(r.entries)},
    "asymptotics.spectrum_probability": lambda a, k, r: {"blocklengths": 1},
}


class Recorder:
    """Collects spans of the wrapped functions while installed."""

    def __init__(self, pkg):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._functions = layer_functions(pkg)
        self._patches = Patches(package_namespaces(pkg))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, fn in self._functions.items():
            self._patches.replace(fn, self._wrap(name, fn))

    def uninstall(self) -> None:
        self._patches.undo()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span that closed without a wrapper, as a child of the open one."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, self.job, None])

    def clear(self) -> None:
        self.spans.clear()


def layer_metrics(spans: list[list], wall_s: float, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose job time summed to wall_s."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    incl: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for i, (name, _, _, _, _, cnt) in enumerate(spans):
        incl[name] = incl.get(name, 0.0) + dur[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (cnt or {}).items():
            counts[key] = counts.get(key, 0) + value

    def total(table, names):
        return sum(table.get(n, 0.0) for n in names)

    def named(prefix, keep=lambda n: True):
        return [n for n in self_by_name if n.startswith(prefix) and keep(n)]

    layer_self = {layer: total(self_by_name, named(layer + ".")) for layer in LAYERS}
    extension = ["distributions.iid_extension", "distributions.mixture_extension"]
    code_search = incl.get("oracle.optimal_code_bruteforce", 0.0)
    assign, to_json = "codes.assign_canonical_codewords", ("codes.codebook_to_json", "codes.codebook_from_json")
    m = {
        "distributions.extension_s": total(incl, extension),
        "distributions.classes": counts.get("classes", 0),
        "distributions.atoms": counts.get("atoms", 0),
        "distributions.merge_ratio": counts.get("atoms", 0) / max(counts.get("classes", 0), 1),
        "distributions.expand_s": incl.get("distributions.Distribution.probabilities", 0.0),
        "distributions.expanded_symbols": counts.get("symbols", 0),
        "distributions.parse_s": total(incl, named("distributions.", lambda n: n.endswith("_from_json"))),
        "distributions.self_s": layer_self["distributions"],
        "smooth_renyi.smoothing_s": incl.get("smooth_renyi.optimal_smoothing", 0.0),
        "smooth_renyi.smoothing_calls": calls.get("smooth_renyi.optimal_smoothing", 0),
        "smooth_renyi.entropy_s": total(
            self_by_name, named("smooth_renyi.", lambda n: n != "smooth_renyi.optimal_smoothing")
        ),
        "smooth_renyi.self_s": layer_self["smooth_renyi"],
        "codes.build_s": total(self_by_name, named("codes.", lambda n: n != assign and n not in to_json)),
        "codes.assign_s": incl.get(assign, 0.0),
        "codes.codewords": counts.get("codewords", 0),
        "codes.json_s": total(incl, to_json),
        "codes.self_s": layer_self["codes"],
        "evaluation.moment_s": self_by_name.get("evaluation.exponential_moment", 0.0),
        "evaluation.error_s": self_by_name.get("evaluation.error_probability", 0.0),
        "evaluation.bounds_s": total(self_by_name, named("evaluation.", lambda n: n.endswith("_bound"))),
        "evaluation.sandwich_calls": calls.get("evaluation.sandwich_report", 0),
        "evaluation.self_s": layer_self["evaluation"],
        "asymptotics.self_s": layer_self["asymptotics"],
        "asymptotics.blocklengths": counts.get("blocklengths", 0),
        "oracle.code_search_s": code_search,
        "oracle.search_space": counts.get("space", 0),
        "oracle.codes_per_s": counts.get("space", 0) / code_search if code_search > 0 else 0.0,
        "oracle.smoothing_search_s": incl.get("oracle.smoothing_feasible_search", 0.0),
        "oracle.self_s": layer_self["oracle"],
        "cli.self_s": layer_self["cli"],
        "cli.out_bytes": out_bytes,
        "cli.calls": calls.get("cli.run", 0),
        "trace.wall_s": wall_s,
        "trace.layer_share": sum(layer_self.values()) / wall_s,
        "distributions.self_share": layer_self["distributions"] / wall_s,
        "distributions.extension_share": total(incl, extension) / wall_s,
    }
    return m
