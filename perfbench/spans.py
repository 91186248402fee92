"""Spans around the public functions of each rerand layer, and the
per-layer metrics derived from them.

The package's modules import each other with `from .x import y`, so a
function is reachable under one name per importing module
(`core.half_split_matrix`, `engine.half_split_matrix`,
`balance.half_split_matrix`, ...). `Tracer.install` rebinds every one of
those names to a wrapper; `uninstall` puts the originals back. Spans are
kept in memory as [name, start, end, parent index, op index, info] and
written out once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

# The public functions wrapped per layer. dist.chi2_cdf is left out on
# purpose: chi2_quantile calls it dozens of times per quantile, so a span
# there would cost more than the work it measures.
LAYERS = {
    "core": ("read_covariate_csv", "write_allocation_csv", "standardize",
             "half_split_matrix", "group_means"),
    "dist": ("chi2_quantile", "shrinkage_coeff"),
    "spectral": ("decompose", "select_k", "project"),
    "balance": ("calibrate", "choose_lambda", "default_lambda", "batch_distances",
                "predict_reduction", "mahalanobis", "mahalanobis_pca", "mahalanobis_ridge"),
    "engine": ("rerandomize", "complete_randomization", "accepted_sample"),
    "simharness": ("run_study", "gen_covariates", "nested_submatrix", "gen_outcome",
                   "beta_vector", "anova", "write_metrics_csv", "write_summary_json",
                   "write_anova_csv", "write_timings_csv"),
    "cli": ("main",),
}
SCHEMES = ("cr", "rer", "pca", "ridge")
# Spans under which half_split_matrix rows are calibration draws.
CALIBRATION = ("balance.calibrate", "balance.choose_lambda", "balance.predict_reduction")


def _info_hooks(originals: dict) -> dict:
    """Per-function extractors of the counts a span carries."""

    sigs = {name: inspect.signature(fn) for name, fn in originals.items()}

    def bound(name, args, kwargs):
        b = sigs[name].bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    def calibrate(args, kwargs, out):
        return {"scheme": out.scheme, "n_cal": bound("balance.calibrate", args, kwargs).get("n_cal")}

    def choose_lambda(args, kwargs, out):
        a = bound("balance.choose_lambda", args, kwargs)
        return {"n_cal": a.get("n_cal") if a.get("beta") is not None else 0}

    def rerandomize(args, kwargs, out):
        crit = bound("engine.rerandomize", args, kwargs)["criterion"]
        return {"scheme": crit.scheme, "p_a": crit.acceptance_prob, "degenerate": crit.degenerate,
                "accepted": out.accepted, "draws": out.draws_attempted}

    def main(args, kwargs, out):
        argv = list(args[0]) if args else list(kwargs.get("argv") or [])
        scheme = argv[argv.index("--scheme") + 1] if "--scheme" in argv else None
        return {"command": argv[0] if argv else None, "scheme": scheme}

    return {
        "core.half_split_matrix": lambda a, kw, out: {"rows": int(out.shape[0])},
        "balance.batch_distances": lambda a, kw, out: {"rows": int(out.shape[0])},
        "balance.calibrate": calibrate,
        "balance.choose_lambda": choose_lambda,
        "engine.rerandomize": rerandomize,
        "cli.main": main,
    }


class Tracer:
    """Records a span for every call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[5] = hook(args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        """Rebind each wrapped function in every module that imports it."""
        if not self._patches:
            modules = [package] + [getattr(package, layer) for layer in LAYERS]
            originals = {f"{layer}.{fn}": getattr(getattr(package, layer), fn)
                         for layer, names in LAYERS.items() for fn in names}
            hooks = _info_hooks(originals)
            for name, fn in originals.items():
                wrapped = self._wrap(name, fn, hooks.get(name))
                self._patches += [(mod, attr, fn, wrapped) for mod in modules
                                  for attr, value in vars(mod).items() if value is fn]
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Put the original functions back; install() may be called again."""
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _ancestor_in(spans, i, names) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


def derive(spans: list[list], wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics: name -> (value, unit)."""
    # A call that raised has no info; it still counts as a call and as time.
    informed = [s for s in spans if s[5] is not None]
    own = self_times(spans)
    dur = {}
    calls = {}
    for s in spans:
        dur[s[0]] = dur.get(s[0], 0.0) + (s[2] - s[1])
        calls[s[0]] = calls.get(s[0], 0) + 1

    def total(*names):
        return sum(dur.get(n, 0.0) for n in names)

    rows = {"calib": 0, "reject": 0}
    calib_s = 0.0
    for i, s in enumerate(spans):
        if s[0] != "core.half_split_matrix" or s[5] is None:
            continue
        if _ancestor_in(spans, i, CALIBRATION):
            rows["calib"] += s[5]["rows"]
            calib_s += own[i]
        elif s[3] >= 0 and spans[s[3]][0] == "engine.rerandomize":
            rows["reject"] += s[5]["rows"]

    cal_s = dict.fromkeys(SCHEMES, 0.0)
    cal_n = dict.fromkeys(SCHEMES, 0)
    acc = {s: [0, 0, 0.0] for s in SCHEMES}  # accepted, draws, p_a
    loop = {"calls": 0, "self": 0.0, "draws": 0, "exhausted": 0, "degenerate": 0}
    main_nonridge = [0.0, 0.0]  # cli.main time, read_covariate_csv time
    nonridge_mains = set()
    for i, s in enumerate(spans):
        name, info = s[0], s[5]
        if info is None:
            continue
        if name == "balance.calibrate":
            cal_s[info["scheme"]] += own[i]
            cal_n[info["scheme"]] += 1
        elif name == "engine.rerandomize":
            loop["calls"] += 1
            loop["self"] += own[i]
            if info["scheme"] == "cr":
                continue
            loop["draws"] += info["draws"]
            if info["degenerate"]:
                loop["degenerate"] += 1
                continue
            loop["exhausted"] += not info["accepted"]
            a = acc[info["scheme"]]
            a[0] += info["accepted"]
            a[1] += info["draws"]
            a[2] = info["p_a"]
        elif name == "cli.main" and info["command"] == "allocate" and info["scheme"] != "ridge":
            main_nonridge[0] += s[2] - s[1]
            nonridge_mains.add(i)
    for i, s in enumerate(spans):
        if s[0] == "core.read_covariate_csv" and s[3] in nonridge_mains:
            main_nonridge[1] += s[2] - s[1]

    m = {
        "core.read_csv_s": (total("core.read_covariate_csv"), "s"),
        "core.read_csv_calls": (calls.get("core.read_covariate_csv", 0), "count"),
        "core.read_csv_share": (main_nonridge[1] / main_nonridge[0] if main_nonridge[0] else 0.0, "ratio"),
        "core.standardize_s": (total("core.standardize"), "s"),
        "core.draw_rows_calib": (rows["calib"], "count"),
        "core.draw_rows_reject": (rows["reject"], "count"),
        "core.draw_s": (total("core.half_split_matrix"), "s"),
        "core.draw_calib_s": (calib_s, "s"),
        "core.draw_calib_share": (calib_s / wall if wall else 0.0, "ratio"),
        "dist.quantile_calls": (calls.get("dist.chi2_quantile", 0), "count"),
        "dist.quantile_s": (total("dist.chi2_quantile"), "s"),
        "dist.shrinkage_s": (total("dist.shrinkage_coeff"), "s"),
        "spectral.decompose_calls": (calls.get("spectral.decompose", 0), "count"),
        "spectral.decompose_s": (total("spectral.decompose"), "s"),
    }
    for sc in SCHEMES:
        m[f"balance.calibrate_s.{sc}"] = (cal_s[sc], "s")
        m[f"balance.calibrate_calls.{sc}"] = (cal_n[sc], "count")
    m["balance.choose_lambda_s"] = (total("balance.choose_lambda"), "s")
    m["balance.distance_rows"] = (sum(s[5]["rows"] for s in informed if s[0] == "balance.batch_distances"), "count")
    m["balance.distance_s"] = (total("balance.batch_distances"), "s")
    for sc in SCHEMES[1:]:
        a = acc[sc]
        m[f"balance.accept_ratio.{sc}"] = (a[0] / a[1] / a[2] if a[1] else 0.0, "ratio")
    m.update({
        "engine.rerandomize_calls": (loop["calls"], "count"),
        "engine.rerandomize_self_s": (loop["self"], "s"),
        "engine.draws_attempted": (loop["draws"], "count"),
        "engine.useful_ratio": (loop["draws"] / rows["reject"] if rows["reject"] else 0.0, "ratio"),
        "engine.exhausted": (loop["exhausted"], "count"),
        "engine.degenerate": (loop["degenerate"], "count"),
        "simharness.run_study_self_s": (sum(o for s, o in zip(spans, own) if s[0] == "simharness.run_study"), "s"),
        "simharness.covgen_s": (total("simharness.gen_covariates", "simharness.nested_submatrix"), "s"),
        "simharness.anova_s": (total("simharness.anova"), "s"),
        "simharness.write_s": (total("simharness.write_metrics_csv", "simharness.write_summary_json",
                                     "simharness.write_anova_csv", "simharness.write_timings_csv"), "s"),
        "cli.main_s": (total("cli.main"), "s"),
        "cli.self_s": (sum(o for s, o in zip(spans, own) if s[0] == "cli.main"), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_frac": (wall / untraced_wall - 1.0, "ratio"),
    })
    return m


def invariants(spans: list[list], metrics: dict) -> list[str]:
    """Problems with the trace itself; an empty list means it is sound."""
    problems = []
    worst = min(self_times(spans), default=0.0)
    if worst < 0.0:
        problems.append(f"child spans exceed their parent by {-worst:.3g} s")
    drawn, reject = metrics["engine.draws_attempted"][0], metrics["core.draw_rows_reject"][0]
    if drawn > reject:
        problems.append(f"draws attempted {drawn} exceed rejection rows generated {reject}")
    expected = sum(s[5]["n_cal"] for s in spans if s[5] is not None and (
        (s[0] == "balance.calibrate" and s[5]["scheme"] == "ridge")
        or s[0] == "balance.choose_lambda"))
    if metrics["core.draw_rows_calib"][0] != expected:
        problems.append(f"calibration rows {metrics['core.draw_rows_calib'][0]} != "
                        f"n_cal x ridge calibrations = {expected}")
    return problems


def top_self_times(spans: list[list], count: int = 5) -> list[tuple[str, float]]:
    """The span names with the largest total self time."""
    acc: dict = {}
    for s, o in zip(spans, self_times(spans)):
        acc[s[0]] = acc.get(s[0], 0.0) + o
    return sorted(acc.items(), key=lambda kv: -kv[1])[:count]


def top_self_times_under(spans, pick, count: int = 3) -> list[tuple[str, float]]:
    """Like top_self_times, restricted to descendants of spans where pick(span)."""
    roots = {i for i, s in enumerate(spans) if pick(s)}
    own = self_times(spans)
    acc: dict = {}
    for i, s in enumerate(spans):
        j = i
        while j >= 0 and j not in roots:
            j = spans[j][3]
        if j >= 0:
            acc[s[0]] = acc.get(s[0], 0.0) + own[i]
    return sorted(acc.items(), key=lambda kv: -kv[1])[:count]
