"""Command-line front end: allocate, simulate, diagnose.

Exit codes: 0 on success (including rejection exhaustion, which is a
statistical soft failure reported in the output, not an operator error),
1 on validation or I/O failure, 2 on usage errors.

All randomness flows from --seed, an integer >= 0; without the flag a
seed is drawn from system entropy and printed so the run can be
reproduced. Only allocate and diagnose take --pa and --gamma; simulate
reads both from its config. Output files contain no wall-clock values
unless --timings is passed, so fixed-seed reruns are byte-identical.
Every output file is written by core.write_csv or core.write_json, and
every shrinkage value is read from the calibrated criterion
(BalanceCriterion.shrinkage). A degenerate balance rule is reported
once per distinct message as a `note:` line on stderr, not as a Python
warning.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import secrets
import sys
import warnings

from .balance import SCHEMES, DegenerateRuleWarning, _check_lambda, calibrate, predict_reduction
from .core import (
    RngStream,
    group_means,
    read_covariate_csv,
    standardize,
    write_allocation_csv,
    write_csv,
    write_json,
)
from .engine import DEFAULT_MAX_DRAWS, complete_randomization, rerandomize
from .simharness import (
    FactorGrid,
    anova,
    gen_covariates,
    run_study,
    write_anova_csv,
    write_metrics_csv,
    write_summary_json,
    write_timings_csv,
)
from .spectral import decompose, select_k

_ALLOCATE_SCHEMA = """\
allocate writes into --out:
  allocation.csv   unit_index, assignment            (deterministic)
  diagnostics.csv  covariate, smd_before, smd_after  (deterministic)
  report.json      scheme, n, d, p_a, gamma, lambda, k, threshold, v_ak,
                   criterion_value, draws_attempted, accepted, degenerate,
                   note, near_equal, seed             (deterministic)
smd_* are standardized treatment-control mean differences; "before" uses
an independent complete randomization from the same seed, "after" the
returned allocation. With --timings, report.json also carries
elapsed_seconds (not reproducible byte for byte).
"""

_SIMULATE_SCHEMA = """\
simulate writes into --out:
  metrics.csv        n, d, rho, surface, beta, resid_var, scheme,
                     r_sigma_bar_sq, r_mse, k_selected, k_mean, v_ak,
                     exhausted, mean_draws, accept_rate (deterministic)
  summary.json       master_seed, every grid setting, the records
                     above                            (deterministic)
  anova_r_sigma.csv  term, df, sum_sq, mean_sq, f_ratio (deterministic;
                     needs groups >= 2)
  anova_r_mse.csv    same columns                     (deterministic)
  timings.csv        n, d, rho, scheme, mean_seconds, median_seconds
                     (only with --timings; varies run to run)
Config file: one "key = value" per line, each key once, '#' comments,
comma lists.
Keys: n, d, rho, schemes, surfaces, betas, resid_vars, replications,
groups, pa, gamma, lambda (number or auto), tau, max_draws, seed.
"""

_DIAGNOSE_SCHEMA = """\
diagnose writes into --out:
  spectrum.csv   component_index, sigma, explained_cumulative
  shrinkage.csv  k, a_k, v_ak, v_full, reduction_pct
                 (v_full is the full-rank coefficient at the same p_a;
                 reduction_pct = 100 (1 - v_ak / v_full). At rank n-1 the
                 full-rank rule is degenerate: v_full and its v_ak are
                 empty and reduction_pct is 100 (1 - v_ak), 0 at k = p)
  prv.csv        covariate_index, covariate, prv
  report.json    n, d, p, k_selected, gamma, p_a, a_k, v_ak, v_full
                 (null where shrinkage.csv leaves the cell empty)
All outputs are deterministic given --seed (synthetic input) or the
input file.
"""


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    seed = secrets.randbits(63)
    print(f"seed: {seed} (drawn from system entropy; pass --seed to reproduce)")
    return seed


def _seed(text) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {text}")
    return int(text)


def _parse_lambda(text):
    if text is None or text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"lambda must be a number or 'auto', got {text!r}")
    _check_lambda(value)
    return value


def _cmd_allocate(args) -> int:
    if not args.input:
        raise ValueError("allocate requires --input")
    seed = _resolve_seed(args)
    names, raw = read_covariate_csv(args.input)
    x = standardize(raw)
    del raw  # only the standardized copy is read from here on
    if x.n % 2 == 1 and not args.near_equal:
        raise ValueError("odd number of units; pass --near-equal to allow")

    root = RngStream(seed)
    if args.scheme == "cr":
        # Complete randomization reads nothing of the spectral basis, so the
        # SVD is skipped; a design of constant columns is allocated too.
        if not 0.0 < args.gamma < 1.0:
            raise ValueError("gamma must lie strictly inside (0, 1)")
        basis, k = None, None
    else:
        basis = decompose(x)
        k = select_k(basis, args.gamma).k
    lam = _parse_lambda(getattr(args, "lambda"))
    criterion = calibrate(args.scheme, args.pa, basis or x.n, k=k, lam=lam)

    baseline = complete_randomization(x.n, root.child(0), near_equal=args.near_equal)
    result = rerandomize(
        x,
        criterion,
        root.child(1),
        max_draws=args.max_draws,
        basis=basis,
        near_equal=args.near_equal,
    )

    os.makedirs(args.out, exist_ok=True)
    write_allocation_csv(os.path.join(args.out, "allocation.csv"), result.allocation)

    before = group_means(x, baseline).diff
    after = group_means(x, result.allocation).diff
    write_csv(
        os.path.join(args.out, "diagnostics.csv"),
        ["covariate", "smd_before", "smd_after"], zip(names, before, after),
    )

    payload = {
        "scheme": criterion.scheme,
        "n": x.n,
        "d": x.d,
        "p_a": args.pa,
        "gamma": args.gamma,
        "lambda": criterion.lam,
        "k": criterion.k,
        "threshold": criterion.threshold,
        "v_ak": criterion.shrinkage,
        "criterion_value": result.criterion_value,
        "draws_attempted": result.draws_attempted,
        "accepted": result.accepted,
        "degenerate": criterion.degenerate,
        "note": criterion.note,
        "near_equal": bool(args.near_equal),
        "seed": seed,
    }
    if args.timings:
        payload["elapsed_seconds"] = result.elapsed
    write_json(os.path.join(args.out, "report.json"), payload)

    status = "accepted" if result.accepted else "exhausted (best-so-far returned)"
    print(
        f"{criterion.scheme}: {status} after {result.draws_attempted} draw(s)"
        + (
            f", criterion value {result.criterion_value:.6g}"
            if result.criterion_value is not None
            else ""
        )
    )
    return 0


def _list(parse):
    """A parser of comma lists whose items parse(item) reads."""
    return lambda text: tuple(parse(v.strip()) for v in text.split(","))


# Study config key -> (FactorGrid field, value parser). The only other
# accepted key is "seed", which is not part of the grid.
_GRID_KEYS = {
    "n": ("n_levels", _list(int)),
    "d": ("d_levels", _list(int)),
    "rho": ("rho_levels", _list(float)),
    "schemes": ("schemes", _list(str)),
    "surfaces": ("surfaces", _list(str)),
    "betas": ("beta_choices", _list(str)),
    "resid_vars": ("resid_vars", _list(float)),
    "replications": ("replications", int),
    "groups": ("groups", int),
    "pa": ("p_a", float),
    "gamma": ("gamma", float),
    "lambda": ("lam", _parse_lambda),
    "tau": ("tau", float),
    "max_draws": ("max_draws", int),
}
_FIELD_KEYS = {name: key for key, (name, _) in _GRID_KEYS.items()}


class _Config(dict):
    """The value text of each key of a study config, with the key's line."""

    def __init__(self, path):
        super().__init__()
        self.path, self.lines = path, {}

    def parse(self, key, parse):
        """parse(value of key); a ValueError names the file, line and key."""
        try:
            return parse(self[key])
        except (ValueError, argparse.ArgumentTypeError) as exc:
            where = f"{self.path}:{self.lines[key]}"
            raise ValueError(f"{where}: bad value for {key!r}: {exc}") from None


def _parse_config(path) -> _Config:
    cfg = _Config(path)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _GRID_KEYS and key != "seed":
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in cfg:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {cfg.lines[key]}")
            cfg[key], cfg.lines[key] = value, lineno
    return cfg


def _grid_from_config(cfg: _Config) -> FactorGrid:
    """The study grid of cfg; a FactorGrid error keeps its `field` tag."""
    for req in ("n", "d", "rho"):
        if req not in cfg:
            raise ValueError(f"{cfg.path}: config is missing required key {req!r}")
    values = {name: cfg.parse(key, parse)
              for key, (name, parse) in _GRID_KEYS.items() if key in cfg}
    return FactorGrid(**values)


def _cmd_simulate(args) -> int:
    if not args.config:
        raise ValueError("simulate requires --config")
    cfg = _parse_config(args.config)
    try:
        grid = _grid_from_config(cfg)
        if args.seed is None and "seed" in cfg:
            seed = cfg.parse("seed", _seed)
        else:
            seed = _resolve_seed(args)
        report = run_study(grid, seed)
    except ValueError as exc:  # one field's error, the grid's or ridge's lambda, names its line
        if not hasattr(exc, "field"):
            raise
        key = _FIELD_KEYS.get(exc.field)
        where = f"{cfg.path}:{cfg.lines[key]}" if key in cfg else cfg.path
        raise ValueError(f"{where}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    write_metrics_csv(report, os.path.join(args.out, "metrics.csv"))
    write_summary_json(report, os.path.join(args.out, "summary.json"))
    if grid.groups >= 2:
        write_anova_csv(
            anova(report, "r_sigma_bar_sq"),
            os.path.join(args.out, "anova_r_sigma.csv"),
        )
        write_anova_csv(
            anova(report, "r_mse"), os.path.join(args.out, "anova_r_mse.csv")
        )
    else:
        print("groups < 2: skipping ANOVA tables (no within-cell residual)")
    if args.timings:
        write_timings_csv(report, os.path.join(args.out, "timings.csv"))

    # every outcome model of a (cell, rho, scheme) repeats its runs' count
    exhausted = sum({(r.n, r.d, r.rho, r.scheme): r.exhausted for r in report.records}.values())
    print(
        f"simulate: {len(report.records)} records, "
        f"{exhausted} exhausted rejection run(s), outputs in {args.out}"
    )
    return 0


def _cmd_diagnose(args) -> int:
    if args.input:
        if any(v is not None for v in (args.n, args.d, args.rho)):
            raise ValueError("diagnose: --input excludes --n, --d and --rho")
        names, raw = read_covariate_csv(args.input)
        x = standardize(raw)
        del raw  # only the standardized copy is read from here on
    else:
        if args.n is None or args.d is None or args.rho is None:
            raise ValueError("diagnose needs --input or all of --n, --d, --rho")
        seed = _resolve_seed(args)
        x = gen_covariates(args.n, args.d, args.rho, RngStream(seed))
        names = [f"x{i + 1}" for i in range(args.d)]

    basis = decompose(x)
    sel = select_k(basis, args.gamma)
    os.makedirs(args.out, exist_ok=True)
    write_csv(
        os.path.join(args.out, "spectrum.csv"),
        ["component_index", "sigma", "explained_cumulative"],
        zip(range(1, basis.p + 1), basis.singular_values, sel.explained),
    )

    # At rank n-1 the full-rank rule runs as complete randomization: v_full is
    # None and reductions are measured against complete randomization (v = 1).
    rules = [calibrate("pca", args.pa, basis, k=k) for k in range(1, basis.p + 1)]
    v_full = rules[-1].shrinkage
    v_ref = 1.0 if v_full is None else v_full
    rows = []
    for k, rule in enumerate(rules, start=1):
        v_k = rule.shrinkage
        reduction_pct = 100.0 * (1.0 - (v_ref if v_k is None else v_k) / v_ref)
        rows.append((k, rule.threshold, v_k, v_full, reduction_pct))
    write_csv(
        os.path.join(args.out, "shrinkage.csv"),
        ["k", "a_k", "v_ak", "v_full", "reduction_pct"], rows,
    )

    criterion = rules[sel.k - 1]
    reduction = predict_reduction(criterion, basis)
    write_csv(
        os.path.join(args.out, "prv.csv"),
        ["covariate_index", "covariate", "prv"],
        zip(range(1, x.d + 1), names, reduction.per_covariate_prv),
    )

    write_json(
        os.path.join(args.out, "report.json"),
        {
            "n": x.n,
            "d": x.d,
            "p": basis.p,
            "k_selected": sel.k,
            "gamma": args.gamma,
            "p_a": args.pa,
            "a_k": criterion.threshold,
            "v_ak": criterion.shrinkage,
            "v_full": v_full,
        },
    )
    print(f"diagnose: p = {basis.p}, selected k = {sel.k}, outputs in {args.out}")
    return 0


def _add_common(sub, rule: bool, timings: bool = False) -> None:
    if rule:  # simulate reads pa and gamma from its config
        sub.add_argument("--pa", type=float, default=0.05,
                         help="target acceptance probability (default 0.05)")
        sub.add_argument("--gamma", type=float, default=0.95,
                         help="cumulative-variance threshold for k (default 0.95)")
    sub.add_argument("--seed", type=_seed, default=None,
                     help="master seed; drawn from entropy and printed if absent")
    sub.add_argument("--out", default=".", help="output directory (default .)")
    if timings:
        sub.add_argument("--timings", action="store_true",
                         help="also write wall-clock values (not reproducible)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rerand",
        description="Covariate-balanced treatment allocation by rerandomization",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    raw = argparse.RawDescriptionHelpFormatter  # each epilog is printed as written

    alloc = commands.add_parser("allocate", help="allocate units from a covariate CSV",
                                epilog=_ALLOCATE_SCHEMA, formatter_class=raw)
    alloc.add_argument("--input", help="covariate CSV (header row, numeric cells)")
    alloc.add_argument("--scheme", choices=SCHEMES,
                       default="pca", help="randomization scheme (default pca)")
    alloc.add_argument("--lambda", default="auto", dest="lambda",
                       help="ridge penalty, a positive number or 'auto' (default auto)")
    alloc.add_argument("--max-draws", type=int, default=DEFAULT_MAX_DRAWS,
                       dest="max_draws", help="rejection draw cap (default 1e6)")
    alloc.add_argument("--near-equal", action="store_true", dest="near_equal",
                       help="allow odd n with a near-equal split")
    _add_common(alloc, rule=True, timings=True)
    alloc.set_defaults(func=_cmd_allocate)

    sim = commands.add_parser("simulate", help="run a factorial simulation study",
                              epilog=_SIMULATE_SCHEMA, formatter_class=raw)
    sim.add_argument("--config", help="study config file (key = value lines)")
    _add_common(sim, rule=False, timings=True)
    sim.set_defaults(func=_cmd_simulate)

    diag = commands.add_parser("diagnose", help="spectral and shrinkage diagnostics",
                               epilog=_DIAGNOSE_SCHEMA, formatter_class=raw)
    diag.add_argument("--input", help="covariate CSV (header row, numeric cells)")
    diag.add_argument("--n", type=int, help="synthetic unit count")
    diag.add_argument("--d", type=int, help="synthetic covariate count")
    diag.add_argument("--rho", type=float, help="synthetic equicorrelation")
    _add_common(diag, rule=True)
    diag.set_defaults(func=_cmd_diagnose)

    return parser


@contextlib.contextmanager
def _degenerate_rules_as_notes():
    """Show each distinct DegenerateRuleWarning once, as a plain `note:` line
    on stderr: it describes the operator's design, not a fault of the
    program. Every other warning is shown as usual."""
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("always", DegenerateRuleWarning)
        show = warnings.showwarning

        def show_note(message, category, *args, **kwargs):
            if not issubclass(category, DegenerateRuleWarning):
                show(message, category, *args, **kwargs)
            elif str(message) not in seen:
                seen.add(str(message))
                print(f"note: {message}", file=sys.stderr)

        warnings.showwarning = show_note
        yield


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _degenerate_rules_as_notes():
            return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
