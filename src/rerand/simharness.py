"""Monte Carlo study: covariate generation, outcomes, metrics, and ANOVA.

The study reuses leading sub-blocks of one master covariate matrix per
(rho, replication) across all (n, d) cells, and every scheme inside a
replication sees the identical covariates and the identical outcome
noise. Scheme differences are therefore isolated to the allocation,
which makes the relative metrics precise at small replication counts.

Reduction metrics are relative to complete randomization on the same
draws: r_sigma_bar_sq compares the average (over covariates) variance of
the treatment-control mean difference, r_mse the mean squared error of
the effect estimate. Both are computed within each replication group and
averaged across groups; the group-to-group spread is what the ANOVA uses
as its residual.
"""

from __future__ import annotations

import time
from dataclasses import asdict, astuple, dataclass, field, fields
from itertools import combinations
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .balance import calibrate
from .core import (
    Allocation,
    CovariateMatrix,
    Outcome,
    RngStream,
    as_generator,
    group_means,
    sate_estimator,
    standardize,
    write_csv,
    write_json,
)
from .engine import DEFAULT_MAX_DRAWS, rerandomize
from .spectral import decompose, select_k

RERAND_SCHEMES = ("rer", "ridge", "pca")
SURFACES = ("linear", "exp")
BETA_CHOICES = ("ones", "half_doubled", "spectral")

# Stream tags keeping covariate, noise, and allocation randomness apart.
_COV, _NOISE, _ALLOC = 1, 2, 3


@dataclass(frozen=True)
class FactorGrid:
    """Factor levels and settings for one simulation study.

    Complete randomization is always run as the baseline and is not
    listed in `schemes`. `lam` of None means the per-matrix default
    ridge penalty; `replications` must divide evenly into `groups`
    blocks, which supply the within-configuration variance.
    """

    n_levels: tuple[int, ...]
    d_levels: tuple[int, ...]
    rho_levels: tuple[float, ...]
    schemes: tuple[str, ...] = ("pca",)
    surfaces: tuple[str, ...] = ("linear",)
    beta_choices: tuple[str, ...] = ("ones",)
    resid_vars: tuple[float, ...] = (1.0,)
    replications: int = 200
    groups: int = 5
    p_a: float = 0.05
    gamma: float = 0.95
    lam: float | None = None
    tau: float = 1.0
    max_draws: int = DEFAULT_MAX_DRAWS
    ridge_n_cal: int = 10000

    def __post_init__(self):
        for name in ("n_levels", "d_levels", "rho_levels", "schemes",
                     "surfaces", "beta_choices", "resid_vars"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if any(n < 2 or n % 2 for n in self.n_levels):
            raise ValueError("n levels must be even and at least 2")
        if any(d < 1 for d in self.d_levels):
            raise ValueError("d levels must be positive")
        if any(not 0.0 <= r < 1.0 for r in self.rho_levels):
            raise ValueError("rho levels must lie in [0, 1)")
        bad = set(self.schemes) - set(RERAND_SCHEMES)
        if bad:
            raise ValueError(f"unknown schemes: {sorted(bad)}")
        bad = set(self.surfaces) - set(SURFACES)
        if bad:
            raise ValueError(f"unknown surfaces: {sorted(bad)}")
        bad = set(self.beta_choices) - set(BETA_CHOICES)
        if bad:
            raise ValueError(f"unknown beta choices: {sorted(bad)}")
        if any(v < 0 for v in self.resid_vars):
            raise ValueError("residual variances must be nonnegative")
        if self.groups < 1 or self.replications < 1:
            raise ValueError("replications and groups must be positive")
        if self.replications % self.groups:
            raise ValueError("replications must be divisible by groups")
        if not 0.0 < self.p_a < 1.0 or not 0.0 < self.gamma < 1.0:
            raise ValueError("p_a and gamma must lie strictly inside (0, 1)")
        if self.lam is not None and self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.ridge_n_cal < 1:
            raise ValueError("n_cal must be at least 1")


@dataclass(frozen=True)
class OutcomeModel:
    """y_i = g(x_i, beta) + tau W_i + eps_i with eps_i ~ N(0, resid_sd^2)."""

    surface: str
    beta: np.ndarray
    tau: float = 1.0
    resid_sd: float = 1.0

    def __post_init__(self):
        if self.surface not in SURFACES:
            raise ValueError(f"surface must be one of {SURFACES}")
        if not np.all(np.isfinite(self.beta)) or not np.isfinite(self.tau):
            raise ValueError("model parameters must be finite")
        if not np.isfinite(self.resid_sd) or self.resid_sd < 0:
            raise ValueError("resid_sd must be finite and nonnegative")


@dataclass(frozen=True)
class CellRecord:
    n: int
    d: int
    rho: float
    surface: str
    beta_choice: str
    resid_var: float
    scheme: str
    r_sigma_bar_sq: float
    r_mse: float
    k_selected: int | None = None
    k_mean: float | None = None
    v_ak: float | None = None
    exhausted: int = 0
    mean_draws: float = 1.0
    accept_rate: float = 1.0


@dataclass(frozen=True)
class AnovaRow:
    term: str
    df: int
    sum_sq: float
    mean_sq: float
    f_ratio: float | None


@dataclass(frozen=True)
class SimReport:
    grid: FactorGrid
    master_seed: int
    records: list[CellRecord]
    # group-level metric values backing the records and the ANOVA
    sigma_groups: dict = field(default_factory=dict)
    mse_groups: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def gen_covariates(n: int, d: int, rho: float, rng) -> CovariateMatrix:
    """n i.i.d. draws from N(0, (1-rho) I + rho 11'), standardized.

    Sampled by the one-factor construction
    x = sqrt(rho) z0 1 + sqrt(1-rho) z, which requires rho >= 0; the
    exchangeable-negative range is not supported.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(
            "rho must lie in [0, 1): the one-factor construction "
            "requires rho >= 0"
        )
    gen = as_generator(rng)
    z0 = gen.standard_normal(n)
    z = gen.standard_normal((n, d))
    raw = np.sqrt(rho) * z0[:, None] + np.sqrt(1.0 - rho) * z
    return standardize(raw)


def nested_submatrix(master: CovariateMatrix, n_sub: int, d_sub: int) -> CovariateMatrix:
    """Leading n_sub x d_sub block of the master, re-standardized."""
    if not 2 <= n_sub <= master.n or not 1 <= d_sub <= master.d:
        raise ValueError("sub-block dimensions out of range")
    return standardize(master.values[:n_sub, :d_sub])


def gen_outcome(x: CovariateMatrix, w: Allocation, model: OutcomeModel, rng) -> Outcome:
    """Draw one outcome vector under the model (fresh noise from rng)."""
    beta = np.asarray(model.beta, dtype=float)
    if beta.shape != (x.d,):
        raise ValueError("beta length disagrees with covariate count")
    if w.n != x.n:
        raise ValueError("allocation length disagrees with covariate rows")
    g = _surface_values(x, model.surface, beta)
    eps = model.resid_sd * as_generator(rng).standard_normal(x.n)
    y = g + model.tau * np.asarray(w.assignment, dtype=float) + eps
    return Outcome(y=y)


def _surface_values(x: CovariateMatrix, surface: str, beta: np.ndarray) -> np.ndarray:
    if surface == "linear":
        return x.values @ beta
    return np.exp(x.values) @ beta


def beta_vector(choice: str, d: int, basis=None, k: int | None = None) -> np.ndarray:
    """Coefficient presets.

    "ones": all ones. "half_doubled": ones on the first ceil(d/2)
    covariates, twos after. "spectral": V beta_tilde with
    beta_tilde_j = j(j+1)/2 on the first k components and zero after,
    so the signal lives entirely in the retained subspace (needs the
    matrix's own basis and k).
    """
    if choice == "ones":
        return np.ones(d)
    if choice == "half_doubled":
        b = np.ones(d)
        b[(d + 1) // 2:] = 2.0
        return b
    if choice == "spectral":
        if basis is None or k is None:
            raise ValueError("spectral beta needs a basis and k")
        btil = np.zeros(basis.p)
        js = np.arange(1, k + 1, dtype=float)
        btil[:k] = js * (js + 1) / 2.0
        return basis.v @ btil
    raise ValueError(f"unknown beta choice {choice!r}")


class _CellDraw(NamedTuple):
    """One replication's values for one (n, d) cell. Per-scheme rows
    follow ("cr",) + grid.schemes, model columns follow _layout."""

    k: int
    diff: np.ndarray  # (schemes, d) covariate mean differences
    tau_hat: np.ndarray  # (schemes, models) effect estimates
    seconds: np.ndarray  # (schemes,) calibration plus rejection time
    v_ak: np.ndarray  # (schemes,) shrinkage coefficient, NaN if none
    exhausted: np.ndarray  # (schemes,) rejection ran out of draws
    draws: np.ndarray  # (schemes,) draws attempted, 1 for cr


def _layout(grid: FactorGrid):
    cells = [(n, d) for n in grid.n_levels for d in grid.d_levels]
    schemes = ("cr",) + tuple(grid.schemes)
    models = [
        (surf, bc, rv)
        for surf in grid.surfaces
        for bc in grid.beta_choices
        for rv in grid.resid_vars
    ]
    return cells, schemes, models


def _replication(grid: FactorGrid, root: RngStream, rho_idx: int, rep: int) -> list[_CellDraw]:
    """Score every scheme in every cell on one (rho, replication) draw.

    The covariate matrix, the selected basis and the outcome noise are
    shared by every scheme; each scheme only contributes its allocation.
    The result depends on the arguments alone, apart from the timings.
    """
    cells, schemes, models = _layout(grid)
    master = gen_covariates(
        max(grid.n_levels), max(grid.d_levels), grid.rho_levels[rho_idx],
        root.child(_COV).child(rho_idx).child(rep),
    )
    noise = root.child(_NOISE).child(rho_idx).child(rep).generator().standard_normal(master.n)
    alloc_root = root.child(_ALLOC).child(rho_idx).child(rep)

    draws = []
    for ci, (n, d) in enumerate(cells):
        x = nested_submatrix(master, n, d)
        basis = decompose(x)
        k = select_k(basis, grid.gamma).k
        betas = {bc: beta_vector(bc, d, basis=basis, k=k) for bc in grid.beta_choices}
        signal = {
            (surf, bc): _surface_values(x, surf, betas[bc])
            for surf in grid.surfaces
            for bc in grid.beta_choices
        }

        cell = _CellDraw(
            k, np.empty((len(schemes), d)), np.empty((len(schemes), len(models))),
            np.empty(len(schemes)), np.full(len(schemes), np.nan),
            np.zeros(len(schemes), dtype=bool), np.empty(len(schemes)),
        )
        for si, scheme in enumerate(schemes):
            # Per-allocation cost includes threshold calibration: each
            # replication's matrix needs its own criterion, and for ridge
            # that is a Monte Carlo step.
            t0 = time.perf_counter()
            crit = calibrate(
                scheme, grid.p_a, basis, k=k, lam=grid.lam, n_cal=grid.ridge_n_cal,
            )
            res = rerandomize(x, crit, alloc_root.child(ci).child(si), grid.max_draws, basis=basis)
            cell.seconds[si] = time.perf_counter() - t0
            w = res.allocation
            cell.exhausted[si] = scheme != "cr" and not res.accepted
            cell.draws[si] = res.draws_attempted
            cell.diff[si] = group_means(x, w).diff
            v_ak = crit.shrinkage
            if v_ak is not None:
                cell.v_ak[si] = v_ak
            treat = grid.tau * np.asarray(w.assignment, dtype=float)
            for mi, (surf, bc, rv) in enumerate(models):
                y = Outcome(signal[(surf, bc)] + treat + np.sqrt(rv) * noise[:n])
                cell.tau_hat[si, mi] = sate_estimator(y, w)
        draws.append(cell)
    return draws


def _reduce(report: SimReport, rho: float, reps: list[list[_CellDraw]]) -> None:
    """Add one rho level's records, group metrics and timings to report.

    Replications are reshaped to (groups, block) on the axes they occupy
    per scheme and model, so every sum runs in the order of a reduction
    over one contiguous group block: the variance sums sequentially over
    a non-innermost axis, the MSE pairwise over the innermost one.
    """
    grid = report.grid
    cells, schemes, models = _layout(grid)
    groups = (grid.groups, grid.replications // grid.groups)
    for ci, (n, d) in enumerate(cells):
        draws = [rep[ci] for rep in reps]
        ks = np.array([c.k for c in draws])
        diff = np.stack([c.diff for c in draws], axis=1).reshape(len(schemes), *groups, d)
        var = diff.var(axis=2, ddof=1).mean(axis=-1)
        r_sigma = 1.0 - var / var[0]
        tau_hat = np.stack([c.tau_hat for c in draws], axis=-1)
        mse = ((tau_hat.reshape(len(schemes), len(models), *groups) - grid.tau) ** 2).mean(axis=-1)
        r_mse = 1.0 - mse / mse[0]
        seconds = np.stack([c.seconds for c in draws], axis=-1)
        v_ak = np.stack([c.v_ak for c in draws], axis=-1)
        exhausted = np.sum([c.exhausted for c in draws], axis=0)
        total_draws = np.sum([c.draws for c in draws], axis=0)
        mean_draws = total_draws / len(draws)
        # every replication that did not exhaust accepted exactly once
        accept_rate = (len(draws) - exhausted) / total_draws
        k_modal, k_mean = int(np.bincount(ks).argmax()), float(ks.mean())

        for si, scheme in enumerate(schemes):
            report.sigma_groups[(n, d, rho, scheme)] = r_sigma[si]
            report.timings[(n, d, rho, scheme)] = (
                float(seconds[si].mean()), float(np.median(seconds[si])),
            )
            vak = None if np.all(np.isnan(v_ak[si])) else float(np.nanmean(v_ak[si]))
            pca = scheme == "pca"
            for mi, (surf, bc, rv) in enumerate(models):
                report.mse_groups[(n, d, rho, surf, bc, rv, scheme)] = r_mse[si, mi]
                report.records.append(CellRecord(
                    n=n, d=d, rho=rho, surface=surf, beta_choice=bc, resid_var=rv,
                    scheme=scheme,
                    r_sigma_bar_sq=float(r_sigma[si].mean()),
                    r_mse=float(r_mse[si, mi].mean()),
                    k_selected=k_modal if pca else None,
                    k_mean=k_mean if pca else None,
                    v_ak=vak,
                    exhausted=int(exhausted[si]),
                    mean_draws=float(mean_draws[si]),
                    accept_rate=float(accept_rate[si]),
                ))


def run_study(grid: FactorGrid, master_seed: int) -> SimReport:
    """Run the factorial study and assemble per-cell records.

    Each (rho, replication) is one call of the per-replication kernel;
    metrics are computed per replication group against the
    complete-randomization baseline, then averaged.
    """
    root = RngStream(int(master_seed))
    report = SimReport(grid=grid, master_seed=int(master_seed), records=[])
    for rho_idx, rho in enumerate(grid.rho_levels):
        reps = [_replication(grid, root, rho_idx, rep) for rep in range(grid.replications)]
        _reduce(report, rho, reps)
    return report


def _response_layout(report: SimReport, response: str):
    grid = report.grid
    if response == "r_sigma_bar_sq":
        factors = [
            ("n", list(grid.n_levels)),
            ("d", list(grid.d_levels)),
            ("rho", list(grid.rho_levels)),
            ("scheme", list(grid.schemes)),
        ]
        return factors, report.sigma_groups
    if response == "r_mse":
        factors = [
            ("n", list(grid.n_levels)),
            ("d", list(grid.d_levels)),
            ("rho", list(grid.rho_levels)),
            ("surface", list(grid.surfaces)),
            ("beta", list(grid.beta_choices)),
            ("resid_var", list(grid.resid_vars)),
            ("scheme", list(grid.schemes)),
        ]
        return factors, report.mse_groups
    raise ValueError(f"unknown response {response!r}")


def anova(report: SimReport, response: str) -> list[AnovaRow]:
    """Balanced fixed-effects factorial ANOVA of a reduction metric.

    Every main effect and every interaction among the varied factors is
    decomposed by the standard balanced-design contrasts; the residual is
    the within-configuration (group-to-group) mean square. Rows come back
    sorted by F-ratio, residual last. Needs at least two groups.

    Complete randomization is the reference level the metrics are built
    from, so "scheme" ranges over the rerandomization schemes only.
    """
    grid = report.grid
    if grid.groups < 2:
        raise ValueError("anova needs at least two replication groups")
    factors, table = _response_layout(report, response)
    lens = [len(levels) for _, levels in factors]
    shape = tuple(lens) + (grid.groups,)
    y = np.empty(shape)
    for idx in np.ndindex(*lens):
        key = tuple(factors[i][1][idx[i]] for i in range(len(factors)))
        y[idx] = table[key]
    cell_means = y.mean(axis=-1)
    n_cells = int(np.prod(lens))

    resid_ss = float(((y - cell_means[..., None]) ** 2).sum())
    resid_df = n_cells * (grid.groups - 1)
    resid_ms = resid_ss / resid_df

    active = [i for i, L in enumerate(lens) if L > 1]
    rows: list[AnovaRow] = []
    for r in range(1, len(active) + 1):
        for term_axes in combinations(active, r):
            eff = cell_means
            # Average out the axes not in the term, keeping dims for
            # broadcasting, then center along each axis in the term.
            others = tuple(i for i in range(len(lens)) if i not in term_axes)
            if others:
                eff = eff.mean(axis=others, keepdims=True)
            for ax in term_axes:
                eff = eff - eff.mean(axis=ax, keepdims=True)
            scale = grid.groups * int(np.prod([lens[i] for i in others], dtype=int))
            ss = float(scale * (eff**2).sum())
            df = int(np.prod([lens[i] - 1 for i in term_axes]))
            ms = ss / df
            name = ":".join(factors[i][0] for i in term_axes)
            rows.append(AnovaRow(name, df, ss, ms, ms / resid_ms))

    rows.sort(key=lambda row: row.f_ratio, reverse=True)
    rows.append(AnovaRow("residual", resid_df, resid_ss, resid_ms, None))
    return rows


# CellRecord's fields in order. Their output names are the metrics.csv
# columns and the summary.json record keys; _record_values gives a record's
# values as a shallow tuple (astuple would deep-copy every field).
_RECORD_FIELDS = [f.name for f in fields(CellRecord)]
_RECORD_NAMES = ["beta" if name == "beta_choice" else name for name in _RECORD_FIELDS]
_record_values = attrgetter(*_RECORD_FIELDS)


def write_metrics_csv(report: SimReport, path) -> None:
    """Per-record metrics table. Timing is deliberately not included
    here (it is not reproducible byte for byte); see write_timings_csv."""
    write_csv(path, _RECORD_NAMES, map(_record_values, report.records))


def write_anova_csv(rows: list[AnovaRow], path) -> None:
    write_csv(path, ["term", "df", "sum_sq", "mean_sq", "f_ratio"], map(astuple, rows))


def write_timings_csv(report: SimReport, path) -> None:
    """Wall-clock summaries per cell and scheme. Values vary run to run;
    this file is opt-in at the CLI so default outputs stay deterministic."""
    header = ["n", "d", "rho", "scheme", "mean_seconds", "median_seconds"]
    write_csv(path, header, (key + value for key, value in sorted(report.timings.items())))


def write_summary_json(report: SimReport, path) -> None:
    """Machine-readable study summary (deterministic fields only). The grid
    block holds every FactorGrid field, `lam` under the key "lambda"."""
    grid = asdict(report.grid)
    grid["lambda"] = grid.pop("lam")
    records = [dict(zip(_RECORD_NAMES, _record_values(r))) for r in report.records]
    write_json(path, {"master_seed": report.master_seed, "grid": grid, "records": records})
