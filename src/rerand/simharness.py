"""Monte Carlo study: covariate generation, outcomes, metrics, and ANOVA.

The study reuses leading sub-blocks of one master covariate matrix per
(rho, replication) across all (n, d) cells, and every scheme inside a
replication sees the identical covariates and the identical outcome
noise. Scheme differences are therefore isolated to the allocation,
which makes the relative metrics precise at small replication counts.
The kernel (_replications) scores a stack of replications at a time: the
per-matrix algebra and the keying of every stream run once per stack,
each replication's rule is calibrated on its own basis, and the rejection
runs of each (cell, scheme) go through the engine's one lockstep loop
together, at most 256 candidate rows in flight.

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

from .balance import _ZERO_RIDGE_MSG, SCHEMES, _check_lambda, calibrate
from .core import (
    Allocation, CovariateMatrix, Outcome, RngStream, _arm_means, _child_ids, _generators,
    _standardize, _stream_keys, as_generator, standardize, write_csv, write_json,
)
from .engine import DEFAULT_MAX_DRAWS, _lockstep
from .spectral import _decompose_stack, _select_k

RERAND_SCHEMES = tuple(s for s in SCHEMES if s != "cr")  # cr is the baseline
SURFACES = ("linear", "exp")
BETA_CHOICES = ("ones", "half_doubled", "spectral")

# Stream tags keeping covariate, noise, and allocation randomness apart.
_COV, _NOISE, _ALLOC = 1, 2, 3

# The study kernel stacks replications while their master matrices fit in
# this many bytes: 65 at desk's 100 x 10, one at the factorial's 1000 x 180.
_STACK_BYTES = 1 << 19


def _field_error(name: str, message: str) -> ValueError:
    """A ValueError about one FactorGrid field, named by its `field` attribute."""
    exc = ValueError(message)
    exc.field = name
    return exc


@dataclass(frozen=True)
class FactorGrid:
    """Factor levels and settings for one simulation study.

    Complete randomization is always run as the baseline and is not
    listed in `schemes`. `lam` of None means the per-matrix default
    ridge penalty; `replications` must divide evenly into `groups`
    blocks, which supply the within-configuration variance. Every setting
    is checked here, so a bad value fails before the study runs a cell.
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

    def __post_init__(self):
        for name in ("n_levels", "d_levels", "rho_levels", "schemes",
                     "surfaces", "beta_choices", "resid_vars"):
            levels = getattr(self, name)
            if not levels or len(set(levels)) < len(levels):
                raise _field_error(name, f"{name} must be nonempty, each level once: {levels}")
        if any(n < 2 or n % 2 for n in self.n_levels):
            raise _field_error("n_levels", "n levels must be even and at least 2")
        if any(d < 1 for d in self.d_levels):
            raise _field_error("d_levels", "d levels must be positive")
        if any(not 0.0 <= r < 1.0 for r in self.rho_levels):
            raise _field_error("rho_levels", "rho levels must lie in [0, 1)")
        for name, known in (("schemes", RERAND_SCHEMES), ("surfaces", SURFACES),
                            ("beta_choices", BETA_CHOICES)):
            bad = set(getattr(self, name)) - set(known)
            if bad:
                raise _field_error(name, f"unknown {name.replace('_', ' ')}: {sorted(bad)}")
        if any(not 0.0 <= v < np.inf for v in self.resid_vars):
            raise _field_error("resid_vars", "residual variances must be finite and nonnegative")
        if self.groups < 1 or self.replications < 1:
            name = "groups" if self.replications >= 1 else "replications"
            raise _field_error(name, "replications and groups must be positive")
        if self.replications % self.groups:
            raise _field_error("replications", "replications must be divisible by groups")
        if not 0.0 < self.p_a < 1.0 or not 0.0 < self.gamma < 1.0:
            name = "gamma" if 0.0 < self.p_a < 1.0 else "p_a"
            raise _field_error(name, "p_a and gamma must lie strictly inside (0, 1)")
        if self.lam is not None:
            _check_lambda(self.lam)
            if self.lam == 0.0 and "ridge" in self.schemes:
                raise _field_error("lam", _ZERO_RIDGE_MSG.format(lam=self.lam))
        if not np.isfinite(self.tau):
            raise _field_error("tau", "tau must be finite")
        if self.max_draws < 1:
            raise _field_error("max_draws", "max_draws must be at least 1")


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
    return standardize(_one_factor([as_generator(rng)], n, d, rho)[0])


def _one_factor(gens, n: int, d: int, rho: float) -> np.ndarray:
    """gen_covariates' raw draw, one n x d matrix per generator, stacked."""
    z0, z = np.empty((len(gens), n, 1)), np.empty((len(gens), n, d))
    for gen, a, b in zip(gens, z0, z):
        gen.standard_normal(out=a[:, 0])
        gen.standard_normal(out=b)
    z *= np.sqrt(1.0 - rho)
    z += np.sqrt(rho) * z0
    return z


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
    g = _surface_values(x.values, model.surface, beta)
    eps = model.resid_sd * as_generator(rng).standard_normal(x.n)
    y = g + model.tau * np.asarray(w.assignment, dtype=float) + eps
    return Outcome(y=y)


def _surface_values(a: np.ndarray, surface: str, beta: np.ndarray) -> np.ndarray:
    """g(x_i, beta) for every row of a, or of each matrix of an (R, n, d)
    stack with its own row of an (R, d) beta."""
    return np.matmul(a if surface == "linear" else np.exp(a), beta[..., None])[..., 0]


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


class _CellDraws(NamedTuple):
    """Consecutive replications of one (n, d) cell on the last axis (diff: the
    middle one); scheme rows follow ("cr",) + grid.schemes, models _layout."""

    k: np.ndarray  # (reps,) selected component count
    diff: np.ndarray  # (schemes, reps, d) covariate mean differences
    tau_hat: np.ndarray  # (schemes, models, reps) effect estimates
    seconds: np.ndarray  # (schemes, reps) calibration plus rejection time
    v_ak: np.ndarray  # (schemes, reps) shrinkage coefficient, NaN if none
    exhausted: np.ndarray  # (schemes, reps) rejection ran out of draws
    draws: np.ndarray  # (schemes, reps) draws attempted, 1 for cr


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


def _stack_size(grid: FactorGrid) -> int:
    """Replications per kernel call: the master matrices that fit in _STACK_BYTES, at least one."""
    return max(1, _STACK_BYTES // (8 * max(grid.n_levels) * max(grid.d_levels)))


def _replications(grid: FactorGrid, root: RngStream, rho_idx: int, reps: range):
    """The study kernel: every scheme in every cell, scored on a stack of
    consecutive replications of one rho level, as one _CellDraws per cell.

    Each replication draws its covariates, outcome noise and one allocation
    per (cell, scheme) from its own streams, all keyed in one vectorized
    pass per stack; its schemes share covariates, basis and noise. Each
    replication calibrates its rule on its own basis (a repeated chi-square
    quantile is a hit on dist's memo), and one lockstep rejection call per
    (cell, scheme) serves the stack, writing every replication's row
    straight into the stack's assignments.
    Standardizing, the SVD, selecting k, the signals, group means and
    estimates run once per stack on (reps, n, d) and (reps, n) arrays,
    with the bits of each replication alone, so the stacking changes no
    output. The result depends on the arguments alone, apart from timings.
    """
    cells, schemes, models = _layout(grid)
    n_max, d_max, size = max(grid.n_levels), max(grid.d_levels), len(reps)
    # Every stream of the stack, keyed in one pass: covariates and noise per
    # replication, then allocations per (cell, scheme, replication).
    tags = [root.child(tag).child(rho_idx).stream_id for tag in (_COV, _NOISE, _ALLOC)]
    rep_ids = _child_ids(np.array(tags, dtype=np.uint64)[:, None], np.array(reps, dtype=np.uint64))
    cell_ids = _child_ids(rep_ids[2], np.arange(len(cells), dtype=np.uint64)[:, None])
    alloc_ids = _child_ids(cell_ids[:, None], np.arange(len(schemes), dtype=np.uint64)[:, None])
    keys = _stream_keys(root.seed, np.concatenate([rep_ids[:2].ravel(), alloc_ids.ravel()]))
    rho = grid.rho_levels[rho_idx]
    master = _standardize(_one_factor(_generators(keys[:size]), n_max, d_max, rho))
    noise = np.empty((size, n_max))
    for gen, row in zip(_generators(keys[size : 2 * size]), noise):
        gen.standard_normal(out=row)

    out = []
    for ci, (n, d) in enumerate(cells):
        x = _standardize(master[:, :n, :d])
        s, bases = _decompose_stack(x)
        ps, ks = np.array([b.p for b in bases]), np.empty(size, dtype=int)
        for p in np.unique(ps):
            ks[ps == p] = _select_k(s[ps == p, :p], grid.gamma)[0]
        kl = ks.tolist()
        signal = {}
        for bc in grid.beta_choices:
            beta = np.array([beta_vector(bc, d, basis=b, k=k) for b, k in zip(bases, kl)])
            for surf in grid.surfaces:
                signal[surf, bc] = _surface_values(x, surf, beta)

        shape = (len(schemes), size)
        w = np.empty(shape + (n,), dtype=np.int8)
        seconds, v_ak = np.empty(shape), np.empty(shape)
        exhausted, draws = np.zeros(shape, dtype=bool), np.empty(shape, dtype=int)
        for si, scheme in enumerate(schemes):
            # An allocation's cost is its own rule's calibration plus an
            # equal share of the one lockstep call that serves the stack.
            runs, lo = [], 2 * size + (ci * len(schemes) + si) * size
            for r, (basis, k, gen) in enumerate(zip(bases, kl, _generators(keys[lo : lo + size]))):
                t0 = time.perf_counter()
                try:
                    crit = calibrate(scheme, grid.p_a, basis, k=k, lam=grid.lam)
                except ValueError as exc:  # ridge's lam, negligible on this basis
                    raise _field_error("lam", str(exc)) from None
                seconds[si, r], v = time.perf_counter() - t0, crit.shrinkage
                v_ak[si, r] = np.nan if v is None else v
                runs.append((crit, basis, gen, grid.max_draws))
            t0 = time.perf_counter()
            _, draws[si], accepted = _lockstep(n, runs, w[si])
            seconds[si] += (time.perf_counter() - t0) / size
            exhausted[si] = ~accepted

        treated = w.view(bool)
        diff = np.array([np.subtract(*_arm_means(x, mask)) for mask in treated])
        y = np.array([signal[surf, bc] for surf, bc, _ in models]) + grid.tau * w[:, None]
        y += np.sqrt([rv for _, _, rv in models])[:, None, None] * noise[:, :n]
        y = Outcome(y).y  # (schemes, models, reps, n), checked finite once
        tau_hat = np.subtract(*_arm_means(y, np.broadcast_to(treated[:, None], y.shape)))
        out.append(_CellDraws(ks, diff, tau_hat, seconds, v_ak, exhausted, draws))
    return out


def _reduce(report: SimReport, rho: float, stacks: list[list[_CellDraws]]) -> None:
    """Add one rho level's records, group metrics and timings to report.

    stacks holds the kernel's output for consecutive stacks of replications.
    Each cell's stacks are joined into C-contiguous arrays, reshaped to
    (groups, block) on the replication axis, so every sum runs in the order
    of a reduction over one contiguous group block: the variance sums
    sequentially over a non-innermost axis, the MSE pairwise over the
    innermost one.
    """
    grid = report.grid
    cells, schemes, models = _layout(grid)
    reps, groups = grid.replications, (grid.groups, grid.replications // grid.groups)
    for (n, d), parts in zip(cells, zip(*stacks)):
        c = _CellDraws(*(np.concatenate(arrays, axis=-2 if name == "diff" else -1)
                         for name, arrays in zip(_CellDraws._fields, zip(*parts))))
        var = c.diff.reshape(len(schemes), *groups, d).var(axis=2, ddof=1).mean(axis=-1)
        r_sigma = 1.0 - var / var[0]
        mse = ((c.tau_hat.reshape(len(schemes), len(models), *groups) - grid.tau) ** 2).mean(-1)
        r_mse = 1.0 - mse / mse[0]
        exhausted, total_draws = c.exhausted.sum(axis=-1), c.draws.sum(axis=-1)
        mean_draws = total_draws / reps
        # every replication that did not exhaust accepted exactly once
        accept_rate = (reps - exhausted) / total_draws
        k_modal, k_mean = int(np.bincount(c.k).argmax()), float(c.k.mean())

        for si, scheme in enumerate(schemes):
            report.sigma_groups[(n, d, rho, scheme)] = r_sigma[si]
            report.timings[(n, d, rho, scheme)] = (
                float(c.seconds[si].mean()), float(np.median(c.seconds[si])),
            )
            vak = None if np.all(np.isnan(c.v_ak[si])) else float(np.nanmean(c.v_ak[si]))
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

    Each rho level's replications run through the study kernel in stacks
    of consecutive replications (_stack_size of them); metrics are computed
    per replication group against the complete-randomization baseline,
    then averaged.
    """
    root = RngStream(int(master_seed))
    report = SimReport(grid=grid, master_seed=int(master_seed), records=[])
    step = _stack_size(grid)
    for rho_idx, rho in enumerate(grid.rho_levels):
        stacks = [
            _replications(grid, root, rho_idx, range(lo, min(lo + step, grid.replications)))
            for lo in range(0, grid.replications, step)
        ]
        _reduce(report, rho, stacks)
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
