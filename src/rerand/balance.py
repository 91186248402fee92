"""Balance criteria (M, M_lambda, M_k), calibration, and reduction diagnostics.

All distances are evaluated in the spectral basis; the covariance of the
mean difference is never formed or inverted explicitly. For a centered X
with thin SVD U D V' and an allocation with group sizes (n_T, n_C),

    xbar_T - xbar_C = r X'W,            r = 1/n_T + 1/n_C,
    eta_j = (V'(xbar_T - xbar_C))_j = r sigma_j (U'W)_j,

and the standardized summand of every criterion reduces to

    t_j = eta_j^2 / (c sigma_j^2) = r (n-1) (U'W)_j^2,

with c = r/(n-1) the per-sigma^2 scale of cov(xbar_T - xbar_C). At an
exact split c equals C_n = 4/(n^2 - n). Then M = sum_j t_j, the top-k
criterion truncates the sum, and the ridge criterion down-weights term j
by c sigma_j^2 / (c sigma_j^2 + lambda). "rer" is therefore the top-k
criterion with k = p (stored as k = None), and every batch distance comes
from one kernel of summands.

The ridge threshold has no closed form (the criterion follows a mixture
law), so it is calibrated as an empirical quantile over seeded Monte
Carlo randomizations; ridge shrinkage diagnostics are likewise Monte
Carlo estimates, not closed forms. These draws are always the first n_cal
rows of the fixed stream `_CALIBRATION_STREAM`, which
core.half_split_matrix memoizes bit-packed, so every ridge calibration
and shrinkage estimate at the same (n, n_cal) reuses one seeded draw per
process. A ridge criterion records its n_cal, and its shrinkage estimate
replays exactly the rows its threshold was set on. The ridge penalty is
set from the covariates alone (default_lambda), following Branson & Shao
(2021), never from outcome coefficients.

Every criterion value comes from one kernel: `_terms` projects 0/1 rows
on a slice of u, or on an (S, n, k) stack of slices, and `_reduce` sums
the terms or weights them by ridge. The fit check `_components` resolves
a rule's k and ridge weights for every distance path but calibration.
`batch_distances`, ridge calibration and the shrinkage estimate take
their terms from `_blocks`, 1024 rows at a time: it unpacks the packed
rows (they never leave this module) and reuses one float64 buffer, so a
warm ridge calibration at n = 1000, d = 180 peaks at about 11 MB. The
lockstep's stacked products (`_chunk_distances`) keep the layout of the
one-search call, so each path gives a row the bits of batch_distances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Allocation,
    CovariateMatrix,
    RngStream,
    half_split_matrix,
    sigma_factor,
)
from .dist import chi2_quantile, shrinkage_coeff
from .spectral import SpectralBasis

SCHEMES = ("cr", "rer", "ridge", "pca")

# The one stream of ridge calibration draws, so that criteria built from the
# same inputs are identical across runs (and share one memoized draw).
_CALIBRATION_STREAM = RngStream(seed=402653189, stream_id=11)

# _blocks projects allocation rows in blocks of this many.
# The engine's rejection batches are smaller, so each batch is one block.
_BLOCK_ROWS = 1024

# Formatted with the penalty lam: at lam = 0, or at a lam that every c sigma_j^2
# swamps, each ridge weight is 1.0 and the rule is "rer" run on rounding noise.
_ZERO_RIDGE_MSG = ("ridge needs a positive lambda that is not negligible against the "
                   "spectrum; at lambda = {lam:g} every ridge weight is 1 and it is the "
                   "'rer' scheme")

_NEAR_EQUAL_MSG = (
    "allocation is not an exact half split; distances use the "
    "finite-population scaling, outside the exact-split theory"
)


@dataclass(frozen=True)
class BalanceCriterion:
    """A calibrated acceptance rule for one randomization scheme.

    scheme is one of {"cr", "rer", "ridge", "pca"}; threshold is None for
    "cr" and never NaN. n >= 2 and p are the unit count and rank of the
    basis the rule was calibrated on ("cr" records n alone); it fits no
    other n, nor another p when p is set. k >= 1 is the number of leading
    components summed ("pca" only; None means all p, which is "rer").
    acceptance_prob lies in (0, 1). n_cal >= 1 records the Monte Carlo
    sample a "ridge" threshold was set on, the first n_cal rows of the
    calibration stream, and "ridge" needs a finite lam >= 0. A field that
    breaks this is a ValueError that names it.
    """

    scheme: str
    acceptance_prob: float
    n: int
    threshold: float | None
    p: int | None = None
    k: int | None = None
    lam: float | None = None
    n_cal: int | None = None

    def __post_init__(self):
        s = self.scheme
        if s not in SCHEMES:
            raise ValueError(f"criterion: scheme must be one of {SCHEMES}, not {s!r}")
        if not 0.0 < self.acceptance_prob < 1.0:
            raise ValueError("criterion: acceptance_prob must lie strictly inside (0, 1)")
        if self.n < 2:
            raise ValueError("criterion: n must be at least 2")
        if self.k is not None and (s != "pca" or self.k < 1):
            raise ValueError(f"{s} criterion: k must be {'at least 1' if s == 'pca' else 'None'}")
        if self.threshold != self.threshold:  # NaN; plain Python, run once per replication
            raise ValueError(f"{s} criterion: threshold must not be NaN")
        if s == "ridge" and (self.lam is None or not 0.0 <= self.lam < np.inf):
            raise ValueError("ridge criterion: lam must be a finite nonnegative number")
        if s == "ridge" and (self.n_cal is None or self.n_cal < 1):
            raise ValueError("ridge criterion: n_cal must be at least 1")

    @property
    def sigma_factor(self) -> float:
        """C_n, the sigma_factor of an exact split of the n units."""
        return sigma_factor(self.n - self.n // 2, self.n // 2)

    @property
    def dof(self) -> int | None:
        """The chi-square degrees of freedom of a "rer" or "pca" threshold, k or p."""
        return self.k or self.p if self.scheme in ("rer", "pca") else None

    @property
    def degenerate(self) -> bool:
        """The rule sums all p = n-1 components: the constant n-1, which cannot discriminate."""
        return self.dof == self.p == self.n - 1

    @property
    def shrinkage(self) -> float | None:
        """v_a = shrinkage_coeff(dof, threshold) of a "rer" or "pca" rule's
        balanced components; None for "cr", "ridge" (whose shrinkage varies
        by component) and a degenerate rule (run as complete randomization)."""
        if self.dof is None or self.degenerate:
            return None
        return shrinkage_coeff(self.dof, self.threshold)

    @property
    def note(self) -> str:
        """Why a degenerate rule (dof = n-1) runs as complete randomization; "" otherwise."""
        if not self.degenerate:
            return ""
        side = "below" if self.threshold < self.dof else "at or above"
        return (f"distance is the constant n-1 = {self.dof} for every equal split; "
                f"threshold {self.threshold:.4f} is {side} it, so the rule cannot "
                "discriminate and the scheme degenerates to complete randomization")


@dataclass(frozen=True)
class CovReductionReport:
    """Predicted variance reductions for a calibrated criterion.

    per_component_shrinkage[j] is the predicted ratio of accepted-draw to
    complete-randomization variance of principal component j's mean
    difference; per_covariate_prv[i] the predicted percent reduction in
    variance (as a fraction) for covariate i; predicted_tau_var_reduction
    the absolute reduction in var(tau_hat) for the supplied coefficients.
    """

    scheme: str
    per_component_shrinkage: np.ndarray
    per_covariate_prv: np.ndarray
    predicted_tau_var_reduction: float | None = None


def _allocation_factor(w: Allocation) -> float:
    if w.n_treated == 0 or w.n_control == 0:
        raise ValueError("both groups must be nonempty")
    if not w.equal_split:
        warnings.warn(_NEAR_EQUAL_MSG, UserWarning, stacklevel=3)
    return 1.0 / w.n_treated + 1.0 / w.n_control


def _standardized_terms(basis: SpectralBasis, w: Allocation) -> np.ndarray:
    """Per-component summands t_j; M is their sum."""
    if w.n != basis.n:
        raise ValueError("allocation length disagrees with basis rows")
    r = _allocation_factor(w)
    proj = basis.u.T @ np.asarray(w.assignment, dtype=float)
    return r * (basis.n - 1) * proj**2


def mahalanobis(x: CovariateMatrix, basis: SpectralBasis, w: Allocation) -> float:
    """Mahalanobis distance of the covariate mean difference.

    Computed as the standardized spectral sum over the effective rank,
    which equals diff' Sigma^- diff with the pseudo-inverse taken over
    the retained components.
    """
    if x.n != basis.n or x.d != basis.d:
        raise ValueError("covariate matrix disagrees with basis dimensions")
    return float(_standardized_terms(basis, w).sum())


def mahalanobis_pca(basis: SpectralBasis, k: int, w: Allocation) -> float:
    """Balance criterion restricted to the top k principal components."""
    if not 1 <= k <= basis.p:
        raise ValueError(f"k must lie in [1, {basis.p}]")
    return float(_standardized_terms(basis, w)[:k].sum())


def _check_lambda(lam) -> None:
    """Raise ValueError unless the ridge penalty lam satisfies 0 <= lam < inf."""
    if not 0.0 <= lam < np.inf:
        raise ValueError("lambda must be a finite nonnegative number")


def mahalanobis_ridge(
    x: CovariateMatrix, basis: SpectralBasis, lam: float, w: Allocation
) -> float:
    """Ridge-regularized distance diff' (Sigma + lambda I)^{-1} diff.

    For centered X the mean difference lies in the column space of V, so
    the spectral sum is the whole distance even when the rank is deficient.
    """
    _check_lambda(lam)
    if x.n != basis.n or x.d != basis.d:
        raise ValueError("covariate matrix disagrees with basis dimensions")
    if lam == 0.0:
        if basis.p < x.d:
            raise ValueError("lambda = 0 with a singular covariance")
        return mahalanobis(x, basis, w)
    t = _standardized_terms(basis, w)
    c = sigma_factor(w.n_treated, w.n_control)
    return float((_ridge_weights(basis, c, lam) * t).sum())


def _terms(u: np.ndarray, rows: np.ndarray, n_t: int, out=None) -> np.ndarray:
    """Summands t_j of 0/1 rows that each treat n_t units: (k, b) for an
    (n, k) slice of u and (b, n) rows, (S, k, b) for (S, n, k) and (S, b, n)
    stacks. u goes in transposed and the rows as float, transposed, so each
    matrix of a stack keeps the layout and bits of its own call."""
    n = rows.shape[-1]
    t = np.matmul(u.swapaxes(-1, -2), rows.astype(float).swapaxes(-1, -2), out=out)
    np.square(t, out=t)
    t *= (1.0 / n_t + 1.0 / (n - n_t)) * (n - 1)
    return t


def _reduce(t: np.ndarray, weights=None) -> np.ndarray:
    """Criterion values of the terms t: summed, or weighted by the ridge
    weights (a length-p vector per matrix of t)."""
    if weights is None:
        return np.add.reduce(t, axis=-2)
    return weights @ t if t.ndim == 2 else np.array(list(map(np.matmul, weights, t)))


def _blocks(u: np.ndarray, w: np.ndarray, n_t: int):
    """The `_terms` of the rows of w on the (n, k) slice u, one
    `_BLOCK_ROWS`-row block at a time in one reused float64 buffer, so a
    10000-row calibration holds one block in float64. Packed rows
    (ceil(n/8) bytes wide, as half_split_matrix memoizes a stream's) are
    unpacked a block at a time."""
    n, buf = len(u), np.empty((u.shape[1], min(len(w), _BLOCK_ROWS)))
    for lo in range(0, len(w), _BLOCK_ROWS):
        rows = w[lo : lo + _BLOCK_ROWS]  # frees the last block before unpacking
        if rows.shape[1] != n:  # n >= 2, so ceil(n/8) < n
            rows = np.unpackbits(rows, axis=1, count=n)
        yield _terms(u, rows, n_t, buf[:, : len(rows)])


def _ridge_weights(basis: SpectralBasis, c: float, lam: float) -> np.ndarray:
    """Ridge down-weights c sigma_j^2 / (c sigma_j^2 + lambda)."""
    scaled = c * basis.singular_values**2
    return scaled / (scaled + lam)


def _batch_distances(basis: SpectralBasis, w, n_t: int, k: int, weights=None) -> np.ndarray:
    """batch_distances unchecked, on the leading k components, for rows of `_blocks`."""
    parts = [_reduce(t, weights) for t in _blocks(basis.u[:, :k], w, n_t)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _shrinkage(basis: SpectralBasis, w: np.ndarray, weights: np.ndarray, threshold) -> np.ndarray:
    """Monte Carlo per-component variance ratio on the exact-split rows w:
    mean term over the rows whose `_batch_distances` value under weights
    is at most the threshold, over the mean term of all rows; all ones
    when no row is accepted."""
    total, kept, n_acc = np.zeros(basis.p), np.zeros(basis.p), 0.0
    for t in _blocks(basis.u, w, (basis.n + 1) // 2):
        acc = (_reduce(t, weights) <= threshold).astype(float)
        total += t.sum(axis=1)
        kept += acc @ t.T
        n_acc += acc.sum()
    if n_acc == 0:
        return np.ones(basis.p)
    return kept / n_acc / (total / len(w))


def _components(criterion: BalanceCriterion, n: int, basis: SpectralBasis | None):
    """The one fit check, of a criterion on rows of n units and on basis
    (unread for "cr"): (k, weights), the count of leading components the
    criterion sums (0 for "cr") and its ridge weights (None unless
    "ridge"), or a ValueError that names both shapes."""
    c = criterion
    k = 0 if c.scheme == "cr" else c.k or c.p or basis.p
    if k and c.threshold is None:
        raise ValueError("criterion has no calibrated threshold")
    if c.n != n or k and (basis.n != n or c.p not in (None, basis.p) or k > basis.p):
        rule = f"n = {c.n}" + ("" if c.p is None else f", p = {c.p}")
        shape = f"rank p = {basis.p} on n = {basis.n}" if k else f"n = {n}"
        raise ValueError(f"the {c.scheme} rule calibrated on {rule} sums {k} components but the "
                         f"basis has {shape} units; calibrate it on this basis")
    return k, _ridge_weights(basis, c.sigma_factor, c.lam) if c.scheme == "ridge" else None


def _chunk_distances(n: int, runs):
    """The lockstep's per-chunk distances for searches runs[j] = (criterion,
    basis, ...) on n units, each criterion checked and resolved once, here.

    It maps search indexes js and their (len(js), b, n) exact-split rows to
    their values ("cr" rows are 0.0). One search goes through
    batch_distances; otherwise the searches of one kind of terms and
    component count share one stacked `_terms` product.
    """
    fits = [_components(c, n, b) for c, b, *_ in runs]

    def distances(js, rows):
        if len(js) == 1 and fits[js[0]][0]:
            return batch_distances(*runs[js[0]][:2], rows[0])[None]
        d, groups = np.zeros(rows.shape[:2]), {}
        for i, (k, weights) in enumerate(fits[j] for j in js):
            if k:
                groups.setdefault((weights is not None, k), []).append(i)
        for (ridge, k), group in groups.items():
            bases = [runs[js[i]][1] for i in group]
            us = [b.u[:, :k] for b in bases]
            shared = all(b is bases[0] for b in bases)  # accepted_sample
            u = np.broadcast_to(us[0], (len(us), *us[0].shape)) if shared else np.array(us)
            t = _terms(u, rows[group], (rows.shape[2] + 1) // 2)
            d[group] = _reduce(t, [fits[js[i]][1] for i in group] if ridge else None)
        return d

    return distances


def batch_distances(
    criterion: BalanceCriterion, basis: SpectralBasis, w_matrix: np.ndarray
) -> np.ndarray:
    """Criterion values for many allocations at once (rows of w_matrix).

    w_matrix holds 0/1 rows of length n that all treat the same number of
    units, strictly between 0 and n, and a criterion calibrated on basis's
    n and p (ValueError otherwise). Rows are reduced to distances one
    `_BLOCK_ROWS`-row block at a time, so the float64 memory held is one
    block's, whatever the number of rows.

    The top-k criterion touches only the first k left singular vectors,
    so its per-draw cost is O(nk) against O(np) for the full and ridge
    criteria.
    """
    if criterion.scheme == "cr":
        raise ValueError("complete randomization has no balance distance")
    w, n = np.asarray(w_matrix), basis.n
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError("allocation length disagrees with basis rows")
    k, weights = _components(criterion, n, basis)
    # 0/1 entries: the OR of all bytes of int8, uint8 or bool rows is at most 1 exactly then
    if (np.bitwise_or.reduce(w.view(np.uint8), axis=None) > 1 if w.itemsize == 1
            else np.count_nonzero((w != 0) & (w != 1))):
        raise ValueError("allocation rows must hold only 0 and 1")
    # one integer row sum; int16 is twice as fast as int32 at n = 1000 and
    # cannot overflow on 0/1 rows below 2**15 units
    counts = np.add.reduce(w, axis=1, dtype=np.int16 if n < 2**15 else np.int32)
    n_t = int(counts[0]) if len(w) else 0
    if not 0 < n_t < n or np.count_nonzero(counts != n_t):
        raise ValueError("rows must all treat the same number of units, strictly between 0 and n")
    return _batch_distances(basis, w, n_t, k, weights)


def default_lambda(basis: SpectralBasis) -> float:
    """The ridge penalty: C_n times the smallest retained squared singular
    value, i.e. the smallest eigenvalue of Sigma (Branson & Shao 2021)."""
    n = basis.n
    return sigma_factor(n - n // 2, n // 2) * float(basis.singular_values[-1] ** 2)


# Kept only because perfbench/spans.py traces balance.choose_lambda by name.
choose_lambda = default_lambda


def calibrate(
    scheme: str,
    p_a: float,
    basis: SpectralBasis | int,
    k: int | None = None,
    lam: float | None = None,
    n_cal: int = 10000,
) -> BalanceCriterion:
    """Build an acceptance rule with threshold set to hit p_a.

    "rer" and "pca" thresholds are chi-square quantiles (dof = effective
    rank, resp. k); "rer" is "pca" over all p components, so k is ignored
    for it. "ridge" needs lam > 0 (None means default_lambda) that moves
    some ridge weight below 1 (ValueError otherwise, lam = 0 included) and is
    calibrated as the empirical p_a quantile of the criterion over
    n_cal >= 1 seeded complete randomizations, always the first n_cal rows
    of the calibration stream. "cr" has no threshold and
    reads only the unit count of basis, so the count n may be passed in
    its place, which spares the SVD. Arguments a scheme does not use are
    ignored. The rule records basis's n (and p, but for "cr"). When the
    criterion sums all p = n-1 components it is the constant n-1; the rule
    is flagged degenerate and the engine decides it on a single draw.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if not 0.0 < p_a < 1.0:
        raise ValueError("p_a must lie strictly inside (0, 1)")
    n = basis if scheme == "cr" and isinstance(basis, int) else basis.n

    if scheme == "cr":
        return BalanceCriterion("cr", p_a, n, threshold=None)

    if scheme == "ridge":
        if lam is None:
            lam = default_lambda(basis)
        _check_lambda(lam)
        rule = BalanceCriterion("ridge", p_a, n, None, p=basis.p, lam=float(lam), n_cal=n_cal)
        weights = _ridge_weights(basis, rule.sigma_factor, lam)
        if (weights == 1.0).all():
            raise ValueError(_ZERO_RIDGE_MSG.format(lam=lam))
        rows = half_split_matrix(n, n_cal, _CALIBRATION_STREAM)
        a = float(np.quantile(_batch_distances(basis, rows, (n + 1) // 2, basis.p, weights), p_a))
        return replace(rule, threshold=a)

    if scheme == "rer":
        k = None
    elif k is None:
        raise ValueError("pca scheme requires k")
    elif not 1 <= k <= basis.p:
        raise ValueError(f"k must lie in [1, {basis.p}]")
    crit = BalanceCriterion(scheme, p_a, n, chi2_quantile(k or basis.p, p_a), p=basis.p, k=k)
    if crit.degenerate:
        warnings.warn(crit.note, DegenerateRuleWarning, stacklevel=2)
    return crit


class DegenerateRuleWarning(UserWarning):
    """A calibrated rule cannot discriminate between equal splits, so its
    scheme runs as complete randomization (the criterion's `note`)."""


def predict_reduction(
    criterion: BalanceCriterion, basis: SpectralBasis, beta=None
) -> CovReductionReport:
    """Predicted shrinkage per component, per covariate, and for tau_hat.

    For "pca" the component shrinkage is v_{a_k} on the first k components
    and 1 elsewhere; for "rer" it is v_a everywhere (either way
    criterion.shrinkage); for "ridge" it is a Monte Carlo estimate on the
    n_cal calibration rows the threshold was set on (see module
    docstring). It is all ones for "cr" and for a degenerate criterion,
    which the engine runs as complete randomization; both predict zero
    reduction. The per-covariate percent reduction and the tau_hat
    variance reduction follow by rotating the shrunk spectrum back
    through V. A criterion that does not fit basis is a ValueError.
    """
    _, weights = _components(criterion, basis.n, basis)
    if beta is not None:
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (basis.d,) or not np.isfinite(beta).all():
            raise ValueError(f"beta must be a finite vector of length d = {basis.d}")
    if weights is not None:
        rows = half_split_matrix(basis.n, criterion.n_cal, _CALIBRATION_STREAM)
        shrink = np.clip(_shrinkage(basis, rows, weights, criterion.threshold), 1e-12, 1.0)
    else:
        shrink = np.ones(basis.p)
        if criterion.shrinkage is not None:
            shrink[: criterion.k] = criterion.shrinkage

    sig2 = basis.singular_values**2
    v2 = basis.v**2  # d x p
    denom = v2 @ sig2
    numer = v2 @ (shrink * sig2)
    prv = np.zeros(basis.d)
    ok = denom > 0
    prv[ok] = 1.0 - numer[ok] / denom[ok]

    reduction = None if beta is None else float(
        criterion.sigma_factor * ((1.0 - shrink) * sig2 * (basis.v.T @ beta) ** 2).sum())

    return CovReductionReport(criterion.scheme, shrink, prv, reduction)
