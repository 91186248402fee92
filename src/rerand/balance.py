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
core.half_split_matrix memoizes bit-packed, so every ridge calibration,
shrinkage estimate and penalty search at the same (n, n_cal) reuses one
seeded draw per process. A ridge criterion records its n_cal, and its
shrinkage estimate replays exactly the rows its threshold was set on.

The packed rows never leave this module. Calibration and shrinkage
reduce them one 1024-row block at a time: unpack, convert to float64,
project, and sum (or weight) the block's terms before the next block. A
warm ridge calibration at n = 1000, d = 180 so peaks at about 11 MB of
allocation, where unpacking all 10000 rows and holding their 180 x 10000
terms took about 33 MB. Packed and 0/1 rows go through the same block
product, so a calibration row's distance is the one batch_distances
gives for it unpacked.
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

# _term_blocks converts and projects allocation rows in blocks of this many.
# The engine's rejection batches are smaller, so each batch is one block.
_BLOCK_ROWS = 1024

_NEAR_EQUAL_MSG = (
    "allocation is not an exact half split; distances use the "
    "finite-population scaling, outside the exact-split theory"
)


@dataclass(frozen=True)
class BalanceCriterion:
    """A calibrated acceptance rule for one randomization scheme.

    scheme is one of {"cr", "rer", "ridge", "pca"}; threshold is None for
    "cr". k is the number of leading components summed ("pca" only; None
    means all p, which is "rer"). dof records the chi-square degrees of
    freedom used to set the threshold ("rer"/"pca" only). degenerate flags
    the rank = n-1 case in which M is the constant n-1 and the rule cannot
    discriminate. n_cal records the Monte Carlo sample a "ridge" threshold
    was set on: the first n_cal rows of the calibration stream.
    """

    scheme: str
    acceptance_prob: float
    sigma_factor: float
    threshold: float | None
    k: int | None = None
    lam: float | None = None
    dof: int | None = None
    degenerate: bool = False
    note: str = ""
    n_cal: int | None = None

    @property
    def shrinkage(self) -> float | None:
        """v_a = shrinkage_coeff(dof, threshold) of a "rer" or "pca" rule's
        balanced components; None for "cr", "ridge" (whose shrinkage varies
        by component) and a degenerate rule (run as complete randomization)."""
        if self.dof is None or self.degenerate:
            return None
        return shrinkage_coeff(self.dof, self.threshold)


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
    shrinkage_value: float | None = None


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


def mahalanobis_ridge(
    x: CovariateMatrix, basis: SpectralBasis, lam: float, w: Allocation
) -> float:
    """Ridge-regularized distance diff' (Sigma + lambda I)^{-1} diff.

    For centered X the mean difference lies in the column space of V, so
    the spectral sum is the whole distance even when the rank is deficient.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if x.n != basis.n or x.d != basis.d:
        raise ValueError("covariate matrix disagrees with basis dimensions")
    if lam == 0.0:
        if basis.p < x.d:
            raise ValueError("lambda = 0 with a singular covariance")
        return mahalanobis(x, basis, w)
    t = _standardized_terms(basis, w)
    c = sigma_factor(w.n_treated, w.n_control)
    return float((_ridge_weights(basis, c, lam) * t).sum())


def _term_blocks(basis: SpectralBasis, w: np.ndarray, k: int | None, n_t: int):
    """Summands t_j of the leading k components (all p for k = None) of the
    allocation rows of w, each with n_t treated units, one `_BLOCK_ROWS`-row
    block at a time.

    Yields (t, wide) per block. t holds one column per row of the block,
    in a buffer the next block overwrites, so a 10000-row calibration never
    holds more than one block in float64. The slice keeps the top-k cost
    per draw at O(nk). Rows are 0/1 of length n or, ceil(n/8) bytes wide,
    bit-packed as half_split_matrix gives a stream's rows; packed rows are
    unpacked one block at a time. A row's terms depend only on the block
    it falls in.

    wide is t, except for a one-row last block of a longer call: then it
    is t beside a stale column of the previous block. numpy reduces a lone
    column with other kernels (pairwise sum, dot product) than a matrix, so
    `_distances` reduces wide, and a row's distance does not depend on
    whether it is alone in its block.
    """
    n = basis.n
    packed = w.shape[1] != n  # n >= 2, so ceil(n/8) < n
    ut = basis.u[:, :k].T
    buf = np.empty((ut.shape[0], min(len(w), _BLOCK_ROWS)))
    scale = (1.0 / n_t + 1.0 / (n - n_t)) * (n - 1)
    for lo in range(0, len(w), _BLOCK_ROWS):
        rows = w[lo : lo + _BLOCK_ROWS]
        if packed:
            rows = np.unpackbits(rows, axis=1, count=n)
        t = buf[:, : len(rows)]
        np.matmul(ut, rows.astype(float).T, out=t)
        np.square(t, out=t)
        t *= scale
        yield t, (buf[:, :2] if lo and len(rows) == 1 else t)


def _distances(t: np.ndarray, wide: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    """Criterion values of one block from `_term_blocks`: the sum of its
    terms, or their ridge-weighted sum when weights are given."""
    d = wide.sum(axis=0) if weights is None else weights @ wide
    return d if wide is t else d[:1]  # wide is wider only around a lone row


def _terms(basis: SpectralBasis, w: np.ndarray, k: int | None) -> np.ndarray:
    """All the summands of `_term_blocks` as one matrix, a column per row,
    for exact-split rows (ceil(n/2) treated) such as calibration rows."""
    out = np.empty((basis.u[:, :k].shape[1], len(w)))
    lo = 0
    for t, _ in _term_blocks(basis, w, k, (basis.n + 1) // 2):
        out[:, lo : lo + t.shape[1]] = t
        lo += t.shape[1]
    return out


def _ridge_weights(basis: SpectralBasis, c: float, lam: float) -> np.ndarray:
    """Ridge down-weights c sigma_j^2 / (c sigma_j^2 + lambda)."""
    scaled = c * basis.singular_values**2
    return scaled / (scaled + lam)


def _batch_distances(
    criterion: BalanceCriterion, basis: SpectralBasis, w: np.ndarray, n_t: int
) -> np.ndarray:
    """batch_distances without its checks, for rows of `_term_blocks`."""
    weights = None
    if criterion.scheme == "ridge":
        weights = _ridge_weights(basis, criterion.sigma_factor, criterion.lam)
    blocks = _term_blocks(basis, w, criterion.k, n_t)
    parts = [_distances(t, wide, weights) for t, wide in blocks]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def batch_distances(
    criterion: BalanceCriterion, basis: SpectralBasis, w_matrix: np.ndarray
) -> np.ndarray:
    """Criterion values for many allocations at once (rows of w_matrix).

    w_matrix holds 0/1 rows of length n that all treat the same number of
    units, strictly between 0 and n (ValueError otherwise). Rows are
    reduced to distances one `_BLOCK_ROWS`-row block at a time, so the
    float64 memory held is one block's, whatever the number of rows.

    The top-k criterion touches only the first k left singular vectors,
    so its per-draw cost is O(nk) against O(np) for the full and ridge
    criteria.
    """
    if criterion.scheme == "cr":
        raise ValueError("complete randomization has no balance distance")
    w = np.asarray(w_matrix)
    if w.ndim != 2 or w.shape[1] != basis.n:
        raise ValueError("allocation length disagrees with basis rows")
    # one integer row sum; int16 is twice as fast as int32 at n = 1000 and
    # cannot overflow on 0/1 rows below 2**15 units
    counts = w.sum(axis=1, dtype=np.int16 if basis.n < 2**15 else np.int32)
    n_t = int(counts[0]) if len(w) else 0
    if not 0 < n_t < basis.n or (counts != n_t).any():
        raise ValueError("rows must all treat the same number of units, strictly between 0 and n")
    return _batch_distances(criterion, basis, w, n_t)


def default_lambda(basis: SpectralBasis) -> float:
    """Documented default ridge penalty: C_n times the smallest retained
    squared singular value, i.e. the smallest eigenvalue of Sigma."""
    n = basis.n
    return sigma_factor(n - n // 2, n // 2) * float(basis.singular_values[-1] ** 2)


def choose_lambda(
    basis: SpectralBasis,
    p_a: float,
    beta=None,
    n_cal: int = 10000,
) -> float:
    """Heuristic ridge penalty selection.

    Without beta, returns the documented default (smallest eigenvalue of
    Sigma). With beta, grid-searches powers of ten around that default and
    scores each candidate by the predicted reduction
    sum_j (1 - xi_j) sigma_j^2 (V'beta)_j^2, with xi_j the Monte Carlo
    per-component shrinkage on the first n_cal rows of the calibration
    stream, the sample ridge thresholds are set on. This
    is a stand-in for exact penalty optimization, which has no closed
    form here. Unlike calibration, the search holds the whole p x n_cal
    terms matrix (14.4 MB at p = 180, n_cal = 10000), since it scores all
    13 candidates on it.
    """
    base = default_lambda(basis)
    if beta is None:
        return base
    if not 0.0 < p_a < 1.0:
        raise ValueError("p_a must lie strictly inside (0, 1)")
    if n_cal < 1:
        raise ValueError("n_cal must be at least 1")
    terms = _terms(basis, half_split_matrix(basis.n, n_cal, _CALIBRATION_STREAM), None)
    c_n = sigma_factor(basis.n - basis.n // 2, basis.n // 2)
    btil2 = (basis.v.T @ np.asarray(beta, dtype=float)) ** 2
    sig2 = basis.singular_values**2
    mean_terms = terms.mean(axis=1)

    best_lam, best_score = base, -np.inf
    for g in range(-6, 7):
        lam = base * 10.0**g
        dists = _ridge_weights(basis, c_n, lam) @ terms
        a = float(np.quantile(dists, p_a))
        acc = dists <= a
        if not acc.any():
            continue
        xi = terms[:, acc].mean(axis=1) / mean_terms  # accepted over all variance
        score = float(((1.0 - xi) * sig2 * btil2).sum())
        if score > best_score + 1e-12:
            best_lam, best_score = lam, score
    return best_lam


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
    for it. "ridge" is calibrated as the empirical p_a quantile of the
    criterion over n_cal >= 1 seeded complete randomizations, always the
    first n_cal rows of the calibration stream. "cr" has no threshold and
    reads only the unit count of basis, so the count n may be passed in
    its place, which spares the SVD. Arguments a scheme does not use are
    ignored. When the criterion sums all p = n-1 components it is the
    constant n-1; the rule is flagged degenerate and the engine decides it
    on a single draw.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if not 0.0 < p_a < 1.0:
        raise ValueError("p_a must lie strictly inside (0, 1)")
    n = basis if scheme == "cr" and isinstance(basis, int) else basis.n
    c_n = sigma_factor(n - n // 2, n // 2)

    if scheme == "cr":
        return BalanceCriterion("cr", p_a, c_n, threshold=None)

    if scheme == "ridge":
        if lam is None:
            lam = default_lambda(basis)
        if lam < 0:
            raise ValueError("lambda must be nonnegative")
        if n_cal < 1:
            raise ValueError("n_cal must be at least 1")
        probe = BalanceCriterion("ridge", p_a, c_n, threshold=np.inf, lam=float(lam), n_cal=n_cal)
        rows = half_split_matrix(n, n_cal, _CALIBRATION_STREAM)
        dists = _batch_distances(probe, basis, rows, (n + 1) // 2)
        return replace(probe, threshold=float(np.quantile(dists, p_a)))

    if scheme == "rer":
        k = None
    elif k is None:
        raise ValueError("pca scheme requires k")
    elif not 1 <= k <= basis.p:
        raise ValueError(f"k must lie in [1, {basis.p}]")
    dof = basis.p if k is None else k
    crit = BalanceCriterion(
        scheme, p_a, c_n, threshold=chi2_quantile(dof, p_a), k=k, dof=dof
    )
    if dof == basis.p == n - 1:
        crit = _flag_degenerate(crit, n)
    return crit


class DegenerateRuleWarning(UserWarning):
    """A calibrated rule cannot discriminate between equal splits, so its
    scheme runs as complete randomization (the criterion's `note`)."""


def _flag_degenerate(crit: BalanceCriterion, n: int) -> BalanceCriterion:
    const = n - 1
    side = "below" if crit.threshold < const else "at or above"
    note = (
        f"distance is the constant n-1 = {const} for every equal split; "
        f"threshold {crit.threshold:.4f} is {side} it, so the rule cannot "
        "discriminate and the scheme degenerates to complete randomization"
    )
    warnings.warn(note, DegenerateRuleWarning, stacklevel=3)
    return replace(crit, degenerate=True, note=note)


def _ridge_component_shrinkage(criterion: BalanceCriterion, basis: SpectralBasis) -> np.ndarray:
    # Monte Carlo per-component variance ratio on the calibration sample.
    # Per block, each component's terms are added up over all rows and over
    # the accepted ones (distances as batch_distances computes them), so
    # only O(p) sums are held, not the p x n_cal terms.
    rows = half_split_matrix(basis.n, criterion.n_cal, _CALIBRATION_STREAM)
    weights = _ridge_weights(basis, criterion.sigma_factor, criterion.lam)
    total = np.zeros(basis.p)
    kept = np.zeros(basis.p)
    n_acc = 0
    for t, wide in _term_blocks(basis, rows, None, (basis.n + 1) // 2):
        acc = _distances(t, wide, weights) <= criterion.threshold
        total += t.sum(axis=1)
        kept += t[:, acc].sum(axis=1)
        n_acc += int(acc.sum())
    if not n_acc:
        return np.ones(basis.p)
    return np.clip((kept / n_acc) / (total / len(rows)), 1e-12, 1.0)


def predict_reduction(
    criterion: BalanceCriterion, basis: SpectralBasis, beta=None
) -> CovReductionReport:
    """Predicted shrinkage per component, per covariate, and for tau_hat.

    For "pca" the component shrinkage is v_{a_k} on the first k components
    and 1 elsewhere; for "rer" it is v_a everywhere (either way the
    report's shrinkage_value, criterion.shrinkage); for "ridge" it is a
    Monte Carlo estimate on the n_cal calibration rows the threshold was
    set on (see module docstring). It is all ones for "cr" and for a
    degenerate criterion, which the engine runs as complete
    randomization; both predict zero reduction and no shrinkage_value.
    The per-covariate percent reduction and the tau_hat variance
    reduction follow by rotating the shrunk spectrum back through V.
    """
    if criterion.scheme != "cr" and criterion.threshold is None:
        raise ValueError("criterion has no calibrated threshold")
    shrink_value = criterion.shrinkage
    if criterion.scheme == "ridge":
        shrink = _ridge_component_shrinkage(criterion, basis)
    else:
        shrink = np.ones(basis.p)
        if shrink_value is not None:
            shrink[: criterion.k] = shrink_value

    sig2 = basis.singular_values**2
    v2 = basis.v**2  # d x p
    denom = v2 @ sig2
    numer = v2 @ (shrink * sig2)
    prv = np.zeros(basis.d)
    ok = denom > 0
    prv[ok] = 1.0 - numer[ok] / denom[ok]

    reduction = None
    if beta is not None:
        btil = basis.v.T @ np.asarray(beta, dtype=float)
        reduction = float(criterion.sigma_factor * ((1.0 - shrink) * sig2 * btil**2).sum())

    return CovReductionReport(
        scheme=criterion.scheme,
        per_component_shrinkage=shrink,
        per_covariate_prv=prv,
        predicted_tau_var_reduction=reduction,
        shrinkage_value=shrink_value,
    )
