"""Singular value decomposition of the covariate matrix and top-k selection.

Under exact singular-value ties the top-k subspace is only defined as a
union of tied blocks. The selected count k depends just on the multiset of
singular values, so it is tie-stable; projected per-component diagnostics
are basis-dependent in that (measure-zero) case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CovariateMatrix


@dataclass(frozen=True)
class SpectralBasis:
    """Thin SVD factors of a centered covariate matrix.

    u: n x p left singular vectors; v: d x p right singular vectors;
    singular_values: nonincreasing positive sigma_1 >= ... >= sigma_p,
    where p is the effective rank after tolerance truncation.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @property
    def d(self) -> int:
        return self.v.shape[0]

    @property
    def p(self) -> int:
        return len(self.singular_values)


@dataclass(frozen=True)
class ComponentSelection:
    k: int
    explained: np.ndarray  # cumulative explained-variance ratios, length p


def decompose(x: CovariateMatrix) -> SpectralBasis:
    """Thin SVD with tolerance-based rank truncation.

    Singular values at or below eps * max(n, d) * sigma_1 are dropped
    (eps the machine epsilon), the conventional numerical rank rule. Each
    right singular vector is sign-fixed so its largest magnitude entry is
    positive, making downstream diagnostics and golden files deterministic.

    Args:
        x: standardized (at minimum centered) covariate matrix.
    """
    a = x.values
    if not np.all(np.isfinite(a)):
        raise ValueError("covariate matrix contains non-finite entries")
    return _decompose_stack(a[None])[1][0]


def _decompose_stack(a: np.ndarray) -> tuple[np.ndarray, list[SpectralBasis]]:
    """decompose for each matrix of a finite (R, n, d) stack, in one SVD call:
    the (R, min(n, d)) singular values and one basis per matrix, with the bits
    of a one-matrix call. Bases are views of the stacked factors, apart from a
    truncated u, copied so that u stays C-contiguous as LAPACK gave it."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if np.any(s[:, 0] == 0.0):
        raise ValueError("zero matrix has no spectral basis")
    ps = np.sum(s > np.finfo(float).eps * max(a.shape[1:]) * s[:, :1], axis=1)

    # Sign convention: dominant entry of each right singular vector positive,
    # applied in place to the factors the SVD returned.
    v = vt.swapaxes(1, 2)
    dominant = np.argmax(np.abs(v), axis=1)[:, None, :]
    signs = np.sign(np.take_along_axis(v, dominant, axis=1))
    signs[signs == 0] = 1.0
    v *= signs
    u *= signs
    return s, [
        SpectralBasis(u=np.ascontiguousarray(u[r, :, :p]), singular_values=s[r, :p], v=v[r, :, :p])
        for r, p in enumerate(ps.tolist())
    ]


def select_k(basis: SpectralBasis, gamma: float) -> ComponentSelection:
    """Smallest k whose cumulative explained variance reaches gamma.

    k = min{ j : sum_{i<=j} sigma_i^2 / sum_i sigma_i^2 >= gamma }.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly inside (0, 1)")
    k, explained = _select_k(basis.singular_values, gamma)
    return ComponentSelection(k=int(k), explained=explained)


def _select_k(s: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """select_k's k and explained ratios along the last axis of (..., p)
    singular values; each row gives the bits of a one-row call."""
    energy = s**2
    explained = np.cumsum(energy, axis=-1) / energy.sum(axis=-1, keepdims=True)
    # explained is nondecreasing: the count below gamma is searchsorted's left index
    return np.minimum(np.sum(explained < gamma, axis=-1) + 1, s.shape[-1]), explained


def project(basis: SpectralBasis, k: int, diff: np.ndarray) -> np.ndarray:
    """First k coordinates of V' diff (the top-k principal directions)."""
    if not 1 <= k <= basis.p:
        raise ValueError(f"k must lie in [1, {basis.p}]")
    diff = np.asarray(diff, dtype=float)
    if diff.shape != (basis.d,):
        raise ValueError("difference vector has wrong length")
    return basis.v[:, :k].T @ diff
