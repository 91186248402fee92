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
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("zero matrix has no spectral basis")
    p = int(np.sum(s > np.finfo(float).eps * max(x.n, x.d) * s[0]))
    if p == 0:
        raise ValueError("no singular values above tolerance")
    # A truncated u is copied, so that u stays C-contiguous as LAPACK gave it.
    u, s, v = np.ascontiguousarray(u[:, :p]), s[:p], vt[:p].T

    # Sign convention: dominant entry of each right singular vector positive,
    # applied in place to the factors the SVD returned.
    dominant = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[dominant, np.arange(p)])
    signs[signs == 0] = 1.0
    v *= signs
    u *= signs

    return SpectralBasis(u=u, singular_values=s, v=v)


def select_k(basis: SpectralBasis, gamma: float) -> ComponentSelection:
    """Smallest k whose cumulative explained variance reaches gamma.

    k = min{ j : sum_{i<=j} sigma_i^2 / sum_i sigma_i^2 >= gamma }.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly inside (0, 1)")
    energy = basis.singular_values**2
    explained = np.cumsum(energy) / energy.sum()
    k = int(np.searchsorted(explained, gamma, side="left")) + 1
    k = min(k, basis.p)
    return ComponentSelection(k=k, explained=explained)


def project(basis: SpectralBasis, k: int, diff: np.ndarray) -> np.ndarray:
    """First k coordinates of V' diff (the top-k principal directions)."""
    if not 1 <= k <= basis.p:
        raise ValueError(f"k must lie in [1, {basis.p}]")
    diff = np.asarray(diff, dtype=float)
    if diff.shape != (basis.d,):
        raise ValueError("difference vector has wrong length")
    return basis.v[:, :k].T @ diff
