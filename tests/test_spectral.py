import numpy as np
import pytest

from rerand.core import CovariateMatrix, standardize
from rerand.spectral import decompose, project, select_k


def _matrix(values):
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    return CovariateMatrix(
        values=values,
        n=n,
        d=d,
        standardized=False,
        column_means=np.zeros(d),
        column_sds=np.ones(d),
    )


def _orthogonal_two_col():
    a, b = np.sqrt(2.0), np.sqrt(0.5)
    return _matrix([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])


class TestDecompose:
    def test_diagonal_case(self):
        basis = decompose(_orthogonal_two_col())
        np.testing.assert_allclose(basis.singular_values, [2.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(np.abs(basis.v), np.eye(2), atol=1e-12)

    def test_duplicate_columns_truncate(self):
        col = np.array([1.0, -1.0, 2.0, -2.0])
        basis = decompose(_matrix(np.column_stack([col, col])))
        assert basis.p == 1

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(4)
        x = standardize(rng.standard_normal((50, 10)))
        basis = decompose(x)
        recon = basis.u @ np.diag(basis.singular_values) @ basis.v.T
        err = np.linalg.norm(recon - x.values) / np.linalg.norm(x.values)
        assert err < 1e-8
        np.testing.assert_allclose(basis.u.T @ basis.u, np.eye(basis.p), atol=1e-8)
        np.testing.assert_allclose(basis.v.T @ basis.v, np.eye(basis.p), atol=1e-8)

    def test_energy_identity(self):
        rng = np.random.default_rng(5)
        x = standardize(rng.standard_normal((40, 6)))
        basis = decompose(x)
        assert np.sum(basis.singular_values**2) == pytest.approx(
            np.linalg.norm(x.values) ** 2, rel=1e-8
        )

    def test_component_variances(self):
        rng = np.random.default_rng(6)
        x = standardize(rng.standard_normal((60, 5)))
        basis = decompose(x)
        z = basis.u * basis.singular_values
        np.testing.assert_allclose(
            z.var(axis=0, ddof=1), basis.component_variances(), rtol=1e-10
        )

    def test_components_centered(self):
        rng = np.random.default_rng(7)
        x = standardize(rng.standard_normal((30, 4)))
        basis = decompose(x)
        z = basis.u * basis.singular_values
        assert np.max(np.abs(z.sum(axis=0))) < 1e-8

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(8)
        x = standardize(rng.standard_normal((25, 5)))
        b1, b2 = decompose(x), decompose(x)
        np.testing.assert_array_equal(b1.v, b2.v)
        np.testing.assert_array_equal(b1.u, b2.u)
        dominant = np.argmax(np.abs(b1.v), axis=0)
        assert np.all(b1.v[dominant, np.arange(b1.p)] > 0)

    @pytest.mark.parametrize("n, d, rank", [(30, 6, 6), (6, 30, 5), (30, 6, 4)])
    def test_layout_and_bits_of_the_sign_fix(self, n, d, rank):
        # full rank, rank n-1 (centered wide), and truncated: u is C- and v
        # F-contiguous, owning only its p columns, with the bits of the
        # out-of-place sign fix (layout decides which BLAS kernel runs later)
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
        x = standardize(raw)
        basis = decompose(x)
        u, s, vt = np.linalg.svd(x.values, full_matrices=False)
        p = basis.p
        v = vt[:p].T
        signs = np.sign(v[np.argmax(np.abs(v), axis=0), np.arange(p)])
        want_u, want_v = u[:, :p] * signs, v * signs
        assert p == min(rank, n - 1)
        assert basis.u.flags.c_contiguous and basis.v.flags.f_contiguous
        assert basis.u.tobytes() == want_u.tobytes()
        assert basis.v.tobytes(order="A") == want_v.tobytes(order="A")
        assert basis.u.base is None or basis.u.base.size == n * p

    def test_rank_tol(self):
        col = np.array([1.0, -1.0, 2.0, -2.0])
        noisy = np.column_stack([col, col + 1e-13 * np.array([1, -1, 1, -1])])
        assert decompose(_matrix(noisy)).p == 2
        assert decompose(_matrix(noisy), rank_tol=1e-10).p == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            decompose(_matrix(np.zeros((4, 2))))


class TestSelectK:
    def test_worked_example(self):
        vals = np.sqrt(np.array([4.0, 3.0, 2.0, 1.0]))
        x = _matrix(np.diag(vals) - np.diag(vals).mean(axis=0))
        # build a basis with those singular values directly
        basis = decompose(_matrix(np.vstack([np.diag(vals), -np.diag(vals)]) / np.sqrt(2)))
        np.testing.assert_allclose(basis.singular_values**2, [4, 3, 2, 1], rtol=1e-12)
        assert select_k(basis, 0.95).k == 4
        assert select_k(basis, 0.9).k == 3
        assert select_k(basis, 0.4).k == 1

    def test_selection_invariant(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            x = standardize(np.random.default_rng(seed).standard_normal((30, 6)))
            basis = decompose(x)
            for gamma in (0.3, 0.7, 0.95):
                sel = select_k(basis, gamma)
                assert sel.explained[sel.k - 1] >= gamma
                if sel.k > 1:
                    assert sel.explained[sel.k - 2] < gamma

    def test_monotone_in_gamma(self):
        x = standardize(np.random.default_rng(10).standard_normal((30, 6)))
        basis = decompose(x)
        ks = [select_k(basis, g).k for g in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
        assert ks == sorted(ks)

    def test_gamma_above_penultimate_gives_p(self):
        basis = decompose(_matrix(np.vstack([np.diag([2.0, 1.0]), -np.diag([2.0, 1.0])])))
        sel = select_k(basis, 0.999)
        assert sel.k == basis.p

    def test_errors(self):
        basis = decompose(_orthogonal_two_col())
        for gamma in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                select_k(basis, gamma)


class TestProject:
    def test_identity_rotation(self):
        basis = decompose(_orthogonal_two_col())
        np.testing.assert_allclose(basis.v, np.eye(2), atol=1e-12)
        diff = np.array([0.3, -0.7])
        np.testing.assert_allclose(project(basis, 1, diff), [0.3], atol=1e-12)
        np.testing.assert_allclose(project(basis, 2, diff), diff, atol=1e-12)

    def test_orthogonal_diff_maps_to_zero(self):
        rng = np.random.default_rng(11)
        x = standardize(rng.standard_normal((20, 5)))
        basis = decompose(x)
        k = 2
        tail = basis.v[:, k:] @ rng.standard_normal(basis.p - k)
        np.testing.assert_allclose(project(basis, k, tail), 0.0, atol=1e-12)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(12)
        x = standardize(rng.standard_normal((20, 5)))
        basis = decompose(x)
        diff = rng.standard_normal(5)
        for k in (1, 3, 5):
            oracle = basis.v[:, :k].T.copy() @ diff
            np.testing.assert_allclose(project(basis, k, diff), oracle, atol=1e-12)

    def test_errors(self):
        basis = decompose(_orthogonal_two_col())
        with pytest.raises(ValueError):
            project(basis, 3, np.zeros(2))
        with pytest.raises(ValueError):
            project(basis, 1, np.zeros(5))
