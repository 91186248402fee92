import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rerand import balance
from rerand.balance import (
    _CALIBRATION_STREAM,
    BalanceCriterion,
    DegenerateRuleWarning,
    _batch_distances,
    _blocks,
    _chunk_distances,
    _ridge_weights,
    _terms,
    batch_distances,
    calibrate,
    default_lambda,
    mahalanobis,
    mahalanobis_pca,
    mahalanobis_ridge,
    predict_reduction,
)
from rerand.core import (
    CovariateMatrix,
    RngStream,
    _stream_rows,
    group_means,
    half_split_matrix,
    make_allocation,
    sigma_factor,
    standardize,
)
from rerand.dist import chi2_quantile, shrinkage_coeff
from rerand.engine import _lockstep
from rerand.spectral import decompose


def _setup(n, d, seed):
    x = standardize(np.random.default_rng(seed).standard_normal((n, d)))
    return x, decompose(x)


def _splits(n, count, seed):
    rows = half_split_matrix(n, count, RngStream(seed).generator())
    return [make_allocation(row) for row in rows]


class TestMahalanobis:
    def test_hand_example(self):
        # single standardized column 1..4; the quadratic form reduces to
        # diff^2 / (1/n_T + 1/n_C), giving exactly 2.4 and 0.6
        x = standardize(np.array([[1.0], [2.0], [3.0], [4.0]]))
        basis = decompose(x)
        assert mahalanobis(x, basis, make_allocation([0, 0, 1, 1])) == pytest.approx(
            2.4, rel=1e-12
        )
        assert mahalanobis(x, basis, make_allocation([0, 1, 0, 1])) == pytest.approx(
            0.6, rel=1e-12
        )
        assert mahalanobis(x, basis, make_allocation([1, 1, 0, 0])) == pytest.approx(
            2.4, rel=1e-12
        )

    def test_matches_dense_quadratic_form(self):
        x, basis = _setup(30, 6, 13)
        cov = x.values.T @ x.values / (x.n - 1)
        for w in _splits(30, 5, 14):
            diff = group_means(x, w).diff
            r = 1.0 / w.n_treated + 1.0 / w.n_control
            oracle = float(diff @ np.linalg.solve(r * cov, diff))
            assert mahalanobis(x, basis, w) == pytest.approx(oracle, rel=1e-10)

    def test_bounded_by_n_minus_one(self):
        x, basis = _setup(20, 8, 15)
        for w in _splits(20, 50, 16):
            assert mahalanobis(x, basis, w) <= x.n - 1 + 1e-9

    def test_empty_group_rejected(self):
        x, basis = _setup(6, 2, 17)
        with pytest.raises(ValueError):
            mahalanobis(x, basis, make_allocation([1] * 6))

    def test_unequal_split_warns(self):
        x, basis = _setup(6, 2, 18)
        with pytest.warns(UserWarning):
            mahalanobis(x, basis, make_allocation([1, 0, 0, 0, 0, 0]))


class TestMahalanobisPca:
    def test_full_k_equals_full_distance(self):
        x, basis = _setup(24, 5, 19)
        for w in _splits(24, 10, 20):
            assert mahalanobis_pca(basis, basis.p, w) == pytest.approx(
                mahalanobis(x, basis, w), rel=1e-12
            )

    def test_monotone_in_k(self):
        x, basis = _setup(24, 5, 21)
        for w in _splits(24, 10, 22):
            vals = [mahalanobis_pca(basis, k, w) for k in range(1, basis.p + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_projected_oracle(self):
        x, basis = _setup(30, 6, 23)
        lam_cov = basis.singular_values**2 / (x.n - 1)
        for w in _splits(30, 5, 24):
            diff = group_means(x, w).diff
            r = 1.0 / w.n_treated + 1.0 / w.n_control
            eta = basis.v.T @ diff
            for k in (1, 3, 6):
                oracle = float((eta[:k] ** 2 / (r * lam_cov[:k])).sum())
                assert mahalanobis_pca(basis, k, w) == pytest.approx(oracle, rel=1e-10)

    def test_matches_component_matrix_pinv(self):
        # independent route: materialize the top-k component scores and
        # run the full-distance quadratic form on them
        x, basis = _setup(100, 10, 5150)
        k = 5
        z = x.values @ basis.v[:, :k]
        cov_z = np.cov(z.T, ddof=1)
        for w in _splits(100, 40, 5151):
            mask = np.asarray(w.assignment, dtype=bool)
            dz = z[mask].mean(axis=0) - z[~mask].mean(axis=0)
            r = 1.0 / w.n_treated + 1.0 / w.n_control
            oracle = float(dz @ np.linalg.pinv(r * cov_z) @ dz)
            assert mahalanobis_pca(basis, k, w) == pytest.approx(oracle, rel=1e-9)

    def test_k_out_of_range(self):
        x, basis = _setup(10, 3, 25)
        w = make_allocation([1, 0] * 5)
        for k in (0, basis.p + 1):
            with pytest.raises(ValueError):
                mahalanobis_pca(basis, k, w)


class TestMahalanobisRidge:
    def test_zero_lambda_full_rank(self):
        x, basis = _setup(30, 6, 26)
        w = _splits(30, 1, 27)[0]
        assert mahalanobis_ridge(x, basis, 0.0, w) == pytest.approx(
            mahalanobis(x, basis, w), rel=1e-12
        )

    def test_tiny_lambda_limit(self):
        x, basis = _setup(100, 10, 28)
        for w in _splits(100, 5, 29):
            m = mahalanobis(x, basis, w)
            m_lam = mahalanobis_ridge(x, basis, 1e-12, w)
            assert abs(m_lam - m) / m < 1e-6

    def test_zero_lambda_singular_rejected(self):
        x, basis = _setup(6, 10, 30)
        w = make_allocation([1, 0] * 3)
        with pytest.raises(ValueError):
            mahalanobis_ridge(x, basis, 0.0, w)

    def test_vanishes_for_huge_lambda(self):
        x, basis = _setup(30, 6, 59)
        w = _splits(30, 1, 60)[0]
        m_huge = mahalanobis_ridge(x, basis, 1e12, w)
        assert 0.0 <= m_huge < 1e-9

    def test_monotone_in_lambda(self):
        x, basis = _setup(40, 8, 31)
        w = _splits(40, 1, 32)[0]
        grid = np.logspace(-6, 3, 10)
        vals = [mahalanobis_ridge(x, basis, lam, w) for lam in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_dense_solve(self):
        for n, d, seed in ((30, 6, 33), (8, 12, 34)):
            x, basis = _setup(n, d, seed)
            cov = x.values.T @ x.values / (n - 1)
            for w in _splits(n, 4, seed + 100):
                diff = group_means(x, w).diff
                r = 1.0 / w.n_treated + 1.0 / w.n_control
                for lam in (1e-3, 0.1, 10.0):
                    oracle = float(
                        diff @ np.linalg.solve(r * cov + lam * np.eye(d), diff)
                    )
                    got = mahalanobis_ridge(x, basis, lam, w)
                    assert got == pytest.approx(oracle, rel=1e-9)

    def test_negative_lambda_rejected(self):
        x, basis = _setup(10, 3, 35)
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lambda must be a finite nonnegative number"):
                mahalanobis_ridge(x, basis, lam, make_allocation([1, 0] * 5))


class TestBatchDistances:
    def test_agrees_with_scalar_paths(self):
        x, basis = _setup(40, 8, 36)
        rows = half_split_matrix(40, 20, RngStream(37).generator())
        allocs = [make_allocation(row) for row in rows]
        rer = calibrate("rer", 0.05, basis)
        np.testing.assert_allclose(
            batch_distances(rer, basis, rows),
            [mahalanobis(x, basis, w) for w in allocs],
            rtol=1e-10,
        )
        pca = calibrate("pca", 0.05, basis, k=3)
        np.testing.assert_allclose(
            batch_distances(pca, basis, rows),
            [mahalanobis_pca(basis, 3, w) for w in allocs],
            rtol=1e-10,
        )
        ridge = calibrate("ridge", 0.05, basis, lam=0.05, n_cal=500)
        np.testing.assert_allclose(
            batch_distances(ridge, basis, rows),
            [mahalanobis_ridge(x, basis, 0.05, w) for w in allocs],
            rtol=1e-10,
        )

    @pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 2 * 1024 + 3])
    @settings(max_examples=5)
    @given(half=st.integers(8, 30), d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
    def test_equal_single_allocation_distances(self, count, half, d, seed):
        # row counts on both sides of every 1024-row projection block edge
        n = 2 * half
        x, basis = _setup(n, d, seed)
        k = max(2, basis.p // 2)
        lam = default_lambda(basis)
        rows = half_split_matrix(n, count, RngStream(seed).generator())
        allocs = [make_allocation(row) for row in rows]
        for scheme, single in (
            ("rer", lambda w: mahalanobis(x, basis, w)),
            ("pca", lambda w: mahalanobis_pca(basis, k, w)),
            ("ridge", lambda w: mahalanobis_ridge(x, basis, lam, w)),
        ):
            crit = BalanceCriterion(
                scheme, 0.05, n, threshold=np.inf,
                k=k if scheme == "pca" else None, lam=lam if scheme == "ridge" else None,
                n_cal=10000 if scheme == "ridge" else None,
            )
            np.testing.assert_allclose(
                batch_distances(crit, basis, rows), [single(w) for w in allocs],
                rtol=1e-12, atol=0,
            )

    @pytest.mark.parametrize("count", [1025, 2 * 1024 + 3])
    @pytest.mark.parametrize("k", [None, 3])
    def test_terms_equal_concatenated_block_terms(self, k, count):
        # A row's terms depend only on its 1024-row block, not on the blocks
        # around it, so every pass over the same rows sees the same bits.
        x, basis = _setup(1000, 60, 70)
        rows = half_split_matrix(1000, count, RngStream(71).generator())

        def terms(w):
            return np.concatenate([t.copy() for t in _blocks(basis.u[:, :k], w, 500)], axis=1)

        whole = terms(rows)
        blocks = [terms(rows[lo : lo + 1024]) for lo in range(0, len(rows), 1024)]
        assert whole.shape == (basis.p if k is None else k, len(rows))
        assert whole.tobytes() == np.concatenate(blocks, axis=1).tobytes()

    @pytest.mark.parametrize("count", [1, 255, 1024, 1025, 2049, 3000])
    def test_packed_rows_give_the_distances_of_their_0_1_rows(self, count):
        # Calibration reduces bit-packed rows in the private kernel; each row's
        # distance is the one batch_distances gives its 0/1 row, bit for bit,
        # a lone row in the last block (1025, 2049) included.
        x, basis = _setup(62, 10, 92)
        rows = half_split_matrix(62, count, RngStream(93).generator())
        packed = np.packbits(rows, axis=1)
        c, lam, k = sigma_factor(31, 31), default_lambda(basis), 4
        weights = _ridge_weights(basis, c, lam)
        for crit in (
            BalanceCriterion("rer", 0.05, 62, threshold=np.inf),
            BalanceCriterion("pca", 0.05, 62, threshold=np.inf, k=k),
            BalanceCriterion("ridge", 0.05, 62, threshold=np.inf, lam=lam, n_cal=10000),
        ):
            got = _batch_distances(
                basis, packed, 31, crit.k or basis.p, weights if crit.scheme == "ridge" else None
            )
            assert got.shape == (count,)
            assert got.tobytes() == batch_distances(crit, basis, rows).tobytes()

    def test_packed_rows_of_the_wrong_width_are_rejected(self):
        # the public function takes 0/1 rows of length n only
        x, basis = _setup(62, 10, 94)
        crit = calibrate("rer", 0.05, basis)
        rows = half_split_matrix(62, 4, RngStream(95).generator())
        for bad in (np.packbits(rows, axis=1), rows[:, :-1], rows[0]):
            with pytest.raises(ValueError, match="length disagrees"):
                batch_distances(crit, basis, bad)

    def test_rows_must_share_one_interior_treated_count(self):
        # Every row is scaled by one treated count. Scaled by the first row's,
        # a 6/6 row beside a 3/9 row got 0.319 and 2.843 here, where
        # mahalanobis gives the 3/9 row 3.790; such a batch is rejected now.
        x, basis = _setup(12, 3, 98)
        crit = calibrate("rer", 0.05, basis)
        even, uneven = [1] * 6 + [0] * 6, [1] * 3 + [0] * 9
        for rows in ([even, uneven], [uneven, even], [[0] * 12] * 2, [[1] * 12]):
            with pytest.raises(ValueError, match="same number of units"):
                batch_distances(crit, basis, np.array(rows, dtype=np.int8))
        with pytest.raises(ValueError, match="same number of units"):
            batch_distances(crit, basis, np.zeros((0, 12), dtype=np.int8))
        with pytest.warns(UserWarning, match="not an exact half split"):
            single = mahalanobis(x, basis, make_allocation(uneven))
        got = batch_distances(crit, basis, np.array([uneven, uneven], dtype=np.int8))
        np.testing.assert_allclose(got, single, rtol=1e-12)

    def test_treated_counts_above_int16_range(self):
        # 32769 treated of 65538: the row sums must not wrap
        n = 2**16 + 2
        x, basis = _setup(n, 1, 99)
        crit = calibrate("rer", 0.05, basis)
        rows = half_split_matrix(n, 2, RngStream(99).generator())
        assert batch_distances(crit, basis, rows).shape == (2,)
        rows[1, np.argmin(rows[1])] = 1
        with pytest.raises(ValueError, match="same number of units"):
            batch_distances(crit, basis, rows)

    def test_rows_must_be_0_1(self):
        # Rows that pass the treated-count check with entries other than 0/1
        # gave distances: [[2,0,0,0],[1,1,0,0]] read 2.19 and 0.63 on a
        # 4-unit design, [[1,1,-1,1]] 5.47.
        x, basis = _setup(12, 3, 101)
        crit = calibrate("rer", 0.05, basis)
        half = [1] * 6 + [0] * 6
        bad = {np.int8: ([2] + [1] * 4 + [0] * 7, [1] * 7 + [-1] + [0] * 4),
               np.uint8: ([2] + [1] * 4 + [0] * 7, [3] + [1] * 3 + [0] * 8),
               np.int64: ([2] + [1] * 4 + [0] * 7, [1] * 7 + [-1] + [0] * 4),
               float: ([0.5, 0.5] + [1] * 5 + [0] * 5, [np.nan] + [1] * 6 + [0] * 5)}
        for dtype, rows in bad.items():
            for row in rows:
                with pytest.raises(ValueError, match="only 0 and 1"):
                    batch_distances(crit, basis, np.array([row, half], dtype=dtype))
        rows = half_split_matrix(12, 5, RngStream(102).generator())
        want = batch_distances(crit, basis, rows).tobytes()
        for dtype in (bool, np.uint8, np.int64, float):
            assert batch_distances(crit, basis, rows.astype(dtype)).tobytes() == want

    def test_criterion_must_fit_the_basis(self):
        # Rules of a 20 x 5 design, run on other designs. On a rank-3 design
        # a pca rule at k = 4 and a rer rule at dof = 5 summed its 3 terms
        # against chi-square thresholds at 4 and 5 degrees of freedom,
        # predict_reduction gave the k = 4 rule's v_a on all 3 components,
        # and the ridge rule gave distances of 0.28-4.31 against its
        # threshold 0.861 (the rank-3 design's own is 0.270). On 40 units the
        # ridge rule weighted its terms, and predict_reduction scaled every
        # rule's tau_hat reduction, by the sigma_factor of 20. A degenerate
        # rule of a 6 x 5 design ran on 20 x 5. Each is now one ValueError
        # that names both shapes.
        _, wide = _setup(20, 5, 103)
        _, narrow = _setup(20, 3, 104)
        _, big = _setup(40, 5, 108)
        with pytest.warns(DegenerateRuleWarning):
            degenerate = calibrate("rer", 0.05, _setup(6, 5, 110)[1])
        rows = half_split_matrix(20, 4, RngStream(105).generator())
        rules = [calibrate("pca", 0.05, wide, k=4), calibrate("rer", 0.05, wide),
                 calibrate("ridge", 0.05, wide), calibrate("pca", 0.05, wide, k=3)]
        shape = ("calibrated on n = {}, p = 5 sums {} components but the basis has rank p = {} "
                 "on n = {} units")
        cases = [(c, narrow, shape.format(20, c.k or 5, 3, 20)) for c in rules]
        cases += [(c, big, shape.format(20, c.k or 5, 5, 40)) for c in rules]
        cases += [(degenerate, _setup(20, 5, 106)[1], shape.format(6, 5, 5, 20))]
        for crit, basis, match in cases:
            w = half_split_matrix(basis.n, 4, RngStream(105).generator())
            for call in (lambda: batch_distances(crit, basis, w),
                         lambda: predict_reduction(crit, basis)):
                with pytest.raises(ValueError, match=match):
                    call()
        # a rule built by hand without p is checked on n only
        bare = BalanceCriterion("rer", 0.05, 20, threshold=1.0)
        assert batch_distances(bare, narrow, rows).shape == (4,)
        with pytest.raises(ValueError, match="calibrated on n = 20 sums 5 components .* n = 40"):
            predict_reduction(bare, big)

    def test_cr_has_no_distance(self):
        x, basis = _setup(10, 3, 38)
        crit = calibrate("cr", 0.05, basis)
        with pytest.raises(ValueError):
            batch_distances(crit, basis, half_split_matrix(10, 4, RngStream(39).generator()))


class TestCriterionIdentities:
    def test_rer_is_pca_over_every_component(self):
        x, basis = _setup(40, 8, 63)
        rer = calibrate("rer", 0.05, basis, k=3)  # k is not used by rer
        pca = calibrate("pca", 0.05, basis, k=basis.p)
        assert rer.k is None
        assert (rer.threshold, rer.dof) == (pca.threshold, pca.dof)
        rows = half_split_matrix(40, 50, RngStream(64).generator())
        np.testing.assert_array_equal(
            batch_distances(rer, basis, rows), batch_distances(pca, basis, rows)
        )
        np.testing.assert_array_equal(
            predict_reduction(rer, basis).per_component_shrinkage,
            predict_reduction(pca, basis).per_component_shrinkage,
        )

    @given(
        half=st.integers(2, 30),
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_complement_has_the_same_distance(self, half, d, seed):
        # M(W) = M(1 - W) at an exact split, since U'1 = 0 for centered X
        n = 2 * half
        x, basis = _setup(n, d, seed)
        k = max(1, basis.p // 2)
        lam = default_lambda(basis)
        rows = half_split_matrix(n, 8, RngStream(seed).generator())
        tol = dict(rtol=1e-9, atol=1e-9 * n)
        for crit in (
            BalanceCriterion("rer", 0.05, n, threshold=np.inf),
            BalanceCriterion("pca", 0.05, n, threshold=np.inf, k=k),
            BalanceCriterion("ridge", 0.05, n, threshold=np.inf, lam=lam, n_cal=10000),
        ):
            np.testing.assert_allclose(
                batch_distances(crit, basis, rows),
                batch_distances(crit, basis, 1 - rows),
                **tol,
            )
        for w in (make_allocation(row) for row in rows[:2]):
            flip = make_allocation(1 - w.assignment)
            for single in (
                lambda a: mahalanobis(x, basis, a),
                lambda a: mahalanobis_pca(basis, k, a),
                lambda a: mahalanobis_ridge(x, basis, lam, a),
            ):
                np.testing.assert_allclose(single(w), single(flip), **tol)

    @given(
        scheme=st.sampled_from(["rer", "pca", "ridge"]),
        levels=st.lists(st.integers(1, 999), min_size=2, max_size=6, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_threshold_nondecreasing_in_pa(self, scheme, levels, seed):
        # Levels are 0.001 apart. chi2_quantile stops once |F(x) - p| <= 1e-13 p,
        # which orders its thresholds only for p more than about 1e-11 apart
        # (relative); closer p can come back out of order by ~1e-14 relative.
        x, basis = _setup(30, 6, seed)
        thresholds = [
            calibrate(scheme, level / 1000, basis, k=3, n_cal=500).threshold
            for level in sorted(levels)
        ]
        assert all(lo <= hi for lo, hi in zip(thresholds, thresholds[1:]))


class TestCalibrate:
    def test_rer_threshold_is_chi2_quantile(self):
        x, basis = _setup(50, 7, 40)
        crit = calibrate("rer", 0.05, basis)
        assert crit.dof == basis.p == 7
        assert crit.threshold == pytest.approx(chi2_quantile(7, 0.05), rel=1e-12)
        assert not crit.degenerate
        assert crit.shrinkage == shrinkage_coeff(7, crit.threshold)

    def test_pca_threshold_is_chi2_quantile(self):
        x, basis = _setup(50, 7, 41)
        crit = calibrate("pca", 0.1, basis, k=3)
        assert crit.k == 3 and crit.dof == 3
        assert crit.threshold == pytest.approx(chi2_quantile(3, 0.1), rel=1e-12)
        assert crit.shrinkage == shrinkage_coeff(3, crit.threshold)

    def test_cr_has_no_threshold(self):
        x, basis = _setup(10, 2, 42)
        crit = calibrate("cr", 0.05, basis)
        assert crit.threshold is None and crit.scheme == "cr"
        assert crit.shrinkage is None

    def test_truncated_threshold_below_full(self):
        # fewer degrees of freedom pull the acceptance cutoff down
        x, basis = _setup(50, 7, 41)
        full = calibrate("rer", 0.05, basis)
        for k in range(1, basis.p):
            assert calibrate("pca", 0.05, basis, k=k).threshold < full.threshold

    def test_observed_acceptance_near_nominal(self):
        x, basis = _setup(100, 10, 43)
        rows = half_split_matrix(100, 4000, RngStream(44).generator())
        for scheme, kwargs in (("rer", {}), ("pca", {"k": 5})):
            crit = calibrate(scheme, 0.05, basis, **kwargs)
            frac = float((batch_distances(crit, basis, rows) <= crit.threshold).mean())
            assert abs(frac - 0.05) < 0.02

    def test_ridge_threshold_deterministic_and_near_nominal(self):
        x, basis = _setup(60, 6, 45)
        a = calibrate("ridge", 0.05, basis, lam=0.1)
        b = calibrate("ridge", 0.05, basis, lam=0.1)
        assert a.threshold == b.threshold
        assert a.shrinkage is None  # ridge shrinkage varies by component
        fresh = half_split_matrix(60, 10000, RngStream(46).generator())
        frac = float((batch_distances(a, basis, fresh) <= a.threshold).mean())
        assert abs(frac - 0.05) < 0.02

    def test_degenerate_rank_flagged(self):
        x, basis = _setup(4, 10, 47)
        assert basis.p == 3
        with pytest.warns(UserWarning):
            crit = calibrate("rer", 0.05, basis)
        assert crit.degenerate and "n-1" in crit.note
        with pytest.warns(UserWarning):
            crit_k = calibrate("pca", 0.05, basis, k=3)
        assert crit_k.degenerate
        assert crit.shrinkage is None and crit_k.shrinkage is None

    def test_degenerate_note_follows_the_threshold(self):
        # the note is derived from the rule, so it cannot go stale
        x, basis = _setup(4, 10, 47)
        with pytest.warns(DegenerateRuleWarning, match="below") as caught:
            crit = calibrate("rer", 0.05, basis)
        assert str(caught[0].message) == crit.note
        above = replace(crit, threshold=3.5)
        assert "threshold 3.5000 is at or above it" in above.note
        assert "is below it" in replace(above, threshold=2.0).note
        assert calibrate("rer", 0.05, _setup(40, 4, 48)[1]).note == ""

    def test_errors(self):
        x, basis = _setup(10, 3, 48)
        with pytest.raises(ValueError):
            calibrate("bogus", 0.05, basis)
        with pytest.raises(ValueError):
            calibrate("rer", 0.0, basis)
        with pytest.raises(ValueError):
            calibrate("pca", 0.05, basis)
        with pytest.raises(ValueError):
            calibrate("pca", 0.05, basis, k=99)
        with pytest.raises(ValueError):
            calibrate("ridge", 0.05, basis, lam=-0.5, n_cal=100)
        # at lambda = 0 ridge is the Mahalanobis criterion; rer calibrates it
        # in closed form and flags it when it is degenerate
        with pytest.raises(ValueError, match="at lambda = 0 every ridge weight is 1 and it is"):
            calibrate("ridge", 0.05, basis, lam=0.0)
        for n_cal in (0, -1):
            with pytest.raises(ValueError, match="n_cal must be at least 1"):
                calibrate("ridge", 0.05, basis, n_cal=n_cal)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -0.5])
    def test_bad_lambda_fails_before_drawing(self, lam, monkeypatch):
        x, basis = _setup(10, 3, 48)

        def no_draws(*args):
            raise AssertionError("calibration rows drawn for a bad lambda")

        monkeypatch.setattr("rerand.balance.half_split_matrix", no_draws)
        with pytest.raises(ValueError, match="lambda must be a finite nonnegative number"):
            calibrate("ridge", 0.05, basis, lam=lam)

    def test_negligible_lambda_fails_before_drawing(self, monkeypatch):
        # at rank n-1 every c sigma_j^2 swamps lambda = 1e-300: every ridge
        # weight rounds to 1.0, so the rule would be rer's constant n-1,
        # accepting on rounding noise
        x, basis = _setup(12, 11, 49)
        assert basis.p == 11 and (_ridge_weights(basis, sigma_factor(6, 6), 1e-300) == 1.0).all()
        assert calibrate("ridge", 0.05, basis, lam=1e-12, n_cal=100).lam == 1e-12

        def no_draws(*args):
            raise AssertionError("calibration rows drawn for a negligible lambda")

        monkeypatch.setattr("rerand.balance.half_split_matrix", no_draws)
        with pytest.raises(ValueError, match="at lambda = 1e-300 every ridge weight is 1 and it"):
            calibrate("ridge", 0.05, basis, lam=1e-300)

    def test_hand_built_criterion_rejects_a_rule_that_cannot_be_valid(self):
        # named at construction, not as a TypeError deep in predict_reduction
        # or rerandomize, nor as a rule that runs with other values than it holds
        nan = float("nan")
        for scheme, threshold, kwargs, field in (
            ("ridge", 1.0, dict(n_cal=100), "lam"),
            ("ridge", 1.0, dict(lam=np.nan, n_cal=100), "lam"),
            ("ridge", 1.0, dict(lam=np.inf, n_cal=100), "lam"),
            ("ridge", 1.0, dict(lam=-1.0, n_cal=100), "lam"),
            ("ridge", 1.0, dict(lam=0.1), "n_cal"),
            ("ridge", 1.0, dict(lam=0.1, n_cal=0), "n_cal"),
            ("Pca", 1.0, dict(p=5, k=2), "scheme"),  # ran with dof and shrinkage None
            ("rer", 1.0, dict(p=5, k=3), "k"),  # summed 3 of the 5 components
            ("ridge", 1.0, dict(p=5, k=3, lam=0.1, n_cal=1), "k"),
            ("pca", 1.0, dict(p=5, k=0), "k"),  # summed all 5 components
            ("pca", 1.0, dict(p=5, k=-1), "k"),
            ("rer", nan, dict(p=5), "threshold"),  # exhausted max_draws
            ("pca", np.float64(nan), dict(p=5, k=2), "threshold"),
            ("ridge", nan, dict(p=5, lam=0.1, n_cal=1), "threshold"),
        ):
            with pytest.raises(ValueError, match=f"criterion: {field} must"):
                BalanceCriterion(scheme, 0.05, 20, threshold, **kwargs)
        for p_a in (0.0, 1.0, -0.5, 1.5, nan):
            with pytest.raises(ValueError, match="criterion: acceptance_prob must"):
                BalanceCriterion("rer", p_a, 20, 1.0, p=5)
        for n in (1, 0, -2):
            with pytest.raises(ValueError, match="criterion: n must be at least 2"):
                BalanceCriterion("cr", 0.05, n, None)
            with pytest.raises(ValueError, match="criterion: n must be at least 2"):
                calibrate("cr", 0.05, n)  # n = 1 raised ZeroDivisionError at sigma_factor
        # calibrate names its own arguments first
        with pytest.raises(ValueError, match="unknown scheme 'Pca'"):
            calibrate("Pca", 0.05, 20)
        with pytest.raises(ValueError, match="p_a must lie strictly inside"):
            calibrate("cr", 1.0, 20)
        # a negative or infinite threshold and an uncalibrated rule are valid
        for threshold in (-1.0, np.inf, None):
            assert BalanceCriterion("pca", 0.05, 20, threshold, p=5, k=2).threshold is threshold
        assert BalanceCriterion("ridge", 0.05, 10, threshold=1.0, lam=0.0, n_cal=1).lam == 0.0

    def test_ridge_calibration_memory_budget(self):
        # Calibration rows are converted and projected in 1024-row blocks, so
        # the 10000 x 1000 int8 draw matrix is never copied to float64 whole
        # (80 MB); a calibration peaks at about 11 MB (see the 16 MB test).
        x, basis = _setup(1000, 180, 72)
        tracemalloc.start()
        try:
            calibrate("ridge", 0.05, basis, n_cal=10000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_ridge_calibration_reduces_one_block_at_a_time(self):
        # A warm calibration unpacks, projects and reduces one 1024-row block
        # at a time, and so does the shrinkage estimate; holding the unpacked
        # 10000 rows and their 180 x 10000 terms peaked at about 33 MB.
        x, basis = _setup(1000, 180, 72)
        crit = calibrate("ridge", 0.05, basis)  # memoizes the packed draw
        peaks = []
        for run in (lambda: calibrate("ridge", 0.05, basis),
                    lambda: predict_reduction(crit, basis)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 16e6

    @pytest.mark.parametrize("n", [62, 1002])
    @pytest.mark.parametrize("n_cal", [1, 1023, 1025, 3000])
    def test_ridge_threshold_is_the_quantile_of_unpacked_distances(self, n, n_cal):
        x, basis = _setup(n, 10, 90)
        crit = calibrate("ridge", 0.05, basis, n_cal=n_cal)
        rows = half_split_matrix(n, n_cal, _CALIBRATION_STREAM.generator())
        assert crit.threshold == float(np.quantile(batch_distances(crit, basis, rows), 0.05))

    def test_ridge_draw_is_reused(self):
        # calibrations and the shrinkage estimate on one basis share the
        # memoized 10000-row draw of the calibration stream
        x, basis = _setup(60, 6, 76)
        _stream_rows.cache_clear()
        a = calibrate("ridge", 0.05, basis, lam=0.1)
        b = calibrate("ridge", 0.05, basis, lam=0.1)
        assert a.threshold == b.threshold
        assert _stream_rows.cache_info()[:2] == (1, 1)  # hits, misses
        predict_reduction(a, basis)
        assert _stream_rows.cache_info()[:2] == (2, 1)

    def test_quantile_and_shrinkage_are_memoized(self):
        # repeated calibrations of one cell reuse the chi-square quantile and
        # the shrinkage coefficient, and get the uncached floats back
        x, basis = _setup(50, 6, 82)
        chi2_quantile.cache_clear()
        shrinkage_coeff.cache_clear()
        first = [calibrate("pca", 0.05, basis, k=3) for _ in range(3)]
        assert chi2_quantile.cache_info()[:2] == (2, 1)  # hits, misses
        assert len({c.threshold for c in first}) == 1
        assert first[0].threshold == chi2_quantile.__wrapped__(3, 0.05)
        values = [c.shrinkage for c in first]
        assert shrinkage_coeff.cache_info()[:2] == (2, 1)
        assert len(set(values)) == 1
        assert values[0] == shrinkage_coeff.__wrapped__(3, first[0].threshold)
        assert type(first[0].threshold) is float and type(values[0]) is float

    def test_ridge_stream_matches_generator_path(self):
        # the threshold is the quantile over the calibration stream's rows,
        # drawn afresh from its Generator and reduced by the public function
        x, basis = _setup(60, 6, 77)
        crit = calibrate("ridge", 0.05, basis, lam=0.1, n_cal=3000)
        rows = half_split_matrix(60, 3000, _CALIBRATION_STREAM.generator())
        dists = batch_distances(crit, basis, rows)
        assert crit.threshold == float(np.quantile(dists, 0.05))

    def test_ridge_draw_cache_memory(self):
        # one packed 10000-row entry per n: 10000 * ceil(n/8) bytes, 2.26 MB
        # for the four factorial n levels
        levels = (100, 200, 500, 1000)
        bases = [_setup(n, 10, 79)[1] for n in levels]
        calibrate("ridge", 0.05, bases[0], n_cal=100)  # lazy imports out of the count
        _stream_rows.cache_clear()
        tracemalloc.start()
        try:
            for basis in bases:
                calibrate("ridge", 0.05, basis)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _stream_rows.cache_info().currsize == len(levels)
        packed = [_stream_rows(n, 10000, _CALIBRATION_STREAM).nbytes for n in levels]
        assert _stream_rows.cache_info().misses == len(levels)
        assert sum(packed) == 10000 * sum(-(-n // 8) for n in levels) <= 2.5e6
        assert retained <= 2.5e6 and peak < 50e6


class TestLambdaSelection:
    def test_default_is_smallest_eigenvalue_scaled(self):
        x, basis = _setup(30, 5, 49)
        n = basis.n
        expected = sigma_factor(n // 2, n // 2) * basis.singular_values[-1] ** 2
        assert default_lambda(basis) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("beta", [
        [np.nan] * 6, [np.inf] + [1.0] * 5, np.ones(5), np.ones(7), np.ones((6, 1)), 2.0,
    ])
    def test_bad_beta_rejected(self, beta):
        # a NaN beta gave a NaN predicted reduction
        x, basis = _setup(40, 6, 51)
        ridge = calibrate("ridge", 0.05, basis, n_cal=500)
        for call in (
            lambda: predict_reduction(ridge, basis, beta=beta),
            lambda: predict_reduction(calibrate("rer", 0.05, basis), basis, beta=beta),
        ):
            with pytest.raises(ValueError, match="finite vector of length d = 6"):
                call()


class TestPredictReduction:
    def test_cr_is_identity(self):
        x, basis = _setup(30, 5, 53)
        rep = predict_reduction(calibrate("cr", 0.05, basis), basis)
        np.testing.assert_array_equal(rep.per_component_shrinkage, np.ones(basis.p))
        np.testing.assert_allclose(rep.per_covariate_prv, 0.0, atol=1e-12)

    def test_rer_uniform_shrinkage(self):
        x, basis = _setup(30, 5, 54)
        crit = calibrate("rer", 0.05, basis)
        rep = predict_reduction(crit, basis)
        v_a = shrinkage_coeff(basis.p, crit.threshold)
        np.testing.assert_allclose(rep.per_component_shrinkage, v_a, rtol=1e-12)
        # equal shrinkage on every component rotates to equal covariate prv
        np.testing.assert_allclose(rep.per_covariate_prv, 1.0 - v_a, rtol=1e-10)
        assert crit.shrinkage == pytest.approx(v_a, rel=1e-12)
        np.testing.assert_array_equal(rep.per_component_shrinkage, crit.shrinkage)

    def test_pca_shrinks_leading_block_only(self):
        x, basis = _setup(30, 5, 55)
        crit = calibrate("pca", 0.05, basis, k=2)
        rep = predict_reduction(crit, basis)
        v_ak = shrinkage_coeff(2, crit.threshold)
        np.testing.assert_allclose(rep.per_component_shrinkage[:2], v_ak, rtol=1e-12)
        np.testing.assert_array_equal(rep.per_component_shrinkage[2:], 1.0)
        assert np.all(rep.per_covariate_prv >= -1e-12)
        assert np.all(rep.per_covariate_prv <= 1.0 - v_ak + 1e-12)
        np.testing.assert_array_equal(rep.per_component_shrinkage[:2], crit.shrinkage)
        assert crit.shrinkage == v_ak

    def test_ridge_shrinkage_bounds(self):
        x, basis = _setup(30, 5, 56)
        crit = calibrate("ridge", 0.05, basis, n_cal=2000)
        rep = predict_reduction(crit, basis)
        assert np.all(rep.per_component_shrinkage > 0)
        assert np.all(rep.per_component_shrinkage <= 1.0)
        assert crit.shrinkage is None

    def test_ridge_rule_accepting_no_row_predicts_no_shrinkage(self):
        x, basis = _setup(30, 5, 56)
        crit = replace(calibrate("ridge", 0.05, basis, n_cal=2000), threshold=0.0)
        rep = predict_reduction(crit, basis)
        np.testing.assert_array_equal(rep.per_component_shrinkage, np.ones(basis.p))

    def test_tau_var_reduction_formula(self):
        x, basis = _setup(30, 5, 57)
        crit = calibrate("rer", 0.05, basis)
        beta = np.arange(1.0, 6.0)
        rep = predict_reduction(crit, basis, beta=beta)
        v_a = shrinkage_coeff(basis.p, crit.threshold)
        btil = basis.v.T @ beta
        oracle = crit.sigma_factor * (1.0 - v_a) * float(
            (basis.singular_values**2 * btil**2).sum()
        )
        assert rep.predicted_tau_var_reduction == pytest.approx(oracle, rel=1e-10)
        assert rep.predicted_tau_var_reduction > 0

    def test_orthogonal_columns_identity_rotation(self):
        # mutually orthogonal centered columns with descending norms make
        # the rotation the identity, so each covariate maps to one
        # component: full shrink on the retained k, untouched after
        signs = np.array(
            [[1, 1, 1], [-1, -1, 1], [1, -1, -1], [-1, 1, -1]], dtype=float
        )
        x = CovariateMatrix(signs * np.array([4.0, 2.0, 1.0]))
        basis = decompose(x)
        np.testing.assert_allclose(basis.v, np.eye(3), atol=1e-12)
        crit = calibrate("pca", 0.05, basis, k=2)
        v_ak = shrinkage_coeff(2, crit.threshold)
        rep = predict_reduction(crit, basis)
        np.testing.assert_allclose(
            rep.per_covariate_prv, [1.0 - v_ak, 1.0 - v_ak, 0.0], atol=1e-12
        )

    def test_beta_outside_retained_span_gains_nothing(self):
        x, basis = _setup(30, 5, 61)
        k = 2
        crit = calibrate("pca", 0.05, basis, k=k)
        tail_coef = np.random.default_rng(62).standard_normal(basis.p - k)
        beta = basis.v[:, k:] @ tail_coef
        rep = predict_reduction(crit, basis, beta=beta)
        assert abs(rep.predicted_tau_var_reduction) < 1e-12

    def test_ridge_shrinkage_replays_the_calibration_sample(self):
        # the shrinkage estimate scores the n_cal rows the threshold was
        # calibrated on, not the default 10000-row sample
        x, basis = _setup(200, 50, 83)
        crit = calibrate("ridge", 0.05, basis, n_cal=500)
        assert crit.n_cal == 500
        rows = half_split_matrix(200, 500, _CALIBRATION_STREAM.generator())
        dists = batch_distances(crit, basis, rows)
        accepted = dists <= np.quantile(dists, 0.05)
        assert accepted.sum() == 25
        sq = (rows.astype(float) @ basis.u) ** 2
        want = sq[accepted].mean(axis=0) / sq.mean(axis=0)
        got = predict_reduction(crit, basis).per_component_shrinkage
        np.testing.assert_allclose(got, np.clip(want, 1e-12, 1.0), rtol=1e-9)

    def test_ridge_shrinkage_sums_over_blocks(self):
        # 2049 calibration rows make three blocks, the last a lone row; the
        # per-block sums give the variance ratio of the whole sample
        x, basis = _setup(62, 8, 96)
        crit = calibrate("ridge", 0.05, basis, n_cal=2049)
        rows = half_split_matrix(62, 2049, _CALIBRATION_STREAM.generator())
        accepted = batch_distances(crit, basis, rows) <= crit.threshold
        sq = (rows.astype(float) @ basis.u) ** 2
        want = sq[accepted].mean(axis=0) / sq.mean(axis=0)
        got = predict_reduction(crit, basis).per_component_shrinkage
        np.testing.assert_allclose(got, np.clip(want, 1e-12, 1.0), rtol=1e-9)

    def test_ridge_default_sample_is_recorded(self):
        x, basis = _setup(40, 5, 85)
        crit = calibrate("ridge", 0.05, basis)
        assert crit.n_cal == 10000
        for scheme in ("cr", "rer"):
            assert calibrate(scheme, 0.05, basis).n_cal is None

    @pytest.mark.parametrize("scheme", ["rer", "pca"])
    def test_degenerate_criterion_predicts_no_shrinkage(self, scheme):
        # at rank n-1 the engine runs complete randomization, so v_a (0.286
        # for rer on this design) is not the shrinkage of the accepted draws
        x, basis = _setup(10, 20, 86)
        assert basis.p == 9
        with pytest.warns(DegenerateRuleWarning, match="degenerates"):
            crit = calibrate(scheme, 0.05, basis, k=9)
        assert crit.degenerate and crit.shrinkage is None
        rep = predict_reduction(crit, basis, beta=np.ones(20))
        np.testing.assert_array_equal(rep.per_component_shrinkage, np.ones(9))
        np.testing.assert_array_equal(rep.per_covariate_prv, np.zeros(20))
        assert rep.predicted_tau_var_reduction == 0.0

    def test_uncalibrated_rejected(self):
        x, basis = _setup(10, 3, 58)
        bare = BalanceCriterion("pca", 0.05, 10, threshold=None, k=2)
        with pytest.raises(ValueError):
            predict_reduction(bare, basis)


class TestStackedDistances:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("n, d, k, rows", [(30, 5, 3, 16), (31, 7, None, 7), (100, 10, 4, 64),
                                               (200, 50, 20, 16), (500, 90, 29, 256)])
    def test_each_batch_has_the_bits_of_its_own_call(self, n, d, k, rows, shared):
        # the lockstep's distances for four searches on four bases (or on one
        # basis, which is broadcast), each kind in one stacked product, each
        # batch with the bits of its own batch_distances call: the top-k sum
        # ("rer" at k = None) and the ridge-weighted sum
        designs = np.random.default_rng(n).standard_normal((4, n, d))
        bases = [decompose(standardize(a)) for a in designs]
        if shared:
            bases = bases[:1] * 4
        gens = [RngStream(9).child(i).generator() for i in range(4)]
        w = half_split_matrix(n, rows, gens).reshape(4, rows, n)
        summed = BalanceCriterion("pca" if k else "rer", 0.05, n, threshold=np.inf, k=k)
        ridge = BalanceCriterion("ridge", 0.05, n, threshold=np.inf, lam=0.3, n_cal=1)
        products = []

        def spy(u, rows, n_t, out=None):
            products.append((u.shape, rows.shape))
            return _terms(u, rows, n_t, out)

        for crit in (summed, ridge):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(balance, "_terms", spy)
                got = _chunk_distances(n, [(crit, b) for b in bases])([0, 1, 2, 3], w)
            assert got.shape == (4, rows)
            for i, b in enumerate(bases):
                assert got[i].tobytes() == batch_distances(crit, b, w[i]).tobytes()
        assert products == [((4, n, k or d), w.shape), ((4, n, d), w.shape)]

    def test_lockstep_resolves_each_ridge_rule_once(self, monkeypatch):
        # the fit check resolves a rule's ridge weights once per lockstep
        # call, not once per chunk: at threshold -1 four searches stay live
        # through all three rounds of 80 draws (16, 16, 48 rows), which made
        # 12 weight calls when each chunk rebuilt them
        n, bases = 30, [_setup(30, 5, 130 + i)[1] for i in range(4)]
        crit = BalanceCriterion("ridge", 0.05, n, threshold=-1.0, lam=0.3, n_cal=1)
        calls = []

        def spy(*args):
            calls.append(args)
            return _ridge_weights(*args)

        monkeypatch.setattr(balance, "_ridge_weights", spy)
        runs = [(crit, b, RngStream(3).child(i).generator(), 80) for i, b in enumerate(bases)]
        _, draws, accepted = _lockstep(n, runs, np.empty((4, n), dtype=np.int8))
        assert draws.tolist() == [80] * 4 and not accepted.any()
        assert len(calls) == 4 and all(args[0] is b for args, b in zip(calls, bases))
