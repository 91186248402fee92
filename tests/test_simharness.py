import csv
import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from rerand import engine, simharness
from rerand.balance import calibrate
from rerand.core import (
    Outcome, RngStream, group_means, half_split_matrix, make_allocation, sate_estimator,
    standardize,
)
from rerand.engine import rerandomize
from rerand.simharness import (
    _ALLOC,
    _COV,
    _NOISE,
    _STACK_BYTES,
    FactorGrid,
    _CellDraws,
    _layout,
    _reduce,
    _replications,
    _stack_size,
    OutcomeModel,
    SimReport,
    anova,
    beta_vector,
    gen_covariates,
    gen_outcome,
    nested_submatrix,
    run_study,
    write_anova_csv,
    write_metrics_csv,
    write_summary_json,
    write_timings_csv,
)
from rerand.spectral import SpectralBasis, decompose, select_k


class TestFactorGrid:
    def test_valid(self):
        grid = FactorGrid((20,), (3,), (0.5,), replications=10, groups=5)
        assert grid.schemes == ("pca",)
        assert FactorGrid((20,), (3,), (0.5,), schemes=("rer", "pca"), lam=0.0).lam == 0.0

    def test_rejects_bad_settings(self):
        ok = dict(n_levels=(20,), d_levels=(3,), rho_levels=(0.5,))
        bad = [
            dict(ok, n_levels=(21,)),
            dict(ok, n_levels=()),
            dict(ok, d_levels=(0,)),
            dict(ok, rho_levels=(1.0,)),
            dict(ok, rho_levels=(-0.2,)),
            dict(ok, schemes=("cr",)),
            dict(ok, schemes=("bogus",)),
            dict(ok, surfaces=("cubic",)),
            dict(ok, beta_choices=("random",)),
            dict(ok, resid_vars=(-1.0,)),
            dict(ok, replications=7, groups=5),
            dict(ok, p_a=0.0),
            dict(ok, gamma=1.0),
            dict(ok, lam=-0.1),
            dict(ok, schemes=("pca", "ridge"), lam=0.0),
            # each of these otherwise fails only after the first cell has run
            dict(ok, lam=np.nan),
            dict(ok, lam=np.inf),
            dict(ok, tau=np.nan),
            dict(ok, tau=np.inf),
            dict(ok, resid_vars=(1.0, np.inf)),
            dict(ok, resid_vars=(np.nan,)),
            dict(ok, max_draws=0),
            # a repeated level silently collapsed cells: the study keys its
            # group metrics by level, so the ANOVA saw phantom cells
            dict(ok, n_levels=(20, 20)),
            dict(ok, d_levels=(3, 5, 3)),
            dict(ok, rho_levels=(0.5, 0.5)),
            dict(ok, schemes=("pca", "pca")),
            dict(ok, surfaces=("linear", "linear")),
            dict(ok, beta_choices=("ones", "ones")),
            dict(ok, resid_vars=(1.0, 1.0)),
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                FactorGrid(**kwargs)


class TestGenCovariates:
    def test_shape_and_standardization(self):
        x = gen_covariates(50, 4, 0.3, RngStream(60))
        assert (x.n, x.d) == (50, 4)
        np.testing.assert_allclose(x.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(x.values.std(axis=0, ddof=1), 1.0, rtol=1e-12)

    def test_equicorrelation_target(self):
        x = gen_covariates(4000, 6, 0.8, RngStream(61))
        corr = np.corrcoef(x.values, rowvar=False)
        off = corr[~np.eye(6, dtype=bool)]
        assert abs(off.mean() - 0.8) < 0.05

    def test_independence_at_zero(self):
        x = gen_covariates(4000, 6, 0.0, RngStream(62))
        corr = np.corrcoef(x.values, rowvar=False)
        off = corr[~np.eye(6, dtype=bool)]
        assert abs(off.mean()) < 0.05

    def test_deterministic(self):
        a = gen_covariates(30, 3, 0.5, RngStream(63))
        b = gen_covariates(30, 3, 0.5, RngStream(63))
        np.testing.assert_array_equal(a.values, b.values)

    def test_top_eigenvalue_matches_population(self):
        # equicorrelation has one dominant eigenvalue 1 + (d-1) rho
        x = gen_covariates(10000, 5, 0.6, RngStream(77))
        eigs = np.linalg.eigvalsh(np.cov(x.values, rowvar=False, ddof=1))
        assert abs(eigs[-1] - (1.0 + 4 * 0.6)) < 0.2
        assert eigs[-2] < 1.5

    def test_rho_domain(self):
        for rho in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                gen_covariates(10, 2, rho, RngStream(64))


class TestNestedSubmatrix:
    def test_leading_block(self):
        master = gen_covariates(40, 6, 0.4, RngStream(65))
        sub = nested_submatrix(master, 20, 3)
        assert (sub.n, sub.d) == (20, 3)
        # re-standardized leading block: same column order, unit scale
        raw = master.values[:20, :3]
        expected = (raw - raw.mean(axis=0)) / raw.std(axis=0, ddof=1)
        np.testing.assert_allclose(sub.values, expected, atol=1e-12)

    def test_nesting_is_consistent(self):
        master = gen_covariates(40, 6, 0.4, RngStream(66))
        once = nested_submatrix(master, 30, 4)
        twice = nested_submatrix(nested_submatrix(master, 30, 6), 30, 4)
        np.testing.assert_allclose(once.values, twice.values, atol=1e-12)

    def test_bounds(self):
        master = gen_covariates(10, 3, 0.0, RngStream(67))
        for n_sub, d_sub in ((1, 3), (11, 3), (10, 0), (10, 4)):
            with pytest.raises(ValueError):
                nested_submatrix(master, n_sub, d_sub)


class TestBetaVector:
    def test_presets(self):
        np.testing.assert_array_equal(beta_vector("ones", 5), np.ones(5))
        np.testing.assert_array_equal(
            beta_vector("half_doubled", 5), [1.0, 1.0, 1.0, 2.0, 2.0]
        )
        np.testing.assert_array_equal(
            beta_vector("half_doubled", 4), [1.0, 1.0, 2.0, 2.0]
        )

    def test_spectral_lives_in_leading_subspace(self):
        x = gen_covariates(30, 5, 0.2, RngStream(68))
        basis = decompose(x)
        beta = beta_vector("spectral", 5, basis=basis, k=3)
        btil = basis.v.T @ beta
        np.testing.assert_allclose(btil[:3], [1.0, 3.0, 6.0], atol=1e-10)
        np.testing.assert_allclose(btil[3:], 0.0, atol=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            beta_vector("spectral", 5)
        with pytest.raises(ValueError):
            beta_vector("mystery", 5)


class TestGenOutcome:
    def test_linear_surface_noiseless(self):
        x = gen_covariates(10, 3, 0.0, RngStream(69))
        w = make_allocation([1, 0] * 5)
        beta = np.array([1.0, -2.0, 0.5])
        model = OutcomeModel("linear", beta, tau=2.0, resid_sd=0.0)
        y = gen_outcome(x, w, model, RngStream(70))
        oracle = x.values @ beta + 2.0 * np.asarray(w.assignment)
        np.testing.assert_allclose(y.y, oracle, atol=1e-12)

    def test_exp_surface(self):
        x = gen_covariates(10, 3, 0.0, RngStream(71))
        w = make_allocation([1, 0] * 5)
        model = OutcomeModel("exp", np.ones(3), tau=0.0, resid_sd=0.0)
        y = gen_outcome(x, w, model, RngStream(72))
        np.testing.assert_allclose(y.y, np.exp(x.values) @ np.ones(3), atol=1e-12)

    def test_zero_signal_recovers_tau_exactly(self):
        x = gen_covariates(12, 2, 0.0, RngStream(78))
        w = make_allocation([1, 0] * 6)
        model = OutcomeModel("linear", np.zeros(2), tau=3.0, resid_sd=0.0)
        y = gen_outcome(x, w, model, RngStream(79)).y
        mask = np.asarray(w.assignment, dtype=bool)
        assert y[mask].mean() - y[~mask].mean() == pytest.approx(3.0, abs=1e-12)

    def test_exp_surface_at_zero_covariates(self):
        # constant columns standardize to zero, so exp(0) = 1 per entry
        # and the baseline collapses to sum(beta)
        x = standardize(np.ones((6, 2)) * 7.0)
        w = make_allocation([1, 0] * 3)
        model = OutcomeModel("exp", np.array([1.0, 2.0]), tau=0.5, resid_sd=0.0)
        y = gen_outcome(x, w, model, RngStream(80)).y
        oracle = 3.0 + 0.5 * np.asarray(w.assignment)
        np.testing.assert_allclose(y, oracle, atol=1e-12)

    def test_noise_reproducible(self):
        x = gen_covariates(10, 3, 0.0, RngStream(73))
        w = make_allocation([1, 0] * 5)
        model = OutcomeModel("linear", np.ones(3), resid_sd=1.5)
        a = gen_outcome(x, w, model, RngStream(74))
        b = gen_outcome(x, w, model, RngStream(74))
        np.testing.assert_array_equal(a.y, b.y)

    def test_errors(self):
        x = gen_covariates(10, 3, 0.0, RngStream(75))
        w = make_allocation([1, 0] * 5)
        with pytest.raises(ValueError):
            gen_outcome(x, w, OutcomeModel("linear", np.ones(4)), RngStream(76))
        with pytest.raises(ValueError):
            OutcomeModel("cubic", np.ones(3))
        with pytest.raises(ValueError):
            OutcomeModel("linear", np.ones(3), resid_sd=-1.0)


def _small_grid(**over):
    base = dict(
        n_levels=(20,),
        d_levels=(3,),
        rho_levels=(0.0, 0.5),
        schemes=("rer", "pca"),
        replications=40,
        groups=4,
    )
    base.update(over)
    return FactorGrid(**base)


class TestRunStudy:
    def test_record_layout(self):
        report = run_study(_small_grid(), master_seed=100)
        assert len(report.records) == 2 * 3  # rho levels x (cr + 2 schemes)
        schemes = {r.scheme for r in report.records}
        assert schemes == {"cr", "rer", "pca"}
        for r in report.records:
            if r.scheme == "pca":
                assert r.k_selected is not None and r.k_mean is not None
                assert r.v_ak is not None
            else:
                assert r.k_selected is None and r.k_mean is None
            assert r.exhausted == 0
            # about 1/p_a = 20 draws per accepted allocation; cr draws once
            assert r.mean_draws == 1.0 if r.scheme == "cr" else 5 < r.mean_draws < 80
            assert r.accept_rate == pytest.approx(1.0 / r.mean_draws, rel=1e-15)
            assert r.accept_rate == 1.0 if r.scheme == "cr" else r.accept_rate < 1.0

    def test_degenerate_cell_accepts_nothing(self):
        # d = n = 16: rank n-1, so rer is the constant 15 against a
        # threshold of about 7.3 and every replication is one rejected draw
        grid = _small_grid(n_levels=(16,), d_levels=(16,), rho_levels=(0.5,),
                           schemes=("rer",), replications=4, groups=2)
        with pytest.warns(UserWarning, match="degenerates"):
            report = run_study(grid, master_seed=114)
        rer = next(r for r in report.records if r.scheme == "rer")
        assert (rer.exhausted, rer.mean_draws, rer.accept_rate) == (4, 1.0, 0.0)

    def test_cr_baseline_is_exactly_zero(self):
        report = run_study(_small_grid(), master_seed=101)
        for r in report.records:
            if r.scheme == "cr":
                assert r.r_sigma_bar_sq == 0.0
                assert r.r_mse == 0.0

    def test_rerandomization_improves_balance(self):
        report = run_study(_small_grid(), master_seed=102)
        for r in report.records:
            if r.scheme in ("rer", "pca"):
                assert r.r_sigma_bar_sq > 0.2

    def test_deterministic_modulo_timing(self):
        grid = _small_grid(rho_levels=(0.5,), replications=20, groups=2)
        a = run_study(grid, master_seed=103)
        b = run_study(grid, master_seed=103)
        for ra, rb in zip(a.records, b.records):
            assert ra.r_sigma_bar_sq == rb.r_sigma_bar_sq
            assert ra.r_mse == rb.r_mse
            assert ra.k_mean == rb.k_mean
        for key in a.sigma_groups:
            np.testing.assert_array_equal(a.sigma_groups[key], b.sigma_groups[key])
        for key in a.mse_groups:
            np.testing.assert_array_equal(a.mse_groups[key], b.mse_groups[key])

    def test_group_arrays_back_the_records(self):
        grid = _small_grid(rho_levels=(0.5,))
        report = run_study(grid, master_seed=104)
        for r in report.records:
            sig = report.sigma_groups[(r.n, r.d, r.rho, r.scheme)]
            assert len(sig) == grid.groups
            assert r.r_sigma_bar_sq == pytest.approx(float(np.mean(sig)), rel=1e-12)

    def test_groups_are_contiguous_replication_blocks(self, monkeypatch):
        # streams are addressed by (rho_idx, rep), so group 0 of twelve
        # replications in three groups is the only group of the first four;
        # stacks of five replications (20 x 3 masters) cross group boundaries
        monkeypatch.setattr(simharness, "_STACK_BYTES", 5 * 20 * 3 * 8)
        kw = dict(
            rho_levels=(0.5,), schemes=("rer", "ridge", "pca"),
            surfaces=("linear", "exp"), beta_choices=("spectral",),
        )
        three = run_study(_small_grid(replications=12, groups=3, **kw), master_seed=112)
        one = run_study(_small_grid(replications=4, groups=1, **kw), master_seed=112)
        for table in ("sigma_groups", "mse_groups"):
            got, want = getattr(three, table), getattr(one, table)
            assert got.keys() == want.keys()
            for key in want:
                assert got[key][:1].tobytes() == want[key].tobytes(), (table, key)

    def test_reducer_matches_per_group_loop(self):
        # Reference: one reduction per (scheme, group) on a contiguous
        # (block, d) slice. The array reducer joins the kernel's stacks and
        # must sum in the same order, so the results are bit-equal.
        grid = _small_grid(
            d_levels=(1, 9), rho_levels=(0.5,), surfaces=("linear", "exp"),
            replications=60, groups=3,
        )
        cells, schemes, models = _layout(grid)
        rng = np.random.default_rng(113)
        size, reps = (len(schemes), grid.replications), grid.replications
        full = [
            _CellDraws(
                np.ones(reps, dtype=int), rng.standard_normal((*size, d)),
                1.0 + rng.standard_normal((len(schemes), len(models), reps)),
                rng.random(size), np.full(size, np.nan), rng.random(size) < 0.3,
                rng.integers(1, 500, size),
            )
            for _, d in cells
        ]
        # uneven stacks, whose boundaries are not the group boundaries
        stacks = [
            [_CellDraws(*(a[:, lo:hi] if name == "diff" else a[..., lo:hi]
                          for name, a in zip(_CellDraws._fields, c))) for c in full]
            for lo, hi in ((0, 25), (25, 27), (27, 60))
        ]
        report = SimReport(grid=grid, master_seed=0, records=[])
        _reduce(report, 0.5, stacks)

        block = grid.replications // grid.groups
        for (n, d), c in zip(cells, full):
            for si, scheme in enumerate(schemes):
                r_sig, r_mse = np.empty(grid.groups), np.empty((len(models), grid.groups))
                for g in range(grid.groups):
                    sl = slice(g * block, (g + 1) * block)
                    var = [c.diff[s, sl].var(axis=0, ddof=1).mean() for s in (si, 0)]
                    r_sig[g] = 1.0 - var[0] / var[1]
                    for mi in range(len(models)):
                        mse = [np.mean((c.tau_hat[s, mi, sl] - grid.tau) ** 2) for s in (si, 0)]
                        r_mse[mi, g] = 1.0 - mse[0] / mse[1]
                got = report.sigma_groups[(n, d, 0.5, scheme)]
                assert got.tobytes() == r_sig.tobytes()
                total = sum(c.draws[si].tolist())
                accepted = sum(not e for e in c.exhausted[si])
                for r in report.records:
                    if (r.n, r.d, r.scheme) == (n, d, scheme):
                        assert r.mean_draws == total / reps  # integer sums are exact
                        assert r.accept_rate == accepted / total
                for mi, (surf, bc, rv) in enumerate(models):
                    got = report.mse_groups[(n, d, 0.5, surf, bc, rv, scheme)]
                    assert got.tobytes() == r_mse[mi].tobytes()

    def test_ridge_scheme_runs(self):
        grid = _small_grid(
            rho_levels=(0.5,), schemes=("ridge",), replications=20,
            groups=2,
        )
        report = run_study(grid, master_seed=105)
        ridge = [r for r in report.records if r.scheme == "ridge"]
        assert len(ridge) == 1
        assert ridge[0].v_ak is None
        assert ridge[0].exhausted == 0


# every scheme, surface, beta and two residual variances, with a rank n-1
# cell (16 x 16, where rer degenerates) and masters of 20 x 16
_KERNEL_GRID = dict(
    n_levels=(16, 20), d_levels=(3, 16), rho_levels=(0.0, 0.5),
    schemes=("rer", "ridge", "pca"), surfaces=("linear", "exp"),
    beta_choices=("ones", "half_doubled", "spectral"), resid_vars=(0.5, 1.0),
    replications=5, groups=1,
)


class TestStudyKernel:
    def test_stack_boundaries_change_no_bits(self):
        # replications [0, 5) in one call equal the five one-replication
        # calls joined, field by field (seconds are wall-clock times)
        grid, root = FactorGrid(**_KERNEL_GRID), RngStream(115)
        with pytest.warns(UserWarning, match="degenerates"):
            whole = _replications(grid, root, 1, range(5))
            alone = [_replications(grid, root, 1, range(r, r + 1)) for r in range(5)]
        assert len(whole) == 4
        for ci, cell in enumerate(whole):
            for name, got in zip(_CellDraws._fields, cell):
                parts = [getattr(calls[ci], name) for calls in alone]
                want = np.concatenate(parts, axis=-2 if name == "diff" else -1)
                assert (got.shape, got.dtype) == (want.shape, want.dtype), (ci, name)
                if name != "seconds":
                    assert got.tobytes() == want.tobytes(), (ci, name)

    def test_matches_the_per_matrix_functions(self):
        # each replication of a stack has the bits of the public one-matrix
        # path: gen_covariates, nested_submatrix, decompose, select_k,
        # group_means and one sate_estimator per (scheme, model)
        grid, root = FactorGrid(**_KERNEL_GRID), RngStream(116)
        cells, schemes, models = _layout(grid)
        with pytest.warns(UserWarning, match="degenerates"):
            stack = _replications(grid, root, 1, range(3, 6))
            for r, rep in enumerate(range(3, 6)):
                master = gen_covariates(20, 16, 0.5, root.child(_COV).child(1).child(rep))
                noise = root.child(_NOISE).child(1).child(rep).generator().standard_normal(20)
                for ci, (n, d) in enumerate(cells):
                    x = nested_submatrix(master, n, d)
                    basis = decompose(x)
                    k = select_k(basis, grid.gamma).k
                    assert stack[ci].k[r] == k
                    for si, scheme in enumerate(schemes):
                        crit = calibrate(scheme, grid.p_a, basis, k=k, lam=grid.lam)
                        v = np.nan if crit.shrinkage is None else crit.shrinkage
                        assert np.array_equal(stack[ci].v_ak[si, r], v, equal_nan=True)
                        stream = root.child(_ALLOC).child(1).child(rep).child(ci).child(si)
                        w = rerandomize(x, crit, stream, grid.max_draws, basis=basis).allocation
                        diff = group_means(x, w).diff
                        assert stack[ci].diff[si, r].tobytes() == diff.tobytes()
                        for mi, (surf, bc, rv) in enumerate(models):
                            beta = beta_vector(bc, d, basis=basis, k=k)
                            g = x.values if surf == "linear" else np.exp(x.values)
                            treat = grid.tau * np.asarray(w.assignment, dtype=float)
                            y = g @ beta + treat + np.sqrt(rv) * noise[:n]
                            assert stack[ci].tau_hat[si, mi, r] == sate_estimator(Outcome(y), w)

    def test_one_calibration_per_replication(self, monkeypatch):
        # every (cell, scheme, replication) calibrates its own rule on its
        # own basis, cr included: no rule is shared across a stack
        calls = []

        def counted(scheme, p_a, basis, **kwargs):
            calls.append((scheme, basis))
            return calibrate(scheme, p_a, basis, **kwargs)

        monkeypatch.setattr(simharness, "calibrate", counted)
        grid = FactorGrid(**_KERNEL_GRID)
        cells, schemes, _ = _layout(grid)
        with pytest.warns(UserWarning, match="degenerates"):
            _replications(grid, RngStream(118), 1, range(5))
        assert [(s, b.n, b.v.shape[0]) for s, b in calls] == [
            (s, n, d) for n, d in cells for s in schemes for _ in range(5)
        ]
        for lo in range(0, len(calls), 5):
            assert len({id(b) for _, b in calls[lo : lo + 5]}) == 5

    def test_k_at_each_matrix_rank(self, monkeypatch):
        # matrices of one stack can differ in numerical rank (here one basis
        # is cut by a component); each k is then selected at its own rank
        real, bases = simharness._decompose_stack, []

        def cut_one(a):
            s, out = real(a)
            b = out[1]
            out[1] = SpectralBasis(b.u[:, :-1].copy(), b.singular_values[:-1], b.v[:, :-1])
            bases.extend(out)
            return s, out

        monkeypatch.setattr(simharness, "_decompose_stack", cut_one)
        grid = FactorGrid((20,), (6,), (0.5,), replications=3, groups=1, gamma=0.999)
        (cell,) = _replications(grid, RngStream(117), 0, range(3))
        assert [b.p for b in bases] == [6, 5, 6]
        assert cell.k.tolist() == [select_k(b, grid.gamma).k for b in bases] == [6, 5, 6]

    # configs/desk_study.cfg
    DESK = FactorGrid((100,), (10,), (0.1, 0.9), schemes=("rer", "pca"),
                      replications=500, groups=5)

    def test_desk_stack_memory(self):
        # A desk stack holds about four stack-sized arrays at once: the
        # masters, one cell's re-standardized copy, a standardize temporary
        # and the SVD factors. The rejection loop adds at most one 256-row
        # batch of 100 units (its 64-bit keys and their partitioned copy).
        grid = self.DESK
        assert _stack_size(grid) == 65
        _replications(grid, RngStream(116), 1, range(1))  # lazy imports, memos
        tracemalloc.start()
        try:
            _replications(grid, RngStream(116), 1, range(65))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * _STACK_BYTES + 2**19

    def test_desk_rows_per_draw(self, monkeypatch):
        # Each search throws away the rows of its last batch after the one it
        # accepts. At desk's acceptance of about 0.045, first batches of 16,
        # 16 and 48 rows keep the rows sampled under 1.9 per draw (1.83 at
        # the shipped seed; first batches of 16 and 64 rows sampled 2.31).
        rows = []

        def counting(n, count, gens):
            out = half_split_matrix(n, count, gens)
            rows.append(len(out))
            return out

        monkeypatch.setattr(engine, "half_split_matrix", counting)
        report = run_study(self.DESK, master_seed=20260826)
        draws = sum(round(r.mean_draws * self.DESK.replications) for r in report.records)
        assert sum(rows) <= 1.9 * draws


def _hand_report():
    # two active factors (n, rho), cell means 10/10/20/20, groups at +-1:
    # a case small enough to decompose by hand
    grid = FactorGrid(
        n_levels=(100, 200),
        d_levels=(10,),
        rho_levels=(0.1, 0.9),
        schemes=("pca",),
        replications=2,
        groups=2,
    )
    sigma_groups = {
        (100, 10, 0.1, "pca"): np.array([9.0, 11.0]),
        (100, 10, 0.9, "pca"): np.array([9.0, 11.0]),
        (200, 10, 0.1, "pca"): np.array([19.0, 21.0]),
        (200, 10, 0.9, "pca"): np.array([19.0, 21.0]),
    }
    return SimReport(grid=grid, master_seed=0, records=[], sigma_groups=sigma_groups)


class TestAnova:
    def test_hand_decomposition(self):
        rows = {row.term: row for row in anova(_hand_report(), "r_sigma_bar_sq")}
        assert set(rows) == {"n", "rho", "n:rho", "residual"}
        assert rows["n"].df == 1
        assert rows["n"].sum_sq == pytest.approx(200.0, abs=1e-12)
        assert rows["n"].f_ratio == pytest.approx(100.0, abs=1e-12)
        assert rows["rho"].sum_sq == pytest.approx(0.0, abs=1e-12)
        assert rows["n:rho"].sum_sq == pytest.approx(0.0, abs=1e-12)
        assert rows["residual"].df == 4
        assert rows["residual"].mean_sq == pytest.approx(2.0, abs=1e-12)

    def test_total_ss_identity_hand(self):
        rows = anova(_hand_report(), "r_sigma_bar_sq")
        total = sum(row.sum_sq for row in rows)
        values = np.concatenate(list(_hand_report().sigma_groups.values()))
        assert total == pytest.approx(float(((values - values.mean()) ** 2).sum()), rel=1e-12)

    def test_total_ss_identity_real_study(self):
        grid = _small_grid()
        report = run_study(grid, master_seed=106)
        for response, table in (
            ("r_sigma_bar_sq", report.sigma_groups),
            ("r_mse", report.mse_groups),
        ):
            rows = anova(report, response)
            if response == "r_sigma_bar_sq":
                keys = itertools.product(
                    grid.n_levels, grid.d_levels, grid.rho_levels, grid.schemes
                )
            else:
                keys = itertools.product(
                    grid.n_levels, grid.d_levels, grid.rho_levels,
                    grid.surfaces, grid.beta_choices, grid.resid_vars,
                    grid.schemes,
                )
            values = np.concatenate([np.asarray(table[k]) for k in keys])
            total = float(((values - values.mean()) ** 2).sum())
            assert sum(row.sum_sq for row in rows) == pytest.approx(total, rel=1e-8)

    def test_single_level_factors_excluded(self):
        rows = anova(_hand_report(), "r_sigma_bar_sq")
        terms = {row.term for row in rows}
        assert not any("d" in t.split(":") for t in terms)
        assert not any("scheme" in t.split(":") for t in terms)

    def test_sorted_by_f_with_residual_last(self):
        report = run_study(_small_grid(), master_seed=107)
        rows = anova(report, "r_sigma_bar_sq")
        assert rows[-1].term == "residual" and rows[-1].f_ratio is None
        fs = [row.f_ratio for row in rows[:-1]]
        assert fs == sorted(fs, reverse=True)

    def test_errors(self):
        report = _hand_report()
        with pytest.raises(ValueError):
            anova(report, "nonsense")
        solo = FactorGrid(
            n_levels=(20,), d_levels=(3,), rho_levels=(0.5,),
            replications=2, groups=1,
        )
        with pytest.raises(ValueError):
            anova(SimReport(grid=solo, master_seed=0, records=[]), "r_sigma_bar_sq")


class TestWriters:
    def test_metrics_csv(self, tmp_path):
        report = run_study(_small_grid(replications=8, groups=2), master_seed=108)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(report, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        # the columns follow CellRecord's fields, beta_choice written as beta
        assert rows[0] == [
            "n", "d", "rho", "surface", "beta", "resid_var", "scheme",
            "r_sigma_bar_sq", "r_mse", "k_selected", "k_mean", "v_ak",
            "exhausted", "mean_draws", "accept_rate",
        ]
        assert len(rows) == 1 + len(report.records)

    def test_anova_csv(self, tmp_path):
        rows = anova(_hand_report(), "r_sigma_bar_sq")
        path = tmp_path / "anova.csv"
        write_anova_csv(rows, path)
        with open(path) as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["term", "df", "sum_sq", "mean_sq", "f_ratio"]
        assert got[-1][0] == "residual" and got[-1][4] == ""

    def test_timings_csv(self, tmp_path):
        report = run_study(_small_grid(replications=8, groups=2), master_seed=109)
        path = tmp_path / "timings.csv"
        write_timings_csv(report, path)
        with open(path) as fh:
            got = list(csv.reader(fh))
        assert got[0] == ["n", "d", "rho", "scheme", "mean_seconds", "median_seconds"]
        assert len(got) == 1 + len(report.timings)

    def test_summary_json_grid_lists_every_setting(self, tmp_path):
        grid = _small_grid(max_draws=500)
        path = tmp_path / "summary.json"
        write_summary_json(SimReport(grid=grid, master_seed=0, records=[]), path)
        block = json.loads(path.read_text())["grid"]
        names = {f.name: "lambda" if f.name == "lam" else f.name for f in dataclasses.fields(FactorGrid)}
        assert sorted(block) == sorted(names.values())
        assert block["max_draws"] == 500
        for name, key in names.items():
            value = getattr(grid, name)
            assert block[key] == (list(value) if isinstance(value, tuple) else value)

    def test_summary_json_deterministic(self, tmp_path):
        grid = _small_grid(replications=8, groups=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_summary_json(run_study(grid, master_seed=110), a)
        write_summary_json(run_study(grid, master_seed=110), b)
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["master_seed"] == 110
        assert len(payload["records"]) == 6
