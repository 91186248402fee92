"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a one-line measurement summary (visible with -s, or in
the failure report) and asserts the documented tolerance. Fixtures are
module-scoped so the expensive sampling runs once.
"""

import json
import time

import numpy as np
import pytest

from rerand.balance import (
    batch_distances,
    calibrate,
    mahalanobis,
    mahalanobis_ridge,
    predict_reduction,
)
from rerand.cli import main
from rerand.core import RngStream, half_split_matrix, make_allocation
from rerand.dist import chi2_cdf, chi2_quantile, shrinkage_coeff
from rerand.engine import accepted_sample, complete_randomization, rerandomize
from rerand.simharness import (
    FactorGrid,
    SimReport,
    anova,
    gen_covariates,
    run_study,
)
from rerand.spectral import decompose, select_k


@pytest.fixture(scope="module")
def design():
    """200 x 10 equicorrelated design shared by criteria 1-3."""
    x = gen_covariates(200, 10, 0.5, RngStream(881).child(1))
    basis = decompose(x)
    sel = select_k(basis, 0.95)
    crit = calibrate("pca", 0.05, basis, k=sel.k)
    return x, basis, sel, crit


@pytest.fixture(scope="module")
def cr_draws(design):
    """20,000 complete randomizations with their criterion values."""
    x, basis, sel, crit = design
    t0 = time.perf_counter()
    rows = half_split_matrix(x.n, 20000, RngStream(881).child(2).generator())
    dists = batch_distances(crit, basis, rows)
    return rows, dists, time.perf_counter() - t0


@pytest.fixture(scope="module")
def accepted_diffs(design):
    """Covariate mean differences over 5,000 accepted draws."""
    x, basis, sel, crit = design
    t0 = time.perf_counter()
    sample = accepted_sample(x, crit, RngStream(881).child(3), 5000, basis=basis)
    elapsed = time.perf_counter() - t0
    rows = np.array([w.assignment for w in sample], dtype=float)
    r = 1.0 / (x.n // 2) * 2.0
    diffs = r * (rows @ x.values)  # = xbar_T - xbar_C for centered columns
    return diffs, elapsed


@pytest.fixture(scope="module")
def desk_study():
    """Desk-scale factorial study shared by criteria 7 and 9."""
    grid = FactorGrid(
        n_levels=(100,),
        d_levels=(10,),
        rho_levels=(0.1, 0.9),
        schemes=("rer", "pca"),
        replications=500,
        groups=5,
    )
    t0 = time.perf_counter()
    report = run_study(grid, master_seed=20260826)
    return report, time.perf_counter() - t0


def test_criterion_01_chi_square_calibration(design, cr_draws):
    x, basis, sel, crit = design
    rows, dists, elapsed = cr_draws
    sample = np.sort(dists)
    n = len(sample)
    cdf = np.array([chi2_cdf(sel.k, float(v)) for v in sample])
    hi = np.arange(1, n + 1) / n - cdf
    lo = cdf - np.arange(0, n) / n
    ks = float(max(hi.max(), lo.max()))
    print(f"criterion 1: KS = {ks:.5f} (bound 0.015), k = {sel.k}, {elapsed:.1f} s")
    assert ks < 0.015
    assert elapsed < 60.0


def test_criterion_02_unbiased_covariate_means(accepted_diffs):
    diffs, elapsed = accepted_diffs
    means = diffs.mean(axis=0)
    ses = diffs.std(axis=0, ddof=1) / np.sqrt(diffs.shape[0])
    worst = float(np.max(np.abs(means) / ses))
    print(f"criterion 2: max |mean|/SE = {worst:.2f} (bound 4), {elapsed:.1f} s")
    assert np.all(np.abs(means) <= 4.0 * ses)
    assert elapsed < 300.0


def test_criterion_03_componentwise_shrinkage(design, cr_draws, accepted_diffs):
    x, basis, sel, crit = design
    rows, _, _ = cr_draws
    acc_diffs, _ = accepted_diffs
    r = 2.0 / (x.n // 2)
    cr_diffs = r * (rows.astype(float) @ x.values)
    var_acc = (acc_diffs @ basis.v).var(axis=0, ddof=1)
    var_cr = (cr_diffs @ basis.v).var(axis=0, ddof=1)
    ratio = var_acc / var_cr
    v_ak = shrinkage_coeff(sel.k, crit.threshold)
    target = np.ones(basis.p)
    target[: sel.k] = v_ak
    dev = float(np.max(np.abs(ratio / target - 1.0)))
    print(
        f"criterion 3: max relative deviation {dev:.3f} (bound 0.10), "
        f"v_ak = {v_ak:.4f}"
    )
    assert dev <= 0.10


def test_criterion_04_truncated_shrinkage_dominates():
    t0 = time.perf_counter()
    margin = np.inf
    for d in (2, 10, 50, 180):
        for p_a in (0.01, 0.05, 0.2):
            v_full = shrinkage_coeff(d, chi2_quantile(d, p_a))
            for k in range(1, d + 1):
                v_k = shrinkage_coeff(k, chi2_quantile(k, p_a))
                assert v_k <= v_full + 1e-15
                if k < d:
                    assert v_k < v_full
                    margin = min(margin, v_full - v_k)
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: strict margin >= {margin:.2e}, {elapsed:.2f} s (bound 1 s)")
    assert elapsed < 1.0


def test_criterion_05_truncation_and_ridge_limits():
    x = gen_covariates(100, 10, 0.5, RngStream(5150))
    basis = decompose(x)
    rows = half_split_matrix(100, 1000, RngStream(5151).generator())
    full = batch_distances(calibrate("rer", 0.05, basis), basis, rows)
    worst_gap = -np.inf
    for k in range(1, basis.p + 1):
        crit_k = calibrate("pca", 0.05, basis, k=k)
        m_k = batch_distances(crit_k, basis, rows)
        assert np.all(m_k <= full * (1.0 + 1e-12))
        if k == basis.p:
            rel = float(np.max(np.abs(m_k - full) / full))
            assert rel < 1e-10
            worst_gap = rel
    allocs = [make_allocation(row) for row in rows[:50]]
    worst_limit = 0.0
    for w in allocs:
        m = mahalanobis(x, basis, w)
        worst_limit = max(
            worst_limit, abs(mahalanobis_ridge(x, basis, 1e-12, w) - m) / m
        )
    assert worst_limit < 1e-6
    grid = np.logspace(-6, 3, 10)
    for w in allocs[:10]:
        vals = [mahalanobis_ridge(x, basis, lam, w) for lam in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    print(
        f"criterion 5: k=p gap {worst_gap:.1e} (bound 1e-10), "
        f"ridge limit gap {worst_limit:.1e} (bound 1e-6), monotone on 10-pt grid"
    )


def test_criterion_06_degenerate_high_dimension():
    x = gen_covariates(50, 100, 0.3, RngStream(660))
    basis = decompose(x)
    assert basis.p == x.n - 1
    rows = half_split_matrix(50, 100, RngStream(661).generator())
    values = [mahalanobis(x, basis, make_allocation(row)) for row in rows]
    worst = float(np.max(np.abs(np.array(values) - 49.0) / 49.0))
    assert worst < 1e-8
    with pytest.warns(UserWarning):
        crit = calibrate("rer", 0.05, basis)
    assert crit.degenerate
    assert crit.threshold < 49.0
    assert "cannot discriminate" in crit.note
    res = rerandomize(x, crit, RngStream(662), basis=basis)
    assert res.draws_attempted == 1 and not res.accepted
    print(
        f"criterion 6: M constant at 49 (max rel dev {worst:.1e}), "
        f"threshold {crit.threshold:.2f} flagged degenerate"
    )


def test_criterion_07_desk_scale_reduction_windows(desk_study):
    report, elapsed = desk_study
    by = {(r.scheme, r.rho): r for r in report.records}
    pca_09 = by[("pca", 0.9)].r_sigma_bar_sq * 100.0
    rer_01 = by[("rer", 0.1)].r_sigma_bar_sq * 100.0
    modal_k = by[("pca", 0.9)].k_selected
    print(
        f"criterion 7: pca rho=0.9 -> {pca_09:.2f} (window [76, 86]), "
        f"rer rho=0.1 -> {rer_01:.2f} (window [64, 74]), "
        f"modal k = {modal_k} (required 5), {elapsed:.1f} s"
    )
    assert elapsed < 900.0
    assert 76.0 <= pca_09 <= 86.0
    assert 64.0 <= rer_01 <= 74.0
    assert modal_k == 5


def test_criterion_08_estimator_variance_reduction():
    root = RngStream(4242)
    x = gen_covariates(200, 10, 0.5, root.child(0))
    basis = decompose(x)
    sel = select_k(basis, 0.95)
    crit = calibrate("pca", 0.05, basis, k=sel.k)
    beta = np.ones(10)
    pred = predict_reduction(crit, basis, beta=beta).predicted_tau_var_reduction
    surface = x.values @ beta
    taus = {"cr": np.empty(2000), "pca": np.empty(2000)}
    for rep in range(2000):
        eps = np.sqrt(0.5) * root.child(1).child(rep).generator().standard_normal(200)
        w_cr = complete_randomization(200, root.child(2).child(rep))
        w_pca = rerandomize(x, crit, root.child(3).child(rep), basis=basis).allocation
        for name, w in (("cr", w_cr), ("pca", w_pca)):
            wv = np.asarray(w.assignment, dtype=float)
            y = surface + wv + eps
            taus[name][rep] = y[wv == 1].mean() - y[wv == 0].mean()
    emp = float(np.var(taus["cr"], ddof=1) - np.var(taus["pca"], ddof=1))
    rel = abs(emp - pred) / pred
    print(
        f"criterion 8: predicted {pred:.4f}, empirical {emp:.4f}, "
        f"relative gap {rel:.3f} (bound 0.15)"
    )
    assert emp > 0.0
    assert rel <= 0.15


def test_criterion_09_anova_decomposition(desk_study):
    grid = FactorGrid(
        n_levels=(100, 200),
        d_levels=(10,),
        rho_levels=(0.1, 0.9),
        schemes=("pca",),
        replications=2,
        groups=2,
    )
    hand = SimReport(
        grid=grid,
        master_seed=0,
        records=[],
        sigma_groups={
            (100, 10, 0.1, "pca"): np.array([9.0, 11.0]),
            (100, 10, 0.9, "pca"): np.array([9.0, 11.0]),
            (200, 10, 0.1, "pca"): np.array([19.0, 21.0]),
            (200, 10, 0.9, "pca"): np.array([19.0, 21.0]),
        },
    )
    rows = {row.term: row for row in anova(hand, "r_sigma_bar_sq")}
    assert rows["n"].sum_sq == pytest.approx(200.0, abs=1e-12)
    assert rows["n"].mean_sq == pytest.approx(200.0, abs=1e-12)
    assert rows["n"].f_ratio == pytest.approx(100.0, abs=1e-12)
    assert rows["rho"].sum_sq == pytest.approx(0.0, abs=1e-12)
    assert rows["n:rho"].sum_sq == pytest.approx(0.0, abs=1e-12)
    assert rows["residual"].mean_sq == pytest.approx(2.0, abs=1e-12)

    report, _ = desk_study
    worst = 0.0
    for response, table in (
        ("r_sigma_bar_sq", report.sigma_groups),
        ("r_mse", report.mse_groups),
    ):
        out = anova(report, response)
        g = report.grid
        if response == "r_sigma_bar_sq":
            keys = [
                (n, d, rho, s)
                for n in g.n_levels
                for d in g.d_levels
                for rho in g.rho_levels
                for s in g.schemes
            ]
        else:
            keys = [
                (n, d, rho, surf, bc, rv, s)
                for n in g.n_levels
                for d in g.d_levels
                for rho in g.rho_levels
                for surf in g.surfaces
                for bc in g.beta_choices
                for rv in g.resid_vars
                for s in g.schemes
            ]
        values = np.concatenate([np.asarray(table[k]) for k in keys])
        total = float(((values - values.mean()) ** 2).sum())
        got = sum(row.sum_sq for row in out)
        worst = max(worst, abs(got - total) / total)
    print(
        f"criterion 9: hand SS/MS/F exact; total-SS identity rel err "
        f"{worst:.1e} (bound 1e-8)"
    )
    assert worst < 1e-8


def test_criterion_10_pca_faster_than_ridge():
    x = gen_covariates(200, 50, 0.9, RngStream(1001))
    basis = decompose(x)
    sel = select_k(basis, 0.95)
    stream = RngStream(909)
    medians = {}
    for base, scheme in ((0, "pca"), (1000, "ridge")):
        times = []
        for i in range(60):
            t0 = time.perf_counter()
            if scheme == "pca":
                crit = calibrate("pca", 0.05, basis, k=sel.k)
            else:
                crit = calibrate("ridge", 0.05, basis)
            rerandomize(x, crit, stream.child(base + i), basis=basis)
            times.append(time.perf_counter() - t0)
        medians[scheme] = float(np.median(times))
    print(
        f"criterion 10: median per allocation pca {medians['pca'] * 1e3:.2f} ms "
        f"< ridge {medians['ridge'] * 1e3:.2f} ms"
    )
    assert medians["pca"] < medians["ridge"]


def test_criterion_11_byte_identical_outputs(tmp_path):
    import csv

    cov = tmp_path / "cov.csv"
    x = gen_covariates(60, 6, 0.5, RngStream(2718))
    with open(cov, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow([f"x{i + 1}" for i in range(6)])
        for row in x.values:
            out.writerow([f"{v:.12f}" for v in row])

    alloc_bytes = []
    for name in ("a1", "a2"):
        out_dir = tmp_path / name
        assert main([
            "allocate", "--input", str(cov), "--seed", "314", "--out", str(out_dir),
        ]) == 0
        alloc_bytes.append({
            f: (out_dir / f).read_bytes()
            for f in ("allocation.csv", "diagnostics.csv", "report.json")
        })
    assert alloc_bytes[0] == alloc_bytes[1]

    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "n = 16\nd = 3\nrho = 0.5\nschemes = rer, pca\n"
        "replications = 8\ngroups = 2\nseed = 99\n"
    )
    sim_bytes = []
    for name in ("s1", "s2"):
        out_dir = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out_dir)]) == 0
        sim_bytes.append({
            f: (out_dir / f).read_bytes()
            for f in (
                "metrics.csv", "summary.json", "anova_r_sigma.csv", "anova_r_mse.csv",
            )
        })
    assert sim_bytes[0] == sim_bytes[1]
    report = json.loads(alloc_bytes[0]["report.json"].decode())
    print(
        "criterion 11: allocate and simulate reruns byte-identical "
        f"(allocate draws = {report['draws_attempted']})"
    )
