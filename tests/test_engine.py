import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rerand import balance, engine
from rerand.balance import (
    DegenerateRuleWarning,
    batch_distances,
    calibrate,
    mahalanobis,
    mahalanobis_pca,
    mahalanobis_ridge,
)
from rerand.core import RngStream, half_split_matrix, make_allocation, standardize
from rerand.engine import (
    _BATCHES,
    accepted_sample,
    complete_randomization,
    rerandomize,
)
from rerand.spectral import decompose


def _setup(n, d, seed):
    x = standardize(np.random.default_rng(seed).standard_normal((n, d)))
    return x, decompose(x)


@functools.cache
def _small_design(scheme, p_a=0.02):
    x, basis = _setup(30, 5, 40)
    return x, basis, calibrate(scheme, p_a, basis, k=3, n_cal=2000)


def _count_rows(monkeypatch):
    """Record the row count of every draw the rejection loop makes."""
    counts = []

    def counting(n, count, rng):
        counts.append(count)
        return half_split_matrix(n, count, rng)

    monkeypatch.setattr(engine, "half_split_matrix", counting)
    return counts


def _draw_at_a_time(x, basis, crit, rng, max_draws):
    """Reference rejection loop: one row per draw, scalar distances."""
    distance = {
        "rer": lambda w: mahalanobis(x, basis, w),
        "pca": lambda w: mahalanobis_pca(basis, crit.k, w),
        "ridge": lambda w: mahalanobis_ridge(x, basis, crit.lam, w),
    }[crit.scheme]
    gen = rng.generator()
    best_value, best = np.inf, None
    for i in range(max_draws):
        w = make_allocation(half_split_matrix(x.n, 1, gen)[0])
        value = distance(w)
        if value <= crit.threshold:
            return w, value, i + 1, True
        if value < best_value:
            best_value, best = value, w
    return best, best_value, max_draws, False


class TestCompleteRandomization:
    def test_equal_split(self):
        w = complete_randomization(10, RngStream(1))
        assert w.n_treated == w.n_control == 5
        assert sorted(np.unique(w.assignment)) == [0, 1]

    def test_reproducible(self):
        a = complete_randomization(12, RngStream(2))
        b = complete_randomization(12, RngStream(2))
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_covers_all_splits_roughly_uniformly(self):
        gen = RngStream(3).generator()
        counts: dict[tuple, int] = {}
        for _ in range(3000):
            w = complete_randomization(4, gen)
            key = tuple(w.assignment.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert 0.10 < c / 3000 < 0.24

    def test_two_units_both_orders_occur(self):
        gen = RngStream(21).generator()
        seen = {
            tuple(complete_randomization(2, gen).assignment.tolist())
            for _ in range(64)
        }
        assert seen == {(0, 1), (1, 0)}

    def test_odd_n(self):
        with pytest.raises(ValueError):
            complete_randomization(7, RngStream(4))
        with pytest.warns(UserWarning):
            w = complete_randomization(7, RngStream(4), near_equal=True)
        assert (w.n_treated, w.n_control) == (4, 3)

    def test_too_small(self):
        with pytest.raises(ValueError):
            complete_randomization(1, RngStream(5))


class TestRerandomize:
    def test_accepted_allocation_satisfies_criterion(self):
        x, basis = _setup(40, 5, 6)
        crit = calibrate("pca", 0.2, basis, k=3)
        res = rerandomize(x, crit, RngStream(7), basis=basis)
        assert res.accepted
        assert res.criterion_value <= crit.threshold
        assert res.draws_attempted >= 1
        assert res.allocation.equal_split

    def test_first_hit_in_draw_order(self):
        # with max_draws <= the first batch size all candidates come from a
        # single generator call, so the draw order is directly replayable
        x, basis = _setup(40, 4, 8)
        crit = calibrate("rer", 0.3, basis)
        res = rerandomize(x, crit, RngStream(9), max_draws=_BATCHES[0], basis=basis)
        rows = half_split_matrix(40, _BATCHES[0], RngStream(9).generator())
        dists = batch_distances(crit, basis, rows)
        hits = np.nonzero(dists <= crit.threshold)[0]
        assert hits.size and res.accepted
        first = int(hits[0])
        assert res.draws_attempted == first + 1
        np.testing.assert_array_equal(res.allocation.assignment, rows[first])
        assert res.criterion_value == pytest.approx(float(dists[first]), rel=1e-12)

    def test_unbounded_threshold_accepts_first_draw(self):
        x, basis = _setup(20, 3, 22)
        crit = dataclasses.replace(calibrate("rer", 0.05, basis), threshold=np.inf)
        res = rerandomize(x, crit, RngStream(23), basis=basis)
        assert res.accepted and res.draws_attempted == 1

    def test_exhaustion_returns_best_so_far(self):
        x, basis = _setup(40, 4, 10)
        crit = dataclasses.replace(calibrate("rer", 0.05, basis), threshold=1e-9)
        res = rerandomize(x, crit, RngStream(11), max_draws=_BATCHES[0], basis=basis)
        assert not res.accepted
        assert res.draws_attempted == _BATCHES[0]
        rows = half_split_matrix(40, _BATCHES[0], RngStream(11).generator())
        dists = batch_distances(crit, basis, rows)
        assert res.criterion_value == pytest.approx(float(dists.min()), rel=1e-12)
        np.testing.assert_array_equal(
            res.allocation.assignment, rows[int(np.argmin(dists))]
        )

    def test_deterministic_across_runs(self):
        x, basis = _setup(60, 6, 12)
        crit = calibrate("ridge", 0.1, basis, n_cal=2000)
        a = rerandomize(x, crit, RngStream(13), basis=basis)
        b = rerandomize(x, crit, RngStream(13))  # decomposes x itself
        np.testing.assert_array_equal(a.allocation.assignment, b.allocation.assignment)
        assert a.criterion_value == b.criterion_value
        assert a.draws_attempted == b.draws_attempted

    def test_cr_single_draw(self):
        # the row is complete_randomization's on the same stream, at even n
        # and at odd n with a near-equal split
        for n, seed in ((20, 14), (21, 15)):
            x, basis = _setup(n, 3, seed)
            odd = bool(n % 2)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # odd n, near-equal split
                res = rerandomize(x, calibrate("cr", 0.05, basis), RngStream(15), near_equal=odd)
                w = complete_randomization(n, RngStream(15), near_equal=odd)
            assert res.accepted and res.criterion_value is None
            assert res.draws_attempted == 1
            assert res.allocation.assignment.tobytes() == w.assignment.tobytes()

    def test_degenerate_falls_back_to_single_draw(self):
        x, basis = _setup(4, 10, 16)
        with pytest.warns(UserWarning):
            crit = calibrate("rer", 0.05, basis)
        res = rerandomize(x, crit, RngStream(17), basis=basis)
        assert res.draws_attempted == 1
        assert res.criterion_value == pytest.approx(3.0, abs=1e-10)
        assert not res.accepted  # constant 3 sits above the chi-square cutoff

    def test_degenerate_above_threshold_accepts_first_draw(self):
        # chi2_3 quantile at 0.9 is 6.25, above the constant n-1 = 3
        x, basis = _setup(4, 10, 16)
        for scheme in ("rer", "pca"):
            with pytest.warns(UserWarning, match="at or above"):
                crit = calibrate(scheme, 0.9, basis, k=basis.p)
            assert crit.degenerate and crit.threshold > 3.0
            res = rerandomize(x, crit, RngStream(17), basis=basis)
            assert res.accepted and res.draws_attempted == 1
            assert res.criterion_value == pytest.approx(3.0, abs=1e-10)

    def test_acceptance_rate_drives_draw_count(self):
        x, basis = _setup(100, 10, 18)
        crit = calibrate("pca", 0.05, basis, k=5)
        draws = [
            rerandomize(x, crit, RngStream(19).child(i), basis=basis).draws_attempted
            for i in range(200)
        ]
        mean = float(np.mean(draws))
        assert 10 < mean < 40  # geometric with success prob near 0.05

    @given(
        scheme=st.sampled_from(["rer", "pca", "ridge"]),
        p_a=st.sampled_from([0.02, 0.001]),
        seed=st.integers(0, 2**32 - 1),
        max_draws=st.integers(1, 1500),
    )
    @example("rer", 0.001, 6, 1500)  # accepts at draw 1240
    @example("pca", 0.001, 11, 1500)  # 1206
    @example("ridge", 0.001, 0, 1500)  # 1412
    @example("pca", 0.001, 0, 1500)  # exhausts: the best of 1500 draws
    def test_batched_loop_matches_draw_at_a_time(self, scheme, p_a, seed, max_draws):
        # max_draws up to 1500 spans the 16-, 16- and 48-row batches and several
        # capped 256-row ones; p_a = 0.001 makes runs reach them, and the
        # explicit examples end in the fourth or fifth capped batch
        x, basis, crit = _small_design(scheme, p_a)
        res = rerandomize(x, crit, RngStream(seed), max_draws=max_draws, basis=basis)
        w, value, draws, accepted = _draw_at_a_time(
            x, basis, crit, RngStream(seed), max_draws
        )
        np.testing.assert_array_equal(res.allocation.assignment, w.assignment)
        assert res.criterion_value == pytest.approx(value, rel=1e-9)
        assert (res.draws_attempted, res.accepted) == (draws, accepted)

    def test_batch_schedule(self, monkeypatch):
        # 16, 16, 48, then capped at 256; the last batch stops at max_draws
        x, basis = _setup(40, 5, 43)
        never = dataclasses.replace(calibrate("pca", 0.05, basis, k=3), threshold=-1.0)
        counts = _count_rows(monkeypatch)
        res = rerandomize(x, never, RngStream(44), max_draws=1000, basis=basis)
        assert not res.accepted and res.draws_attempted == 1000
        assert counts == [16, 16, 48, 256, 256, 256, 152]

    def test_rows_thrown_away_stay_below_the_cap(self, monkeypatch):
        # At p_a = 0.001 the accepted draw lands in a capped batch; only the
        # rows after it in that batch are drawn and not used.
        x, basis = _setup(100, 10, 45)
        crit = calibrate("pca", 0.001, basis, k=5)
        counts = _count_rows(monkeypatch)
        wasted = []
        for i in range(40):
            counts.clear()
            res = rerandomize(x, crit, RngStream(46).child(i), basis=basis)
            assert res.accepted
            wasted.append(sum(counts) - res.draws_attempted)
        assert 0 <= min(wasted) and max(wasted) < 256

    def test_allocation_owns_its_data(self):
        # a view would keep the whole draw batch alive with the result
        x, basis = _setup(40, 5, 41)
        crit = calibrate("pca", 0.05, basis, k=3)
        res = rerandomize(x, crit, RngStream(42), basis=basis)
        assert res.accepted and res.draws_attempted > 1
        assert res.allocation.assignment.base is None
        tight = dataclasses.replace(crit, threshold=1e-9)
        res = rerandomize(x, tight, RngStream(42), max_draws=50, basis=basis)
        assert not res.accepted
        assert res.allocation.assignment.base is None

    def test_errors(self):
        x, basis = _setup(20, 3, 20)
        crit = calibrate("rer", 0.05, basis)
        with pytest.raises(ValueError):
            rerandomize(x, crit, RngStream(21), max_draws=0)
        bare = dataclasses.replace(crit, threshold=None)
        with pytest.raises(ValueError):
            rerandomize(x, bare, RngStream(22))
        x_odd, basis_odd = _setup(21, 3, 23)
        with pytest.raises(ValueError):
            rerandomize(x_odd, calibrate("rer", 0.05, basis_odd), RngStream(24))


class TestAcceptedSample:
    def test_prefix_stability(self):
        x, basis = _setup(30, 4, 25)
        crit = calibrate("rer", 0.2, basis)
        long = accepted_sample(x, crit, RngStream(26), 5, basis=basis)
        short = accepted_sample(x, crit, RngStream(26), 3, basis=basis)
        for a, b in zip(short, long):
            np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_all_satisfy_criterion(self):
        x, basis = _setup(30, 4, 27)
        crit = calibrate("rer", 0.2, basis)
        for w in accepted_sample(x, crit, RngStream(28), 10, basis=basis):
            assert mahalanobis(x, basis, w) <= crit.threshold

    def test_distinct_substreams(self):
        x, basis = _setup(30, 4, 29)
        crit = calibrate("rer", 0.5, basis)
        sample = accepted_sample(x, crit, RngStream(30), 8, basis=basis)
        keys = {tuple(w.assignment.tolist()) for w in sample}
        assert len(keys) > 1

    def test_empty_sample(self):
        x, basis = _setup(30, 4, 31)
        assert accepted_sample(x, calibrate("rer", 0.2, basis), RngStream(32), 0) == []
        with pytest.raises(ValueError, match="n_accepted must be nonnegative"):
            accepted_sample(x, calibrate("rer", 0.2, basis), RngStream(32), -1)

    def test_requires_stream(self):
        x, basis = _setup(30, 4, 33)
        crit = calibrate("rer", 0.2, basis)
        with pytest.raises(TypeError):
            accepted_sample(x, crit, np.random.default_rng(0), 2, basis=basis)

    def test_exhaustion_is_an_error(self):
        x, basis = _setup(30, 4, 34)
        crit = dataclasses.replace(calibrate("rer", 0.05, basis), threshold=1e-9)
        with pytest.raises(RuntimeError):
            accepted_sample(x, crit, RngStream(35), 2, max_draws=8, basis=basis)

    def test_degenerate_rule_below_its_constant_fails_before_any_draw(self, monkeypatch):
        # rank 9 = n - 1: the distance is the constant 9, above the chi-square
        # threshold 3.33, so no draw can be accepted
        x, basis = _setup(10, 9, 36)
        with pytest.warns(DegenerateRuleWarning, match="below"):
            crit = calibrate("rer", 0.05, basis)
        assert crit.note == (
            "distance is the constant n-1 = 9 for every equal split; threshold 3.3251 is "
            "below it, so the rule cannot discriminate and the scheme degenerates to "
            "complete randomization"
        )
        counts = _count_rows(monkeypatch)
        with pytest.raises(ValueError, match="constant n-1 = 9") as err:
            accepted_sample(x, crit, RngStream(37), 3, basis=basis)
        assert str(err.value) == crit.note and counts == []
        # at or above the constant, every draw is accepted
        with pytest.warns(DegenerateRuleWarning, match="at or above"):
            easy = calibrate("rer", 0.95, basis)
        sample = accepted_sample(x, easy, RngStream(37), 3, basis=basis)
        assert len(sample) == 3 and counts == [1]  # one call, one row per substream


class TestCriterionBasis:
    @pytest.mark.parametrize("scheme, k, on, run", [
        ("pca", 4, (20, 5), (20, 3)), ("rer", None, (20, 5), (20, 3)),
        ("ridge", None, (20, 5), (20, 3)), ("pca", 4, (20, 5), (40, 5)),
        ("ridge", None, (20, 5), (40, 5)), ("cr", None, (20, 5), (40, 5)),
        ("rer", None, (6, 5), (20, 5)),
    ], ids=["pca-4", "rer-None", "ridge-None", "pca-4-40-units", "ridge-None-40-units",
            "cr-None-40-units", "rer-None-degenerate"])
    def test_engine_rejects_a_criterion_of_another_basis(self, scheme, k, on, run, monkeypatch):
        # calibrated on an n x d design `on`, run on `run`. On a rank-3
        # design the pca rule summed 3 terms against its chi-square
        # threshold at 4 degrees of freedom, the rer rule against 5, and
        # the ridge rule (threshold 0.819; the rank-3 design's own is
        # 0.214) accepted its first draw. On 40 units the ridge rule weighted
        # its terms by the sigma_factor of 20, and the pca and cr rules ran
        # unchecked. The degenerate 6 x 5 rer rule was decided on one draw
        # of the 20 x 5 design. Now each is one ValueError naming both
        # shapes, before any draw.
        _, cal = _setup(*on, 106)
        x, basis = _setup(*run, 107)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRuleWarning)
            crit = calibrate(scheme, 0.05, cal, k=k)
        rule, shape = ((f"n = {on[0]} sums 0", f"n = {run[0]}") if scheme == "cr" else
                       (f"n = {on[0]}, p = {on[1]} sums .*", f"rank p = {run[1]} on n = {run[0]}"))
        match = f"calibrated on {rule} components but the basis has {shape} units"
        counts = _count_rows(monkeypatch)
        for call in (lambda: rerandomize(x, crit, RngStream(3), basis=basis),
                     lambda: rerandomize(x, crit, RngStream(3)),
                     lambda: accepted_sample(x, crit, RngStream(3), 4, basis=basis)):
            with pytest.raises(ValueError, match=match):
                call()
        assert counts == []


class TestLockstep:
    """engine._lockstep runs many rejection searches at once; each must end
    exactly as rerandomize alone ends on the same stream."""

    @staticmethod
    @functools.cache
    def _designs(n):
        # a 5-covariate design for every scheme but the degenerate one, whose
        # n - 1 components need n + 1 covariates
        x, basis = _setup(n, 5, 50 + n)
        wide = _setup(n, n + 1, 60 + n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRuleWarning)
            degenerate = calibrate("rer", 0.05, wide[1])
        ridge = {p_a: calibrate("ridge", p_a, basis, n_cal=2000) for p_a in (0.2, 0.02, 0.001)}
        return (x, basis), wide, degenerate, ridge

    def _run(self, n, spec):
        kind, p_a, k, max_draws = spec
        (x, basis), wide, degenerate, ridge = self._designs(n)
        if kind == "degenerate":
            return wide[0], wide[1], degenerate, max_draws
        if kind == "ridge":
            return x, basis, ridge[p_a], max_draws
        return x, basis, calibrate(kind, p_a, basis, k=k), max_draws

    @given(
        n=st.sampled_from([30, 31]),
        specs=st.lists(
            st.tuples(
                st.sampled_from(["rer", "pca", "ridge", "cr", "degenerate"]),
                st.sampled_from([0.2, 0.02, 0.001]),
                st.integers(1, 5),
                st.sampled_from([1, 7, 16, 50, 300, 1500]),
            ),
            min_size=1,
            max_size=20,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # hits in the 16-row, 48-row and capped batches, exhaustion at a small
    # cap, a degenerate rule, pca at several k, ridge and complete
    # randomization, at even and at odd n; the 0.2 runs fill more than one
    # 16-run chunk
    @example(30, [("pca", 0.2, 3, 1500)] * 18 + [("rer", 0.02, 1, 1500), ("pca", 0.001, 2, 1500),
             ("pca", 0.001, 5, 1500), ("ridge", 0.001, 1, 1500), ("rer", 0.001, 1, 7),
             ("degenerate", 0.05, 1, 1500), ("cr", 0.05, 1, 1500)], 5)
    @example(31, [("pca", 0.02, 4, 1500), ("ridge", 0.02, 1, 50), ("rer", 0.001, 1, 300),
             ("degenerate", 0.05, 1, 1), ("cr", 0.05, 1, 16), ("pca", 0.001, 1, 1500)], 6)
    def test_stack_matches_one_run_calls(self, n, specs, seed):
        runs = [self._run(n, spec) for spec in specs]
        streams = [RngStream(seed).child(i) for i in range(len(runs))]
        out = np.empty((len(runs), n), dtype=np.int8)
        values, draws, accepted = engine._lockstep(
            n, [(c, b, s.generator(), m) for (_, b, c, m), s in zip(runs, streams)], out
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # odd n, near-equal splits
            alone = [rerandomize(x, c, s, m, basis=b, near_equal=True)
                     for (x, b, c, m), s in zip(runs, streams)]
        for i, res in enumerate(alone):
            assert out[i].tobytes() == res.allocation.assignment.tobytes()
            assert values[i] == (0.0 if res.criterion_value is None else res.criterion_value)
            assert (draws[i], accepted[i]) == (res.draws_attempted, res.accepted)

    @staticmethod
    def _searches(runs, streams):
        return [(c, b, s.generator(), m) for (_, b, c, m), s in zip(runs, streams)]

    @staticmethod
    def _assert_alone(runs, streams, out, values, draws, accepted):
        # each search ends exactly as rerandomize alone ends on its stream
        for i, ((x, b, c, m), s) in enumerate(zip(runs, streams, strict=True)):
            res = rerandomize(x, c, s, m, basis=b)
            assert out[i].tobytes() == res.allocation.assignment.tobytes()
            assert values[i] == res.criterion_value
            assert (draws[i], accepted[i]) == (res.draws_attempted, res.accepted)

    def test_large_products_keep_the_bits_of_one_search(self, monkeypatch):
        # 600 x 120 with 16-row batches takes OpenBLAS's large-matrix path:
        # 16 rer and 16 ridge searches on four bases, one stacked product each
        designs = [standardize(a) for a in np.random.default_rng(71).standard_normal((4, 600, 120))]
        bases = [decompose(x) for x in designs]
        runs = [(designs[i % 4], bases[i % 4], calibrate(scheme, 0.05, bases[i % 4], n_cal=200), 16)
                for scheme in ("rer", "ridge") for i in range(16)]
        calls, product, reduction = [], balance._terms, balance._reduce

        def terms(u, rows, n_t, out=None):
            calls.append((len(u), u.shape[-1], rows.shape))
            return product(u, rows, n_t, out)

        def reduce(t, weights=None):
            calls[-1] += (weights is None,)
            return reduction(t, weights)

        monkeypatch.setattr(balance, "_terms", terms)
        monkeypatch.setattr(balance, "_reduce", reduce)
        streams = [RngStream(72).child(i) for i in range(len(runs))]
        out = np.empty((len(runs), 600), dtype=np.int8)
        result = engine._lockstep(600, self._searches(runs, streams), out)
        assert calls == [(16, 120, (16, 16, 600), True), (16, 120, (16, 16, 600), False)]
        self._assert_alone(runs, streams, out, *result)

    def test_one_round_mixes_k_and_batch_sizes(self, monkeypatch):
        # 8 pca searches at k = 2 and 3, half capped at 50 draws: the third
        # round draws 48 rows for some and the last 18 for others, and each
        # (k, rows) group of it is one stacked product
        n = 30
        (x, basis), *_ = self._designs(n)
        crits = {k: calibrate("pca", 0.001, basis, k=k) for k in (2, 3)}
        runs = [(x, basis, crits[k], m) for k in (2, 3) for m in (50, 1500)] * 2
        calls, product = [], balance._terms

        def spy(u, rows, n_t, out=None):
            calls.append((u.shape[-1], rows.shape[:2]))
            return product(u, rows, n_t, out)

        monkeypatch.setattr(balance, "_terms", spy)
        streams = [RngStream(73).child(i) for i in range(len(runs))]
        out = np.empty((len(runs), n), dtype=np.int8)
        result = engine._lockstep(n, self._searches(runs, streams), out)
        assert calls[:4] == [(2, (4, 16)), (3, (4, 16))] * 2
        assert calls[4:8] == [(2, (2, 18)), (3, (2, 18)), (2, (2, 48)), (3, (2, 48))]
        self._assert_alone(runs, streams, out, *result)

    @pytest.mark.parametrize("n", [30, 100])
    def test_batch_schedule_changes_no_search(self, monkeypatch, n):
        # Rows come in order from each search's stream however they are split
        # into batches, so the 16, 64, 256 schedule and the default end every
        # search alike, alone and in lockstep. The caps of 20, 50 and 200
        # draws end inside the second, third and fourth default batches.
        (x, basis), _, _, ridge = self._designs(n)
        crits = {"cr": calibrate("cr", 0.05, basis), "ridge": ridge[0.001],
                 "rer": calibrate("rer", 0.001, basis), "pca": calibrate("pca", 0.001, basis, k=2)}
        runs = [(x, basis, crits[scheme], m) for scheme in crits for m in (20, 50, 200, 1500)]
        runs += [(x, basis, c, 1500) for c in (calibrate("pca", 0.02, basis, k=3), ridge[0.02])]
        streams = [RngStream(74).child(i) for i in range(len(runs))]
        counts = _count_rows(monkeypatch)

        def ends():
            # each search's row, value bits, draws and flag, in lockstep and alone
            out = np.empty((len(runs), n), dtype=np.int8)
            values, draws, accepted = engine._lockstep(n, self._searches(runs, streams), out)
            alone = [rerandomize(x, c, s, m, basis=b) for (_, b, c, m), s in zip(runs, streams)]
            return (out.tobytes(), values.tobytes(), draws.tolist(), accepted.tolist(),
                    [(r.allocation.assignment.tobytes(), repr(r.criterion_value),
                      r.draws_attempted, r.accepted) for r in alone])

        default, rows = ends(), sum(counts)
        assert 0 < sum(default[3]) < len(runs)  # some searches accept, some exhaust
        counts.clear()
        monkeypatch.setattr(engine, "_BATCHES", (16, 64, 256))
        assert ends() == default
        assert sum(counts) > rows  # the old schedule ran, and drew more rows

    def test_rows_in_flight_stay_within_the_cap(self, monkeypatch):
        # 40 searches: chunks of 16 searches at 16 rows (twice), 5 at 48,
        # 1 at 256, then 32 at the 8 rows left of max_draws
        n = 30
        (x, basis), *_ = self._designs(n)
        crit = calibrate("pca", 0.001, basis, k=2)
        calls = []

        def counting(n, count, gens):
            calls.append((count, len(gens)))
            return half_split_matrix(n, count, gens)

        monkeypatch.setattr(engine, "half_split_matrix", counting)
        runs = [(crit, basis, RngStream(47).child(i).generator(), 600) for i in range(40)]
        engine._lockstep(n, runs, np.empty((40, n), dtype=np.int8))
        assert calls[:3] == [(16, 16), (16, 16), (16, 8)]
        assert all(count * m <= engine._BATCH_CAP for count, m in calls)
        assert {(48, 5), (256, 1)} <= set(calls) and calls[-1][0] == 8  # the last 8 of 600
