import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from rerand.core import (
    _KEY_BLOCK,
    Allocation,
    CovariateMatrix,
    Outcome,
    RngStream,
    _arm_means,
    _child_ids,
    _generators,
    _stream_keys,
    as_generator,
    group_means,
    half_split_matrix,
    make_allocation,
    read_covariate_csv,
    sate_estimator,
    sigma_factor,
    standardize,
    _stream_rows,
    write_allocation_csv,
    write_csv,
    write_json,
)


def _plain_matrix(col):
    col = np.asarray(col, dtype=float).reshape(-1, 1)
    return CovariateMatrix(col)


class TestStandardize:
    def test_simple_column(self):
        x = standardize(np.array([[1.0], [2.0], [3.0], [4.0]]))
        col = x.values[:, 0]
        assert abs(col.mean()) < 1e-10
        assert abs(col.var(ddof=1) - 1.0) < 1e-8
        expected = np.array([-1.5, -0.5, 0.5, 1.5])
        np.testing.assert_allclose(col / col[3], expected / expected[3], rtol=1e-12)
        np.testing.assert_allclose(col, expected / expected.std(ddof=1), rtol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = standardize(rng.standard_normal((30, 4)))
        again = standardize(x.values)
        np.testing.assert_allclose(again.values, x.values, atol=1e-12)

    def test_constant_column(self):
        x = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
        np.testing.assert_array_equal(x.values[:, 0], 0.0)
        np.testing.assert_allclose(x.values[:, 1], [-1.0, 0.0, 1.0], rtol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            standardize(np.empty((0, 3)))
        with pytest.raises(ValueError):
            standardize(np.array([[1.0, np.nan], [2.0, 3.0]]))
        with pytest.raises(ValueError):
            standardize(np.array([[1.0, 2.0]]))  # single row
        for values in (np.zeros((1, 3)), np.zeros((3, 0)), np.zeros(3)):
            with pytest.raises(ValueError, match="need n >= 2 and d >= 1"):
                CovariateMatrix(values)

    def test_shape_metadata(self):
        x = standardize(np.arange(12.0).reshape(4, 3))
        assert (x.n, x.d) == (4, 3)

    def test_one_design_sized_temporary(self):
        # the returned values are the one design-sized array made; centering
        # into a second temporary before dividing would double the peak
        raw = np.random.default_rng(3).standard_normal((2000, 100))
        standardize(raw[:4])  # lazy imports out of the count
        tracemalloc.start()
        try:
            x = standardize(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * raw.nbytes
        # the same bits as dividing a centered copy
        means, sds = raw.mean(axis=0), raw.std(axis=0, ddof=1)
        assert x.values.tobytes() == ((raw - means) / sds).tobytes()


class TestGroupMeans:
    def test_hand_example(self):
        x = _plain_matrix([-1.3416, -0.4472, 0.4472, 1.3416])
        w = make_allocation([1, 1, 0, 0])
        gm = group_means(x, w)
        assert gm.diff[0] == pytest.approx(-1.7888, abs=1e-4)
        np.testing.assert_allclose(gm.diff, gm.treat_mean - gm.control_mean)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        x = standardize(rng.standard_normal((20, 3)))
        for _ in range(25):
            w = make_allocation(rng.permutation([1] * 10 + [0] * 10))
            d1 = group_means(x, w).diff
            d2 = group_means(x, make_allocation(1 - w.assignment)).diff
            np.testing.assert_allclose(d1 + d2, 0.0, atol=1e-12)

    def test_zero_column(self):
        x = _plain_matrix([0.0, 0.0, 0.0, 0.0])
        w = make_allocation([1, 0, 1, 0])
        assert group_means(x, w).diff[0] == 0.0

    def test_matches_matrix_form_at_equal_split(self):
        rng = np.random.default_rng(2)
        x = standardize(rng.standard_normal((16, 4)))
        w = make_allocation(rng.permutation([1] * 8 + [0] * 8))
        direct = group_means(x, w).diff
        matrix_form = (4.0 / 16) * x.values.T @ np.asarray(w.assignment, float)
        np.testing.assert_allclose(direct, matrix_form, atol=1e-12)

    def test_stacked_masks_give_the_bits_of_one_mask_calls(self):
        # the study kernel's stacked group means are group_means per row
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 12, 4))
        masks = np.array([rng.permutation([True] * 5 + [False] * 7) for _ in range(3)])
        t, c = _arm_means(a, masks)
        for r in range(3):
            gm = group_means(CovariateMatrix(a[r]), make_allocation(masks[r].astype(np.int8)))
            assert t[r].tobytes() == gm.treat_mean.tobytes()
            assert c[r].tobytes() == gm.control_mean.tobytes()
        uneven = np.array([[1] * 5 + [0] * 7, [1] * 6 + [0] * 6], dtype=bool)
        with pytest.raises(ValueError, match="treat as many units"):
            _arm_means(a[:2], uneven)

    def test_errors(self):
        x = _plain_matrix([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            group_means(x, make_allocation([1, 1, 1, 1]))
        with pytest.raises(ValueError):
            group_means(x, make_allocation([1, 0, 1]))


class TestSateEstimator:
    def test_examples(self):
        w = make_allocation([1, 0, 1, 0])
        assert sate_estimator(Outcome(np.array([1.0, 2.0, 3.0, 4.0])), w) == -1.0
        assert sate_estimator(Outcome(np.full(4, 3.7)), w) == 0.0
        w2 = make_allocation([1, 1, 0, 0])
        assert sate_estimator(Outcome(np.array([1.0, 1.0, 0.0, 0.0])), w2) == 1.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(10)
        w = make_allocation(rng.permutation([1] * 5 + [0] * 5))
        a = sate_estimator(Outcome(y), w)
        b = sate_estimator(Outcome(y + 11.5), w)
        assert a == pytest.approx(b, abs=1e-12)

    def test_empty_group(self):
        with pytest.raises(ValueError):
            sate_estimator(Outcome(np.ones(4)), make_allocation([0, 0, 0, 0]))


class TestAllocation:
    def test_invariants(self):
        w = make_allocation([1, 0, 1, 0, 1])
        assert (w.n_treated, w.n_control, w.n) == (3, 2, 5)
        assert not w.equal_split
        with pytest.raises(ValueError, match="assignment must be 0/1"):
            Allocation(np.array([1, 2, 0]))
        w = Allocation(np.array([1, 1, 0]))
        assert (w.n_treated, w.n_control, w.n, w.equal_split) == (2, 1, 3, False)

    def test_outcome_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Outcome(np.array([1.0, np.inf]))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 4).generator().standard_normal(8)
        b = RngStream(123, 4).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(8)
        b = RngStream(123, 1).generator().standard_normal(8)
        assert not np.allclose(a, b)

    def test_children_deterministic_and_distinct(self):
        root = RngStream(55)
        c1 = root.child(7)
        c2 = root.child(7)
        assert c1 == c2
        assert root.child(1) != root.child(2)
        x = c1.generator().standard_normal(1000)
        y = root.child(8).generator().standard_normal(1000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.12

    def test_negative_seed_is_named(self):
        # it constructed, and numpy's unnamed "expected non-negative integer"
        # came only at the first draw
        with pytest.raises(ValueError, match="seed must be nonnegative, got -4"):
            RngStream(-4)

    def test_stream_id_out_of_range_is_named(self):
        # 2**64 took the children of stream 0, and -1 failed only at the
        # first draw (or, in accepted_sample, ran as 2**64 - 1)
        for stream_id in (2**64, -1):
            with pytest.raises(ValueError, match=f"stream_id must lie in .*got {stream_id}"):
                RngStream(5, stream_id)
        assert RngStream(5, 2**64 - 1).child(1) != RngStream(5, 0).child(1)

    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(0, 2**140)),
        ids=st.lists(st.one_of(st.integers(0, 2**32), st.integers(0, 2**64 - 1)),
                     min_size=1, max_size=6),
    )
    # seeds of one, two, three and five 32-bit words; ids of one and two
    # words, at both edges of each
    @example(seed=0, ids=[0, 2**32 - 1, 2**32, 2**64 - 1])
    @example(seed=2**32, ids=[0, 2**32 - 1, 2**32, 2**64 - 1])
    @example(seed=2**64, ids=[0, 2**32 - 1, 2**32, 2**64 - 1])
    @example(seed=2**128 + 1, ids=[0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_keyed_streams_equal_the_one_stream_path(self, seed, ids):
        gens = _generators(_stream_keys(seed, np.array(ids, dtype=np.uint64)))
        for i, gen in zip(ids, gens, strict=True):
            ref = RngStream(seed, i).generator()
            raw = gen.bit_generator.random_raw(5)
            assert raw.tolist() == ref.bit_generator.random_raw(5).tolist()
            assert gen.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()

    @given(parent=st.integers(0, 2**64 - 1), index=st.integers(0, 2**64 - 1))
    @example(parent=2**64 - 1, index=2**64 - 1)
    def test_child_ids_equal_child(self, parent, index):
        ids = _child_ids(np.array([parent], dtype=np.uint64), np.array([index], dtype=np.uint64))
        assert ids.tolist() == [RngStream(3, parent).child(index).stream_id]

    def test_as_generator_rejects_a_bare_seed(self):
        with pytest.raises(TypeError, match="rng must be an RngStream or a numpy Generator"):
            as_generator(42)


class TestHalfSplitMatrix:
    @given(
        n=st.integers(2, 400),
        count=st.integers(0, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_are_exact_splits(self, n, count, seed):
        m = half_split_matrix(n, count, RngStream(seed).generator())
        assert m.dtype == np.int8 and m.shape == (count, n)
        assert np.all((m == 0) | (m == 1))
        np.testing.assert_array_equal(m.sum(axis=1), (n + 1) // 2)

    @given(
        n=st.integers(2, 400),
        a=st.integers(0, 200),
        b=st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_calls_equal_one_call(self, n, a, b, seed):
        whole = half_split_matrix(n, a + b, RngStream(seed).generator())
        gen = RngStream(seed).generator()
        parts = [half_split_matrix(n, a, gen), half_split_matrix(n, b, gen)]
        np.testing.assert_array_equal(whole, np.vstack(parts))

    def test_split_calls_across_key_blocks(self):
        # at n=1000 one key block holds 65 rows: these calls start and end
        # inside blocks, and the last two span many blocks
        counts = [1, 15, 64, 900, 2020]
        whole = half_split_matrix(1000, sum(counts), RngStream(71).generator())
        gen = RngStream(71).generator()
        parts = [half_split_matrix(1000, c, gen) for c in counts]
        np.testing.assert_array_equal(whole, np.vstack(parts))

    @given(
        n=st.integers(2, 400),
        count=st.integers(0, 300),
        runs=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    # one key block holds 65 rows at n = 1000: blocks that start, end and
    # lie inside one generator's rows, and blocks spanning several
    @example(n=1000, count=1, runs=5, seed=1)
    @example(n=1000, count=40, runs=4, seed=2)
    @example(n=1000, count=66, runs=3, seed=3)
    @example(n=1000, count=131, runs=2, seed=4)
    def test_generator_sequence_stacks_one_generator_calls(self, n, count, runs, seed):
        streams = [RngStream(seed, i) for i in range(runs)]
        gens = [s.generator() for s in streams]
        got = half_split_matrix(n, count, gens)
        want = [half_split_matrix(n, count, s.generator()) for s in streams]
        assert got.dtype == np.int8 and got.shape == (runs * count, n)
        np.testing.assert_array_equal(got, np.vstack(want))
        # each generator is left where its own call leaves it
        for gen, s in zip(gens, streams):
            ref = s.generator()
            half_split_matrix(n, count, ref)
            np.testing.assert_array_equal(
                gen.bit_generator.random_raw(4), ref.bit_generator.random_raw(4)
            )

    @given(
        n=st.integers(2, 400),
        count=st.integers(0, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    # one key block holds 9362 rows at n = 7, 163 at n = 400, 65 at n = 1000
    @example(n=7, count=_KEY_BLOCK // 7 + 1, seed=1)
    @example(n=400, count=2 * (_KEY_BLOCK // 400) + 3, seed=2)
    @example(n=1000, count=131, seed=3)
    def test_stream_form_equals_generator_form(self, n, count, seed):
        # the stream form is np.packbits of the Generator rows, read-only
        stream = RngStream(seed, n)
        want = np.packbits(half_split_matrix(n, count, stream.generator()), axis=1)
        for _ in range(2):  # a miss, then a hit
            got = half_split_matrix(n, count, stream)
            assert got.dtype == np.uint8 and got.shape == (count, -(-n // 8))
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            if count:
                with pytest.raises(ValueError):
                    got[0, 0] ^= 1

    def test_stream_cache_entry_is_read_only(self):
        packed = _stream_rows(33, 50, RngStream(75))
        assert packed.shape == (50, 5) and not packed.flags.writeable
        with pytest.raises(ValueError):
            packed[0, 0] = 0

    @pytest.mark.parametrize("n, count", [(33, 50), (7, _KEY_BLOCK // 7 + 1), (1000, 131)])
    def test_packed_form_is_packbits_of_the_rows(self, n, count):
        stream = RngStream(88, n)
        want = np.packbits(half_split_matrix(n, count, stream.generator()), axis=1)
        packed = half_split_matrix(n, count, stream)
        assert packed is _stream_rows(n, count, stream)  # the memo, not a copy
        assert packed.shape == (count, -(-n // 8)) and not packed.flags.writeable
        assert packed.tobytes() == want.tobytes()

    def test_cold_stream_fill_memory(self):
        # The memo is filled one key block (65 rows at n = 1000) at a time, so
        # the 10000 x 1000 int8 matrix (10 MB) never exists: only the 1.25 MB
        # of packed rows and one block's keys.
        fill = _stream_rows.__wrapped__  # a cold fill, whatever the cache holds
        fill(1000, 10, RngStream(89))  # lazy imports out of the count
        tracemalloc.start()
        try:
            packed = fill(1000, 10000, RngStream(89))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert packed.nbytes == 1_250_000 and peak < 3e6

    @pytest.mark.parametrize("n, seed", [(6, 72), (7, 73)])
    def test_uniform_over_all_splits(self, n, seed):
        # 20 equal splits of 6 units, 35 near-equal splits of 7 units
        rows = half_split_matrix(n, 60000, RngStream(seed).generator())
        codes = rows.astype(np.int64) @ (1 << np.arange(n))
        _, counts = np.unique(codes, return_counts=True)
        assert counts.size == math.comb(n, (n + 1) // 2)
        assert stats.chisquare(counts).pvalue > 0.001


class TestSigmaFactor:
    def test_equal_split_matches_cn(self):
        n = 100
        assert sigma_factor(50, 50) == pytest.approx(4.0 / (n * n - n), rel=1e-14)

    def test_near_equal(self):
        assert sigma_factor(3, 2) == pytest.approx((1 / 3 + 1 / 2) / 4, rel=1e-14)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cov.csv"
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["a", "b"])
            out.writerows([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        names, values = read_covariate_csv(path)
        assert names == ["a", "b"]
        np.testing.assert_allclose(values, [[1, 2], [3, 4], [5, 6]])

    def test_malformed(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            read_covariate_csv(ragged)
        nonnum = tmp_path / "nonnum.csv"
        nonnum.write_text("a\nok\n")
        with pytest.raises(ValueError):
            read_covariate_csv(nonnum)
        empty = tmp_path / "empty.csv"
        empty.write_text("a\n")
        with pytest.raises(ValueError):
            read_covariate_csv(empty)

    @staticmethod
    def _read(tmp_path, text):
        path = tmp_path / "cov.csv"
        path.write_bytes(text.encode())
        return read_covariate_csv(path)

    @staticmethod
    def _rejects(tmp_path, text, *fragments):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(), pytest.raises(ValueError) as info:
            warnings.simplefilter("error")  # no stray numpy warning first
            read_covariate_csv(path)
        msg = str(info.value)
        assert msg.startswith(f"{path}: ")
        for fragment in fragments:
            assert fragment in msg

    def test_quoted_cells(self, tmp_path):
        names, values = self._read(tmp_path, 'a,"b"\n"1.5","2"\n3,"-4e2"\n')
        assert names == ["a", "b"]
        np.testing.assert_array_equal(values, [[1.5, 2.0], [3.0, -400.0]])

    def test_line_endings(self, tmp_path):
        for text in ("a,b\r\n1,2\r\n3,4\r\n", "a,b\n1,2\n3,4", "a,b\r\n1,2\r\n3,4"):
            names, values = self._read(tmp_path, text)
            assert names == ["a", "b"]
            np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])

    def test_whitespace_around_cells(self, tmp_path):
        names, values = self._read(tmp_path, "a,b\n 1 , 2\n\t3,4 \n")
        assert names == ["a", "b"]
        np.testing.assert_array_equal(values, [[1.0, 2.0], [3.0, 4.0]])

    def test_single_row_and_single_column(self, tmp_path):
        self._rejects(tmp_path, "a,b,c\n1,2,3\n", "header row and at least two units")
        assert self._read(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")[1].shape == (2, 3)
        assert self._read(tmp_path, "a\n1\n2\n3\n")[1].shape == (3, 1)

    def test_hash_is_not_a_comment(self, tmp_path):
        self._rejects(tmp_path, "a,b\n1,#2\n", "non-numeric", "row 2")
        self._rejects(tmp_path, "a,b\n1,2\n# note\n", "row 3")

    # 1000 good data rows: the file rows 2 to 1001
    _LONG = "a,b\n" + "1.5,-2e3\n" * 1000

    def test_blank_lines_rejected(self, tmp_path):
        self._rejects(tmp_path, "a\n1\n\n2\n", "row 3")
        self._rejects(tmp_path, "a\n1\n2\n\n", "row 4")
        self._rejects(tmp_path, "a,b\n1,2\n\n", "row 3")
        self._rejects(tmp_path, "a\n\n", "row 2")
        self._rejects(tmp_path, self._LONG + "\n3,4\n", "row 1002 has 0 cells")
        self._rejects(tmp_path, self._LONG + "\n", "row 1002 has 0 cells")

    def test_ragged_and_non_numeric_rows_named(self, tmp_path):
        self._rejects(tmp_path, "a,b\n1,2\n3\n", "row 3", "1 cells, expected 2")
        self._rejects(tmp_path, "a,b\n1,2\n3,4,5\n", "row 3", "3 cells, expected 2")
        self._rejects(tmp_path, "a,b\n1,2\n3,4\n5,x\n", "non-numeric", "row 4")
        self._rejects(tmp_path, self._LONG + "3,4,5\n6,7\n", "row 1002 has 3 cells, expected 2")
        self._rejects(tmp_path, self._LONG + "3,4\n5,x\n", "non-numeric cell in row 1003:")

    def test_undecodable_bytes_named_by_row_and_offset(self, tmp_path):
        # the decode error used to escape with neither the path nor the row
        path = tmp_path / "bad.csv"
        long = self._LONG.encode()
        for data, row, offset in (
            (b"a,\xffb\n1,2\n3,4\n", 1, 2),
            (long + b"3,4\n5,\xff\n", 1003, len(long) + 6),
            (b"a,b\r\n1,2\r\n3,\xff4\r\n", 3, 12),
        ):
            path.write_bytes(data)
            with pytest.raises(ValueError) as info:
                read_covariate_csv(path)
            assert str(info.value) == (
                f"{path}: row {row}: bytes that do not decode as UTF-8 (offset {offset})"
            )

    def test_header_width_must_match_data(self, tmp_path):
        self._rejects(tmp_path, "a,b,c\n1,2\n3,4\n", "row 2", "2 cells, expected 3")
        self._rejects(tmp_path, "a\n1,2\n3,4\n", "row 2", "2 cells, expected 1")

    def test_header_only_or_empty(self, tmp_path):
        self._rejects(tmp_path, "a,b\n", "header row")
        self._rejects(tmp_path, "a,b", "header row")
        self._rejects(tmp_path, "", "header row")
        # a bad single row is named before the missing second unit
        self._rejects(tmp_path, "a,b\n1,x\n", "non-numeric", "row 2")

    def test_non_finite_rejected(self, tmp_path):
        for cell in ("nan", "inf", "-inf", "1e400"):
            self._rejects(tmp_path, f"a,b\n1,2\n3,{cell}\n", "non-finite value")

    def test_digit_separators_rejected(self, tmp_path):
        # float() takes "1_000"; the reader does not (see README, allocate)
        self._rejects(tmp_path, "a,b\n1,2\n1_000,3\n", "non-numeric", "row 3")
        self._rejects(tmp_path, "a\n1\n\u0661\n", "non-numeric", "row 3")

    def test_read_holds_about_one_copy_of_the_design(self, tmp_path):
        # the lines are streamed into the parser: neither the file's text
        # (4 MB here, 2.5 times the array) nor a list of its lines is held
        values = np.random.default_rng(4).standard_normal((2000, 100))
        path = tmp_path / "design.csv"
        self._write_cells(path, [[repr(float(v)) for v in row] for row in values])
        self._read(tmp_path, "a\n1\n2\n")  # lazy imports out of the count
        tracemalloc.start()
        try:
            got = read_covariate_csv(path)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == values.tobytes()
        assert peak <= 1.5 * values.nbytes + 2**20

    @staticmethod
    def _write_cells(path, cells):
        lines = ["x" + ",x".join(map(str, range(len(cells[0]))))]
        lines += [",".join(row) for row in cells]
        path.write_text("\n".join(lines) + "\n")

    @given(
        values=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 8), st.integers(1, 8)),  # two units or more
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(values=np.array([[0.0, -0.0], [5e-324, -2.2250738585072014e-308]]))
    @example(values=np.array([[1.7976931348623157e308], [-1e300], [1e-300]]))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("csv") / "cov.csv"
        self._write_cells(path, [[repr(float(v)) for v in row] for row in values])
        names, got = read_covariate_csv(path)
        assert len(names) == values.shape[1]
        assert got.shape == values.shape
        assert got.tobytes() == values.tobytes()

    @given(
        values=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 6), st.integers(1, 6)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ),
        digits=st.integers(0, 25),
    )
    def test_parse_equals_float_per_cell(self, tmp_path_factory, values, digits):
        # Cells written with too few or too many digits must still round
        # exactly as float() rounds the same text.
        cells = [[f"{v:.{digits}e}" for v in row] for row in values]
        path = tmp_path_factory.mktemp("csv") / "cov.csv"
        self._write_cells(path, cells)
        expected = np.array([[float(c) for c in row] for row in cells])
        assume(np.all(np.isfinite(expected)))  # rounding up can overflow
        assert read_covariate_csv(path)[1].tobytes() == expected.tobytes()

    def test_allocation_output(self, tmp_path):
        path = tmp_path / "alloc.csv"
        write_allocation_csv(path, make_allocation([1, 0, 0, 1]))
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["unit_index", "assignment"]
        assert rows[1:] == [["0", "1"], ["1", "0"], ["2", "0"], ["3", "1"]]


class TestWriters:
    def test_csv_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [
            (None, math.nan, math.inf),
            (-math.inf, np.float64(0.1 + 0.2), 0.5),
            (7, np.int64(-3), np.int8(4)),
            ("x,y", "plain", None),
        ]
        write_csv(path, ["a", "b", "c"], rows)
        assert path.read_bytes() == (
            b"a,b,c\r\n"
            b",nan,inf\r\n"
            b"-inf,0.30000000000000004,0.5\r\n"
            b"7,-3,4\r\n"
            b'"x,y",plain,\r\n'
        )
        with open(path, newline="") as fh:
            back = list(csv.reader(fh))
        assert float(back[2][1]) == 0.1 + 0.2
        assert back[4] == ["x,y", "plain", ""]

    def test_json_layout(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": None, "a": [1, np.float64(2.5)], "c": {"z": 1, "y": "s"}})
        assert path.read_text() == (
            '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": null,\n'
            '  "c": {\n    "y": "s",\n    "z": 1\n  }\n}\n'
        )
