"""Shared domain types: covariate matrices, allocations, outcomes, RNG streams.

Everything here is immutable after construction. Operations are pure
functions of their inputs plus an explicitly passed random stream, so
concurrent use across independent streams is safe.

half_split_matrix draws fresh int8 rows from a numpy Generator. From a
fixed RngStream it gives that stream's leading rows bit-packed (one bit
per unit), as a read-only memo shared by every caller, so a caller that
works one block of rows at a time unpacks only that block.

RngStream.generator() builds one stream through numpy's SeedSequence;
_stream_keys and _generators build many streams of one seed with the same
output, keyed in one vectorized pass of the same hash.

write_csv and write_json are the only code in the package that writes an
output file, so all outputs format floats, empty cells and JSON alike.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

# Columns whose sample sd falls below this (relative to their magnitude)
# are treated as constant: centered only and excluded from rank downstream.
_CONSTANT_SD_TOL = 1e-12

# half_split_matrix draws its random keys in blocks of at most this many
# 64-bit words (512 KiB), whatever the number of rows asked for.
_KEY_BLOCK = 1 << 16


def _as_float_matrix(raw) -> np.ndarray:
    a = np.asarray(raw, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("covariate matrix must be a nonempty 2-d array")
    if not np.all(np.isfinite(a)):
        raise ValueError("covariate matrix contains non-finite entries")
    return a


@dataclass(frozen=True)
class CovariateMatrix:
    """A fixed n x d design matrix, n >= 2 and d >= 1; standardize gives
    one with centered, unit-variance columns (constant columns zeroed)."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.n < 2 or self.d < 1:
            raise ValueError("need n >= 2 and d >= 1")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Allocation:
    """Binary assignment vector W (1 = treatment); the group sizes follow
    from it."""

    assignment: np.ndarray
    n_treated: int = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.assignment)
        n_treated = int(np.count_nonzero(w == 1))
        if n_treated + np.count_nonzero(w == 0) != w.size:
            raise ValueError("assignment must be 0/1")
        object.__setattr__(self, "n_treated", n_treated)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def n_control(self) -> int:
        return self.n - self.n_treated

    @property
    def equal_split(self) -> bool:
        return self.n_treated == self.n_control


def make_allocation(assignment) -> Allocation:
    return Allocation(np.asarray(assignment, dtype=np.int8))


@dataclass(frozen=True)
class GroupMeans:
    treat_mean: np.ndarray
    control_mean: np.ndarray
    diff: np.ndarray


@dataclass(frozen=True)
class Outcome:
    """Observed outcomes y, one per unit."""

    y: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.y)):
            raise ValueError("outcomes must be finite")


def _mix64(x):
    # splitmix64 finalizer; good avalanche for deriving stream ids. Takes a
    # Python int or a uint64 array (which wraps where the int is masked).
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _child_ids(ids: np.ndarray, index: np.ndarray) -> np.ndarray:
    """RngStream.child's stream_id for uint64 arrays of parent ids (their
    low 64 bits) and child indexes, broadcast together."""
    return _mix64(ids ^ _mix64(index))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _stream_keys(seed: int, ids: np.ndarray) -> list[list[int]]:
    """The Philox key of RngStream(seed, i).generator() for every i of a 1-d
    uint64 array, in one vectorized pass.

    SeedSequence(seed, spawn_key=(i,)) hashes the seed's 32-bit words,
    zero-padded to 4, then i's one (i < 2**32) or two words, its hash
    constants advancing with every word. SeedSequence(seed).pool is the
    state after the seed's words, so only the id words are hashed here.
    """
    pool = np.random.SeedSequence(seed).pool[:, None]
    # the hash constants of the id words' 4 + 4 hashes, after 4 per seed word
    # (4 words at least), and of the 4 output words
    start = 4 * max(4, -(-int(seed).bit_length() // 32))
    ha = np.array([_INIT_A * pow(_MULT_A, start + j, 1 << 32) % (1 << 32) for j in range(9)],
                  dtype=np.uint32)[:, None]
    hb = np.array([_INIT_B * pow(_MULT_B, j, 1 << 32) % (1 << 32) for j in range(5)],
                  dtype=np.uint32)[:, None]
    for w, word in enumerate((ids & 0xFFFFFFFF, ids >> 32)):
        h = (word.astype(np.uint32) ^ ha[4 * w : 4 * w + 4]) * ha[4 * w + 1 : 4 * w + 5]
        h ^= h >> 16
        mixed = _MIX_L * pool - _MIX_R * h
        mixed ^= mixed >> 16
        pool = mixed if w == 0 else np.where(word != 0, mixed, pool)
    pool = (pool ^ hb[:4]) * hb[1:]
    pool ^= pool >> 16
    keys = pool[0::2].astype(np.uint64) | pool[1::2].astype(np.uint64) << 32
    return keys.T.tolist()


def _generators(keys) -> list[np.random.Generator]:
    """One Generator per key of _stream_keys, each equal to the stream's
    RngStream.generator() without building its SeedSequence."""
    return list(map(_keyed_generator(), keys))


@functools.cache
def _keyed_generator():
    # Built on first use, so that importing the package does not load
    # numpy.random.
    class Key(np.random.bit_generator.ISeedSequence):
        __slots__ = ("key",)

        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return lambda key: np.random.Generator(np.random.Philox(Key(key)))


@dataclass(frozen=True)
class RngStream:
    """Deterministic, addressable randomness.

    Identical (seed, stream_id) pairs reproduce identical draw sequences
    across runs and platforms; distinct stream_ids derived from one master
    seed are statistically independent. Backed by the Philox counter
    generator, so streams are cheap to create and never overlap.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.stream_id < 2**64:  # child ids are taken mod 2**64
            raise ValueError(f"stream_id must lie in [0, 2**64), got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id,)
        )
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "RngStream":
        """Derive an independent substream addressed by `index`."""
        return RngStream(self.seed, _mix64(self.stream_id ^ _mix64(index)))


def as_generator(rng) -> np.random.Generator:
    """Coerce an RngStream or numpy Generator to a Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or a numpy Generator")


def half_split_matrix(n: int, count: int, rng) -> np.ndarray:
    """count independent equal-split 0/1 rows of n units.

    Odd n puts the extra unit in treatment (ceil(n/2) ones per row).

    Each row marks the ceil(n/2) smallest of n random 64-bit keys taken
    from `bit_generator.random_raw`. The low bit_length(n-1) bits of
    every key are replaced by its column index, so keys never tie and
    every row is an exact split by construction. The subset is uniform
    over all ceil(n/2)-subsets except when two keys agree in all of
    their remaining high bits, an event of probability below
    n^2 / 2^(65 - bit_length(n-1)).

    Keys are drawn in blocks of at most `_KEY_BLOCK` words (one row per
    block when n is larger) and consumed in row-major order. So from one
    generator state the rows do not depend on how `count` is split across
    calls: one call of a + b rows equals a call of a rows followed by a
    call of b rows.

    A numpy Generator `rng` is advanced by the draw and gives a fresh
    count x n int8 matrix; a sequence of them gives each one's own rows in
    turn, (len(rng) * count) x n, marked in one pass. An RngStream `rng`
    means the first `count` rows of that stream, as np.packbits(rows,
    axis=1): a read-only count x ceil(n/8) uint8 memo, the same array on
    every call. The last 8 distinct (n, count, stream) calls are kept
    (1.25 MB for 10000 rows at n = 1000).
    """
    if isinstance(rng, RngStream):
        return _stream_rows(n, count, rng)
    return _split_rows(n, count, [rng] if isinstance(rng, np.random.Generator) else rng)


@functools.lru_cache(maxsize=8)  # the factorial grid calibrates ridge at 4 n
def _stream_rows(n: int, count: int, stream: RngStream) -> np.ndarray:
    # Read-only: every caller of the same (n, count, stream) shares it.
    # Filled one key block of rows at a time, so even a cold fill never
    # holds the unpacked count x n matrix.
    gen = stream.generator()
    packed = np.empty((count, -(-n // 8)), dtype=np.uint8)
    step = max(1, _KEY_BLOCK // n)
    for lo in range(0, count, step):
        rows = _split_rows(n, min(step, count - lo), [gen])
        packed[lo : lo + step] = np.packbits(rows, axis=1)
    packed.flags.writeable = False
    return packed


@functools.lru_cache(maxsize=8)
def _key_masks(n: int) -> tuple[np.uint64, np.ndarray]:
    """_split_rows' mask of a key's high bits and the column indexes that
    replace its low bits, for n units."""
    cols = np.arange(n, dtype=np.uint64)
    cols.flags.writeable = False
    return np.uint64((1 << 64) - (1 << (n - 1).bit_length())), cols


def _split_rows(n: int, count: int, gens) -> np.ndarray:
    k = (n + 1) // 2
    total = len(gens) * count
    out = np.empty((total, n), dtype=np.int8)
    flags = out.view(np.bool_)
    high, cols = _key_masks(n)
    step = max(1, _KEY_BLOCK // n)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        first, last = lo // count, (hi - 1) // count
        if first == last:  # a block of one generator's rows is used as drawn
            keys = gens[first].bit_generator.random_raw((hi - lo) * n).reshape(-1, n)
        else:
            keys = np.empty((hi - lo, n), dtype=np.uint64)
            for j in range(first, last + 1):
                a, b = max(lo, j * count), min(hi, (j + 1) * count)
                keys[a - lo : b - lo] = gens[j].bit_generator.random_raw((b - a) * n).reshape(-1, n)
        np.bitwise_and(keys, high, out=keys)
        np.bitwise_or(keys, cols, out=keys)
        kth = keys.copy()
        kth.partition(k - 1, axis=1)
        np.less_equal(keys, kth[:, k - 1 : k], out=flags[lo:hi])
    return out


def standardize(raw) -> CovariateMatrix:
    """Center each column and scale it to unit sample variance.

    Uses the n-1 divisor so downstream covariance formulas line up with
    cov(X) = X'X/(n-1). Columns with (near-)zero sd are set to zero.

    Holds about one design-sized array beyond `raw` at any time: the
    returned values, centered and then scaled in place.

    Args:
        raw: n x d array-like, n >= 2, finite entries.

    Returns:
        The standardized CovariateMatrix.
    """
    a = _as_float_matrix(raw)
    if a.shape[0] < 2:
        raise ValueError("need at least two rows to standardize")
    return CovariateMatrix(_standardize(a))


def _standardize(a: np.ndarray) -> np.ndarray:
    """standardize's values for every (n, d) matrix of a finite float
    (..., n, d) stack, n >= 2, each with the bits of a one-matrix call."""
    means = a.mean(axis=-2, keepdims=True)
    sds = a.std(axis=-2, ddof=1, keepdims=True)
    constant = sds <= _CONSTANT_SD_TOL * np.maximum(1.0, np.abs(means))
    safe = np.where(constant, 1.0, sds)
    vals = a - means
    vals /= safe
    np.copyto(vals, 0.0, where=constant)
    return vals


def group_means(x: CovariateMatrix, w: Allocation) -> GroupMeans:
    """Treatment and control covariate means and their difference.

    Matches (2/n) X'W for the treated mean scale when the split is exact.
    """
    if w.n != x.n:
        raise ValueError("allocation length disagrees with covariate rows")
    t, c = _arm_means(x.values, np.asarray(w.assignment, dtype=bool))
    return GroupMeans(treat_mean=t, control_mean=c, diff=t - c)


def sate_estimator(y: Outcome, w: Allocation) -> float:
    """Mean difference of observed outcomes, treated minus control."""
    if y.y.size != w.n:
        raise ValueError("outcome length disagrees with allocation")
    t, c = _arm_means(y.y, np.asarray(w.assignment, dtype=bool))
    return float(t - c)


def _arm_means(a: np.ndarray, treated: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Treated and control means of `a` over its unit axis: the last axis of
    the (..., n) bool mask `treated`, whose shape leads a's. group_means and
    sate_estimator are the one-mask case; every row of a stack of masks
    treats as many units, and gives the bits of a one-row call."""
    counts = treated.sum(axis=-1)
    lo, hi = counts.min(), counts.max()
    if lo == 0 or hi == treated.shape[-1]:
        raise ValueError("both groups must be nonempty")
    if lo != hi:
        raise ValueError("every allocation of a stack must treat as many units")

    def mean(mask):
        return a[mask].reshape(*mask.shape[:-1], -1, *a.shape[mask.ndim:]).mean(axis=mask.ndim - 1)

    return mean(treated), mean(~treated)


def sigma_factor(n_treated: int, n_control: int) -> float:
    """Per-sigma^2 scale of cov(xbar_T - xbar_C) in the spectral basis.

    Equals C_n = 4/(n^2 - n) at an exact split; the general form is the
    finite-population (without-replacement) covariance scale.
    """
    n = n_treated + n_control
    return (1.0 / n_treated + 1.0 / n_control) / (n - 1)


def read_covariate_csv(path) -> tuple[list[str], np.ndarray]:
    """Read a covariate CSV: header row of names, numeric cells, no gaps.

    Cells are plain decimal or scientific numbers, optionally quoted and
    padded with whitespace; at least two data rows (units) are needed, as
    for standardize. Blank lines, comments and `_` digit separators
    are rejected. The data lines are streamed from the open file into
    numpy's C reader, which rounds correctly, so every cell gives the same
    double as float(), and reading holds about one copy of the design: the
    parsed array, never the file's text. Only a failed parse reads the file
    again, to name the bad row. Errors name the path and the 1-based file
    row.
    """
    names, rows = [], 0

    def data_lines(fh):
        nonlocal rows
        for line in fh:
            rows += 1
            if line == "\n":  # loadtxt would skip a blank line, not reject it
                raise ValueError("blank line")
            yield line

    try:
        with open(path, encoding="utf-8") as fh:
            names = next(csv.reader([fh.readline().removesuffix("\n")]), [])
            lines = data_lines(fh)
            first = next(lines, None)
            if first is not None:  # loadtxt warns on an empty input
                a = np.loadtxt(
                    itertools.chain([first], lines), delimiter=",", quotechar='"',
                    comments=None, ndmin=2, dtype=float,
                )
                # loadtxt checks the widths of data rows only against each other.
                if a.shape != (rows, len(names)):
                    raise ValueError("data rows disagree with the header")
    except ValueError:  # a bad, blank or ragged row, or text that does not decode
        raise ValueError(f"{path}: {_first_bad_row(path, len(names))}") from None
    if rows < 2:  # a bad row is the more useful error, so it comes first
        raise ValueError(f"{path}: need a header row and at least two units")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: non-finite value")
    return names, a


def _first_bad_row(path, width: int) -> str:
    """Word the error for data lines that the C parse rejected.

    Only error reporting reads the file a second time, as one text (so a
    decoding error's start is its byte offset in the file, from which the
    row follows), and runs this per-cell loop. Cells that float() takes
    but the C parser does not (`_` separators, non-ASCII digits) count as
    non-numeric here too.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            row = fh.read(exc.start).count(b"\n") + 1
        return f"row {row}: bytes that do not decode as UTF-8 (offset {exc.start})"
    if lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines[1:], start=2):
        row = next(csv.reader([line]), [])
        if len(row) != width:
            return f"row {i} has {len(row)} cells, expected {width}"
        for cell in row:
            try:
                float(cell)
            except ValueError as exc:
                return f"non-numeric cell in row {i}: {exc}"
            if "_" in cell or not cell.strip().isascii():
                return f"non-numeric cell in row {i}: {cell!r}"
    raise AssertionError("the C parse failed on rows that all parse")


def write_allocation_csv(path, w: Allocation) -> None:
    """Write an allocation as unit_index,assignment rows."""
    assignment = np.asarray(w.assignment, dtype=int).tolist()
    write_csv(path, ["unit_index", "assignment"], enumerate(assignment))


def write_csv(path, header, rows) -> None:
    """Write one output CSV: the header row, then one line per row.

    None is an empty cell. Float cells, numpy floats too, are written by
    repr(float(v)), so they read back as the same double (nan, inf and -inf
    as those words), where the csv module would write "np.float64(...)".
    Other cells, such as ints and strings, go to the csv module as they are.
    """
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        out.writerows(
            ["" if v is None else repr(float(v)) if isinstance(v, float) else v for v in row]
            for row in rows
        )


def write_json(path, payload) -> None:
    """Write one output JSON file: sorted keys, 2-space indent, None as
    null, and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
