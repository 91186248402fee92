"""Allocation generation: complete randomization and the rejection loop.

There is one rejection loop, _lockstep, which runs many independent
searches in lockstep: rerandomize is its one-search case, "cr" included;
accepted_sample and the study kernel pass it a sample or replication stack.
Candidate draws are evaluated in batches but acceptance is decided in
draw order, so every search returns exactly the allocation a
draw-at-a-time loop would accept.

Distances come from balance's one kernel (balance._chunk_distances): the
searches of a chunk that share a kind of terms and a component count are
projected in one stacked product, each matrix of it laid out as the
search's own batch_distances call, so every distance keeps its bits.
The batch schedule is part of the bits: at
n >= 500 a row's distance depends on its batch's row count, through
OpenBLAS's small-matrix switch near rows * n * k = 10**6 (at 500 x 90,
k = 29, 16 to 64 rows give one set of bits, 96 to 256 another).

Batches hold 16, 16, 48 and then 256 rows. Rows drawn after the accepted
one are thrown away, each at the full cost of sampling and projecting
it, so small first batches suit the common case, where a criterion
accepts within a few dozen draws (the desk study draws 1.86 rows per row
used, 2.41 with one 64-row second batch). The cap bounds the waste of a
hard search (at p_a = 0.001 on a 500 x 90 design a 1024-row cap drew
1.35 rows per row used, the 256-row cap 1.09) and a lockstep round:
searches draw in chunks of at most 256 rows (16 searches at 16 rows, 5
at 48, 1 at 256).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .balance import BalanceCriterion, _chunk_distances
from .core import (
    Allocation, CovariateMatrix, RngStream, _child_ids, _generators, _stream_keys,
    as_generator, half_split_matrix,
)
from .spectral import SpectralBasis, decompose

# Rejection batch sizes; the last repeats (see the module docstring). The
# cap stays within balance's projection block, so each batch is projected
# in one step.
_BATCHES = (16, 16, 48, 256)
_BATCH_CAP = _BATCHES[-1]

DEFAULT_MAX_DRAWS = 10**6


@dataclass(frozen=True)
class RerandomizationResult:
    """Outcome of one rejection-sampling run.

    criterion_value is the final distance (None for complete
    randomization). When max_draws is exhausted the best-so-far
    allocation is returned with accepted=False; exhaustion is a soft
    failure, not an error.
    """

    allocation: Allocation
    criterion_value: float | None
    draws_attempted: int
    accepted: bool
    elapsed: float


def complete_randomization(n: int, rng, near_equal: bool = False) -> Allocation:
    """Uniform draw over all half-split assignments of n units.

    Odd n needs near_equal=True and assigns ceil(n/2) units to treatment.
    """
    if n < 2:
        raise ValueError("need at least two units")
    if n % 2 == 1:
        if not near_equal:
            raise ValueError("odd n requires near_equal=True")
        msg = "odd n: using a near-equal split, outside the exact-split theory"
        warnings.warn(msg, UserWarning, stacklevel=2)
    return Allocation(half_split_matrix(n, 1, as_generator(rng))[0])


def _check(n: int, criterion: BalanceCriterion, max_draws: int, near_equal: bool) -> None:
    if max_draws < 1:
        raise ValueError("max_draws must be at least 1")
    if criterion.scheme != "cr" and criterion.threshold is None:
        raise ValueError("criterion has no calibrated threshold")
    if n % 2 == 1 and not near_equal:
        raise ValueError("odd n requires near_equal=True")


def rerandomize(
    x: CovariateMatrix,
    criterion: BalanceCriterion,
    rng,
    max_draws: int = DEFAULT_MAX_DRAWS,
    basis: SpectralBasis | None = None,
    near_equal: bool = False,
) -> RerandomizationResult:
    """Draw complete randomizations until the criterion accepts one.

    Returns the first accepted allocation. If max_draws is exhausted the
    allocation with the smallest criterion value seen is returned with
    accepted=False. A "cr" criterion, and a degenerate one (constant
    distance), is decided on a single draw: complete randomization. A
    criterion that does not fit the basis is a ValueError.

    Args:
        x: standardized covariates.
        criterion: calibrated acceptance rule.
        rng: RngStream or numpy Generator driving the draws.
        max_draws: cap on candidate draws, >= 1.
        basis: optional precomputed spectral basis of x.
        near_equal: allow odd n (ceil(n/2) treated).
    """
    _check(x.n, criterion, max_draws, near_equal)
    gen, start = as_generator(rng), time.perf_counter()
    if basis is None and criterion.scheme != "cr":
        basis = decompose(x)
    row = np.empty(x.n, dtype=np.int8)
    value, draws, accepted = _lockstep(x.n, [(criterion, basis, gen, max_draws)], row[None])
    value = None if criterion.scheme == "cr" else float(value[0])
    elapsed = time.perf_counter() - start
    return RerandomizationResult(Allocation(row), value, int(draws[0]), bool(accepted[0]), elapsed)


def _lockstep(n: int, runs, out: np.ndarray):
    """The rejection loop, for independent searches on n units at once.

    runs holds one (criterion, basis, generator, max_draws) per search;
    out, a len(runs) x n int8 array, receives each search's accepted (or
    best) row. Returns arrays of each search's criterion value (0.0 for
    "cr"), draws attempted and accepted flag, each exactly what the search
    alone gives. A "cr" or degenerate rule is decided on its first draw.

    Every round, each live search draws its next batch, from one sampler
    call per chunk of _BATCH_CAP // batch searches (so at most _BATCH_CAP
    rows are in flight), and the chunk's distances, first hits and best
    rows are found together.
    """
    # caps[j]: the draws search j may make, once it accepts the draws it
    # made; values[j]: its best value so far. It is live while its cap lies
    # beyond the rows drawn.
    caps = [1 if c.scheme == "cr" or c.degenerate else m for c, _, _, m in runs]
    floor, caps = min(caps, default=0), np.array(caps)
    limit = np.array([np.inf if c.scheme == "cr" else c.threshold for c, _, _, _ in runs])
    distances = _chunk_distances(runs)
    values, at = np.full(len(runs), np.inf), np.arange(len(runs))
    live, done, batches = at, 0, iter(_BATCHES)
    while len(live):
        batch = next(batches, _BATCH_CAP)
        groups = {batch: live}
        if done + batch > floor:  # a search may reach its cap in this batch
            counts = np.minimum(caps[live] - done, batch)
            groups = {c: live[counts == c] for c in sorted(set(counts.tolist()))}
        for count, group in groups.items():
            step = max(1, _BATCH_CAP // count)
            for lo in range(0, len(group), step):
                chunk = group[lo : lo + step]
                js, i, lim = chunk.tolist(), at[: len(chunk)], limit[chunk]
                rows = half_split_matrix(n, count, [runs[j][2] for j in js]).reshape(-1, count, n)
                d = distances(js, rows)
                # every hit is raised to the limit, which no miss reaches, and
                # argmin takes the first minimum: the first hit, else the best
                pick = np.maximum(d, lim[:, None]).argmin(axis=1)
                value = d[i, pick]
                # a hit beats every earlier value, all above the limit
                better = value < values[chunk]
                take = chunk[better]
                values[take] = value[better]
                out[take] = rows[i[better], pick[better]]
                hit = value <= lim
                caps[chunk[hit]] = pick[hit] + (done + 1)
        done += batch
        live = live[caps[live] > done]
    return values, caps, values <= limit


def accepted_sample(
    x: CovariateMatrix,
    criterion: BalanceCriterion,
    rng: RngStream,
    n_accepted: int,
    max_draws: int = DEFAULT_MAX_DRAWS,
    basis: SpectralBasis | None = None,
) -> list[Allocation]:
    """n_accepted accepted allocations from independent substreams.

    Substream i is rng.child(i), so any prefix of the sample is
    reproducible independently of n_accepted. Raises if any substream
    exhausts max_draws without an acceptance, and before any draw if the
    rule is degenerate below its constant distance (it can accept nothing)
    or does not fit the basis.
    """
    if not isinstance(rng, RngStream):
        raise TypeError("accepted_sample needs an RngStream to derive substreams")
    if n_accepted < 0:
        raise ValueError("n_accepted must be nonnegative")
    _check(x.n, criterion, max_draws, False)
    if criterion.degenerate and criterion.threshold < x.n - 1:
        raise ValueError(criterion.note)
    if basis is None and criterion.scheme != "cr":
        basis = decompose(x)
    rows = np.empty((n_accepted, x.n), dtype=np.int8)
    ids = _child_ids(np.array([rng.stream_id], dtype=np.uint64),
                     np.arange(n_accepted, dtype=np.uint64))
    runs = [(criterion, basis, gen, max_draws) for gen in _generators(_stream_keys(rng.seed, ids))]
    _, _, accepted = _lockstep(x.n, runs, rows)
    if not accepted.all():
        raise RuntimeError(
            f"substream {accepted.argmin()} exhausted {max_draws} draws without acceptance"
        )
    return [Allocation(w) for w in rows]
