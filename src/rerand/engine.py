"""Allocation generation: complete randomization and the rejection loop.

There is one rejection loop, _lockstep, which runs many independent
searches in lockstep: rerandomize is its one-search case, accepted_sample
and the study kernel pass it a whole sample or replication stack.
Candidate draws are evaluated in batches (one matrix product per search
and batch) but acceptance is decided in draw order, so every search
returns exactly the allocation a draw-at-a-time loop would accept.

Batches hold 16, 64 and then 256 rows each. Small first batches suit the
common case, where a criterion accepts within a few dozen draws. The cap
bounds the waste of a hard search: rows drawn after the accepted one are
thrown away, and a larger final batch throws more of them away at the
full cost of sampling and projecting each row (at p_a = 0.001 on a
500 x 90 design a 1024-row cap drew 1.35 rows per row used, the 256-row
cap 1.09). A smaller cap would pay more per-batch overhead than it saves.
The cap also bounds a round of lockstep searches: they draw in chunks of
at most 256 rows together (16 searches at 16 rows, 4 at 64, 1 at 256).
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .balance import BalanceCriterion, batch_distances
from .core import Allocation, CovariateMatrix, RngStream, as_generator, half_split_matrix
from .spectral import SpectralBasis, decompose

# Rejection batches grow 16, 64, 256, 256, ... (see the module docstring).
# The cap stays within balance's projection block, so each batch is
# projected in one step.
_BATCH_START = 16
_BATCH_CAP = 256

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
    accepted=False. A degenerate criterion (constant distance) is decided
    on a single draw and behaves like complete randomization.

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
    if criterion.scheme == "cr":
        w = complete_randomization(x.n, gen, near_equal=near_equal)
        return RerandomizationResult(w, None, 1, True, time.perf_counter() - start)
    row = np.empty(x.n, dtype=np.int8)
    value, draws, accepted = _lockstep(
        x.n, [(criterion, decompose(x) if basis is None else basis, gen, max_draws)], row[None]
    )
    elapsed = time.perf_counter() - start
    return RerandomizationResult(Allocation(row), value[0], draws[0], accepted[0], elapsed)


def _lockstep(n: int, runs, out: np.ndarray):
    """The rejection loop, for independent searches on n units at once.

    runs holds one (criterion, basis, generator, max_draws) per search;
    out, a len(runs) x n int8 array, receives each search's accepted (or
    best) row. Returns each search's criterion value (0.0 for "cr"), draws
    attempted and accepted flag, each exactly what the search alone gives.
    A "cr" or degenerate rule is decided on its first draw.

    Every round, each live search draws its next batch, from one sampler
    call per chunk of _BATCH_CAP // batch searches (so at most _BATCH_CAP
    rows are in flight), and the chunk's first hits and best rows are
    found together. Each search's batch goes through batch_distances on
    its own: a product stacked over searches can change the last bit.
    """
    caps = [1 if c.scheme == "cr" or c.degenerate else m for c, _, _, m in runs]
    limit = np.array([np.inf if c.scheme == "cr" else c.threshold for c, _, _, _ in runs])
    dist = [(lambda rows: np.zeros(len(rows))) if c.scheme == "cr"
            else functools.partial(batch_distances, c, b) for c, b, _, _ in runs]
    values, draws, accepted = [np.inf] * len(runs), list(caps), [False] * len(runs)
    live, done, batch = list(range(len(runs))), 0, _BATCH_START
    while live:
        groups, prev, live = {}, live, []
        for j in prev:
            groups.setdefault(min(batch, caps[j] - done), []).append(j)
        for count, group in groups.items():
            step = max(1, _BATCH_CAP // count)
            for chunk in (group[lo : lo + step] for lo in range(0, len(group), step)):
                rows = half_split_matrix(n, count, [runs[j][2] for j in chunk]).reshape(-1, count, n)
                d = np.array([dist[j](r) for j, r in zip(chunk, rows)])
                first = (d <= limit[chunk, None]).argmax(axis=1).tolist()
                for i, (j, a, b) in enumerate(zip(chunk, first, d.argmin(axis=1).tolist())):
                    hit = d[i, a] <= limit[j]
                    p = a if hit else b
                    if hit or d[i, p] < values[j]:
                        values[j] = float(d[i, p])
                        out[j] = rows[i, p]
                    if hit:
                        accepted[j], draws[j] = True, done + p + 1
                    elif done + count < caps[j]:
                        live.append(j)
        done += batch
        batch = min(batch * 4, _BATCH_CAP)
    return values, draws, accepted


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
    rule is degenerate below its constant distance (it can accept nothing).
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
    runs = [(criterion, basis, rng.child(i).generator(), max_draws) for i in range(n_accepted)]
    _, _, accepted = _lockstep(x.n, runs, rows)
    if not all(accepted):
        raise RuntimeError(
            f"substream {accepted.index(False)} exhausted {max_draws} draws without acceptance"
        )
    return [Allocation(w) for w in rows]
