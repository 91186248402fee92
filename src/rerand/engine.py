"""Allocation generation: complete randomization and the rejection loop.

Candidate draws are evaluated in batches (one matrix product per batch)
but acceptance is decided in draw order, so the returned allocation is
exactly the one a draw-at-a-time loop would accept.

Batches hold 16, 64 and then 256 rows each. Small first batches suit the
common case, where a criterion accepts within a few dozen draws. The cap
bounds the waste of a hard search: rows drawn after the accepted one are
thrown away, and a larger final batch throws more of them away at the
full cost of sampling and projecting each row (at p_a = 0.001 on a
500 x 90 design a 1024-row cap drew 1.35 rows per row used, the 256-row
cap 1.09). A smaller cap would pay more per-batch overhead than it saves.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .balance import BalanceCriterion, batch_distances
from .core import (
    Allocation,
    CovariateMatrix,
    RngStream,
    as_generator,
    half_split_matrix,
)
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
        warnings.warn(
            "odd n: using a near-equal split, outside the exact-split theory",
            UserWarning,
            stacklevel=2,
        )
    return Allocation(half_split_matrix(n, 1, as_generator(rng))[0])


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
    if max_draws < 1:
        raise ValueError("max_draws must be at least 1")
    if criterion.scheme != "cr" and criterion.threshold is None:
        raise ValueError("criterion has no calibrated threshold")
    n = x.n
    if n % 2 == 1 and not near_equal:
        raise ValueError("odd n requires near_equal=True")
    gen = as_generator(rng)

    start = time.perf_counter()
    if criterion.scheme == "cr":
        w = complete_randomization(n, gen, near_equal=near_equal)
        return RerandomizationResult(w, None, 1, True, time.perf_counter() - start)

    if basis is None:
        basis = decompose(x)
    if criterion.degenerate:
        # every draw has the same distance, so the first one decides
        max_draws = 1

    best_value = np.inf
    best_row = None
    done = 0
    batch = _BATCH_START
    while done < max_draws:
        count = min(batch, max_draws - done)
        rows = half_split_matrix(n, count, gen)
        dists = batch_distances(criterion, basis, rows)
        hits = np.nonzero(dists <= criterion.threshold)[0]
        if hits.size:
            first = int(hits[0])
            # copy, so the returned allocation does not keep the batch alive
            return RerandomizationResult(
                Allocation(rows[first].copy()),
                float(dists[first]),
                done + first + 1,
                True,
                time.perf_counter() - start,
            )
        local_best = int(np.argmin(dists))
        if dists[local_best] < best_value:
            best_value = float(dists[local_best])
            best_row = rows[local_best].copy()
        done += count
        batch = min(batch * 4, _BATCH_CAP)

    return RerandomizationResult(
        Allocation(best_row),
        best_value,
        max_draws,
        False,
        time.perf_counter() - start,
    )


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
    exhausts max_draws without an acceptance.
    """
    if not isinstance(rng, RngStream):
        raise TypeError("accepted_sample needs an RngStream to derive substreams")
    if n_accepted < 0:
        raise ValueError("n_accepted must be nonnegative")
    if basis is None and criterion.scheme != "cr":
        basis = decompose(x)
    out = []
    for i in range(n_accepted):
        res = rerandomize(x, criterion, rng.child(i), max_draws, basis=basis)
        if not res.accepted:
            raise RuntimeError(
                f"substream {i} exhausted {max_draws} draws without acceptance"
            )
        out.append(res.allocation)
    return out
