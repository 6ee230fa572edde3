"""Chinese restaurant process: assignment probabilities, prior, sampling.

Entities join classes sequentially; an existing class of size N_A attracts
the next entity with probability N_A / (N + gamma) and a fresh class opens
with probability gamma / (N + gamma), where N is the number of entities
seated so far.  The induced prior over partitions is exchangeable.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .core import DimensionError, Partition


def crp_assignment_probs(counts, gamma: float) -> np.ndarray:
    """Seating probabilities for the next entity.

    ``counts`` holds the current class occupancies (any order); the returned
    vector has one entry per existing class, in the same order, plus a final
    entry for opening a new class.  Entries are exact ratios and sum to 1.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1:
        raise DimensionError(f"counts must be 1-d, got shape {counts.shape}")
    if counts.size and (counts <= 0).any():
        raise ValueError("class occupancies must be positive")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    denom = counts.sum() + gamma
    return np.append(counts, gamma) / denom


def _log_prior_from_counts(counts: np.ndarray, gamma: float) -> float:
    n = int(counts.sum())
    k = counts.size
    return float(
        k * np.log(gamma)
        + gammaln(counts).sum()
        - (gammaln(gamma + n) - gammaln(gamma))
    )


def crp_log_prior(partition, gamma: float) -> float:
    """Log prior probability of a partition under the sequential process.

    Equal to the log of the product of sequential seating probabilities in
    index order; because the process is exchangeable this only depends on the
    multiset of class sizes:

        K log gamma + sum_A log (N_A - 1)!  -  log [ (gamma)_n ]

    with (gamma)_n the rising factorial over the n seated entities.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    return _log_prior_from_counts(Partition.from_assignments(partition).counts, gamma)


def sample_partition(n_entities: int, gamma: float, rng: np.random.Generator) -> Partition:
    """Draw a partition of ``n_entities`` from the prior.

    Sequential inverse-CDF sampling: one uniform draw per entity, compared
    against the cumulative seating probabilities.  The result is already in
    canonical form because new classes are opened in index order.
    """
    if n_entities < 1:
        raise ValueError("need at least one entity")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    labels = np.zeros(n_entities, dtype=np.int64)
    counts: list[float] = [1.0]
    for i in range(1, n_entities):
        probs = crp_assignment_probs(counts, gamma)
        choice = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        choice = min(choice, len(counts))  # guard against roundoff at the top end
        labels[i] = choice
        if choice == len(counts):
            counts.append(1.0)
        else:
            counts[choice] += 1.0
    return Partition(labels)
