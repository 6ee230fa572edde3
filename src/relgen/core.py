"""Shared types and probability kernels for relational generalization models.

A relational dataset is a directed binary matrix over n entities (diagonal
included).  Entities carry latent class assignments; class pairs carry link
probabilities.  Everything downstream — the nonparametric relational model,
the stored-system analogy model, and the hybrid — is built from the three
kernels here: the Bernoulli log-likelihood at fixed link probabilities, the
collapsed (Beta-marginal) log-likelihood, and weighted mixture prediction.

All probability accumulation is done in log space, and every probability that
reaches a logarithm is first clamped to [PROB_EPS, 1 - PROB_EPS].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import index

import numpy as np
from scipy.special import betaln

PROB_EPS = 1e-6

# Hyperparameters (Beta concentration, CRP concentration) live on a bounded
# range so improper-prior chains remain well defined.
HYPER_MIN = 1e-3
HYPER_MAX = 1e3


class DimensionError(ValueError):
    """Shapes, lengths, or label ranges do not line up."""


class ConfigError(ValueError):
    """A schedule or configuration value is unusable."""


class GenerationError(RuntimeError):
    """Rejection sampling failed to produce an admissible draw."""


class SplitError(ConfigError):
    """An observed/test split request cannot be satisfied."""


class DegenerateWeightsError(ValueError):
    """Every mixture component has zero posterior mass."""


class OptimizationError(RuntimeError):
    """Scalar search hit a non-finite objective value."""

    def __init__(self, message: str, tau: float):
        super().__init__(message)
        self.tau = tau


def _misfit(value, kind: type, depth: int = 0) -> str | None:
    """Why ``value`` is not a JSON ``kind`` (int, float, str or bool) inside
    ``depth`` levels of lists, or None: the one type rule for outside values.
    A numpy scalar is its Python value, a tuple or array a list; an int
    passes as a float, and only a bool as a bool."""
    if isinstance(value, np.generic):
        value = value.item()
    if depth:
        if not isinstance(value, (list, tuple, np.ndarray)):
            return f"a list, got {value!r}"
        return next(filter(None, (_misfit(v, kind, depth - 1) for v in value)), None)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        name = {int: "integer", float: "number", str: "string", bool: "boolean"}[kind]
        return f"a JSON {name}, got {value!r}"
    return None


def clamp_probs(p):
    """Clip probabilities into [PROB_EPS, 1 - PROB_EPS]."""
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def _as_assignments(z, ndim: int | None = 1) -> np.ndarray:
    """A `Partition` or integer labels as an int64 array: the one way labels
    enter.  The shape is checked first (``ndim`` None keeps any), then bool,
    float and other non-integer labels are refused; an empty sequence passes.
    `_check_assignments` then sets them against the data."""
    if isinstance(z, Partition):
        return z.assignments
    arr = np.asarray(z)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"assignments must be {ndim}-d, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError(f"class labels must be integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def canonical_labels(labels) -> np.ndarray:
    """Relabel classes densely, in order of first appearance.

    The entity with the lowest index in a class determines the class's rank,
    so any two label vectors inducing the same grouping map to the same
    canonical vector.
    """
    labels = _as_assignments(labels)
    mapping: dict[int, int] = {}
    out = np.empty_like(labels)
    for i, lab in enumerate(labels.tolist()):
        out[i] = mapping.setdefault(lab, len(mapping))
    return out


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RelationData:
    """A directed binary relation over n entities with an observation mask.

    ``cells`` holds the full n x n truth matrix (self-links on the diagonal
    are ordinary cells).  ``observed_mask`` marks the cells a learner may
    condition on; ``test_cells`` are distinct held-out (row, col) pairs,
    disjoint from the observed set, used only for scoring.
    """

    n_entities: int
    cells: np.ndarray
    observed_mask: np.ndarray
    test_cells: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = self.n_entities
        if n < 1:
            raise DimensionError(f"a relation needs at least one entity, got n={n}")
        cells, mask = np.asarray(self.cells), np.asarray(self.observed_mask)
        if cells.shape != (n, n) or mask.shape != (n, n):
            raise DimensionError(
                f"cells and observed_mask must be {n}x{n}, got "
                f"{cells.shape} and {mask.shape}"
            )
        # checked before the casts, which would wrap 257 to 1 and read 0.5 as 0 or True
        for name, values in (("cells", cells), ("observed_mask", mask)):
            if not np.isin(values, (0, 1)).all():
                raise ValueError(f"{name} must be binary")
        cells, mask = cells.astype(np.int8), mask.astype(bool)
        cells.setflags(write=False)
        mask.setflags(write=False)
        test = tuple((index(r), index(c)) for r, c in self.test_cells)
        seen = set()
        for r, c in test:
            if not (0 <= r < n and 0 <= c < n):
                raise DimensionError(f"test cell {(r, c)} out of range for n={n}")
            if mask[r, c]:
                raise ValueError(f"test cell {(r, c)} is also observed")
            if (r, c) in seen:
                raise ValueError(f"test cell {(r, c)} is listed twice")
            seen.add((r, c))
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "observed_mask", mask)
        object.__setattr__(self, "test_cells", test)

    @property
    def n_observed(self) -> int:
        return int(self.observed_mask.sum())

    @cached_property
    def observed_link_matrices(self) -> np.ndarray:
        """(2, n, n) float array: 1 at each observed link in matrix 0 and at
        each observed non-link in matrix 1, diagonal included.  Both
        samplers build their tallies from it."""
        obs = self.observed_mask
        return np.stack([obs & (self.cells == 1), obs & (self.cells == 0)]).astype(np.float64)


@dataclass(frozen=True, eq=False)
class Partition:
    """A grouping of entities into dense, canonically labeled classes.

    Labels run 0..n_classes-1 with no gaps, every class is occupied, and
    classes are numbered by their lowest member index.  ``counts``, the
    size of each class, is derived from the labels.
    """

    assignments: np.ndarray
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        z = _frozen_array(_as_assignments(self.assignments), np.int64)
        if z.size == 0:
            raise DimensionError("assignments must be a non-empty 1-d vector")
        if z.min() < 0:
            raise DimensionError("class labels must be nonnegative")
        # canonical: starts at 0, each label at most 1 above all before it (no gaps)
        if z[0] != 0 or (z[1:] > np.maximum.accumulate(z)[:-1] + 1).any():
            raise ValueError("class labels must be numbered in order of first appearance")
        counts = np.bincount(z)
        counts.setflags(write=False)
        object.__setattr__(self, "assignments", z)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_assignments(cls, labels) -> "Partition":
        """Build a canonical partition from any label vector."""
        return cls(canonical_labels(labels))

    @property
    def n_entities(self) -> int:
        return int(self.assignments.size)

    @property
    def n_classes(self) -> int:
        return int(self.counts.size)

    def key(self) -> tuple[int, ...]:
        """Hashable canonical form (for enumeration and counting)."""
        return tuple(self.assignments.tolist())


@dataclass(frozen=True, eq=False)
class StoredSystem:
    """A previously learned relational system, frozen for reuse.

    ``link_probs[a, b]`` is the probability that an entity of class a sends a
    link to an entity of class b; ``class_probs`` is the class prior used when
    mapping new entities onto the system.
    """

    name: str
    link_probs: np.ndarray
    class_probs: np.ndarray
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        link = np.array(self.link_probs, dtype=np.float64)
        cls = np.array(self.class_probs, dtype=np.float64)
        if link.ndim != 2 or link.shape[0] != link.shape[1]:
            raise DimensionError(f"link_probs must be square, got {link.shape}")
        m = link.shape[0]
        if m == 0:
            raise ConfigError("a stored system needs at least one class")
        if cls.shape != (m,):
            raise DimensionError(
                f"class_probs must have length {m}, got {cls.shape}"
            )
        # written so that a NaN fails each check
        if not ((link >= 0) & (link <= 1)).all():
            raise ValueError("link_probs entries must lie in [0, 1]")
        if not ((cls >= 0).all() and abs(cls.sum() - 1.0) <= 1e-9):
            raise ValueError("class_probs must be nonnegative and sum to 1")
        if self.class_names is not None and len(self.class_names) != m:
            raise DimensionError("class_names length must match class count")
        link.setflags(write=False)
        cls.setflags(write=False)
        object.__setattr__(self, "link_probs", link)
        object.__setattr__(self, "class_probs", cls)

    @property
    def n_classes(self) -> int:
        return int(self.class_probs.size)


@dataclass(frozen=True)
class Hyperparameters:
    """Beta concentration ``alpha`` and CRP concentration ``gamma``.

    The Beta prior on link probabilities is symmetric, so alpha is both of
    its shape parameters.  Both values are confined to [HYPER_MIN, HYPER_MAX].
    """

    alpha: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for label, value in (("alpha", self.alpha), ("gamma", self.gamma)):
            if not (HYPER_MIN <= value <= HYPER_MAX):
                raise ValueError(
                    f"{label}={value!r} outside [{HYPER_MIN}, {HYPER_MAX}]"
                )


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a non-empty 1-d float array, with the arithmetic
    of ``scipy.special.logsumexp`` (1.17) for real input, bit for bit.

    The entries tied at the maximum are held out of the shifted sum and
    counted instead; a non-finite maximum (all -inf, +inf or NaN) is the
    result itself.  Skips scipy's array-API dispatch, which costs far more
    than the arithmetic on the short vectors here.
    """
    top = a.max()
    if not np.isfinite(top):
        return float(top)
    ties = a == top
    shifted = np.exp(a - top)
    shifted[ties] = 0.0
    n_ties = np.count_nonzero(ties)
    return float(np.log1p(shifted.sum() / n_ties) + np.log(n_ties) + top)


def harmonic_mean_evidence(logliks) -> float:
    """Harmonic-mean estimate of the log marginal likelihood.

    Given per-draw log-likelihoods l_q from the posterior, the estimator is

        -( logsumexp(-l_q) - log Q )

    i.e. the reciprocal of the average reciprocal likelihood, in log space.
    Cheap but heavy-tailed; treat the result as a rough evidence signal.
    """
    ll = np.asarray(logliks, dtype=np.float64)
    if ll.ndim != 1 or ll.size == 0 or not np.isfinite(ll).all():
        raise ValueError("need a non-empty 1-d array of finite log-likelihoods")
    return float(-(_logsumexp(-ll) - np.log(ll.size)))


@dataclass(frozen=True, eq=False)
class PosteriorSamples:
    """Retained MCMC draws: one assignment vector and log-likelihood each.

    ``partitions`` is one read-only (draws x n) int64 array, row q being
    draw q's class label per entity; the draws enter by the one label rule
    (`_as_assignments`), and a negative label is refused.  For the
    nonparametric model the rows are canonical partitions and ``alphas``
    records the Beta concentration alongside each draw (the collapsed
    predictive rule needs it), each positive and finite.  For
    stored-system chains the rows index into the system's fixed class space
    and classes may be empty.  ``log_evidence``, the chain's log marginal
    likelihood, is `harmonic_mean_evidence` of ``logliks``, derived once.
    """

    partitions: np.ndarray
    logliks: np.ndarray
    alphas: np.ndarray | None = None
    log_evidence: float = field(init=False)

    def __post_init__(self):
        logliks = _frozen_array(self.logliks, np.float64)
        if len(self.partitions) == 0:
            raise ValueError("need at least one retained draw")
        try:
            parts = _frozen_array(_as_assignments(self.partitions, ndim=2), np.int64)
        except ValueError:  # numpy's error for ragged draws, or draws not 2-d
            raise DimensionError(
                "every draw must be a 1-d assignment vector of one length"
            ) from None
        if (parts < 0).any():
            raise DimensionError(f"class label out of range: min {int(parts.min())}")
        if logliks.shape != (len(parts),):
            raise DimensionError("one log-likelihood per draw required")
        if not np.isfinite(logliks).all():
            raise ValueError("draw log-likelihoods must be finite")
        object.__setattr__(self, "partitions", parts)
        object.__setattr__(self, "logliks", logliks)
        object.__setattr__(self, "log_evidence", harmonic_mean_evidence(logliks))
        if self.alphas is not None:
            alphas = _frozen_array(self.alphas, np.float64)
            if alphas.shape != (len(parts),):
                raise DimensionError("one alpha per draw required")
            if not (np.isfinite(alphas) & (alphas > 0)).all():
                raise ValueError("alpha draws must be positive and finite")
            object.__setattr__(self, "alphas", alphas)

    @property
    def n_draws(self) -> int:
        return len(self.partitions)

    def cell_classes(self, cells) -> tuple[np.ndarray, np.ndarray]:
        """Every draw's (row class, column class) at each (row, col) cell, as
        two (draws x cells) arrays; the cells are range-checked."""
        n = self.partitions.shape[1]
        cells = [(index(r), index(c)) for r, c in cells]
        rows = np.asarray([r for r, _ in cells], dtype=np.int64)
        cols = np.asarray([c for _, c in cells], dtype=np.int64)
        outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
        if outside.any():
            raise DimensionError(f"cell {cells[outside.argmax()]} out of range for n={n}")
        return self.partitions[:, rows], self.partitions[:, cols]

    def mean_over_draws(self, values) -> np.ndarray:
        """Mean over the draws of a (draws x cells) array, added in draw order
        (numpy's sum adds a one-cell column pairwise, which moves last bits)."""
        return np.cumsum(values, axis=0)[-1] / self.n_draws


def pair_counts(data: RelationData, assignments, n_classes: int):
    """Observed link/non-link counts for every ordered class pair.

    Returns ``(ones, zeros)`` stacked in one 2 x n_classes x n_classes float
    array, where entry (a, b) counts observed cells from class-a rows to
    class-b columns; labelings stacked along leading axes keep those axes.
    Every entry is a sum of small integers, so the matmuls are exact.
    """
    z = _as_assignments(assignments, ndim=None)
    _check_assignments(data, z, n_classes)
    onehot = (z[..., None, :, None] == np.arange(n_classes)).astype(np.float64)
    return onehot.swapaxes(-1, -2) @ data.observed_link_matrices @ onehot


def _check_assignments(data: RelationData, z: np.ndarray, n_classes: int):
    if z.shape[-1:] != (data.n_entities,):
        raise DimensionError(
            f"assignments of shape {z.shape} do not end in the entity count {data.n_entities}"
        )
    if z.size and (z.min() < 0 or z.max() >= n_classes):
        raise DimensionError(
            f"class label out of range: max {int(z.max())} with {n_classes} classes"
        )


def bernoulli_loglik(data: RelationData, assignments, link_probs) -> float:
    """Log-probability of the observed cells at fixed link probabilities.

    Each observed cell contributes log p or log(1 - p) where p is the link
    probability for the cell's ordered class pair, clamped away from {0, 1}
    so the result is always finite.
    """
    link = np.asarray(link_probs, dtype=np.float64)
    if link.ndim != 2 or link.shape[0] != link.shape[1]:
        raise DimensionError(f"link_probs must be square, got {link.shape}")
    ones, zeros = pair_counts(data, _as_assignments(assignments), link.shape[0])
    return float(_loglik_from_counts(ones, zeros, _log_tables(link)))


def _log_tables(link_probs) -> tuple[np.ndarray, np.ndarray]:
    """(log p, log(1 - p)) of the clamped link probabilities."""
    p = clamp_probs(link_probs)
    return np.log(p), np.log1p(-p)


def _loglik_from_counts(ones, zeros, log_tables):
    """bernoulli_loglik from class-pair link and non-link counts.  Leading
    batch axes are kept; each m x m sum runs in the same order as unbatched
    when the counts are in C order (a fancy-indexed gather may not be)."""
    log_link, log_nolink = log_tables
    return (ones * log_link + zeros * log_nolink).sum(axis=(-2, -1))


def collapsed_loglik(data: RelationData, partition, alpha: float) -> float:
    """Observed-data log-likelihood with link probabilities integrated out.

    Under a symmetric Beta(alpha, alpha) prior per ordered class pair, a pair
    with n1 observed links and n0 observed non-links contributes

        log B(alpha + n1, alpha + n0) - log B(alpha, alpha).

    Pairs with no observations contribute zero, so the empty mask gives 0.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    z = _as_assignments(partition)
    return _collapsed_from_counts(*pair_counts(data, z, int(z.max(initial=-1)) + 1), alpha)


def _collapsed_from_counts(ones, zeros, alpha: float) -> float:
    """collapsed_loglik from the class-pair link and non-link counts."""
    return float(np.sum(betaln(alpha + ones, alpha + zeros) - betaln(alpha, alpha)))


def predictive_prob(component_probs, weights):
    """Mixture predictive probability: sum_k w_k p_k, clamped.

    ``component_probs`` is one cell's K-vector, giving a float, or a
    (cells x K) array, giving one probability per row, from one matrix
    product.  Components with exactly zero weight are dropped before mixing,
    so a zero-weight component never perturbs the result.  NaN weights are
    refused.  When every weight is positive, ``p`` is mixed whole, in the
    layout the dropping gather would give it (column-major for cells x K),
    so the result has the same bits either way.
    """
    p = np.asarray(component_probs, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64, order="C")
    if w.ndim != 1 or p.ndim not in (1, 2) or p.shape[-1] != w.size:
        raise DimensionError(
            f"components must be 1-d or 2-d with one column per weight, "
            f"got {p.shape} and {w.shape}"
        )
    if w.size == 0:
        raise ValueError("need at least one component")
    lo = w.min()
    if not (lo >= 0.0 and abs(w.sum() - 1.0) <= 1e-6):
        raise ValueError("weights must be nonnegative and sum to 1")
    if lo > 0.0:
        mixed = np.asarray(p, order="F") @ w
    else:
        live = w > 0.0
        mixed = p[..., live] @ w[live]
    if p.ndim == 2:
        return clamp_probs(mixed)
    # np.clip's result, without its cost on a 0-d value; NaN passes through
    return min(max(float(mixed), PROB_EPS), 1.0 - PROB_EPS)
