"""Nonparametric relational model: collapsed Metropolis-within-Gibbs sampling.

The model couples a CRP prior over entity partitions with symmetric
Beta-Bernoulli link probabilities per ordered class pair.  Link probabilities
are integrated out analytically, so the chain's state is just the partition
plus the two concentration hyperparameters.  Each sweep reassigns every
entity by its collapsed conditional, then updates alpha (Beta concentration,
power-law prior ~ alpha^(-5/2)) and gamma (CRP concentration, Exponential(1)
prior) by log-normal random-walk Metropolis steps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy.special import betaln

from .core import (
    HYPER_MAX,
    HYPER_MIN,
    ConfigError,
    DimensionError,
    Hyperparameters,
    Partition,
    PosteriorSamples,
    RelationData,
    _collapsed_from_counts,
    canonical_labels,
    clamp_probs,
    pair_counts,
)
from .crp import _log_prior_from_counts

MH_PROPOSAL_SCALE = 0.5


@dataclass(frozen=True)
class McmcSchedule:
    """Sweep counts for one chain: burn-in, retained draws, thinning, seed."""

    burn_in: int = 500
    n_retained: int = 100
    thinning: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.burn_in < 0:
            raise ConfigError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.n_retained < 1 or self.thinning < 1:
            raise ConfigError(
                "retained draw count and thinning must both be >= 1 "
                f"(got {self.n_retained} and {self.thinning})"
            )

    @property
    def total_sweeps(self) -> int:
        return self.burn_in + self.n_retained * self.thinning

    @property
    def retained_sweeps(self) -> range:
        """Indices of the sweeps whose state is kept: every ``thinning``-th
        after burn-in, ending with the last sweep."""
        return range(self.burn_in + self.thinning - 1, self.total_sweeps, self.thinning)

    def with_seed(self, seed: int) -> "McmcSchedule":
        return replace(self, seed=seed)


class _ChainState:
    """Working partition plus per-class-pair observed link/non-link counts.

    ``counts`` is the stacked (2, k+1, k+1) link/non-link table; its last row
    and column are an always-empty fresh class, so a birth is one pad.
    ``log_seats`` is log [class sizes..., gamma].  ``onehot`` has a column
    for every class the chain can open and, last, a row of ones that gathers
    each entity's self-cell into every class (an entity's own one-hot row
    is zero while its tallies are gathered, so only that row reads it).
    """

    __slots__ = ("z", "sizes", "log_seats", "counts", "onehot", "tallies")

    def __init__(self, data: RelationData, partition: Partition):
        if partition.n_entities != data.n_entities:
            raise DimensionError("partition size does not match entity count")
        n, k = partition.n_entities, partition.n_classes
        self.z: list[int] = partition.assignments.tolist()
        self.sizes: list[int] = partition.counts.tolist()
        self.log_seats = np.log(np.append(partition.counts, 1.0))
        self.counts = np.zeros((2, k + 1, k + 1))
        self.counts[:, :k, :k] = pair_counts(data, partition.assignments, k)
        self.onehot = np.zeros((n + 1, n + 1))
        self.onehot[np.arange(n), partition.assignments] = 1.0
        self.onehot[n] = 1.0
        # tallies[i] @ onehot gives, per class, entity i's observed row,
        # column and joint (row + column + self-cell) links, then the same
        # for non-links
        M = data.observed_link_matrices
        self.tallies = np.zeros((n, 6, n + 1))
        self.tallies[:, 0::3, :n] = M.transpose(1, 0, 2)
        self.tallies[:, 1::3, :n] = M.transpose(2, 0, 1)
        self.tallies[:, 2::3, :n] = self.tallies[:, 0::3, :n] + self.tallies[:, 1::3, :n]
        self.tallies[:, 2::3, n] = np.diagonal(M, axis1=1, axis2=2).T

    @property
    def class_counts(self) -> np.ndarray:
        return self.counts[:, :-1, :-1]

    def to_partition(self) -> Partition:
        return Partition.from_assignments(canonical_labels(self.z))


@lru_cache(maxsize=16)
def _kernel_layout(slots: int) -> tuple:
    """Index arrays of the sweep kernel for k = slots - 1 classes plus the
    fresh one.

    The kernel takes one ``betaln`` over a (2, 3k^2 + k + 2) argument array.
    Each entry is alpha plus a class-pair count, picked from the flat counts
    by ``gather``, plus one of the detached entity's tallies, picked by
    ``spread`` (the fresh slot's row tally is always 0).  The entries, for
    classes a and b:

    - base (a, b): the block's counts;
    - row (a, b): the counts plus row tally b, or the joint tally on the
      diagonal (the entity placed in a);
    - col (a, b), a != b: block (b, a)'s counts plus column tally b;
    - fresh: each row tally, each column tally, the self-cell, an empty block.

    Row c of ``order`` lists candidate c's entries, added ones first, then
    the ones it takes away (base (c, .) and (., c), or 2k + 1 empty blocks),
    each half padded with the empty block; so ``values[order] @ signs`` is
    every candidate's collapsed log-likelihood change.
    """
    k = slots - 1
    kk = k * k
    a, b = np.divmod(np.arange(kk), k)
    off = np.flatnonzero(a != b)
    classes = np.arange(k)
    col_tally, joint_tally = slots, 2 * slots
    gather = np.r_[
        a * slots + b, a * slots + b, b[off] * slots + a[off], [k * slots + k] * (2 * k + 2)
    ]
    spread = np.r_[
        np.full(kk, k), np.where(a == b, joint_tally + a, b), col_tally + b[off],
        classes, col_tally + classes, joint_tally + k, k,
    ]
    half = 2 * k + 1
    row0, col0, fresh0 = kk, 2 * kk, 3 * kk - k
    order = np.full((slots, 2 * half), fresh0 + half)
    for c in range(k):
        order[c, :half - 2] = np.r_[row0 + c * k + classes, col0 + c * (k - 1) + classes[:-1]]
        order[c, half:-2] = np.r_[c * k + classes, np.delete(classes, c) * k + c]
    order[k, :half] = fresh0 + np.arange(half)
    layout = (
        np.stack([gather, gather + slots * slots]),
        np.stack([spread, spread + 3 * slots]),
        order,
        np.repeat([1.0, -1.0], half),
    )
    for shared in layout:
        shared.setflags(write=False)
    return layout


def _detach(state: _ChainState, i: int) -> np.ndarray:
    """Remove entity i from the state.  Returns its (6, slots) tallies:
    rows are row, column and joint links, then row, column and joint
    non-links; columns are the classes left and the fresh slot, whose joint
    tallies are the self-cell alone."""
    old = state.z[i]
    state.sizes[old] -= 1
    state.onehot[i, old] = 0.0
    closed = not state.sizes[old]
    if closed:
        # the class's row and column hold only the entity's own cells
        slots = state.counts.shape[1]
        state.counts = np.delete(np.delete(state.counts, old, 1), old, 2)
        state.log_seats = np.delete(state.log_seats, old)
        del state.sizes[old]
        state.onehot[:, old:slots - 1] = state.onehot[:, old + 1:slots]
        state.z = [c - (c > old) for c in state.z]
    tallies = state.tallies[i].dot(state.onehot[:, :state.counts.shape[1]])
    if not closed:
        # updated through named views: `counts[:, old] -= x` would also
        # write each view back into the counts, at a cost per entity
        row = state.counts[:, old]
        row -= tallies[0::3]
        col = state.counts[:, :, old]
        col -= tallies[1::3]
        cell = state.counts[:, old, old]
        cell -= tallies[2::3, -1]
        state.log_seats[old] = math.log(state.sizes[old])
    return tallies


def _attach(state: _ChainState, i: int, choice: int, tallies: np.ndarray) -> None:
    slots = tallies.shape[1]
    if choice == slots - 1:
        # the fresh slot becomes a class; open a new one behind it
        state.counts = np.pad(state.counts, ((0, 0), (0, 1), (0, 1)))
        state.log_seats = np.append(state.log_seats, 0.0)
        state.sizes.append(0)
    row = state.counts[:, choice, :slots]
    row += tallies[0::3]
    col = state.counts[:, :slots, choice]
    col += tallies[1::3]
    cell = state.counts[:, choice, choice]
    cell += tallies[2::3, -1]
    state.sizes[choice] += 1
    state.log_seats[choice] = math.log(state.sizes[choice])
    state.onehot[i, choice] = 1.0
    state.z[i] = choice


def _sample_logweights(logw: list, u: float) -> int:
    """Index drawn with probability proportional to exp(logw), given a uniform u.

    Returns the first index whose running weight sum exceeds ``u`` times the
    total; when rounding leaves none, the last index with positive weight.
    """
    top = max(logw)
    weights = [math.exp(w - top) for w in logw]
    running = list(accumulate(weights))
    k = bisect_right(running, u * running[-1])
    if k < len(running):
        return k
    return max(k for k, w in enumerate(weights) if w > 0.0)


def _detached_logweights(state: _ChainState, i: int, hp: Hyperparameters):
    """Detach entity i; return its conditional log-weights and its tallies.

    Every candidate's Beta arguments go through one ``betaln`` call, and one
    gather and one dot fold them into the collapsed log-likelihood changes.
    """
    tallies = _detach(state, i)
    gather, spread, order, signs = _kernel_layout(tallies.shape[1])
    args = (state.counts + hp.alpha).take(gather)
    args += tallies.take(spread)
    state.log_seats[-1] = math.log(hp.gamma)
    return betaln(*args).take(order).dot(signs) + state.log_seats, tallies


def _sweep(state: _ChainState, hp: Hyperparameters, rng) -> None:
    """Reassign every entity in index order from its collapsed conditional."""
    uniforms = rng.random(len(state.z)).tolist()
    for i, u in enumerate(uniforms):
        logw, tallies = _detached_logweights(state, i, hp)
        _attach(state, i, _sample_logweights(logw.tolist(), u), tallies)


def conditional_class_logweights(
    data: RelationData, partition: Partition, entity: int, hp: Hyperparameters
) -> np.ndarray:
    """Unnormalized log-weights of the entity's collapsed full conditional.

    Entries follow the class labels that remain after detaching the entity;
    the final entry is a fresh class.
    """
    if not 0 <= entity < data.n_entities:
        raise DimensionError(
            f"entity {entity} out of range for {data.n_entities} entities"
        )
    state = _ChainState(data, partition)
    return _detached_logweights(state, entity, hp)[0]


def gibbs_sweep(
    data: RelationData,
    partition: Partition,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> Partition:
    """One systematic-scan sweep reassigning every entity in index order."""
    state = _ChainState(data, partition)
    _sweep(state, hp, rng)
    return state.to_partition()


def _log_alpha_prior(alpha: float) -> float:
    # power-law alpha^(-5/2), truncated to the hyperparameter box
    return -2.5 * float(np.log(alpha))


def _log_gamma_prior(gamma: float) -> float:
    # Exponential(1), truncated to the hyperparameter box
    return -float(gamma)


def _mh_step(value, log_target, rng, scale) -> float:
    """Log-normal random-walk Metropolis step with Jacobian correction.

    Proposals landing outside the hyperparameter box are rejected outright.
    """
    prop = float(value * np.exp(scale * rng.standard_normal()))
    if not (HYPER_MIN <= prop <= HYPER_MAX):
        return value
    log_ratio = log_target(prop) - log_target(value) + np.log(prop) - np.log(value)
    if log_ratio >= 0 or rng.random() < np.exp(log_ratio):
        return prop
    return value


def _alpha_step(ones, zeros, hp: Hyperparameters, rng, scale) -> Hyperparameters:
    """Metropolis step on alpha given the class-pair link/non-link counts."""

    def log_target(a: float) -> float:
        return _log_alpha_prior(a) + _collapsed_from_counts(ones, zeros, a)

    return replace(hp, alpha=_mh_step(hp.alpha, log_target, rng, scale))


def _gamma_step(counts, hp: Hyperparameters, rng, scale) -> Hyperparameters:
    """Metropolis step on gamma given the class occupancies."""
    counts = np.asarray(counts, dtype=np.float64)

    def log_target(g: float) -> float:
        return _log_gamma_prior(g) + _log_prior_from_counts(counts, g)

    return replace(hp, gamma=_mh_step(hp.gamma, log_target, rng, scale))


def mh_update_alpha(
    data: RelationData,
    partition: Partition,
    hp: Hyperparameters,
    rng: np.random.Generator,
    scale: float = MH_PROPOSAL_SCALE,
) -> Hyperparameters:
    """Metropolis update of the Beta concentration at a fixed partition."""
    ones, zeros = pair_counts(data, partition.assignments, partition.n_classes)
    return _alpha_step(ones, zeros, hp, rng, scale)


def mh_update_gamma(
    partition: Partition,
    hp: Hyperparameters,
    rng: np.random.Generator,
    scale: float = MH_PROPOSAL_SCALE,
) -> Hyperparameters:
    """Metropolis update of the CRP concentration at a fixed partition."""
    return _gamma_step(partition.counts, hp, rng, scale)


def run_irm_chain(
    data: RelationData,
    schedule: McmcSchedule,
    hp: Hyperparameters | None = None,
    sample_hyperparams: bool = True,
    init_partition: Partition | None = None,
) -> PosteriorSamples:
    """Run one chain and return the retained draws.

    Per sweep: reassign all entities, then update alpha, then gamma (unless
    ``sample_hyperparams`` is off, which pins both).  After burn-in, every
    ``thinning``-th sweep is retained with its collapsed log-likelihood and
    the alpha in force at that sweep.  Fully determined by ``schedule.seed``.
    """
    rng = np.random.default_rng(schedule.seed)
    hp = hp if hp is not None else Hyperparameters()
    if init_partition is None:
        init_partition = Partition.from_assignments(
            np.zeros(data.n_entities, dtype=np.int64)
        )
    state = _ChainState(data, init_partition)

    retained = []
    for sweep in range(schedule.total_sweeps):
        _sweep(state, hp, rng)
        if sample_hyperparams:
            hp = _alpha_step(*state.class_counts, hp, rng, MH_PROPOSAL_SCALE)
            hp = _gamma_step(state.sizes, hp, rng, MH_PROPOSAL_SCALE)
        if sweep in schedule.retained_sweeps:
            ll = _collapsed_from_counts(*state.class_counts, hp.alpha)
            retained.append((canonical_labels(state.z), ll, hp.alpha))
    draws, logliks, alphas = zip(*retained)
    return PosteriorSamples(draws, logliks, "irm", alphas)


def irm_predict_cells(
    samples: PosteriorSamples, data: RelationData, cells
) -> np.ndarray:
    """Posterior predictive link probability for each queried cell.

    Per retained draw the prediction is the Beta posterior mean for the
    cell's class pair, (n1 + alpha) / (n1 + n0 + 2 alpha), with counts taken
    over the observed cells; the result averages draws and clamps.
    """
    if samples.alphas is None:
        raise ConfigError("samples carry no alpha draws; not a collapsed chain")
    z = samples.partitions
    ones, zeros = pair_counts(data, z, int(z.max()) + 1).swapaxes(0, 1)
    at = (np.arange(samples.n_draws)[:, None], *samples.cell_classes(cells))
    n1, n0 = ones[at], zeros[at]
    alpha = samples.alphas[:, None]
    return clamp_probs(samples.mean_over_draws((n1 + alpha) / (n1 + n0 + 2.0 * alpha)))
