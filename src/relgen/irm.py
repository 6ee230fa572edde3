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
    _cell_indices,
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

    def with_seed(self, seed: int) -> "McmcSchedule":
        return replace(self, seed=seed)


class _ChainState:
    """Working partition plus per-class-pair observed link/non-link counts."""

    __slots__ = ("z", "counts", "ones", "zeros")

    def __init__(self, data: RelationData, partition: Partition):
        if partition.n_entities != data.n_entities:
            raise DimensionError("partition size does not match entity count")
        self.z = np.array(partition.assignments)
        self.counts: list[int] = [int(c) for c in partition.counts]
        self.ones, self.zeros = pair_counts(data, self.z, len(self.counts))

    @property
    def n_classes(self) -> int:
        return len(self.counts)

    def to_partition(self) -> Partition:
        return Partition.from_assignments(canonical_labels(self.z))


def _entity_tallies(state: _ChainState, data: RelationData, i: int) -> tuple:
    """Entity i's observed cells bucketed by the current classes of neighbors.

    Column i of the neighbour tallies is zero at row i, so the entity's own
    label adds nothing; its self-cell comes from the self tallies.
    """
    k = state.n_classes
    D = data.neighbor_tallies
    r1, rt, c1, ct = (
        np.bincount(state.z, weights=D[:, i, c], minlength=k) for c in range(4)
    )
    sv1, sv0 = data.self_tallies[i].tolist()
    return r1, rt - r1, c1, ct - c1, sv1, sv0


def _detach(state: _ChainState, i: int, tallies) -> tuple:
    """Remove entity i from the state; returns tallies in post-removal labels."""
    r1, r0, c1, c0, sv1, sv0 = tallies
    old = int(state.z[i])
    state.ones[old, :] -= r1
    state.zeros[old, :] -= r0
    state.ones[:, old] -= c1
    state.zeros[:, old] -= c0
    state.ones[old, old] -= sv1
    state.zeros[old, old] -= sv0
    state.counts[old] -= 1
    state.z[i] = -1
    if state.counts[old] == 0:
        # no remaining member, so no neighbor tally can point at this class
        del state.counts[old]
        state.ones = np.delete(np.delete(state.ones, old, axis=0), old, axis=1)
        state.zeros = np.delete(np.delete(state.zeros, old, axis=0), old, axis=1)
        state.z[state.z > old] -= 1
        r1 = np.delete(r1, old)
        r0 = np.delete(r0, old)
        c1 = np.delete(c1, old)
        c0 = np.delete(c0, old)
    return r1, r0, c1, c0, sv1, sv0


def _candidate_logliks(state: _ChainState, alpha: float, tallies) -> np.ndarray:
    """Collapsed log-likelihood change from placing the detached entity in
    each existing class, plus a fresh class (last entry).

    Placing the entity in class a adds its row tallies to blocks (a, b), its
    column tallies to blocks (b, a), and row+column+self jointly to (a, a);
    only those blocks' Beta terms move.
    """
    r1, r0, c1, c0, sv1, sv0 = tallies
    k = state.n_classes
    a1 = alpha + state.ones
    a0 = alpha + state.zeros
    base = betaln(a1, a0)
    row = (betaln(a1 + r1[None, :], a0 + r0[None, :]) - base).sum(axis=1)
    col = (betaln(a1 + c1[:, None], a0 + c0[:, None]) - base).sum(axis=0)
    d1 = np.diagonal(a1)
    d0 = np.diagonal(a0)
    dbase = betaln(d1, d0)
    joint = betaln(d1 + r1 + c1 + sv1, d0 + r0 + c0 + sv0) - dbase
    row_diag = betaln(d1 + r1, d0 + r0) - dbase
    col_diag = betaln(d1 + c1, d0 + c0) - dbase
    existing = row + col - row_diag - col_diag + joint

    base0 = betaln(alpha, alpha)
    fresh = (
        (betaln(alpha + r1, alpha + r0) - base0).sum()
        + (betaln(alpha + c1, alpha + c0) - base0).sum()
        + betaln(alpha + sv1, alpha + sv0)
        - base0
    )
    out = np.empty(k + 1)
    out[:k] = existing
    out[k] = fresh
    return out


def _attach(state: _ChainState, i: int, choice: int, tallies):
    r1, r0, c1, c0, sv1, sv0 = tallies
    k = state.n_classes
    if choice == k:
        state.ones = np.pad(state.ones, ((0, 1), (0, 1)))
        state.zeros = np.pad(state.zeros, ((0, 1), (0, 1)))
        state.counts.append(0)
        r1 = np.append(r1, 0.0)
        r0 = np.append(r0, 0.0)
        c1 = np.append(c1, 0.0)
        c0 = np.append(c0, 0.0)
    state.ones[choice, :] += r1
    state.zeros[choice, :] += r0
    state.ones[:, choice] += c1
    state.zeros[:, choice] += c0
    state.ones[choice, choice] += sv1
    state.zeros[choice, choice] += sv0
    state.counts[choice] += 1
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


def _detached_logweights(state: _ChainState, data: RelationData, i: int, hp):
    """Detach entity i; return its conditional log-weights and its tallies."""
    tallies = _detach(state, i, _entity_tallies(state, data, i))
    logw = _candidate_logliks(state, hp.alpha, tallies)
    logw += np.log(np.append(np.asarray(state.counts, dtype=np.float64), hp.gamma))
    return logw, tallies


def _sweep(state: _ChainState, data: RelationData, hp: Hyperparameters, rng) -> None:
    """Reassign every entity in index order from its collapsed conditional."""
    uniforms = rng.random(data.n_entities).tolist()
    for i in range(data.n_entities):
        logw, tallies = _detached_logweights(state, data, i, hp)
        _attach(state, i, _sample_logweights(logw.tolist(), uniforms[i]), tallies)


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
    return _detached_logweights(state, data, entity, hp)[0]


def gibbs_sweep(
    data: RelationData,
    partition: Partition,
    hp: Hyperparameters,
    rng: np.random.Generator,
) -> Partition:
    """One systematic-scan sweep reassigning every entity in index order."""
    state = _ChainState(data, partition)
    _sweep(state, data, hp, rng)
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

    retained: list[np.ndarray] = []
    logliks: list[float] = []
    alphas: list[float] = []
    done = 0
    for sweep in range(schedule.total_sweeps):
        _sweep(state, data, hp, rng)
        if sample_hyperparams:
            hp = _alpha_step(state.ones, state.zeros, hp, rng, MH_PROPOSAL_SCALE)
            hp = _gamma_step(state.counts, hp, rng, MH_PROPOSAL_SCALE)
        done = sweep - schedule.burn_in + 1
        if done >= 1 and done % schedule.thinning == 0:
            retained.append(canonical_labels(state.z))
            logliks.append(_collapsed_from_counts(state.ones, state.zeros, hp.alpha))
            alphas.append(hp.alpha)
    return PosteriorSamples(
        tuple(retained), np.asarray(logliks), "irm", np.asarray(alphas)
    )


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
    rows, cols = _cell_indices(cells, data.n_entities)
    if not rows.size:
        return np.empty(0)
    acc = np.zeros(rows.size)
    for z, alpha in zip(samples.partitions, samples.alphas):
        k = int(z.max()) + 1
        ones, zeros = pair_counts(data, z, k)
        n1 = ones[z[rows], z[cols]]
        n0 = zeros[z[rows], z[cols]]
        acc += (n1 + alpha) / (n1 + n0 + 2.0 * alpha)
    return clamp_probs(acc / samples.n_draws)
