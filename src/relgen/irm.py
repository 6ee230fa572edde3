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
from scipy.special import gammaln

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
# shortest run ahead, and streak of stays behind, that _sweep scores in one
# pass: a run that ends at its first entities costs more than updating them
# one by one
_MIN_RUN = 3
# most entities one pass scores: the rows after a run's first mover are
# discarded, so an uncapped run would waste rows in proportion to n
_MAX_RUN = 32


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

    ``counts`` is the stacked (2, k+1, k+1) link/non-link table, whole
    numbers in float64; its last row and column are an always-empty fresh
    class, so a birth copies it into a zeroed table one slot larger.
    ``log_seats`` is log [class sizes..., gamma].  ``onehot`` has a column
    for every class the chain can open and, last, a row of ones that gathers
    each entity's self-cell into every class (an entity's own one-hot row
    is zero while its tallies are gathered, so only that row reads it).
    ``lgamma`` holds gammaln(alpha + j) and gammaln(2 alpha + j) for every
    count j a block can hold, at ``lgamma_alpha``, the last one tabulated.
    """

    __slots__ = ("z", "sizes", "log_seats", "counts", "onehot", "tallies", "lgamma", "lgamma_alpha")

    def __init__(self, data: RelationData, partition: Partition):
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
        self.lgamma = np.zeros((2, data.n_observed + 1))  # sized here, filled by tabulate
        self.lgamma_alpha = None

    def tabulate(self, alpha: float) -> None:
        """Point ``lgamma`` at alpha, rebuilding it only if alpha changed."""
        if alpha != self.lgamma_alpha:
            j = np.arange(self.lgamma.shape[1])
            self.lgamma = gammaln(np.stack([alpha + j, 2.0 * alpha + j]))
            self.lgamma_alpha = alpha

    @property
    def class_counts(self) -> np.ndarray:
        return self.counts[:, :-1, :-1]

    def to_partition(self) -> Partition:
        return Partition.from_assignments(self.z)


@lru_cache(maxsize=16)
def _kernel_layout(slots: int) -> tuple:
    """Index arrays of the sweep kernel for k = slots - 1 classes plus the
    fresh one.

    The kernel scores a (2, 3k^2 + k + 2) array of link/non-link counts.
    Each entry is a class-pair count, picked from the flat counts by
    ``gather``, plus one of the detached entity's tallies, picked by
    ``spread``.  The entries, for classes a and b:

    - base (a, b): the block's counts;
    - row (a, b): the counts plus row tally b, or the joint tally on the
      diagonal (the entity placed in a);
    - col (a, b), a != b: block (b, a)'s counts plus column tally b;
    - fresh: the fresh class's (empty) row blocks plus each row tally, its
      column blocks plus each column tally, its own block plus the
      self-cell, and an empty block.

    Row c of ``order`` lists candidate c's entries, added ones first, then
    the ones it takes away (base (c, .) and (., c), or 2k + 1 empty blocks),
    each half padded with the empty block; so ``values[order] @ signs`` is
    every candidate's collapsed log-likelihood change.  The added half is
    also every block that changes when the entity joins c, as it reads
    afterwards (the padding reads the empty block as 0).  ``written[c]``
    lists those entries in both planes, ``put[c]`` their flat positions in
    the counts and ``unspread[c]`` the tallies they add, so attaching writes
    ``entries[written[c]]`` at ``put[c]`` and detaching subtracts
    ``tallies[unspread[c]]`` there.
    """
    k = slots - 1
    kk = k * k
    a, b = np.divmod(np.arange(kk), k)
    off = np.flatnonzero(a != b)
    classes = np.arange(k)
    col_tally, joint_tally = slots, 2 * slots
    gather = np.r_[
        a * slots + b, a * slots + b, b[off] * slots + a[off],
        k * slots + classes, classes * slots + k, [k * slots + k] * 2,
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
        order[c, half:-2] = np.r_[c * k + classes, classes[classes != c] * k + c]
    order[k, :half] = fresh0 + np.arange(half)
    gather = np.stack([gather, gather + slots * slots])
    spread = np.stack([spread, spread + 3 * slots])
    written = np.hstack([order[:, :half], order[:, :half] + gather.shape[1]])
    layout = (
        gather, spread, order, np.repeat([1.0, -1.0], half),
        written, gather.take(written), spread.take(written),
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
    slots = state.counts.shape[1]
    closed = not state.sizes[old]
    if closed:
        # the class's row and column hold only the entity's own cells
        keep = np.arange(slots - 1)
        keep[old:] += 1
        state.counts = state.counts.take(keep, 1).take(keep, 2)
        state.log_seats = state.log_seats.take(keep)
        del state.sizes[old]
        state.onehot[:, old:slots - 1] = state.onehot[:, old + 1:slots]
        state.z = [c - (c > old) for c in state.z]
        slots -= 1
    tallies = state.tallies[i].dot(state.onehot[:, :slots])
    if not closed:
        # the blocks that attaching to old would write, less the tallies
        put, unspread = _kernel_layout(slots)[5:]
        state.counts.reshape(-1)[put[old]] -= tallies.take(unspread[old])
        state.log_seats[old] = math.log(state.sizes[old])
    return tallies


def _attach(state: _ChainState, i: int, choice: int, entries: np.ndarray) -> None:
    """Place entity i in class ``choice`` by writing back the kernel's own
    entries for it; a fresh choice becomes a class and a new fresh slot opens."""
    slots = state.counts.shape[1]
    written, put = _kernel_layout(slots)[4:6]
    state.counts.reshape(-1).put(put[choice], entries.take(written[choice]))
    if choice == slots - 1:
        grown = np.zeros((2, slots + 1, slots + 1))
        grown[:, :slots, :slots] = state.counts
        state.counts = grown
        state.log_seats = np.append(state.log_seats, 0.0)
        state.sizes.append(0)
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
    """Detach entity i; return its conditional log-weights and the kernel's
    count entries, which ``_attach`` writes back.

    ``state.lgamma`` must be tabulated at hp.alpha.  Each entry's log Beta
    function, ln B(alpha + n1, alpha + n0), is three gathers from the
    tables, and one gather and one dot fold them into the collapsed
    log-likelihood changes.
    """
    tallies = _detach(state, i)
    gather, spread, order, signs = _kernel_layout(tallies.shape[1])[:4]
    entries = state.counts.take(gather)
    entries += tallies.take(spread)
    values = _log_betas(state.lgamma, entries)
    state.log_seats[-1] = math.log(hp.gamma)
    return values.take(order).dot(signs) + state.log_seats, entries


def _log_betas(lgamma: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """ln B(alpha + n1, alpha + n0) of each entry of a (..., 2, entries)
    array of link / non-link counts: three gathers from the tables."""
    n1, n0 = entries.swapaxes(0, -2).astype(np.intp, order="C")
    t1, t2 = lgamma
    return t1.take(n1) + t1.take(n0) - t2.take(n1 + n0)


def _run_logweights(state: _ChainState, start: int, stop: int, hp: Hyperparameters):
    """Yield in order the log-weights and entries that
    ``_detached_logweights`` gives each of entities start .. stop - 1, none
    of them alone in its class, all scored at the current state in one pass.

    Each one's detach is an integer correction: its own tally column leaves
    its class, and its tallies leave the counts at ``put[old]``.  Each row
    is folded by its own dot, as on the per-entity path, so the two agree
    bit for bit.  Between yields the state is as before the run, so a stay
    is committed by doing nothing; a consumer that changes the state stops.
    """
    slots = state.counts.shape[1]
    gather, spread, order, signs, _, put, unspread = _kernel_layout(slots)
    rows = np.arange(stop - start)
    classes = np.array(state.z[start:stop])
    raw = state.tallies[start:stop]
    tallies = raw.reshape(-1, raw.shape[2]).dot(state.onehot[:, :slots]).reshape(-1, 6, slots)
    tallies[rows, :, classes] -= raw[rows, :, rows + start]
    tallies = tallies.reshape(rows.size, -1)
    counts = np.repeat(state.counts.reshape(1, -1), rows.size, 0)
    at = rows[:, None]
    counts[at, put.take(classes, 0)] -= tallies[at, unspread.take(classes, 0)]
    entries = counts.take(gather, 1)
    entries += tallies.take(spread, 1)
    folded = _log_betas(state.lgamma, entries).take(order, 1)
    seats, sizes = state.log_seats, state.sizes
    seats[-1] = math.log(hp.gamma)
    for r, old in enumerate(classes.tolist()):
        seats[old] = math.log(sizes[old] - 1)
        logw = folded[r].dot(signs) + seats
        seats[old] = math.log(sizes[old])
        yield logw, entries[r]


def _sweep(state: _ChainState, hp: Hyperparameters, rng) -> None:
    """Reassign every entity in index order from its collapsed conditional.

    From entity i up to the next entity alone in its class, at most
    ``_MAX_RUN`` entities are scored at the current state in one pass
    (``_run_logweights``) and drawn in order: a stay changes nothing, and
    the first entity that moves is committed from the run's own entries and
    ends the run.  An entity alone in its class, whose detach closes the
    class, takes the per-entity path, and so does every entity while the run
    ahead, or the streak of stays behind, is shorter than ``_MIN_RUN``.
    Both paths draw each entity once from the same log-weights.
    """
    state.tabulate(hp.alpha)
    uniforms = rng.random(len(state.z)).tolist()
    n = len(uniforms)
    i, streak = 0, _MIN_RUN
    while i < n:
        stop, end = i, min(n, i + _MAX_RUN)
        while streak >= _MIN_RUN and stop < end and state.sizes[state.z[stop]] > 1:
            stop += 1
        if stop - i >= _MIN_RUN:
            streak = 0
            for i, (logw, entries) in enumerate(_run_logweights(state, i, stop, hp), i):
                choice = _sample_logweights(logw.tolist(), uniforms[i])
                if choice != state.z[i]:
                    _detach(state, i)
                    _attach(state, i, choice, entries)
                    break
                streak += 1
        else:
            old, alone = state.z[i], state.sizes[state.z[i]] == 1
            logw, entries = _detached_logweights(state, i, hp)
            choice = _sample_logweights(logw.tolist(), uniforms[i])
            _attach(state, i, choice, entries)
            # alone, it stays by taking the fresh class
            streak = streak + 1 if choice == (len(logw) - 1 if alone else old) else 0
        i += 1


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
    state.tabulate(hp.alpha)
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
        # power-law alpha^(-5/2) prior, truncated to the hyperparameter box
        return -2.5 * float(np.log(a)) + _collapsed_from_counts(ones, zeros, a)

    return replace(hp, alpha=_mh_step(hp.alpha, log_target, rng, scale))


def _gamma_step(counts, hp: Hyperparameters, rng, scale) -> Hyperparameters:
    """Metropolis step on gamma given the class occupancies."""
    counts = np.asarray(counts, dtype=np.float64)

    def log_target(g: float) -> float:
        # Exponential(1) prior, truncated to the hyperparameter box
        return -float(g) + _log_prior_from_counts(counts, g)

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
) -> PosteriorSamples:
    """Run one chain from the one-class partition and return the retained draws.

    Per sweep: reassign all entities, then update alpha, then gamma (unless
    ``sample_hyperparams`` is off, which pins both).  After burn-in, every
    ``thinning``-th sweep is retained with its collapsed log-likelihood and
    the alpha in force at that sweep.  Fully determined by ``schedule.seed``.
    """
    rng = np.random.default_rng(schedule.seed)
    hp = hp if hp is not None else Hyperparameters()
    state = _ChainState(
        data, Partition.from_assignments(np.zeros(data.n_entities, dtype=np.int64))
    )

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
