"""Analogical generalization over a pool of stored relational systems.

A stored system fixes its class-pair link probabilities and a class prior;
mapping a new set of entities onto the system means sampling their class
assignments (classes may go unused, and no new class can open).  Each
system's marginal likelihood for the observed relation is estimated from
posterior draws by the harmonic mean rule, and systems compete through
posterior weights over the pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import (
    ConfigError,
    DegenerateWeightsError,
    DimensionError,
    PosteriorSamples,
    RelationData,
    StoredSystem,
    _as_assignments,
    _check_assignments,
    _log_tables,
    _loglik_from_counts,
    pair_counts,
    predictive_prob,
)
from .irm import McmcSchedule, _sample_logweights


def _sweep_tables(data: RelationData, system: StoredSystem):
    """(D, G, B, log class prior, log link tables) of the chain for one dataset.

    ``D[i, j]`` (n x n x 4) is the (r1, rt, c1, ct) tally row that entity i
    adds to entity j: j's out-cell (j, i) as a link and as observed, then
    j's in-cell (i, j) likewise; the diagonal is zero.  ``G[:, b]`` (4 x m)
    turns one such row, for a neighbour in class b, into log-weights over
    the m classes.  ``B`` (n x m) holds each entity's log prior plus its
    self-cell term; zero-prior classes stay at -inf.
    """
    observed = data.observed_link_matrices
    links, nolinks = observed * ~np.eye(data.n_entities, dtype=bool)
    seen = links + nolinks
    D = np.stack([links.T, seen.T, links, seen], axis=-1)
    log_link, log_nolink = log_tables = _log_tables(system.link_probs)
    with np.errstate(divide="ignore"):
        log_prior = np.log(system.class_probs)
    diff = log_link - log_nolink
    G = np.stack([diff.T, log_nolink.T, diff, log_nolink])
    self_terms = np.stack([np.diagonal(log_link), np.diagonal(log_nolink)])
    B = log_prior + np.diagonal(observed, axis1=1, axis2=2).T @ self_terms
    return D, G, B, log_prior, log_tables


def _stored_table(D, G, B, z) -> np.ndarray:
    """Every entity's log conditional over the classes, as an n x m table."""
    n, m = B.shape
    onehot = np.zeros((n, m))
    onehot[np.arange(n), z] = 1.0
    # tallies[j, (k, b)]: entity j's tally k over its neighbours in class b
    tallies = (D.reshape(n, 4 * n).T @ onehot).reshape(n, 4 * m)
    return tallies @ G.reshape(4 * m, m) + B


def _move_entity(L, D, G, i: int, a: int, b: int) -> None:
    """Update the table in place for entity i moving from class a to b."""
    L += D[i] @ (G[:, b] - G[:, a])


def _sweep_stored(z, D, G, B, rng=None) -> None:
    """Reassign every entity in index order, in place.

    With ``rng``, each entity is Gibbs-drawn from its conditional; without,
    it takes the conditional's first maximum (the greedy init's sweep).  The
    table is rebuilt once per sweep and touched only when an entity moves.
    """
    L = _stored_table(D, G, B, z)
    labels = z.tolist()
    uniforms = rng.random(len(labels)).tolist() if rng is not None else None
    for i, a in enumerate(labels):
        row = L[i].tolist()
        if uniforms is None:
            b = row.index(max(row))
        else:
            b = _sample_logweights(row, uniforms[i])
        if b != a:
            _move_entity(L, D, G, i, a, b)
            labels[i] = b
    z[:] = labels


def gibbs_sweep_stored(
    data: RelationData,
    system: StoredSystem,
    assignments: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One sweep remapping every entity onto the stored system's classes.

    Each entity's conditional is the class prior times the likelihood of its
    observed cells; classes with zero prior mass are never assigned.  Returns
    a new assignment vector over the system's fixed class space.
    """
    z = np.array(_as_assignments(assignments))
    _check_assignments(data, z, system.n_classes)
    _sweep_stored(z, *_sweep_tables(data, system)[:3], rng)
    return z


def sample_stored_assignments(
    system: StoredSystem, n_entities: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw entity classes independently from the system's class prior; a
    uniform that rounding puts past the last cumulative sum takes the last
    class with prior mass."""
    cum = np.cumsum(system.class_probs)
    z = np.searchsorted(cum, rng.random(n_entities), side="right")
    last_live = np.flatnonzero(system.class_probs > 0.0)[-1]
    return np.minimum(z, last_live).astype(np.int64)


def _swap_moves(counts, sizes, ll, tables, a, b):
    """Score the class swaps a[p] <-> b[p] from the stacked class-pair link
    and non-link counts, whose rows and columns a swap permutes.

    Returns each swap's class permutation, log-likelihood, and log-joint gain
    over the current state (likelihood change plus class-prior delta).
    """
    log_prior, log_tables = tables[3:]
    perms = np.arange(sizes.size)[None].repeat(a.size, 0)
    rows = np.arange(a.size)
    perms[rows, a] = b
    perms[rows, b] = a
    swapped = counts[:, perms[:, :, None], perms[:, None, :]]
    new_ll = _loglik_from_counts(*swapped, log_tables)
    prior_delta = (sizes[a] - sizes[b]) * (log_prior[b] - log_prior[a])
    return perms, new_ll, new_ll - ll + prior_delta


def _class_swap_move(z, counts, ll: float, tables, live, rng) -> tuple[np.ndarray, float]:
    """Metropolis move exchanging two class identities wholesale.

    Single-entity updates cannot cross between assignment modes that differ
    by a relabeling of classes — with sharp link probabilities every
    intermediate state is a likelihood cliff.  Swapping the entities of two
    classes in one proposal jumps the cliff directly; the acceptance ratio
    needs only the permuted counts and the class-count prior delta.  A swap
    of two empty classes is no move and draws no uniform.
    """
    if live.size < 2:
        return z, ll
    pick = live[rng.permutation(live.size)[:2]]
    sizes = np.bincount(z, minlength=tables[3].size)
    if not sizes[pick].any():
        return z, ll
    perms, new_ll, log_ratio = _swap_moves(counts, sizes, ll, tables, pick[:1], pick[1:])
    if log_ratio[0] >= 0 or rng.random() < np.exp(log_ratio[0]):
        return perms[0][z], float(new_ll[0])
    return z, ll


INIT_RESTARTS = 8
INIT_GREEDY_SWEEPS = 6


def _greedy_candidate(data, system, tables, live, rng) -> tuple[np.ndarray, float]:
    """One initialization candidate: a prior draw refined by argmax sweeps.

    Iterated conditional modes plus improving class swaps converge to a
    local optimum of the joint in a handful of sweeps; the caller keeps the
    best candidate across restarts.  After each sweep the live class pairs
    are tried in (a, b) order: every remaining swap is scored in one batch,
    the first improving one is taken, and the scan resumes after it.
    Returns the state and its log joint.
    """
    D, G, B, log_prior, log_tables = tables
    m = system.n_classes
    pairs = live[np.array(np.triu_indices(live.size, 1))]
    z = sample_stored_assignments(system, data.n_entities, rng)
    for _ in range(INIT_GREEDY_SWEEPS):
        _sweep_stored(z, D, G, B)
        counts = pair_counts(data, z, m)
        ll = float(_loglik_from_counts(*counts, log_tables))
        sizes = np.bincount(z, minlength=m)
        start = 0
        while start < pairs.shape[1]:
            perms, new_ll, gains = _swap_moves(counts, sizes, ll, tables, *pairs[:, start:])
            better = np.flatnonzero(gains > 0)
            if not better.size:
                break
            perm = perms[better[0]]
            z, sizes, ll = perm[z], sizes[perm], float(new_ll[better[0]])
            counts = counts[:, perm[:, None], perm]
            start += int(better[0]) + 1
    joint = float(ll + log_prior[z].sum())
    return z, joint


def run_stored_chain(
    data: RelationData, system: StoredSystem, schedule: McmcSchedule
) -> PosteriorSamples:
    """Gibbs-sample entity-to-class mappings for one stored system.

    Class assignments are the only latent state (the system's link
    probabilities stay fixed).  The chain starts from the best of several
    greedily refined prior draws — with sharp link probabilities the
    posterior concentrates on one assignment basin, and a cold start from
    the prior alone routinely strands the sampler in a side basin.  Each
    sweep then reassigns every entity from its full conditional and attempts
    one class-swap Metropolis move, which rescues the chain from relabeled
    modes that per-entity updates cannot reach.  Retained draws record the
    Bernoulli log-likelihood of the observed cells, computed from the
    class-pair counts.  Fully determined by ``schedule.seed``.
    """
    rng = np.random.default_rng(schedule.seed)
    tables = _sweep_tables(data, system)
    D, G, B, _, log_tables = tables
    m = system.n_classes
    live = np.flatnonzero(system.class_probs > 0.0)
    z, best = _greedy_candidate(data, system, tables, live, rng)
    for _ in range(INIT_RESTARTS - 1):
        cand, joint = _greedy_candidate(data, system, tables, live, rng)
        if joint > best:
            z, best = cand, joint
    retained = []
    for sweep in range(schedule.total_sweeps):
        _sweep_stored(z, D, G, B, rng)
        counts = pair_counts(data, z, m)
        ll = float(_loglik_from_counts(*counts, log_tables))
        z, ll = _class_swap_move(z, counts, ll, tables, live, rng)
        if sweep in schedule.retained_sweeps:
            retained.append((z.copy(), ll))
    draws, logliks = zip(*retained)
    return PosteriorSamples(draws, logliks, f"stored:{system.name}")


def harmonic_mean_evidence(logliks) -> float:
    """Harmonic-mean estimate of the log marginal likelihood.

    Given per-draw log-likelihoods l_q from the posterior, the estimator is

        -( logsumexp(-l_q) - log Q )

    i.e. the reciprocal of the average reciprocal likelihood, in log space.
    Cheap but heavy-tailed; treat the result as a rough evidence signal.
    """
    ll = np.asarray(logliks, dtype=np.float64)
    if ll.ndim != 1 or ll.size == 0:
        raise ValueError("need a non-empty 1-d array of log-likelihoods")
    return float(-(logsumexp(-ll) - np.log(ll.size)))


def analogy_weights(log_evidences, log_priors=None) -> np.ndarray:
    """Posterior weights over systems from log-evidences and log-priors.

    Uniform prior when ``log_priors`` is omitted.  Weights are the softmax of
    evidence + prior; components at -inf get exactly zero weight, and all
    components at -inf is an error.
    """
    le = np.asarray(log_evidences, dtype=np.float64)
    if le.ndim != 1 or le.size == 0:
        raise DimensionError("log_evidences must be a non-empty 1-d array")
    if log_priors is None:
        lp = np.full(le.size, -np.log(le.size))
    else:
        lp = np.asarray(log_priors, dtype=np.float64)
        if lp.shape != le.shape:
            raise DimensionError("log_priors shape must match log_evidences")
    combined = le + lp
    if np.isnan(combined).any() or (combined == np.inf).any():
        raise ValueError("log evidence + log prior must be finite or -inf")
    if (combined == -np.inf).all():
        raise DegenerateWeightsError("every component has zero posterior mass")
    w = np.exp(combined - logsumexp(combined))
    return w / w.sum()


def stored_component_predictions(
    samples: PosteriorSamples, system: StoredSystem, cells
) -> np.ndarray:
    """Per-cell link probability under one stored system.

    Averages the system's link probability at the cell's class pair over the
    retained assignment draws.  Unclamped; mixing and clamping happen in
    ``predictive_prob``.
    """
    return samples.mean_over_draws(system.link_probs[samples.cell_classes(cells)])


@dataclass(frozen=True, eq=False)
class AnalogyReport:
    """Evidence estimates and posterior weights for a pool of systems."""

    names: tuple[str, ...]
    log_evidences: np.ndarray
    weights: np.ndarray
    ranking: tuple[str, ...]

    def __post_init__(self):
        le = np.asarray(self.log_evidences, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        k = len(self.names)
        if le.shape != (k,) or w.shape != (k,):
            raise DimensionError("one evidence and one weight per system required")
        if abs(w.sum() - 1.0) > 1e-9 or (w < 0).any():
            raise ValueError("weights must be nonnegative and sum to 1")
        expected = _rank_names(self.names, w)
        if tuple(self.ranking) != expected:
            raise ValueError("ranking must sort by weight desc, ties by name")
        object.__setattr__(self, "log_evidences", le)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_evidences(cls, names, log_evidences, log_priors=None) -> "AnalogyReport":
        """The report for systems ``names`` with the given log-evidences."""
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ConfigError("stored system names must be unique")
        w = analogy_weights(log_evidences, log_priors)
        return cls(names, log_evidences, w, _rank_names(names, w))

    @property
    def best(self) -> str:
        return self.ranking[0]


def _rank_names(names, weights) -> tuple[str, ...]:
    order = sorted(range(len(names)), key=lambda i: (-weights[i], names[i]))
    return tuple(names[i] for i in order)


def analogy_report(
    systems, samples_list, log_priors=None
) -> AnalogyReport:
    """Estimate evidences and weights for a pool from per-system chains.

    Requires one sample set per system, all with the same draw count so the
    evidence estimates are comparable.
    """
    systems = list(systems)
    samples_list = list(samples_list)
    if len(systems) != len(samples_list) or not systems:
        raise DimensionError("need one non-empty sample set per system")
    draw_counts = {s.n_draws for s in samples_list}
    if len(draw_counts) != 1:
        raise ConfigError(
            f"equal draw counts required across systems, got {sorted(draw_counts)}"
        )
    le = np.asarray([harmonic_mean_evidence(s.logliks) for s in samples_list])
    return AnalogyReport.from_evidences((s.name for s in systems), le, log_priors)


def analogy_predict_cells(
    samples_list, systems, weights, cells
) -> np.ndarray:
    """Weighted mixture of per-system predictions for each queried cell."""
    systems = list(systems)
    samples_list = list(samples_list)
    w = np.asarray(weights, dtype=np.float64)
    if len(systems) != len(samples_list) or w.shape != (len(systems),):
        raise DimensionError("systems, samples, and weights must align")
    cells = list(cells)
    comps = np.column_stack(
        [
            stored_component_predictions(s, sys, cells)
            for s, sys in zip(samples_list, systems)
        ]
    )
    return predictive_prob(comps, w)
