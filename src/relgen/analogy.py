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
    _cell_indices,
    bernoulli_loglik,
    clamp_probs,
    predictive_prob,
)
from .irm import McmcSchedule, _sample_logweights


def _sweep_tables(data: RelationData, system: StoredSystem):
    """(G, B, log class prior) of the incremental sweep for one dataset.

    ``G[:, b]`` (4 x m) turns one neighbour's (r1, rt, c1, ct) tally row, for
    a neighbour in class b, into log-weights over the m classes.  ``B``
    (n x m) holds each entity's log prior plus its self-cell term;
    zero-prior classes stay at -inf.
    """
    p = clamp_probs(system.link_probs)
    log_link, log_nolink = np.log(p), np.log1p(-p)
    with np.errstate(divide="ignore"):
        log_prior = np.log(system.class_probs)
    diff = log_link - log_nolink
    G = np.stack([diff.T, log_nolink.T, diff, log_nolink])
    self_terms = np.stack([np.diagonal(log_link), np.diagonal(log_nolink)])
    B = log_prior + data.self_tallies @ self_terms
    return G, B, log_prior


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
    z = np.array(assignments, dtype=np.int64)
    if z.shape != (data.n_entities,):
        raise DimensionError("assignment vector length must match entity count")
    m = system.n_classes
    if z.size and (z.min() < 0 or z.max() >= m):
        raise DimensionError(f"assignment label out of range for {m} classes")
    G, B, _ = _sweep_tables(data, system)
    _sweep_stored(z, data.neighbor_tallies, G, B, rng)
    return z


def sample_stored_assignments(
    system: StoredSystem, n_entities: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw entity classes independently from the system's class prior."""
    cum = np.cumsum(system.class_probs)
    z = np.searchsorted(cum, rng.random(n_entities), side="right")
    return np.minimum(z, system.n_classes - 1).astype(np.int64)


def _swap_proposal(data, system, z, ll, log_prior, a: int, b: int):
    """Exchange the entities of classes a and b wholesale.

    Returns the proposal, its log-likelihood and its log-joint gain over
    ``z`` (likelihood change plus class-prior delta), or None when both
    classes are empty.
    """
    in_a = z == a
    in_b = z == b
    if not (in_a.any() or in_b.any()):
        return None
    proposal = z.copy()
    proposal[in_a] = b
    proposal[in_b] = a
    new_ll = bernoulli_loglik(data, proposal, system.link_probs)
    prior_delta = (int(in_a.sum()) - int(in_b.sum())) * (log_prior[b] - log_prior[a])
    return proposal, new_ll, new_ll - ll + prior_delta


def _class_swap_move(
    data: RelationData,
    system: StoredSystem,
    z: np.ndarray,
    current_ll: float,
    log_prior: np.ndarray,
    live: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Metropolis move exchanging two class identities wholesale.

    Single-entity updates cannot cross between assignment modes that differ
    by a relabeling of classes — with sharp link probabilities every
    intermediate state is a likelihood cliff.  Swapping the entities of two
    classes in one proposal jumps the cliff directly; the acceptance ratio
    needs only one likelihood evaluation and the class-count prior delta.
    """
    if live.size < 2:
        return z, current_ll
    pick = rng.permutation(live.size)[:2]
    move = _swap_proposal(
        data, system, z, current_ll, log_prior, int(live[pick[0]]), int(live[pick[1]])
    )
    if move is None:
        return z, current_ll
    proposal, new_ll, log_ratio = move
    if log_ratio >= 0 or rng.random() < np.exp(log_ratio):
        return proposal, new_ll
    return z, current_ll


INIT_RESTARTS = 8
INIT_GREEDY_SWEEPS = 6


def _greedy_candidate(
    data: RelationData,
    system: StoredSystem,
    tables,
    live: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One initialization candidate: a prior draw refined by argmax sweeps.

    Iterated conditional modes plus improving class swaps converge to a
    local optimum of the joint in a handful of sweeps; the caller keeps the
    best candidate across restarts.  Returns the state and its log joint.
    """
    G, B, log_prior = tables
    z = sample_stored_assignments(system, data.n_entities, rng)
    for _ in range(INIT_GREEDY_SWEEPS):
        _sweep_stored(z, data.neighbor_tallies, G, B)
        ll = bernoulli_loglik(data, z, system.link_probs)
        for a_pos in range(live.size):
            for b_pos in range(a_pos + 1, live.size):
                move = _swap_proposal(
                    data, system, z, ll, log_prior, int(live[a_pos]), int(live[b_pos])
                )
                if move is not None and move[2] > 0:
                    z, ll = move[0], move[1]
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
    Bernoulli log-likelihood of the observed cells.  Fully determined by
    ``schedule.seed``.
    """
    rng = np.random.default_rng(schedule.seed)
    tables = _sweep_tables(data, system)
    G, B, log_prior = tables
    live = np.flatnonzero(system.class_probs > 0.0)
    z, best = _greedy_candidate(data, system, tables, live, rng)
    for _ in range(INIT_RESTARTS - 1):
        cand, joint = _greedy_candidate(data, system, tables, live, rng)
        if joint > best:
            z, best = cand, joint
    retained: list[np.ndarray] = []
    logliks: list[float] = []
    for sweep in range(schedule.total_sweeps):
        _sweep_stored(z, data.neighbor_tallies, G, B, rng)
        ll = bernoulli_loglik(data, z, system.link_probs)
        z, ll = _class_swap_move(data, system, z, ll, log_prior, live, rng)
        done = sweep - schedule.burn_in + 1
        if done >= 1 and done % schedule.thinning == 0:
            retained.append(z.copy())
            logliks.append(ll)
    return PosteriorSamples(
        tuple(retained), np.asarray(logliks), f"stored:{system.name}"
    )


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
    rows, cols = _cell_indices(cells, samples.partitions[0].size)
    if not rows.size:
        return np.empty(0)
    link = system.link_probs
    acc = np.zeros(rows.size)
    for z in samples.partitions:
        acc += link[z[rows], z[cols]]
    return acc / samples.n_draws


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
    if not cells:
        return np.empty(0)
    comps = np.column_stack(
        [
            stored_component_predictions(s, sys, cells)
            for s, sys in zip(samples_list, systems)
        ]
    )
    return predictive_prob(comps, w)
