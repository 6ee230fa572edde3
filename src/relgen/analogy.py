"""Analogical generalization over a pool of stored relational systems.

A stored system fixes its class-pair link probabilities and a class prior;
mapping a new set of entities onto the system means sampling their class
assignments (classes may go unused, and no new class can open).  Each
system's marginal likelihood for the observed relation is its chain's
``PosteriorSamples.log_evidence``, and systems compete through posterior
weights over the pool.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

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
    _logsumexp,
    pair_counts,
    predictive_prob,
)
from .irm import McmcSchedule, _sample_logweights


def _sweep_tables(data: RelationData, system: StoredSystem):
    """(D, G, B, log class prior, log link tables, dG) of the chain for one
    dataset.

    ``D[i, j]`` (n x n x 4) is the (r1, rt, c1, ct) tally row that entity i
    adds to entity j: j's out-cell (j, i) as a link and as observed, then
    j's in-cell (i, j) likewise; the diagonal is zero.  ``G[:, b]`` (4 x m)
    turns one such row, for a neighbour in class b, into log-weights over
    the m classes.  ``B`` (n x m) holds each entity's log prior plus its
    self-cell term; zero-prior classes stay at -inf.  ``dG[a, b]`` is
    ``G[:, b] - G[:, a]`` for every class pair, each slice contiguous.
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
    dG = np.ascontiguousarray((G[:, None] - G[:, :, None]).transpose(1, 2, 0, 3))
    return D, G, B, log_prior, log_tables, dG


def _stored_table(D, G, B, z) -> np.ndarray:
    """Every entity's log conditional over the classes, as an n x m table;
    labelings stacked along leading axes of ``z`` give one table each."""
    n, m = B.shape
    onehot = np.eye(m).take(z, 0)
    # tallies[..., j, (k, b)]: entity j's tally k over its neighbours in class b
    tallies = (D.reshape(n, 4 * n).T @ onehot).reshape(*z.shape, 4 * m)
    return tallies @ G.reshape(4 * m, m) + B


def _move_entity(D, dG, i: int, a, b) -> np.ndarray:
    """The change to the table when entity i moves from class a to b: one
    small matmul with the tabulated class difference.  Arrays ``a`` and
    ``b`` give one change per move, stacked, from one batched matmul."""
    return D[i] @ dG[a, b]


CERTIFY_MARGIN = 1e-9


def _stay_screen(labels, uniforms, m: int):
    """The screen of one sweep's entities, at these labels and uniforms.

    It maps the n x m table of log conditionals to which entities the exact
    draw is sure to leave in their class.  On a class-major copy of the
    table, so that its reductions run along contiguous rows, it takes each
    entity's running sums of exp(logw - max) in class order: the arithmetic
    of `_sample_logweights` up to the last bit of each ``exp``.  An entity
    is certified when u times its total lies more than ``CERTIFY_MARGIN`` of
    the total inside its class's interval of the running sums, a margin far
    wider than that rounding, so the exact draw returns its class.  A class
    of zero weight is never certified.
    """
    n = labels.size
    C = np.zeros((m + 1, n))
    W = C[1:]
    # at these flat indices C holds each entity's running sum before its
    # class, and W (C without its zero row) the sum through it
    lo = labels * n + np.arange(n)
    below, above = uniforms - CERTIFY_MARGIN, uniforms + CERTIFY_MARGIN

    def certified(L) -> np.ndarray:
        W[...] = L.T
        np.subtract(W, np.maximum.reduce(W), out=W)
        np.exp(W, out=W)
        np.add.accumulate(W, out=W)
        total = C[m]
        return (C.take(lo) < below * total) & (W.take(lo) > above * total)

    return certified


def _sweep_stored(z, tables, rng=None, screen=True):
    """Reassign every entity in index order, in place.

    With ``rng``, each entity is Gibbs-drawn from its conditional, and the
    number of entities that moved is returned.  A ``screen``ed sweep draws
    only the entities `_stay_screen` cannot certify: the others would stay
    under the exact draw, so they keep their class, and a move screens the
    entities after it again.  Without ``rng``, each entity takes the
    conditional's first maximum (the greedy init's sweep) of each labeling
    stacked along leading axes of ``z``.  The table is rebuilt once per
    sweep, since one carried across sweeps drifts in its last bits and could
    flip an argmax tie, and is touched only when an entity moves; the
    stacked labelings that move at one entity are updated together.
    """
    D, G, B, _, _, dG = tables
    L = _stored_table(D, G, B, z)
    if rng is None:
        Z, L = z.reshape(-1, z.shape[-1]), L.reshape(-1, *B.shape)
        for i in range(Z.shape[1]):
            best = L[:, i].argmax(1)
            if (rows := (best != Z[:, i]).nonzero()[0]).size:
                L[rows] += _move_entity(D, dG, i, Z[rows, i], best[rows])
            Z[:, i] = best
        return None
    n = len(labels := z.tolist())
    uniforms = rng.random(n)
    u = uniforms.tolist()
    if screen:
        certified = _stay_screen(z, uniforms, B.shape[1])
    moves = start = 0
    while start < n:
        rest = range(start, n)
        if screen:
            rest = (~certified(L)).nonzero()[0].tolist()
            rest = rest[bisect_left(rest, start):]
        start = n
        for i in rest:
            a = labels[i]
            b = _sample_logweights(L[i].tolist(), u[i])
            if b != a:
                L += _move_entity(D, dG, i, a, b)
                labels[i] = b
                moves += 1
                if screen:
                    start = i + 1
                    break
    z[:] = labels
    return moves


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
    _sweep_stored(z, _sweep_tables(data, system), rng)
    return z


def sample_stored_assignments(
    system: StoredSystem, n_entities: int | tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """Draw entity classes independently from the system's class prior; a
    uniform that rounding puts past the last cumulative sum takes the last
    class with prior mass.  ``n_entities`` may be a shape (R, n): one
    ``rng.random`` call then draws the stream of R draws of n entities."""
    cum = np.cumsum(system.class_probs)
    z = np.searchsorted(cum, rng.random(n_entities), side="right")
    last_live = np.flatnonzero(system.class_probs > 0.0)[-1]
    return np.minimum(z, last_live).astype(np.int64)


def _swap_moves(counts, sizes, ll, tables, a, b):
    """Score the class swaps a[p] <-> b[p] from the stacked class-pair link
    and non-link counts, whose rows and columns a swap permutes.

    Returns each swap's class permutation, log-likelihood, and log-joint gain
    over the current state (likelihood change plus class-prior delta).
    States stacked along the middle axes of ``counts`` (2 x … x m x m),
    ``sizes`` (… x m) and ``ll`` (… x 1) are scored against every swap.
    """
    log_prior, log_tables = tables[3:5]
    perms = np.arange(sizes.shape[-1])[None].repeat(a.size, 0)
    rows = np.arange(a.size)
    perms[rows, a] = b
    perms[rows, b] = a
    # C order keeps each m x m sum contiguous, as it is for one state
    swapped = np.ascontiguousarray(counts[..., perms[:, :, None], perms[:, None, :]])
    new_ll = _loglik_from_counts(*swapped, log_tables)
    prior_delta = (sizes[..., a] - sizes[..., b]) * (log_prior[b] - log_prior[a])
    return perms, new_ll, new_ll - ll + prior_delta


def _class_swap_move(z, counts, ll: float, tables, live, rng) -> tuple[np.ndarray, float]:
    """Metropolis move exchanging two class identities wholesale.

    Single-entity updates cannot cross between assignment modes that differ
    by a relabeling of classes — with sharp link probabilities every
    intermediate state is a likelihood cliff.  Swapping the entities of two
    classes in one proposal jumps the cliff directly; the acceptance ratio
    needs only the permuted counts, gathered in C order as `_swap_moves`
    gathers them, and the class-count prior delta.  A swap of two empty
    classes is no move and draws no uniform.
    """
    if live.size < 2:
        return z, ll
    a, b = live[rng.permutation(live.size)[:2]]
    log_prior, log_tables = tables[3:5]
    sizes = np.bincount(z, minlength=log_prior.size)
    if not (sizes[a] or sizes[b]):
        return z, ll
    perm = np.arange(log_prior.size)
    perm[[a, b]] = b, a
    swapped = np.ascontiguousarray(counts[:, perm[:, None], perm])
    new_ll = _loglik_from_counts(*swapped, log_tables)
    log_ratio = new_ll - ll + (sizes[a] - sizes[b]) * (log_prior[b] - log_prior[a])
    if log_ratio >= 0 or rng.random() < np.exp(log_ratio):
        return perm[z], float(new_ll)
    return z, ll


INIT_RESTARTS = 8
INIT_GREEDY_SWEEPS = 6


def _greedy_candidates(data, system, tables, live, rng) -> tuple[np.ndarray, np.ndarray]:
    """The initialization candidates: prior draws refined by argmax sweeps.

    Iterated conditional modes plus improving class swaps converge to a
    local optimum of the joint in a handful of sweeps; the caller keeps the
    best.  The ``INIT_RESTARTS`` draws are refined as one stack.  After each
    sweep the live class pairs are tried in (a, b) order: every remaining
    swap is scored in one batch, the first improving one is taken, and the
    scan resumes after it; one batch scores every candidate's first scan.
    A sweep is a function of the stack alone and draws nothing, so the
    sweeps stop once one leaves the stack as it found it.  Returns the
    (R x n) states and their log joints.
    """
    log_prior, log_tables = tables[3:5]
    m = system.n_classes
    pairs = live[np.array(np.triu_indices(live.size, 1))]
    Z = sample_stored_assignments(system, (INIT_RESTARTS, data.n_entities), rng)
    for _ in range(INIT_GREEDY_SWEEPS):
        before = Z.copy()
        _sweep_stored(Z, tables)
        counts = pair_counts(data, Z, m).swapaxes(0, 1)
        lls = _loglik_from_counts(*counts, log_tables)
        sizes = (Z[:, :, None] == np.arange(m)).sum(1)
        batch = _swap_moves(counts, sizes, lls[:, None], tables, *pairs)
        for r in np.flatnonzero((batch[2] > 0).any(1)):
            # a candidate that takes a swap scans on alone, from after it
            perms, new_ll, gains = batch[0], batch[1][r], batch[2][r]
            z, c, s, start = Z[r], counts[:, r], sizes[r], 0
            while (better := np.flatnonzero(gains > 0)).size:
                perm = perms[better[0]]
                z, s, lls[r] = perm[z], s[perm], new_ll[better[0]]
                c = c[:, perm[:, None], perm]
                start += int(better[0]) + 1
                perms, new_ll, gains = _swap_moves(c, s, lls[r], tables, *pairs[:, start:])
            Z[r] = z
        if np.array_equal(Z, before):
            break
    return Z, lls + log_prior[Z].sum(1)


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
    observed, eye = data.observed_link_matrices, np.eye(system.n_classes)
    live = np.flatnonzero(system.class_probs > 0.0)
    candidates, joints = _greedy_candidates(data, system, tables, live, rng)
    z = candidates[np.argmax(joints)]
    retained, moves = [], data.n_entities
    for sweep in range(schedule.total_sweeps):
        # each move costs a re-screen, so a screen pays only in a sweep
        # moving fewer than about n/10 entities, as the previous sweep's
        # moves predict; the first sweep has no such predictor, so no screen
        moves = _sweep_stored(z, tables, rng, 12 * moves < data.n_entities)
        onehot = eye[z]  # not pair_counts: its checks and one-hot take twice as long
        counts = onehot.T @ observed @ onehot
        ll = float(_loglik_from_counts(*counts, tables[4]))
        z, ll = _class_swap_move(z, counts, ll, tables, live, rng)
        if sweep in schedule.retained_sweeps:
            retained.append((z.copy(), ll))
    draws, logliks = zip(*retained)
    return PosteriorSamples(draws, logliks, f"stored:{system.name}")


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
    w = np.exp(combined - _logsumexp(combined))
    return w / w.sum()


def stored_component_predictions(
    samples: PosteriorSamples, system: StoredSystem, cells
) -> np.ndarray:
    """Per-cell link probability under one stored system.

    Averages the system's link probability at the cell's class pair over the
    retained assignment draws.  Unclamped; mixing and clamping happen in
    ``predictive_prob``.  A draw label beyond the system's classes is refused.
    """
    top = int(samples.partitions.max(initial=0))
    if top >= system.n_classes:
        raise DimensionError(f"draw label {top} out of range for {system.n_classes} classes")
    return samples.mean_over_draws(system.link_probs[samples.cell_classes(cells)])


def _hm_log_evidences(samples_list) -> np.ndarray:
    """Each chain's own ``log_evidence``.  The chains must have equal draw
    counts, so that their estimates are comparable."""
    draw_counts = {s.n_draws for s in samples_list}
    if len(draw_counts) != 1:
        raise ConfigError(
            f"equal draw counts required across chains, got {sorted(draw_counts)}"
        )
    return np.asarray([s.log_evidence for s in samples_list])


def _stored_columns(samples_list, systems, cells) -> np.ndarray:
    """(n_cells, K) predictions, one column per stored system and its chain."""
    return np.column_stack(
        [
            stored_component_predictions(s, sys, cells)
            for s, sys in zip(samples_list, systems)
        ]
    )


@dataclass(frozen=True, eq=False)
class AnalogyReport:
    """Evidence estimates for a pool of systems, and what they imply.

    Only the names and log-evidences are passed in.  ``weights`` are
    `analogy_weights` of the evidences under a uniform prior, and
    ``ranking`` orders the names by weight, highest first, ties by name.
    """

    names: tuple[str, ...]
    log_evidences: np.ndarray
    weights: np.ndarray = field(init=False)
    ranking: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        names = tuple(self.names)
        le = np.asarray(self.log_evidences, dtype=np.float64)
        if len(set(names)) != len(names):
            raise ConfigError("stored system names must be unique")
        if le.shape != (len(names),):
            raise DimensionError("one evidence per system required")
        w = analogy_weights(le)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "log_evidences", le)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "ranking", tuple(n for _, n in sorted(zip(-w, names))))

    @property
    def best(self) -> str:
        return self.ranking[0]


def analogy_report(systems, samples_list) -> AnalogyReport:
    """Estimate evidences and weights for a pool from per-system chains.

    Requires one sample set per system, all with the same draw count so the
    evidence estimates are comparable.
    """
    systems = list(systems)
    samples_list = list(samples_list)
    if len(systems) != len(samples_list) or not systems:
        raise DimensionError("need one non-empty sample set per system")
    return AnalogyReport(tuple(s.name for s in systems), _hm_log_evidences(samples_list))


def analogy_predict_cells(
    samples_list, systems, weights, cells
) -> np.ndarray:
    """Weighted mixture of per-system predictions for each queried cell."""
    systems = list(systems)
    samples_list = list(samples_list)
    w = np.asarray(weights, dtype=np.float64)
    if len(systems) != len(samples_list) or w.shape != (len(systems),):
        raise DimensionError("systems, samples, and weights must align")
    return predictive_prob(_stored_columns(samples_list, systems, list(cells)), w)
