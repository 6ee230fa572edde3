"""Analogical generalization over a pool of stored relational systems.

A stored system fixes its class-pair link probabilities and a class prior;
mapping a new set of entities onto the system means sampling their class
assignments (classes may go unused, and no new class can open).  Each
system's marginal likelihood for the observed relation is its chain's
``PosteriorSamples.log_evidence``, and systems compete through posterior
weights over the pool.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple

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
    predictive_prob,
)
from .irm import McmcSchedule, _sample_logweights


_Tables = namedtuple(
    "_Tables", "D G B log_prior log_tables dG live pairs perms gathers gaps moves data system"
)


def _sweep_tables(data: RelationData, system: StoredSystem) -> _Tables:
    """The tables of a chain of ``system`` on ``data``, built once per chain
    and read by the greedy init and the chain alike; they keep ``data`` and
    ``system``, so that a chain can refuse the tables of another pair.

    ``D[i, j]`` (n x n x 4) is the (r1, rt, c1, ct) tally row that entity i
    adds to entity j: j's out-cell (j, i) as a link and as observed, then
    j's in-cell (i, j) likewise; the diagonal is zero.  ``G[:, b]`` (4 x m)
    turns one such row, for a neighbour in class b, into log-weights over
    the m classes.  ``B`` (n x m) holds each entity's log prior plus its
    self-cell term; zero-prior classes stay at -inf.  ``dG[a, b]`` is
    ``G[:, b] - G[:, a]`` for every class pair, each slice contiguous.

    The swap table lists the pairs of ``live`` classes in (a, b) order, a < b
    (``pairs``, 2 x P), with each swap's permutation of the classes
    (``perms``, P x m), the flat indices that gather the stacked (2 x m x m)
    class-pair counts it permutes, in C order (``gathers``, P x 2 x m x m),
    and its prior gap log p_b - log p_a (``gaps``).  From the same rows,
    ``moves`` holds the chain's (perm, gather, gap) entry for each ordered
    pair, the gap negated for (b, a).
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
    m, live = log_prior.size, np.flatnonzero(system.class_probs > 0.0)
    a, b = pairs = live[np.array(np.triu_indices(live.size, 1))]
    perms, at = np.arange(m)[None].repeat(a.size, 0), np.arange(a.size)
    perms[at, a], perms[at, b] = b, a
    rows = np.arange(2)[:, None, None] * m + perms[:, None, :, None]
    gathers = rows * m + perms[:, None, None, :]
    gaps = log_prior[b] - log_prior[a]
    moves = {}
    for (i, j), perm, gather, gap in zip(pairs.T.tolist(), perms, gathers, gaps.tolist()):
        moves[i, j], moves[j, i] = (perm, gather, gap), (perm, gather, -gap)
    return _Tables(D, G, B, log_prior, log_tables, dG, live, pairs, perms, gathers, gaps, moves,
                   data, system)


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
    small matmul with the tabulated class difference."""
    return D[i] @ dG[a, b]


CERTIFY_MARGIN = 1e-9


def _stay_screen(n: int, m: int):
    """The screen of a chain's n entities over m classes, built once per chain.

    Called with one sweep's labels and uniforms, it returns a map from the
    n x m table of log conditionals to which entities the exact draw is sure
    to leave in their class.  On a class-major copy of the table, in a buffer
    that lives as long as the screen, so that its reductions run along
    contiguous rows, it takes each entity's running sums of exp(logw - max)
    in class order: the arithmetic of `_sample_logweights` up to the last bit
    of each ``exp``.  An entity is certified when u times its total lies more
    than ``CERTIFY_MARGIN`` of the total inside its class's interval of the
    running sums, a margin far wider than that rounding, so the exact draw
    returns its class.  A class of zero weight is never certified.
    """
    C = np.zeros((m + 1, n))
    W = C[1:]
    entities = np.arange(n)

    def sweep_screen(labels, uniforms):
        # at these flat indices C holds each entity's running sum before its
        # class, and W (C without its zero row) the sum through it
        lo = labels * n + entities
        below, above = uniforms - CERTIFY_MARGIN, uniforms + CERTIFY_MARGIN

        def certified(L) -> np.ndarray:
            W[...] = L.T
            np.subtract(W, np.maximum.reduce(W), out=W)
            np.exp(W, out=W)
            np.add.accumulate(W, out=W)
            total = C[m]
            return (C.take(lo) < below * total) & (W.take(lo) > above * total)

        return certified

    return sweep_screen


def _sweep_stored(z, tables, rng, screen=None):
    """Gibbs-draw every entity from its conditional in index order, in place,
    and return the number of entities that moved.

    A sweep given a `_stay_screen` draws only the entities it cannot
    certify: the others would stay under the exact draw, so they keep their
    class, and a move screens the entities after it again.  The table is
    rebuilt once per sweep, since one carried across sweeps drifts in its
    last bits, and is touched only when an entity moves.
    """
    D, dG = tables.D, tables.dG
    L = _stored_table(*tables[:3], z)
    n = len(labels := z.tolist())
    uniforms = rng.random(n)
    u = uniforms.tolist()
    if screen:
        certified = screen(z, uniforms)
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


def _argmax_sweep(Z, L, D, dG, owner) -> None:
    """Give every entity, in index order, its conditional's first maximum,
    in each labeling of the stack ``Z`` (rows x n) at once, in place.

    ``L`` is the stack's table, its class columns padded at -inf up to the
    width of ``dG``, which stacks each system's class differences, padded
    alike; row r belongs to system ``owner[r]``.  A padded column is never
    a maximum, so each row takes the argmax of its own table.  The rows that
    move at one entity are updated together, by one batched matmul with
    each row's system's difference.
    """
    for i, now in enumerate(Z.T):
        best = L[:, i].argmax(1)
        if (rows := (best != now).nonzero()[0]).size:
            L[rows] += D[i] @ dG[owner[rows], now[rows], best[rows]]
        now[:] = best


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
    _sweep_stored(z, _sweep_tables(data, system), rng, _stay_screen(z.size, system.n_classes))
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


def _swap_score(tables: _Tables, counts, sizes, ll: float, a: int, b: int):
    """The chain's class swap a <-> b, scored in Python floats through its
    prebuilt entry: its permutation, log-likelihood, and log-joint gain over
    the state of counts ``counts``, class sizes ``sizes`` and ``ll``."""
    perm, gather, gap = tables.moves[a, b]
    new_ll = float(_loglik_from_counts(*counts.take(gather), tables.log_tables))
    return perm, new_ll, new_ll - ll + (sizes[a] - sizes[b]) * gap


def _class_swap_move(z, counts, ll: float, tables: _Tables, rng) -> tuple[np.ndarray, float]:
    """Metropolis move exchanging two class identities wholesale.

    Single-entity updates cannot cross between assignment modes that differ
    by a relabeling of classes — with sharp link probabilities every
    intermediate state is a likelihood cliff.  Swapping the entities of two
    classes in one proposal jumps the cliff directly; the acceptance ratio
    needs only the permuted counts and the class-count prior delta, scored
    by `_swap_score`.  A swap of two empty classes is no move and draws no
    uniform.
    """
    if tables.live.size < 2:
        return z, ll
    a, b = tables.live[rng.permutation(tables.live.size)[:2]].tolist()
    sizes = np.bincount(z, minlength=counts.shape[-1]).tolist()
    if not (sizes[a] or sizes[b]):
        return z, ll
    perm, new_ll, log_ratio = _swap_score(tables, counts, sizes, ll, a, b)
    if log_ratio >= 0 or rng.random() < np.exp(log_ratio):
        return perm[z], new_ll
    return z, ll


INIT_RESTARTS = 8
INIT_GREEDY_SWEEPS = 6


class GreedyStart(NamedTuple):
    """A stored chain's start: its refined candidates (R x n), their log
    joints, the chain's generator after the candidates' prior draw, and the
    `_Tables` of its system on its dataset, which the chain runs on."""

    candidates: np.ndarray
    joints: np.ndarray
    rng: np.random.Generator
    tables: _Tables


def _swap_gains(tables: _Tables, counts, sizes, ll, start: int = 0):
    """The init's batch: the log-likelihood and log-joint gain of each swap
    of the swap table from ``start`` on.  States stacked along the leading
    axes of ``counts`` (… x 2 x m x m), ``sizes`` (… x m) and ``ll`` (… x 1)
    are scored against every swap, each m x m sum in C order."""
    a, b = tables.pairs[:, start:]
    swapped = counts.reshape(*counts.shape[:-3], -1).take(tables.gathers[start:], -1)
    new_ll = _loglik_from_counts(*np.moveaxis(swapped, -3, 0), tables.log_tables)
    return new_ll, new_ll - ll + (sizes[..., a] - sizes[..., b]) * tables.gaps[start:]


def _swap_scan(Z, tables: _Tables) -> np.ndarray:
    """Take improving class swaps in each labeling of the stack ``Z`` (R x n),
    in place, and return the labelings' log-likelihoods.

    The live class pairs are tried in (a, b) order: every remaining swap is
    scored in one batch, the first improving one is taken, and the scan
    resumes after it; one batch scores every labeling's first scan.
    """
    onehot = np.eye(tables.log_prior.size)[Z]  # not pair_counts, as in the chain
    counts = onehot.swapaxes(1, 2)[:, None] @ tables.data.observed_link_matrices @ onehot[:, None]
    lls = _loglik_from_counts(*counts.swapaxes(0, 1), tables.log_tables)
    sizes = onehot.sum(1)
    new_lls, all_gains = _swap_gains(tables, counts, sizes, lls[:, None])
    for r in np.flatnonzero((all_gains > 0).any(1)):
        # a labeling that takes a swap scans on alone, from after it
        z, c, s, new_ll, gains, start = Z[r], counts[r], sizes[r], new_lls[r], all_gains[r], 0
        while (better := np.flatnonzero(gains > 0)).size:
            p = start + int(better[0])
            perm = tables.perms[p]
            z, s, c, lls[r] = perm[z], s[perm], c.take(tables.gathers[p]), new_ll[better[0]]
            start = p + 1
            new_ll, gains = _swap_gains(tables, c, s, lls[r], start)
        Z[r] = z
    return lls


def greedy_starts(data: RelationData, systems, schedules) -> list[GreedyStart]:
    """The stored chains' starts for a pool: prior draws refined by argmax
    sweeps and improving class swaps, one `GreedyStart` per system, which
    carries the system's `_sweep_tables` to its chain.

    Iterated conditional modes plus improving class swaps converge to a
    local optimum of the joint in a handful of sweeps; the chain starts from
    the best candidate.  Each system draws its ``INIT_RESTARTS`` candidates
    from its schedule's generator, which its start keeps for the chain.  The
    candidates of the whole pool are refined as one stack: per sweep, each
    system's table is built on its own and padded to the pool's widest class
    count, every entity takes one argmax and one batched update across the
    stack, and each system then runs its `_swap_scan`.  A sweep is a
    function of a system's candidates alone and draws nothing, so a system
    whose candidates a sweep leaves as it found them drops out of later
    sweeps.  Each start equals the one a pool of its system alone gives.
    """
    pool = list(zip(systems, schedules, strict=True))
    if not pool:
        return []
    n, R = data.n_entities, INIT_RESTARTS
    tables = [_sweep_tables(data, s) for s, _ in pool]
    rngs = [np.random.default_rng(sched.seed) for _, sched in pool]
    Zs = [sample_stored_assignments(s, (R, n), rng) for (s, _), rng in zip(pool, rngs)]
    widths = [s.n_classes for s, _ in pool]
    M = max(widths)
    dG = np.zeros((len(pool), M, M, 4, M))
    for g, t, m in zip(dG, tables, widths):
        g[:m, :m, :, :m] = t.dG
    lls = [None] * len(pool)
    active = list(range(len(pool)))
    for _ in range(INIT_GREEDY_SWEEPS):
        Z = np.concatenate([Zs[k] for k in active])
        L = np.full((Z.shape[0], n, M), -np.inf)
        for j, k in enumerate(active):
            L[j * R : (j + 1) * R, :, : widths[k]] = _stored_table(*tables[k][:3], Zs[k])
        _argmax_sweep(Z, L, tables[0].D, dG, np.repeat(active, R))
        moved = []
        for j, k in enumerate(active):
            block = Z[j * R : (j + 1) * R]
            lls[k] = _swap_scan(block, tables[k])
            if not np.array_equal(block, Zs[k]):
                moved.append(k)
            Zs[k] = block
        if not (active := moved):
            break
    return [
        GreedyStart(z, ll + t.log_prior[z].sum(1), rng, t)
        for z, ll, t, rng in zip(Zs, lls, tables, rngs)
    ]


def run_stored_chain(
    data: RelationData,
    system: StoredSystem,
    schedule: McmcSchedule,
    start: GreedyStart | None = None,
) -> PosteriorSamples:
    """Gibbs-sample entity-to-class mappings for one stored system.

    Class assignments are the only latent state (the system's link
    probabilities stay fixed).  The chain starts from the best of several
    greedily refined prior draws — with sharp link probabilities the
    posterior concentrates on one assignment basin, and a cold start from
    the prior alone routinely strands the sampler in a side basin.  That
    start is ``start``, this system's entry of a pool's `greedy_starts`
    for these schedules, or else ``greedy_starts(data, [system],
    [schedule])[0]``; the chain runs on the start's tables, refusing a start
    made for another dataset or system, and draws on from a copy of its
    generator.  Each sweep then reassigns every entity from its full
    conditional and attempts one class-swap Metropolis move, which rescues
    the chain from relabeled modes that per-entity updates cannot reach.
    Retained draws record the Bernoulli log-likelihood of the observed
    cells, computed from the class-pair counts.  Fully determined by
    ``schedule.seed``.
    """
    if start is None:
        (start,) = greedy_starts(data, [system], [schedule])
    rng = np.random.Generator(copy.copy(start.rng.bit_generator))
    tables = start.tables
    if tables.data is not data or tables.system is not system:
        raise ConfigError("the start was made for another dataset or system")
    z = np.array(_as_assignments(start.candidates[np.argmax(start.joints)]))
    _check_assignments(data, z, system.n_classes)
    observed, eye = data.observed_link_matrices, np.eye(system.n_classes)
    screen = _stay_screen(data.n_entities, system.n_classes)
    retained, moves = [], data.n_entities
    for sweep in range(schedule.total_sweeps):
        # each move costs a re-screen, so a screen pays only in a sweep
        # moving fewer than about n/10 entities, as the previous sweep's
        # moves predict; the first sweep has no such predictor, so no screen
        moves = _sweep_stored(z, tables, rng, screen if 12 * moves < data.n_entities else None)
        onehot = eye[z]  # not pair_counts: its checks and one-hot take twice as long
        counts = onehot.T @ observed @ onehot
        ll = float(_loglik_from_counts(*counts, tables.log_tables))
        z, ll = _class_swap_move(z, counts, ll, tables, rng)
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
