"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way — explicit loops,
brute-force enumeration — deliberately sharing no code with the package
under test beyond numpy/scipy primitives.
"""

import itertools
import math

import numpy as np
from scipy.special import betaln, logsumexp


def set_partitions(n: int) -> list[np.ndarray]:
    """All partitions of n items as canonical label vectors (growth strings)."""
    out: list[np.ndarray] = []

    def rec(prefix: list, used: int):
        if len(prefix) == n:
            out.append(np.asarray(prefix, dtype=np.int64))
            return
        for c in range(used + 1):
            rec(prefix + [c], max(used, c + 1))

    rec([], 0)
    return out


def crp_log_prob_sequential(labels, gamma: float) -> float:
    """Log CRP probability via the literal one-customer-at-a-time product."""
    logp = 0.0
    counts: list[int] = []
    for lbl in np.asarray(labels, dtype=np.int64):
        denom = sum(counts) + gamma
        if lbl == len(counts):
            logp += math.log(gamma / denom)
            counts.append(1)
        else:
            logp += math.log(counts[lbl] / denom)
            counts[lbl] += 1
    return logp


def block_counts(data, labels, n_classes: int):
    """Observed link/non-link tallies per ordered class pair, by raw loops."""
    z = np.asarray(labels, dtype=np.int64)
    ones = [[0] * n_classes for _ in range(n_classes)]
    zeros = [[0] * n_classes for _ in range(n_classes)]
    for i in range(data.n_entities):
        for j in range(data.n_entities):
            if data.observed_mask[i, j]:
                if data.cells[i, j] == 1:
                    ones[z[i]][z[j]] += 1
                else:
                    zeros[z[i]][z[j]] += 1
    return ones, zeros


def marginal_loglik(data, labels, alpha: float) -> float:
    """Collapsed log-likelihood of the observed cells given a labeling."""
    z = np.asarray(labels, dtype=np.int64)
    k = int(z.max()) + 1 if z.size else 0
    ones, zeros = block_counts(data, z, k)
    total = 0.0
    for a in range(k):
        for b in range(k):
            total += betaln(alpha + ones[a][b], alpha + zeros[a][b]) - betaln(
                alpha, alpha
            )
    return float(total)


def irm_conditional_reference(data, labels, entity: int, alpha: float, gamma: float):
    """Log-weights of the entity's collapsed conditional, one candidate at a time.

    The candidates are the classes of the other entities, in label order,
    then a fresh class; the entity's own label is ignored.  Each weight is
    the collapsed log-likelihood of the labeling with the entity in that
    class plus its CRP seating: the log of the class's other members, or of
    gamma for the fresh class.
    """
    others = [int(v) for i, v in enumerate(labels) if i != entity]
    left = sorted(set(others))
    z = [left.index(int(v)) if i != entity else 0 for i, v in enumerate(labels)]
    out = []
    for c in range(len(left) + 1):
        z[entity] = c
        seats = others.count(left[c]) if c < len(left) else gamma
        out.append(marginal_loglik(data, z, alpha) + math.log(seats))
    return np.asarray(out)


def exact_irm_partition_posterior(data, alpha: float, gamma: float) -> dict:
    """Posterior over all partitions by brute-force enumeration."""
    parts = set_partitions(data.n_entities)
    logw = np.asarray(
        [
            marginal_loglik(data, z, alpha) + crp_log_prob_sequential(z, gamma)
            for z in parts
        ]
    )
    probs = np.exp(logw - logsumexp(logw))
    probs = probs / probs.sum()
    return {tuple(int(v) for v in z): float(p) for z, p in zip(parts, probs)}


def exact_irm_predictive(data, cells, alpha: float, gamma: float) -> np.ndarray:
    """Exact posterior predictive link probability for each queried cell."""
    parts = set_partitions(data.n_entities)
    logw = np.asarray(
        [
            marginal_loglik(data, z, alpha) + crp_log_prob_sequential(z, gamma)
            for z in parts
        ]
    )
    weights = np.exp(logw - logsumexp(logw))
    weights = weights / weights.sum()
    preds = np.zeros(len(cells))
    for z, w in zip(parts, weights):
        k = int(z.max()) + 1
        ones, zeros = block_counts(data, z, k)
        for q, (r, c) in enumerate(cells):
            n1 = ones[z[r]][z[c]]
            n0 = zeros[z[r]][z[c]]
            preds[q] += w * (n1 + alpha) / (n1 + n0 + 2.0 * alpha)
    return preds


def stored_log_joint(data, system, labels) -> float:
    """Log p(labels, observed cells) under a frozen stored system."""
    z = np.asarray(labels, dtype=np.int64)
    logp = 0.0
    for i in range(data.n_entities):
        logp += math.log(system.class_probs[z[i]])
    for i in range(data.n_entities):
        for j in range(data.n_entities):
            if data.observed_mask[i, j]:
                eta = float(system.link_probs[z[i], z[j]])
                logp += math.log(eta) if data.cells[i, j] == 1 else math.log1p(-eta)
    return logp


def clamped_loglik(data, link_probs, labels) -> float:
    """Log-likelihood of the observed cells, cell by cell, with the link
    probabilities clamped to [1e-6, 1 - 1e-6] as the package clamps them."""
    z = [int(v) for v in labels]
    logp = 0.0
    for i in range(data.n_entities):
        for j in range(data.n_entities):
            if data.observed_mask[i, j]:
                eta = min(max(float(link_probs[z[i], z[j]]), 1e-6), 1 - 1e-6)
                logp += math.log(eta) if data.cells[i, j] == 1 else math.log1p(-eta)
    return logp


def greedy_swap_reference(data, system, labels):
    """One pass of improving class swaps, the nested-loop way.

    Live class pairs are tried in (a, b) order with a < b; a pair whose
    classes are both empty is skipped, and a swap is kept when it raises the
    log joint.  Returns the final state and its log joint.
    """
    z = np.array(labels, dtype=np.int64)
    live = [c for c, prior in enumerate(system.class_probs.tolist()) if prior > 0.0]
    joint = stored_log_joint(data, system, z)
    for a_pos, a in enumerate(live):
        for b in live[a_pos + 1:]:
            if not ((z == a).any() or (z == b).any()):
                continue
            proposal = np.where(z == a, b, np.where(z == b, a, z))
            new_joint = stored_log_joint(data, system, proposal)
            if new_joint > joint:
                z, joint = proposal, new_joint
    return z, joint


def exact_stored_enumeration(data, system):
    """(assignment -> posterior prob, log evidence) over all m^n labelings."""
    m = system.link_probs.shape[0]
    n = data.n_entities
    live = [c for c in range(m) if system.class_probs[c] > 0.0]
    zs = [np.asarray(z, dtype=np.int64) for z in itertools.product(live, repeat=n)]
    logj = np.asarray([stored_log_joint(data, system, z) for z in zs])
    log_evidence = float(logsumexp(logj))
    probs = np.exp(logj - log_evidence)
    probs = probs / probs.sum()
    return {tuple(int(v) for v in z): float(p) for z, p in zip(zs, probs)}, log_evidence


def exact_stored_predictive(data, system, cells) -> np.ndarray:
    """Exact posterior predictive under one stored system, by enumeration."""
    posterior, _ = exact_stored_enumeration(data, system)
    preds = np.zeros(len(cells))
    for z, w in posterior.items():
        for q, (r, c) in enumerate(cells):
            preds[q] += w * float(system.link_probs[z[r], z[c]])
    return preds


def _cell_arrays(cells):
    return (np.asarray([r for r, _ in cells], dtype=np.int64),
            np.asarray([c for _, c in cells], dtype=np.int64))


def stored_predictions_by_draw(samples, system, cells) -> np.ndarray:
    """Per-cell link probability under a stored system, averaged over the
    retained draws by adding one draw at a time, in draw order; unclamped."""
    rows, cols = _cell_arrays(cells)
    acc = np.zeros(rows.size)
    for z in samples.partitions:
        acc += system.link_probs[z[rows], z[cols]]
    return acc / samples.n_draws


def irm_predictions_by_draw(data, samples, cells) -> np.ndarray:
    """Per-cell Beta posterior-mean link probability, (n1 + alpha) /
    (n1 + n0 + 2 alpha) from each draw's block counts, averaged by adding
    one draw at a time, in draw order, then clamped to [1e-6, 1 - 1e-6]."""
    rows, cols = _cell_arrays(cells)
    acc = np.zeros(rows.size)
    for z, alpha in zip(samples.partitions, samples.alphas):
        ones, zeros = np.asarray(block_counts(data, z, int(z.max()) + 1), dtype=np.float64)
        n1 = ones[z[rows], z[cols]]
        n0 = zeros[z[rows], z[cols]]
        acc += (n1 + alpha) / (n1 + n0 + 2.0 * alpha)
    return np.clip(acc / samples.n_draws, 1e-6, 1 - 1e-6)


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# Truncated prior CDFs for the hyperparameter samplers. ---------------------

def truncated_power_cdf(x, lo: float = 1e-3, hi: float = 1e3):
    """CDF of the density proportional to a^(-5/2) truncated to [lo, hi]."""
    x = np.clip(np.asarray(x, dtype=np.float64), lo, hi)
    norm = lo ** (-1.5) - hi ** (-1.5)
    return (lo ** (-1.5) - x ** (-1.5)) / norm


def truncated_exp_cdf(x, lo: float = 1e-3, hi: float = 1e3):
    """CDF of the unit-rate exponential truncated to [lo, hi]."""
    x = np.clip(np.asarray(x, dtype=np.float64), lo, hi)
    norm = math.exp(-lo) - math.exp(-hi)
    return (np.exp(-lo) - np.exp(-x)) / norm


# Stored-system conditional and sweep, the slow way. ------------------------

def stored_conditional(data, system, labels, entity: int) -> np.ndarray:
    """Log conditional over a stored system's classes for one entity.

    Sums, for each candidate class, the log prior and the log-likelihood of
    every observed cell in the entity's row and column.  Link probabilities
    are clamped to [1e-6, 1 - 1e-6] first, as the package clamps them.
    """
    z = [int(v) for v in labels]
    n = data.n_entities
    out = np.empty(system.class_probs.size)
    for c, prior in enumerate(system.class_probs.tolist()):
        if prior == 0.0:
            out[c] = -math.inf
            continue
        z[entity] = c
        logw = math.log(prior)
        for j in range(n):
            pairs = [(entity, j), (j, entity)] if j != entity else [(j, j)]
            for r, col in pairs:
                if data.observed_mask[r, col]:
                    eta = min(max(float(system.link_probs[z[r], z[col]]), 1e-6), 1 - 1e-6)
                    logw += math.log(eta) if data.cells[r, col] == 1 else math.log1p(-eta)
        out[c] = logw
    return out


def stored_sweep_reference(data, system, labels, rng) -> np.ndarray:
    """One Gibbs sweep in index order: one ``rng.random()`` per entity,
    drawn through the normalized cumulative sum."""
    z = np.array(labels, dtype=np.int64)
    for i in range(data.n_entities):
        logw = stored_conditional(data, system, z, i)
        probs = np.exp(logw - logw.max())
        probs /= probs.sum()
        choice = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
        z[i] = min(choice, probs.size - 1)
    return z
