"""Output checks: grid row properties and an independent audit of hybrid fits.

The audit recomputes a library-path fit from its retained draws with numpy
and scipy only, never calling relgen, so a fault in relgen's likelihood,
evidence, prediction or mixing code shows as a mismatch.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaln, logsumexp

PROB_EPS = 1e-6  # relgen's clamp: every probability lies in [eps, 1 - eps]
RTOL = 1e-9
WEIGHT_SUM_TOL = 1e-9


def _close(a, b, rtol=RTOL, atol=1e-12) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=atol))


def check_grid(inputs, rows, planned_keys) -> list[str]:
    """Property checks on one grid's result rows; returns failure messages."""
    cfg = inputs.config
    problems = []
    keys = [(r.target_system, r.model, r.n_stored, r.observed_fraction) for r in rows]
    if sorted(keys, key=repr) != sorted(planned_keys, key=repr):
        problems.append(f"rows {len(keys)} do not match the {len(planned_keys)} planned")
    n_test = math.floor(cfg.test_fraction * cfg.entity_count**2)
    lo_score = -math.log1p(-PROB_EPS)
    hi_score = -math.log(PROB_EPS)
    lo_tau, hi_tau = 10.0**cfg.tau_lower, 10.0**cfg.tau_upper
    taus_by_k: dict = {}
    for r in rows:
        tag = f"{r.target_system}/{r.model}/K={r.n_stored}/f={r.observed_fraction}"
        if r.status != "ok":
            problems.append(f"{tag}: status {r.status} {r.error}")
            continue
        split = inputs.splits[(r.target_system, r.observed_fraction)]
        if r.n_test != n_test or len(split.test_cells) != n_test:
            problems.append(f"{tag}: n_test {r.n_test}, expected {n_test}")
        if r.score is None or not math.isfinite(r.score):
            problems.append(f"{tag}: score {r.score!r} not finite")
        elif not (n_test * lo_score * (1 - 1e-9) <= r.score <= n_test * hi_score * (1 + 1e-9)):
            problems.append(f"{tag}: score {r.score} outside the clamp limits")
        if r.model == "irm":
            continue
        w = np.asarray([x for _, x in r.weights], dtype=np.float64)
        if len(w) != r.n_stored:
            problems.append(f"{tag}: {len(w)} weights for K={r.n_stored}")
        if r.model == "hybrid":
            w = np.append(w, r.irm_weight if r.irm_weight is not None else np.nan)
            if r.tau_star is None or not (
                lo_tau * (1 - 1e-12) <= r.tau_star <= hi_tau * (1 + 1e-12)
            ):
                problems.append(f"{tag}: tau* {r.tau_star!r} outside [{lo_tau}, {hi_tau}]")
            taus_by_k.setdefault(r.n_stored, set()).add(r.tau_star)
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL):
            problems.append(f"{tag}: weights {w.tolist()} not a distribution")
    if cfg.tau_mode == "global":
        for k, taus in taus_by_k.items():
            if len(taus) != 1:
                problems.append(f"global tau: K={k} rows carry {len(taus)} tau values")
    return problems


def tau_at_bound(inputs, rows) -> tuple[int, int]:
    """(hybrid rows with tau* at a search bound, hybrid rows)."""
    cfg = inputs.config
    bounds = (10.0**cfg.tau_lower, 10.0**cfg.tau_upper)
    hyb = [r for r in rows if r.model == "hybrid" and r.tau_star is not None]
    at = sum(1 for r in hyb if any(math.isclose(r.tau_star, b, rel_tol=1e-9) for b in bounds))
    return at, len(hyb)


# ---------------------------------------------------------------------------
# Independent recomputation of a hybrid fit.

def _observed(data):
    mask = np.asarray(data.observed_mask, dtype=bool)
    rows, cols = np.nonzero(mask)
    vals = np.asarray(data.cells)[rows, cols]
    return rows, cols, vals


def _stored_loglik(eta, z, rows, cols, vals) -> float:
    p = np.clip(eta[z[rows], z[cols]], PROB_EPS, 1.0 - PROB_EPS)
    return float(np.sum(np.where(vals == 1, np.log(p), np.log1p(-p))))


def _class_pair_counts(z, rows, cols, vals):
    k = int(z.max()) + 1
    ones = np.zeros((k, k))
    total = np.zeros((k, k))
    np.add.at(ones, (z[rows], z[cols]), vals)
    np.add.at(total, (z[rows], z[cols]), 1.0)
    return ones, total - ones


def _collapsed_loglik(z, alpha, rows, cols, vals) -> float:
    ones, zeros = _class_pair_counts(z, rows, cols, vals)
    return float(np.sum(betaln(alpha + ones, alpha + zeros) - betaln(alpha, alpha)))


def _harmonic_mean(ll) -> float:
    ll = np.asarray(ll, dtype=np.float64)
    return float(np.log(ll.size) - logsumexp(-ll))


def _mixture_score(comps, log_ev, truths, tau) -> tuple[float, np.ndarray]:
    k = log_ev.size - 1
    log_prior = np.log(np.append(np.full(k, 1.0 / (k + tau)), tau / (k + tau)))
    a = log_ev + log_prior
    w = np.exp(a - logsumexp(a))
    w /= w.sum()
    p = np.clip(comps @ w, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.sum(np.where(truths == 1, np.log(p), np.log1p(-p)))), w


def audit_fit(fit, tau_bounds) -> list[str]:
    """Recompute every number of a hybrid fit from its draws; return mismatches.

    ``tau_bounds`` are the log10 bounds the fit searched tau between.
    """
    problems = []
    data = fit.data
    rows, cols, vals = _observed(data)
    test = np.asarray(data.test_cells, dtype=np.int64).reshape(-1, 2)
    tr, tc = test[:, 0], test[:, 1]

    evidences, comps = [], []
    for system, chain in zip(fit.pool, fit.chains):
        eta = np.asarray(system.link_probs, dtype=np.float64)
        draws = [np.asarray(z, dtype=np.int64) for z in chain.partitions]
        ll = [_stored_loglik(eta, z, rows, cols, vals) for z in draws]
        if not _close(ll, chain.logliks):
            problems.append(f"{system.name}: draw log-likelihoods differ")
        evidences.append(_harmonic_mean(ll))
        comps.append(np.mean([eta[z[tr], z[tc]] for z in draws], axis=0))

    draws = [np.asarray(z, dtype=np.int64) for z in fit.theory.partitions]
    alphas = np.asarray(fit.theory.alphas, dtype=np.float64)
    ll = [_collapsed_loglik(z, a, rows, cols, vals) for z, a in zip(draws, alphas)]
    if not _close(ll, fit.theory.logliks):
        problems.append("theory chain: collapsed draw log-likelihoods differ")
    evidences.append(_harmonic_mean(ll))
    theory_pred = np.zeros(len(tr))
    for z, a in zip(draws, alphas):
        ones, zeros = _class_pair_counts(z, rows, cols, vals)
        n1, n0 = ones[z[tr], z[tc]], zeros[z[tr], z[tc]]
        theory_pred += (n1 + a) / (n1 + n0 + 2.0 * a)
    comps.append(np.clip(theory_pred / len(draws), PROB_EPS, 1.0 - PROB_EPS))

    log_ev = np.asarray(evidences)
    comps = np.column_stack(comps)
    if not _close(log_ev, fit.log_evidences):
        problems.append("harmonic-mean evidences differ")
    if not _close(comps, fit.components):
        problems.append("component predictions differ")

    score, w = _mixture_score(comps, log_ev, fit.truths, fit.tau_star)
    if not _close(w, fit.weights):
        problems.append(f"hybrid weights at tau*={fit.tau_star} differ")
    if not _close(score, fit.score):
        problems.append(f"score {fit.score} differs from recomputed {score}")
    for bound in tau_bounds:
        at_bound, _ = _mixture_score(comps, log_ev, fit.truths, 10.0**bound)
        if score > at_bound * (1 + RTOL) + 1e-12:
            problems.append(f"score at tau* {score} worse than at 10^{bound} ({at_bound})")
    return problems
