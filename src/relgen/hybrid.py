"""Hybrid generalization: stored systems plus a fresh nonparametric theory.

The hybrid treats K stored systems and one freshly inferred relational model
as K+1 competing components.  A concentration-style parameter tau sets how
much prior mass the fresh-theory component receives: each stored system gets
1 / (K + tau) and the theory gets tau / (K + tau).  tau is tuned post hoc by
maximizing a held-out score with Brent's method on log10(tau).
"""

from __future__ import annotations

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    OptimizationError,
    PosteriorSamples,
    RelationData,
)
from .analogy import (
    analogy_weights,
    harmonic_mean_evidence,
    stored_component_predictions,
)
from .irm import irm_predict_cells

TAU_LOG10_LOWER = -4.0
TAU_LOG10_UPPER = 4.0
TAU_TOL = 1e-4


def hybrid_prior(n_stored: int, tau: float) -> np.ndarray:
    """Prior over K stored components plus the fresh-theory component.

    Stored systems each receive 1 / (K + tau); the final entry, the theory
    component, receives tau / (K + tau).
    """
    if n_stored < 1:
        raise ConfigError("need at least one stored system")
    if tau <= 0 or not np.isfinite(tau):
        raise ValueError(f"tau must be positive and finite, got {tau!r}")
    prior = np.full(n_stored + 1, 1.0 / (n_stored + tau))
    prior[-1] = tau / (n_stored + tau)
    return prior


def hybrid_log_evidences(stored_samples, irm_samples: PosteriorSamples) -> np.ndarray:
    """Harmonic-mean log-evidence per component, theory last.

    The stored entries use each chain's Bernoulli log-likelihood draws; the
    theory entry uses the collapsed log-likelihood draws of the fresh chain.
    All chains must have the same draw count so the estimates are comparable.
    """
    stored_samples = list(stored_samples)
    if not stored_samples:
        raise DimensionError("need at least one stored-system sample set")
    if irm_samples.alphas is None:
        raise ConfigError("theory samples carry no alpha draws; not a collapsed chain")
    draw_counts = {s.n_draws for s in stored_samples} | {irm_samples.n_draws}
    if len(draw_counts) != 1:
        raise ConfigError(
            f"equal draw counts required across components, got {sorted(draw_counts)}"
        )
    evidences = [harmonic_mean_evidence(s.logliks) for s in stored_samples]
    evidences.append(harmonic_mean_evidence(irm_samples.logliks))
    return np.asarray(evidences)


def hybrid_weights(log_evidences, tau: float) -> np.ndarray:
    """Posterior component weights at a given tau (theory weight is last)."""
    le = np.asarray(log_evidences, dtype=np.float64)
    if le.ndim != 1 or le.size < 2:
        raise DimensionError("need K stored evidences plus the theory evidence")
    with np.errstate(divide="ignore"):
        log_prior = np.log(hybrid_prior(le.size - 1, tau))
    return analogy_weights(le, log_prior)


def hybrid_component_predictions(
    stored_samples, irm_samples, systems, data: RelationData, cells
) -> np.ndarray:
    """(n_cells, K+1) per-component predictions; theory column last."""
    systems = list(systems)
    stored_samples = list(stored_samples)
    if len(systems) != len(stored_samples):
        raise DimensionError("one sample set per stored system required")
    cells = list(cells)
    cols = [
        stored_component_predictions(s, sys, cells)
        for s, sys in zip(stored_samples, systems)
    ]
    cols.append(irm_predict_cells(irm_samples, data, cells))
    return np.column_stack(cols)


_GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))


def optimize_tau(
    score_fn,
    lower: float = TAU_LOG10_LOWER,
    upper: float = TAU_LOG10_UPPER,
    tol: float = TAU_TOL,
) -> float:
    """Maximize a score over tau by Brent's method on log10(tau).

    ``lower``/``upper`` bound log10(tau); ``score_fn`` receives tau itself.
    Golden-section steps with parabolic-interpolation acceleration shrink the
    bracket until its width drops below ``tol``; the search then returns the
    best of the interior optimum and the two interval endpoints, so a
    monotone score yields the bound exactly.  Deterministic; a non-finite
    score raises an OptimizationError carrying the offending tau.
    """
    if not (np.isfinite(lower) and np.isfinite(upper) and lower < upper):
        raise ValueError(f"need finite lower < upper, got [{lower}, {upper}]")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    def g(log_tau: float) -> float:
        tau = 10.0 ** log_tau
        val = score_fn(tau)
        if val is None or not np.isfinite(val):
            raise OptimizationError(f"non-finite score at tau={tau!r}", tau)
        return float(val)

    a, b = float(lower), float(upper)
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = g(x)
    d = e = 0.0
    tiny = np.sqrt(np.finfo(float).eps)
    for _ in range(1000):
        if (b - a) < tol:
            break
        m = 0.5 * (a + b)
        tol1 = tiny * abs(x) + tol / 10.0
        golden_step = True
        if abs(e) > tol1:
            # try a parabola through (x, fx), (w, fw), (v, fv)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < 2.0 * tol1 or (b - u) < 2.0 * tol1:
                    d = tol1 if x < m else -tol1
                golden_step = False
        if golden_step:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = g(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu

    best_x, best_f = x, fx
    for endpoint in (lower, upper):
        f_end = g(endpoint)
        if f_end > best_f:
            best_x, best_f = endpoint, f_end
    return 10.0 ** best_x
