"""Hybrid generalization: stored systems plus a fresh nonparametric theory.

The hybrid treats K stored systems and one freshly inferred relational model
as K+1 competing components.  A concentration-style parameter tau sets how
much prior mass the fresh-theory component receives: each stored system gets
1 / (K + tau) and the theory gets tau / (K + tau).  tau is tuned post hoc by
maximizing a held-out score by golden-section search on log10(tau).
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
from .analogy import _hm_log_evidences, _stored_columns, analogy_weights
from .irm import irm_predict_cells

TAU_LOG10_LOWER = -4.0
TAU_LOG10_UPPER = 4.0
TAU_TOL = 1e-4
TAU_TIE = 1e-9


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
    """Each component chain's ``log_evidence``, theory last.

    The stored entries come from each chain's Bernoulli log-likelihood draws,
    the theory entry from the fresh chain's collapsed log-likelihood draws.
    All chains must have the same draw count so the estimates are comparable.
    """
    stored_samples = list(stored_samples)
    if not stored_samples:
        raise DimensionError("need at least one stored-system sample set")
    if irm_samples.alphas is None:
        raise ConfigError("theory samples carry no alpha draws; not a collapsed chain")
    return _hm_log_evidences(stored_samples + [irm_samples])


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
    stored = _stored_columns(stored_samples, systems, cells)
    return np.column_stack([stored, irm_predict_cells(irm_samples, data, cells)])


def optimize_tau(
    score_fn, lower: float = TAU_LOG10_LOWER, upper: float = TAU_LOG10_UPPER
) -> float:
    """Maximize a score over tau by golden-section search on log10(tau).

    ``lower``/``upper`` bound log10(tau); ``score_fn`` receives tau itself.
    Two interior points split the bracket in the golden ratio; each step keeps
    the side holding the better point, and on a tie the lower side.  Once the
    bracket is narrower than the fixed tolerance ``TAU_TOL``, let f* be the
    best score of the better interior point and the two endpoints: the better
    endpoint within ``TAU_TIE * max(1, |f*|)`` of f* wins, the lower on a tie,
    else the interior point.  So a score monotone or flat toward a bound
    yields that bound exactly.  Deterministic; a non-finite score raises an
    OptimizationError carrying the offending tau.
    """
    if not (np.isfinite(lower) and np.isfinite(upper) and lower < upper):
        raise ValueError(f"need finite lower < upper, got [{lower}, {upper}]")

    def g(log_tau: float) -> float:
        tau = 10.0 ** log_tau
        val = score_fn(tau)
        if val is None or not np.isfinite(val):
            raise OptimizationError(f"non-finite score at tau={tau!r}", tau)
        return float(val)

    shrink = 0.5 * (np.sqrt(5.0) - 1.0)  # 1 / golden ratio
    a, b = float(lower), float(upper)
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = g(c), g(d)
    while b - a >= TAU_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = g(d)

    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    ends = [(g(x), x) for x in (lower, upper)]
    f_top = max(best_f, *(f for f, _ in ends))
    near = [end for end in ends if end[0] >= f_top - TAU_TIE * max(1.0, abs(f_top))]
    if near:  # max keeps the first, the lower endpoint, on a tie
        best_x = max(near, key=lambda end: end[0])[1]
    return 10.0 ** best_x
