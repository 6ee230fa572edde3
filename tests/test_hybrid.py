"""Combined model: component prior, tau behavior, and the 1-d optimizer."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relgen import (
    ConfigError,
    DimensionError,
    McmcSchedule,
    OptimizationError,
    analogy_weights,
    harmonic_mean_evidence,
    hybrid_component_predictions,
    hybrid_log_evidences,
    hybrid_prior,
    hybrid_weights,
    irm_predict_cells,
    optimize_tau,
    predictive_prob,
    run_irm_chain,
    run_stored_chain,
    stored_component_predictions,
)

from test_analogy import two_class_system
from test_core import random_data


def small_fit(seed=7, n=5, n_test=3):
    rng = np.random.default_rng(seed)
    data = random_data(rng, n, observed_fraction=0.6, n_test=n_test)
    pool = [two_class_system("a"), two_class_system("b"), two_class_system("c")]
    sched = McmcSchedule(burn_in=30, n_retained=40, thinning=1, seed=seed)
    chains = [
        run_stored_chain(data, s, sched.with_seed(seed + 1 + i))
        for i, s in enumerate(pool)
    ]
    irm = run_irm_chain(data, sched.with_seed(seed + 50))
    return data, pool, chains, irm


def test_prior_frozen_values_and_normalization():
    prior = hybrid_prior(5, 2.0)
    assert_allclose(prior, [1 / 7] * 5 + [2 / 7], rtol=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(1, 40))
        tau = float(10 ** rng.uniform(-6, 6))
        p = hybrid_prior(k, tau)
        assert p.shape == (k + 1,)
        assert_allclose(p.sum(), 1.0, rtol=1e-12)
        # all stored components share one weight; the fresh component scales
        # with tau relative to a single stored system
        assert_allclose(p[-1] / p[0], tau, rtol=1e-9)


def test_prior_validation():
    with pytest.raises(ConfigError):
        hybrid_prior(0, 1.0)
    with pytest.raises(ValueError):
        hybrid_prior(3, 0.0)
    with pytest.raises(ValueError):
        hybrid_prior(3, np.inf)


def test_log_evidences_order_and_validation():
    data, pool, chains, irm = small_fit()
    le = hybrid_log_evidences(chains, irm)
    assert le.shape == (len(pool) + 1,)
    # stored entries first, fresh-structure entry last
    for i, c in enumerate(chains):
        assert_allclose(le[i], harmonic_mean_evidence(c.logliks), rtol=1e-12)
    assert_allclose(le[-1], harmonic_mean_evidence(irm.logliks), rtol=1e-12)

    with pytest.raises(DimensionError):
        hybrid_log_evidences([], irm)
    with pytest.raises(ConfigError):
        hybrid_log_evidences(chains, chains[0])  # no hyperparameter record
    short = run_irm_chain(data, McmcSchedule(10, 5, 1, 3))
    with pytest.raises(ConfigError):
        hybrid_log_evidences(chains, short)  # draw counts differ


def test_tau_extremes_recover_pure_models():
    _, pool, chains, irm = small_fit()
    le = hybrid_log_evidences(chains, irm)
    k = len(pool)

    nearly_zero = hybrid_weights(le, 1e-300)
    assert nearly_zero[-1] < 1e-6
    assert_allclose(nearly_zero[:k], analogy_weights(le[:k]), atol=1e-6)

    nearly_inf = hybrid_weights(le, 1e300)
    assert nearly_inf[-1] > 1 - 1e-6
    assert nearly_inf[:k].max() < 1e-6


def test_weights_interpolate_monotonically():
    _, pool, chains, irm = small_fit()
    le = hybrid_log_evidences(chains, irm)
    taus = 10.0 ** np.linspace(-6, 6, 25)
    theory_w = [hybrid_weights(le, t)[-1] for t in taus]
    assert all(b >= a - 1e-12 for a, b in zip(theory_w, theory_w[1:]))
    for t in taus:
        assert_allclose(hybrid_weights(le, t).sum(), 1.0, atol=1e-12)


def test_component_predictions_and_mixture():
    data, pool, chains, irm = small_fit()
    comps = hybrid_component_predictions(chains, irm, pool, data, data.test_cells)
    assert comps.shape == (len(data.test_cells), len(pool) + 1)
    assert np.all((comps >= 0) & (comps <= 1))

    single = hybrid_component_predictions(chains, irm, pool, data, data.test_cells[:1])
    assert_allclose(single, comps[:1], rtol=1e-12)

    w = hybrid_weights(hybrid_log_evidences(chains, irm), 3.7)
    expected = [predictive_prob(comps[i], w) for i in range(comps.shape[0])]
    assert_allclose(predictive_prob(comps, w), expected, rtol=1e-12)
    assert_allclose(predictive_prob(single, w), expected[:1], rtol=1e-12)


def test_component_predictions_reject_out_of_range_cells():
    data, pool, chains, irm = small_fit()
    n = data.n_entities
    for cell in ((-1, 0), (n, 0), (0, n)):
        with pytest.raises(DimensionError):
            stored_component_predictions(chains[0], pool[0], [cell])
        with pytest.raises(DimensionError):
            irm_predict_cells(irm, data, [cell])


def test_optimize_tau_quadratic_peak():
    # smooth single peak at log10(tau) = 0.5
    tau_star = optimize_tau(lambda t: -((np.log10(t) - 0.5) ** 2))
    assert abs(np.log10(tau_star) - 0.5) < 1e-3
    # no grid point beats the optimizer's choice by more than roundoff
    grid = 10.0 ** np.linspace(-4, 4, 4001)
    best_grid = max(-((np.log10(t) - 0.5) ** 2) for t in grid)
    assert -((np.log10(tau_star) - 0.5) ** 2) >= best_grid - 1e-8


def test_optimize_tau_monotone_hits_bounds():
    rising = optimize_tau(lambda t: np.log10(t))
    assert_allclose(np.log10(rising), 4.0, atol=1e-9)
    falling = optimize_tau(lambda t: -np.log10(t))
    assert_allclose(np.log10(falling), -4.0, atol=1e-9)


def test_optimize_tau_two_peaks_returns_local_maximum():
    def score(t):
        x = np.log10(t)
        return -((x + 2.0) ** 2) * ((x - 1.0) ** 2) - 0.3 * x

    tau_star = optimize_tau(score)
    up = tau_star * 10 ** 0.01
    down = tau_star * 10 ** -0.01
    s = score(tau_star)
    assert s >= score(up) - 1e-9
    assert s >= score(down) - 1e-9


def test_optimize_tau_custom_bounds_and_failure():
    tau_star = optimize_tau(lambda t: -((np.log10(t) - 1.0) ** 2), lower=0.0, upper=2.0)
    assert abs(np.log10(tau_star) - 1.0) < 1e-3

    with pytest.raises(OptimizationError) as info:
        optimize_tau(lambda t: np.nan)
    assert info.value.tau is not None
    assert info.value.tau > 0


def test_optimized_mixture_never_loses_to_endpoints():
    # on real chain output the tuned mixture is at least as good as the
    # near-pure extremes, by construction of the endpoint comparison
    data, pool, chains, irm = small_fit(seed=21)
    le = hybrid_log_evidences(chains, irm)
    comps = hybrid_component_predictions(chains, irm, pool, data, data.test_cells)
    truths = np.asarray([data.cells[r, c] for r, c in data.test_cells])

    def score(tau):
        w = hybrid_weights(le, tau)
        logs = [
            np.log(predictive_prob(comps[i], w))
            if truths[i]
            else np.log1p(-predictive_prob(comps[i], w))
            for i in range(comps.shape[0])
        ]
        return float(np.sum(logs))

    tau_star = optimize_tau(score)
    assert score(tau_star) >= score(1e-4) - 1e-9
    assert score(tau_star) >= score(1e4) - 1e-9
