"""Combined model: component prior, tau behavior, and the 1-d optimizer."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import relgen
from relgen import (
    ConfigError,
    DimensionError,
    McmcSchedule,
    OptimizationError,
    RelationData,
    analogy_report,
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

from relgen.hybrid import TAU_TIE, TAU_TOL

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


def test_empty_observed_set_leaves_the_prior():
    # no observed cell: every draw's log-likelihood is 0, so is every chain's
    # evidence, and the weights are the prior at any tau
    data = RelationData(6, np.zeros((6, 6)), np.zeros((6, 6), dtype=bool), ((0, 1), (2, 3)))
    pool = [two_class_system("a"), two_class_system("b"), two_class_system("c")]
    sched = McmcSchedule(burn_in=5, n_retained=8, thinning=1, seed=3)
    chains = [run_stored_chain(data, s, sched.with_seed(4 + i)) for i, s in enumerate(pool)]
    irm = run_irm_chain(data, sched)
    assert [c.log_evidence for c in chains + [irm]] == [0.0] * 4
    assert_allclose(analogy_report(pool, chains).weights, np.full(3, 1 / 3), rtol=1e-15)
    le = hybrid_log_evidences(chains, irm)
    for tau in (1e-4, 1.0, 1e4):
        assert_allclose(hybrid_weights(le, tau), hybrid_prior(3, tau), rtol=1e-14)


def test_one_entity_self_cell_evidence():
    # under a symmetric Beta(alpha, alpha), one observed cell has collapsed
    # likelihood alpha / (2 alpha) = 1/2 whatever alpha the chain draws
    for link in (0, 1):
        data = RelationData(1, [[link]], [[True]])
        irm = run_irm_chain(data, McmcSchedule(burn_in=5, n_retained=20, thinning=1, seed=9))
        assert_allclose(irm.log_evidence, np.log(0.5), rtol=1e-12)


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
    # smooth single peaks; no grid point beats the optimizer's choice by
    # more than roundoff
    grid = 10.0 ** np.linspace(-4, 4, 4001)
    for peak in (-3.0, 0.5, 3.99):
        tau_star = optimize_tau(lambda t: -((np.log10(t) - peak) ** 2))
        assert abs(np.log10(tau_star) - peak) < TAU_TOL, peak
        best_grid = max(-((np.log10(t) - peak) ** 2) for t in grid)
        assert -((np.log10(tau_star) - peak) ** 2) >= best_grid - 1e-8, peak


def test_optimize_tau_monotone_hits_bounds():
    rising = optimize_tau(lambda t: np.log10(t))
    assert_allclose(np.log10(rising), 4.0, atol=1e-9)
    falling = optimize_tau(lambda t: -np.log10(t))
    assert_allclose(np.log10(falling), -4.0, atol=1e-9)
    # a flat score ties everywhere, both bounds included: the lower bound
    flat = optimize_tau(lambda t: 1.0)
    assert flat == 10**-4


def test_optimize_tau_bound_wins_only_within_tau_tie():
    # flat inside the bracket, lower toward the bounds by a gap relative to
    # max(1, |score|); ties inside keep the lower bracket, so the interior
    # answer sits next to the lower bound
    for base in (0.0, -1e3):
        scale = max(1.0, abs(base))

        def search(lower_gap, upper_gap):
            gaps = {10.0**-4: lower_gap, 10.0**4: upper_gap}
            return optimize_tau(lambda t: base - gaps.get(t, 0.0) * scale)

        # within the tie: the bound, the better of two, and the lower on a tie
        assert search(1.0, 0.5 * TAU_TIE) == 10**4
        assert search(0.5 * TAU_TIE, 0.25 * TAU_TIE) == 10**4
        assert search(0.5 * TAU_TIE, 0.5 * TAU_TIE) == 10**-4
        # just outside it on both sides: the interior point
        inside = search(2 * TAU_TIE, 2 * TAU_TIE)
        assert -4.0 < np.log10(inside) < -4.0 + TAU_TOL


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
    # two interior points, one golden-ratio shrink per call, then both ends
    golden = 0.5 * (1.0 + np.sqrt(5.0))
    for lower, upper in ((0.0, 2.0), (-4.0, 4.0), (-12.0, 12.0)):
        calls = []

        def score(t):
            calls.append(t)
            return -((np.log10(t) - 1.0) ** 2)

        tau_star = optimize_tau(score, lower=lower, upper=upper)
        assert abs(np.log10(tau_star) - 1.0) < TAU_TOL
        steps = int(np.ceil(np.log((upper - lower) / TAU_TOL) / np.log(golden)))
        assert len(calls) <= 2 + steps + 2, (lower, upper)

    for bad in (np.nan, np.inf, -np.inf, None):
        with pytest.raises(OptimizationError) as info:
            optimize_tau(lambda t: bad)
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


def test_import_keeps_scipy_optimize_out():
    # optimize_tau is a golden-section search of its own on purpose:
    # importing scipy.optimize after relgen costs 0.31-0.43 s and 21 MB of
    # peak RSS (Python 3.11.7, scipy 1.17.1, 2 vCPUs), more than the
    # benchmark's setup-time and memory bounds allow.  Only scipy.special
    # is needed.
    src = str(Path(relgen.__file__).resolve().parents[1])
    probe = "import sys, relgen; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda *fit: hybrid_weights([0.0], 1.0), DimensionError),
        (lambda *fit: hybrid_weights(np.zeros((2, 2)), 1.0), DimensionError),
        (
            lambda data, pool, chains, irm: hybrid_component_predictions(
                chains[:2], irm, pool, data, data.test_cells
            ),
            DimensionError,
        ),
        (lambda *fit: optimize_tau(lambda tau: 0.0, 1.0, 1.0), ValueError),
        (lambda *fit: optimize_tau(lambda tau: 0.0, -np.inf, 1.0), ValueError),
    ],
    ids=["one evidence", "2-d evidences", "pool and chains differ", "empty bracket", "infinite bound"],
)
def test_hybrid_refuses_malformed_input(call, error):
    with pytest.raises(error) as caught:
        call(*small_fit())
    assert type(caught.value) is error
