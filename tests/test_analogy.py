"""Stored-system mixture: per-system chains, evidence, weighting, predictions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.stats import chisquare

from relgen import (
    ConfigError,
    DegenerateWeightsError,
    McmcSchedule,
    RelationData,
    StoredSystem,
    analogy_predict_cells,
    analogy_report,
    analogy_weights,
    gibbs_sweep_stored,
    harmonic_mean_evidence,
    predictive_prob,
    run_stored_chain,
    sample_stored_assignments,
    stored_component_predictions,
)
from relgen.analogy import (
    INIT_GREEDY_SWEEPS,
    _greedy_candidate,
    _move_entity,
    _stored_table,
    _sweep_stored,
    _sweep_tables,
)
from relgen.datagen import generate_synthetic_system, make_split, simulate_interactions
from relgen.datagen import SplitSpec
from relgen.irm import _sample_logweights

from oracles import (
    clamped_loglik,
    exact_stored_enumeration,
    exact_stored_predictive,
    greedy_swap_reference,
    stored_conditional,
    stored_sweep_reference,
)
from test_core import random_data


def two_class_system(name="toy"):
    link = np.array([[0.9, 0.2], [0.3, 0.6]])
    return StoredSystem(name, link, np.array([0.6, 0.4]))


def gap_system():
    # class 1 has zero prior; 0.0 and 1.0 links exercise the clamp
    link = np.array([[1.0, 0.2, 0.7], [0.1, 0.5, 0.0], [0.4, 0.95, 0.05]])
    return StoredSystem("gap", link, np.array([0.5, 0.0, 0.5]))


def edge_system():
    # exact 0 and 1 link probabilities between live classes
    link = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.3], [0.2, 0.9, 0.0]])
    return StoredSystem("edge", link, np.array([0.3, 0.3, 0.4]))


def random_gap_system(rng, m):
    # Dirichlet class prior with some classes zeroed; at least one stays live
    probs = rng.dirichlet(np.ones(m))
    probs[rng.random(m) < 0.3] = 0.0
    if not probs.any():
        probs[rng.integers(m)] = 1.0
    return StoredSystem("random", rng.uniform(0.05, 0.95, (m, m)), probs / probs.sum())


def self_cell_data(rng, n):
    # diagonal cells cycle through observed 0, observed 1 and unobserved
    cells = rng.integers(0, 2, size=(n, n)).astype(np.int8)
    mask = rng.random((n, n)) < 0.6
    idx = np.arange(n)
    cells[idx, idx] = idx % 3 == 1
    mask[idx, idx] = idx % 3 != 2
    return RelationData(n, cells, mask)


def check_table_tracks_oracle(data, system, z, seed, sweeps):
    """Step the kernel's table through Gibbs sweeps, comparing every row
    with the slow conditional after each entity update; returns the moves."""
    D, G, B = _sweep_tables(data, system)[:3]
    n = data.n_entities
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    moves = 0
    for _ in range(sweeps):
        start = z.copy()
        L = _stored_table(D, G, B, z)
        for i in range(-1, n):
            if i >= 0:
                b = _sample_logweights(L[i].tolist(), rng.random())
                if b != z[i]:
                    _move_entity(L, D, G, i, int(z[i]), b)
                    z[i] = b
                    moves += 1
            expected = [stored_conditional(data, system, z, j) for j in range(n)]
            assert_allclose(L, expected, rtol=1e-12)
        _sweep_stored(start, D, G, B, twin)
        assert_array_equal(start, z)
    return moves


def test_sweep_is_deterministic_and_in_range():
    rng = np.random.default_rng(3)
    data = random_data(rng, 5)
    system = two_class_system()
    z0 = np.zeros(5, dtype=np.int64)
    a = gibbs_sweep_stored(data, system, z0, np.random.default_rng(9))
    b = gibbs_sweep_stored(data, system, z0, np.random.default_rng(9))
    assert a.tolist() == b.tolist()
    assert a.min() >= 0 and a.max() < 2


@pytest.mark.parametrize("system", [two_class_system(), gap_system()])
def test_sweep_table_matches_slow_conditional(system):
    rng = np.random.default_rng(20)
    data = self_cell_data(rng, 30)
    z = sample_stored_assignments(system, 30, rng)
    assert check_table_tracks_oracle(data, system, z, seed=21, sweeps=3) > 0


def test_sweep_table_empty_observed_set_and_single_entity():
    system = gap_system()
    with np.errstate(divide="ignore"):
        log_prior = np.log(system.class_probs)
    empty = RelationData(6, np.ones((6, 6), dtype=np.int8), np.zeros((6, 6), dtype=bool))
    z = np.array([0, 2, 0, 2, 2, 0])
    assert_array_equal(_stored_table(*_sweep_tables(empty, system)[:3], z),
                       np.tile(log_prior, (6, 1)))
    check_table_tracks_oracle(empty, system, z, seed=22, sweeps=2)
    for value in (0, 1):
        single = RelationData(1, [[value]], [[True]])
        check_table_tracks_oracle(single, system, np.array([2]), seed=23, sweeps=2)


@pytest.mark.parametrize("system", [two_class_system(), gap_system()])
def test_gibbs_sweep_stored_keeps_rng_stream(system):
    data = self_cell_data(np.random.default_rng(24), 30)
    for seed in range(20):
        z0 = sample_stored_assignments(system, 30, np.random.default_rng(100 + seed))
        got = gibbs_sweep_stored(data, system, z0, np.random.default_rng(seed))
        want = stored_sweep_reference(data, system, z0, np.random.default_rng(seed))
        assert_array_equal(got, want)


def test_argmax_sweep_takes_first_maximum():
    data = self_cell_data(np.random.default_rng(25), 30)
    tie = StoredSystem("tie", np.full((3, 3), 0.5), np.full(3, 1 / 3))
    for system in (gap_system(), tie):
        z = sample_stored_assignments(system, 30, np.random.default_rng(26))
        want = z.copy()
        for i in range(30):
            want[i] = np.argmax(stored_conditional(data, system, want, i))
        _sweep_stored(z, *_sweep_tables(data, system)[:3])
        assert_array_equal(z, want)
    assert not want.any()  # all-equal conditionals pick class 0


def test_draw_never_returns_zero_weight_index():
    # u = 1 runs past the last running sum; the draw falls back to the
    # last index with positive weight, not the zero-prior last class
    assert _sample_logweights([0.0, 0.0, -np.inf], 1.0) == 1
    assert _sample_logweights([0.0, 0.0, -np.inf], 0.0) == 0


def test_greedy_candidate_matches_nested_swap_scan():
    # the batched scan must take the same swaps, in the same order, as the
    # nested loop over live class pairs scored by the full log joint
    rng = np.random.default_rng(31)
    swapped = empty = zero_prior = 0
    for trial in range(60):
        m, n = int(rng.integers(1, 7)), int(rng.integers(2, 9))
        system = random_gap_system(rng, m)
        data = self_cell_data(rng, n)
        live = np.flatnonzero(system.class_probs > 0.0)
        tables = _sweep_tables(data, system)
        seeded = np.random.default_rng(trial)
        got, joint = _greedy_candidate(data, system, tables, live, seeded)
        want = sample_stored_assignments(system, n, np.random.default_rng(trial))
        for _ in range(INIT_GREEDY_SWEEPS):
            for i in range(n):
                want[i] = np.argmax(stored_conditional(data, system, want, i))
            empty += np.bincount(want, minlength=m)[live].min() == 0
            before = want.copy()
            want, want_joint = greedy_swap_reference(data, system, want)
            swapped += not np.array_equal(before, want)
        zero_prior += live.size < m
        assert_array_equal(got, want)
        assert_allclose(joint, want_joint, rtol=1e-12)
    assert swapped and empty and zero_prior


@pytest.mark.parametrize("system", [two_class_system(), gap_system(), edge_system()])
def test_retained_logliks_match_cell_loop(system):
    data = self_cell_data(np.random.default_rng(27), 12)
    samples = run_stored_chain(data, system, McmcSchedule(20, 40, 2, seed=28))
    want = [clamped_loglik(data, system.link_probs, z) for z in samples.partitions]
    assert_allclose(samples.logliks, want, rtol=1e-12)


def test_stored_chain_matches_enumerated_posterior():
    # 3 entities x 2 classes = 8 joint assignments, small enough to compare
    # the chain's empirical distribution against exact enumeration
    rng = np.random.default_rng(40)
    data = random_data(rng, 3, observed_fraction=0.8)
    system = two_class_system()
    exact, _ = exact_stored_enumeration(data, system)

    sched = McmcSchedule(burn_in=200, n_retained=15_000, thinning=1, seed=41)
    samples = run_stored_chain(data, system, sched)
    assert samples.model_tag == "stored:toy"
    freq: dict = {}
    for z in samples.partitions:
        key = tuple(int(v) for v in z)
        freq[key] = freq.get(key, 0) + 1
    empirical = {k: v / len(samples.partitions) for k, v in freq.items()}
    tv = 0.5 * sum(
        abs(empirical.get(k, 0.0) - exact.get(k, 0.0))
        for k in set(empirical) | set(exact)
    )
    assert tv < 0.05


def test_stored_predictions_match_enumeration():
    rng = np.random.default_rng(50)
    data = random_data(rng, 3, observed_fraction=0.6, n_test=3)
    system = two_class_system()
    exact = exact_stored_predictive(data, system, data.test_cells)
    sched = McmcSchedule(burn_in=200, n_retained=8_000, thinning=1, seed=51)
    samples = run_stored_chain(data, system, sched)
    approx = stored_component_predictions(samples, system, data.test_cells)
    assert np.abs(approx - exact).max() < 0.02


def test_flat_likelihood_reduces_to_class_prior():
    # all link probabilities 0.5 make every assignment equally likely given
    # the data, so each entity's class is an iid draw from the class prior
    probs = np.array([0.5, 0.3, 0.2])
    system = StoredSystem("flat", np.full((3, 3), 0.5), probs)
    data = random_data(np.random.default_rng(60), 4)
    sched = McmcSchedule(burn_in=10, n_retained=5_000, thinning=1, seed=61)
    samples = run_stored_chain(data, system, sched)
    stacked = np.stack(samples.partitions)
    counts = np.bincount(stacked.reshape(-1), minlength=3)
    result = chisquare(counts, probs * stacked.size)
    assert result.pvalue > 0.01


def test_sample_stored_assignments_respects_prior():
    system = StoredSystem(
        "gap", np.full((3, 3), 0.5), np.array([0.7, 0.0, 0.3])
    )
    rng = np.random.default_rng(70)
    draws = sample_stored_assignments(system, 20_000, rng)
    assert not np.any(draws == 1)  # zero-probability class is never used
    rate = float(np.mean(draws == 0))
    assert abs(rate - 0.7) < 4 * np.sqrt(0.7 * 0.3 / draws.size)


class FixedUniforms:
    """Stands in for a Generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def test_sample_stored_assignments_never_overflows_to_zero_prior():
    # the class prior sums to 0.9999999999999999, so the largest uniform
    # below 1 lands past every cumulative sum
    system = StoredSystem("tail", np.full((11, 11), 0.5), np.array([0.1] * 10 + [0.0]))
    assert np.cumsum(system.class_probs)[-1] < 1.0
    top = FixedUniforms(np.nextafter(1.0, 0.0))
    assert sample_stored_assignments(system, 3, top).tolist() == [9, 9, 9]
    assert sample_stored_assignments(system, 2, FixedUniforms(0.0)).tolist() == [0, 0]


def test_harmonic_mean_constant_case_is_exact():
    ll = np.full(100, -2.5)
    assert_allclose(harmonic_mean_evidence(ll), -2.5, rtol=1e-12)


def test_harmonic_mean_frozen_example():
    # draws with likelihoods 1/2 and 1/4: harmonic mean is 1/3
    ll = np.log([0.5, 0.25])
    assert_allclose(harmonic_mean_evidence(ll), np.log(1.0 / 3.0), rtol=1e-12)


def test_harmonic_mean_validation():
    with pytest.raises(ValueError):
        harmonic_mean_evidence(np.array([]))
    with pytest.raises(ValueError):
        harmonic_mean_evidence(np.zeros((2, 2)))


def test_harmonic_mean_against_conjugate_model():
    # coin observed once heads, once tails under a uniform prior: the true
    # evidence is 1/6 and posterior draws are Beta(2, 2); the estimator
    # should land within a third of a nat at ten thousand draws
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = rng.beta(2.0, 2.0, size=10_000)
        loglik = np.log(p) + np.log1p(-p)
        est = harmonic_mean_evidence(loglik)
        assert abs(est - np.log(1.0 / 6.0)) < 0.3


def test_analogy_weights_frozen_example():
    w = analogy_weights(np.log([0.3, 0.1]))
    assert_allclose(w, [0.75, 0.25], rtol=1e-12)
    assert_allclose(w.sum(), 1.0, rtol=1e-15)


def test_analogy_weights_shift_invariance():
    rng = np.random.default_rng(80)
    le = rng.normal(size=6) * 10
    base = analogy_weights(le)
    shifted = analogy_weights(le + 123.456)
    assert_allclose(shifted, base, atol=1e-12)


def test_analogy_weights_with_priors():
    # evidence equal, prior 3:1 -> weights 3:1; a zero prior kills a system
    le = np.array([-5.0, -5.0])
    w = analogy_weights(le, log_priors=np.log([0.75, 0.25]))
    assert_allclose(w, [0.75, 0.25], rtol=1e-12)
    w2 = analogy_weights(le, log_priors=np.array([0.0, -np.inf]))
    assert_allclose(w2, [1.0, 0.0])


def test_analogy_weights_degenerate_and_invalid():
    with pytest.raises(DegenerateWeightsError):
        analogy_weights(np.array([-np.inf, -np.inf]))
    with pytest.raises(ValueError):
        analogy_weights(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        analogy_weights(np.array([np.inf, 0.0]))


def test_report_ranking_and_validation():
    rng = np.random.default_rng(90)
    data = random_data(rng, 4)
    pool = [two_class_system("a"), two_class_system("b")]
    sched = McmcSchedule(burn_in=20, n_retained=30, thinning=1, seed=91)
    chains = [run_stored_chain(data, s, sched.with_seed(91 + i)) for i, s in enumerate(pool)]
    report = analogy_report(pool, chains)
    assert set(report.ranking) == {"a", "b"}
    assert report.best == report.ranking[0]
    assert_allclose(report.weights.sum(), 1.0, atol=1e-12)
    by_name = dict(zip(report.names, report.weights))
    assert by_name[report.best] == max(report.weights)

    with pytest.raises(ConfigError):
        analogy_report([two_class_system("a"), two_class_system("a")], chains)
    short = McmcSchedule(burn_in=20, n_retained=10, thinning=1, seed=5)
    uneven = [chains[0], run_stored_chain(data, pool[1], short)]
    with pytest.raises(ConfigError):
        analogy_report(pool, uneven)


def test_predict_cells_is_weighted_mixture():
    rng = np.random.default_rng(95)
    data = random_data(rng, 4, n_test=3)
    pool = [two_class_system("a"), two_class_system("b")]
    sched = McmcSchedule(burn_in=20, n_retained=40, thinning=1, seed=96)
    chains = [run_stored_chain(data, s, sched.with_seed(96 + i)) for i, s in enumerate(pool)]
    weights = np.array([0.3, 0.7])
    got = analogy_predict_cells(chains, pool, weights, data.test_cells)
    comps = np.column_stack(
        [
            stored_component_predictions(c, s, data.test_cells)
            for c, s in zip(chains, pool)
        ]
    )
    expected = [predictive_prob(comps[i], weights) for i in range(comps.shape[0])]
    assert_allclose(got, expected, rtol=1e-12)


def test_generator_recovery_single_trial():
    # pinned-seed sanity run of the retrieval task: the system that actually
    # generated the data should win the evidence race against distractors
    gen_rng = np.random.default_rng(7)
    target = generate_synthetic_system(gen_rng, name="target", probe_entities=20)
    distractors = [
        generate_synthetic_system(np.random.default_rng(100 + i), name=f"d{i}",
                                  probe_entities=20)
        for i in range(2)
    ]
    data, _ = simulate_interactions(target, 20, np.random.default_rng(8))
    data = make_split(data, SplitSpec(0.6, 0.0, seed=9))
    pool = [target] + distractors
    sched = McmcSchedule(burn_in=100, n_retained=50, thinning=2, seed=10)
    chains = [run_stored_chain(data, s, sched.with_seed(10 + i)) for i, s in enumerate(pool)]
    report = analogy_report(pool, chains)
    assert report.best == "target"
