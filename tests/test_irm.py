"""Latent-class chain: collapsed Gibbs scan, hyperparameter moves, predictions."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp
from scipy.stats import kstest

import relgen.irm as irm
from relgen import (
    ConfigError,
    DimensionError,
    Hyperparameters,
    McmcSchedule,
    Partition,
    RelationData,
    StoredSystem,
    canonical_labels,
    collapsed_loglik,
    conditional_class_logweights,
    crp_log_prior,
    gibbs_sweep,
    irm_predict_cells,
    mh_update_alpha,
    mh_update_gamma,
    pair_counts,
    run_irm_chain,
    stored_component_predictions,
)
from relgen.core import HYPER_MAX, HYPER_MIN

from oracles import (
    crp_log_prob_sequential,
    exact_irm_partition_posterior,
    exact_irm_predictive,
    irm_conditional_reference,
    irm_predictions_by_draw,
    marginal_loglik,
    stored_predictions_by_draw,
    total_variation,
    truncated_exp_cdf,
    truncated_power_cdf,
)
from test_core import random_data


def candidate_states(partition: Partition, entity: int) -> list[Partition]:
    """Resulting states for each class choice, in the package's output order:
    surviving classes by post-detach label, then a fresh class last."""
    z = np.asarray(partition.assignments, dtype=np.int64)
    others = np.delete(z, entity)
    present = sorted(set(int(v) for v in others))
    states = []
    for c in present + [int(z.max()) + 1]:
        zc = z.copy()
        zc[entity] = c
        states.append(Partition.from_assignments(zc))
    return states


def test_schedule_validation():
    s = McmcSchedule(burn_in=10, n_retained=5, thinning=3, seed=2)
    assert s.total_sweeps == 10 + 5 * 3
    assert list(s.retained_sweeps) == [12, 15, 18, 21, 24]
    assert s.with_seed(9).seed == 9
    assert s.with_seed(9).burn_in == 10
    with pytest.raises(ConfigError):
        McmcSchedule(burn_in=-1, n_retained=5, thinning=1, seed=0)
    with pytest.raises(ConfigError):
        McmcSchedule(burn_in=0, n_retained=0, thinning=1, seed=0)
    with pytest.raises(ConfigError):
        McmcSchedule(burn_in=0, n_retained=1, thinning=0, seed=0)


def joint_logweights(data, partition: Partition, entity: int, hp) -> np.ndarray:
    """Collapsed log-likelihood plus CRP log-prior of every candidate state."""
    return np.asarray(
        [
            marginal_loglik(data, s.assignments, hp.alpha)
            + crp_log_prob_sequential(s.assignments, hp.gamma)
            for s in candidate_states(partition, entity)
        ]
    )


def assert_conditional_matches_joint(data, partition, entity, hp) -> np.ndarray:
    """The package's conditional, normalized, equals the enumerated joint's."""
    logw = conditional_class_logweights(data, partition, entity, hp)
    brute = joint_logweights(data, partition, entity, hp)
    assert logw.shape == brute.shape
    assert_allclose(logw - logsumexp(logw), brute - logsumexp(brute), atol=1e-9)
    return logw


def test_conditional_logweights_match_joint_enumeration():
    # the incremental tally bookkeeping must reproduce, class by class, the
    # full joint computed from scratch on every candidate state
    rng = np.random.default_rng(31)
    hp = Hyperparameters(alpha=1.4, gamma=0.8)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        data = random_data(rng, n)
        part = Partition.from_assignments(rng.integers(0, 3, size=n))
        assert_conditional_matches_joint(data, part, int(rng.integers(0, n)), hp)


def test_conditional_on_empty_observed_set_is_crp_seating():
    hp = Hyperparameters(alpha=1.4, gamma=0.8)
    n = 5
    data = RelationData(n, np.ones((n, n), np.int8), np.zeros((n, n), bool))
    part = Partition.from_assignments([0, 1, 0, 2, 1])
    for entity in range(n):
        logw = assert_conditional_matches_joint(data, part, entity, hp)
        seats = np.bincount(np.delete(part.assignments, entity))
        crp = np.log(np.append(seats[seats > 0], hp.gamma))
        assert_allclose(logw, crp, rtol=0, atol=1e-12)


def test_conditional_rejects_out_of_range_entity():
    hp = Hyperparameters(alpha=1.0, gamma=1.0)
    data = random_data(np.random.default_rng(3), 3)
    part = Partition.from_assignments([0, 1, 0])
    for entity in (-1, 3):
        with pytest.raises(DimensionError):
            conditional_class_logweights(data, part, entity, hp)
    assert conditional_class_logweights(data, part, 2, hp).shape == (3,)


def test_sweep_rejects_a_partition_of_another_size():
    hp = Hyperparameters(alpha=1.0, gamma=1.0)
    data = random_data(np.random.default_rng(3), 3)
    for labels in ([0, 1], [0, 1, 0, 1]):
        with pytest.raises(DimensionError):
            gibbs_sweep(data, Partition.from_assignments(labels), hp, np.random.default_rng(0))


@pytest.mark.parametrize("cell, observed", [(1, True), (0, True), (1, False)])
def test_conditional_self_cell_matches_joint_enumeration(cell, observed):
    hp = Hyperparameters(alpha=0.6, gamma=1.3)
    # one entity: no class survives the detach, so only a fresh class remains
    alone = RelationData(1, [[cell]], [[observed]])
    logw = assert_conditional_matches_joint(
        alone, Partition.from_assignments([0]), 0, hp
    )
    expected = marginal_loglik(alone, [0], hp.alpha) + np.log(hp.gamma)
    assert_allclose(logw, [expected], rtol=1e-12)

    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        base = random_data(rng, n)
        entity = int(rng.integers(0, n))
        cells = base.cells.copy()
        mask = base.observed_mask.copy()
        cells[entity, entity] = cell
        mask[entity, entity] = observed
        data = RelationData(n, cells, mask)
        part = Partition.from_assignments(rng.integers(0, 3, size=n))
        assert_conditional_matches_joint(data, part, entity, hp)


def assert_sweep_matches_reference(monkeypatch, data, partition, hp, seed=0):
    """Run gibbs_sweep recording every conditional it draws from, then replay
    the sweep and check each one against the per-candidate oracle.  Returns
    the sweep's result and how many classes it opened and closed."""
    seen = []
    draw = irm._sample_logweights

    def record(logw, u):
        seen.append((logw, draw(logw, u)))
        return seen[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(irm, "_sample_logweights", record)
        out = gibbs_sweep(data, partition, hp, np.random.default_rng(seed))
    assert len(seen) == data.n_entities
    z = partition.assignments.tolist()
    opened = closed = 0
    for i, (logw, choice) in enumerate(seen):
        if z[i] not in z[:i] + z[i + 1:]:
            closed += 1
            z = [v - (v > z[i]) for v in z]
        ref = irm_conditional_reference(data, z, i, hp.alpha, hp.gamma)
        assert_allclose(
            np.subtract(logw, logsumexp(logw)), ref - logsumexp(ref),
            rtol=1e-10, atol=1e-10,
        )
        opened += choice == len(ref) - 1
        z[i] = choice
    assert Partition.from_assignments(z).key() == out.key()
    return out, opened, closed


def test_every_sweep_conditional_matches_reference(monkeypatch):
    # not just a freshly built state: every update of a chain of sweeps,
    # through class births and deaths, against the slow oracle
    rng = np.random.default_rng(8)
    opened = closed = 0
    for start, gamma in (([0] * 7, 3.0), (list(range(7)), 0.5), ([0, 1] * 3 + [2], 1.0)):
        data = random_data(rng, 7)
        part = Partition.from_assignments(start)
        for sweep in range(4):
            hp = Hyperparameters(alpha=float(rng.uniform(0.2, 3.0)), gamma=gamma)
            part, o, c = assert_sweep_matches_reference(monkeypatch, data, part, hp, sweep)
            opened, closed = opened + o, closed + c
    assert opened > 0 and closed > 0


def test_sweep_conditionals_on_empty_observed_set(monkeypatch):
    n = 6
    data = RelationData(n, np.ones((n, n), np.int8), np.zeros((n, n), bool))
    part = Partition.from_assignments([0, 1, 0, 2, 1, 3])
    for seed in range(3):
        part = assert_sweep_matches_reference(
            monkeypatch, data, part, Hyperparameters(alpha=0.7, gamma=1.6), seed
        )[0]


@pytest.mark.parametrize("cell, observed", [(1, True), (0, True), (1, False)])
def test_sweep_conditionals_with_self_cells(monkeypatch, cell, observed):
    hp = Hyperparameters(alpha=0.6, gamma=1.3)
    alone = RelationData(1, [[cell]], [[observed]])
    assert_sweep_matches_reference(monkeypatch, alone, Partition.from_assignments([0]), hp)
    rng = np.random.default_rng(23)
    base = random_data(rng, 6)
    cells = base.cells.copy()
    mask = base.observed_mask.copy()
    np.fill_diagonal(cells, cell)
    np.fill_diagonal(mask, observed)
    data = RelationData(6, cells, mask)
    part = Partition.from_assignments(rng.integers(0, 3, size=6))
    for seed in range(3):
        part = assert_sweep_matches_reference(monkeypatch, data, part, hp, seed)[0]


@pytest.mark.parametrize("alpha", [HYPER_MIN, HYPER_MAX])
def test_sweep_conditionals_at_alpha_bounds(monkeypatch, alpha):
    rng = np.random.default_rng(31)
    data = random_data(rng, 7)
    part = Partition.from_assignments(rng.integers(0, 3, size=7))
    for seed in range(3):
        part = assert_sweep_matches_reference(
            monkeypatch, data, part, Hyperparameters(alpha=alpha, gamma=2.0), seed
        )[0]


def test_sweep_conditionals_reach_the_last_table_entry(monkeypatch):
    # fully observed and one class: re-attaching an entity fills a block
    # with every observed cell, the last index of the log-gamma tables; the
    # entries the tables are indexed with are the same on both sweep paths
    n = 6
    data = RelationData(n, np.random.default_rng(4).integers(0, 2, (n, n)), np.ones((n, n), bool))
    largest = []
    log_betas = irm._log_betas

    def record(lgamma, entries):
        largest.append(entries.sum(-2).max())
        return log_betas(lgamma, entries)

    monkeypatch.setattr(irm, "_log_betas", record)
    for alpha in (HYPER_MIN, 1.0, HYPER_MAX):
        hp = Hyperparameters(alpha=alpha, gamma=HYPER_MIN)
        assert_sweep_matches_reference(monkeypatch, data, Partition.from_assignments([0] * n), hp)
    assert max(largest) == data.n_observed == n * n


def _run_sweeps_checking_counts(monkeypatch, data, part, hp, sweeps):
    """Sweep, checking after every attach that the counts equal a recount
    and that the fresh slot is empty; returns the births and deaths seen."""
    events = {"births": 0, "deaths": 0}
    detach, attach = irm._detach, irm._attach

    def checked_detach(state, i):
        events["deaths"] += state.sizes[state.z[i]] == 1
        return detach(state, i)

    def checked_attach(state, i, choice, entries):
        events["births"] += choice == state.counts.shape[1] - 1
        attach(state, i, choice, entries)
        k = len(state.sizes)
        assert state.counts.shape == (2, k + 1, k + 1)
        assert_array_equal(state.class_counts, pair_counts(data, state.z, k))
        assert not state.counts[:, k].any() and not state.counts[:, :, k].any()

    with monkeypatch.context() as patch:
        patch.setattr(irm, "_detach", checked_detach)
        patch.setattr(irm, "_attach", checked_attach)
        for seed in range(sweeps):
            part = gibbs_sweep(data, part, hp, np.random.default_rng(seed))
    return events


def test_counts_stay_exact_through_births_and_deaths(monkeypatch):
    rng = np.random.default_rng(17)
    sparse = random_data(rng, 12, observed_fraction=0.15)
    part = Partition.from_assignments(rng.integers(0, 3, size=12))
    hp = Hyperparameters(alpha=0.5, gamma=20.0)
    events = _run_sweeps_checking_counts(monkeypatch, sparse, part, hp, 6)
    assert events["births"] > 0 and events["deaths"] > 0
    alone = RelationData(1, [[1]], [[True]])
    events = _run_sweeps_checking_counts(
        monkeypatch, alone, Partition.from_assignments([0]), hp, 3
    )
    assert events == {"births": 3, "deaths": 3}
    empty = RelationData(5, np.ones((5, 5), np.int8), np.zeros((5, 5), bool))
    events = _run_sweeps_checking_counts(
        monkeypatch, empty, Partition.from_assignments([0, 1, 0, 2, 1]), hp, 4
    )
    assert events["births"] > 0 and events["deaths"] > 0


def _batch_cases():
    """(data, partition, hyperparameters) covering 1 to 12 classes with
    singletons among them, an empty observed set, a fully observed matrix,
    and n = 1 and 2."""
    rng = np.random.default_rng(41)
    labelings = []
    for k in range(1, 13):
        n = k + int(rng.integers(2, 2 * k + 4))
        # classes 0 .. k-1 once each; the first k // 3 of them stay singletons
        labels = np.r_[np.arange(k), rng.integers(k // 3, k, n - k)]
        labelings.append(canonical_labels(rng.permutation(labels)))
    cases = []
    for labels in labelings + [[0], [0, 0], [0, 1]]:
        for fraction in (0.0, 0.15, 0.6, 1.0):
            data = random_data(rng, len(labels), observed_fraction=fraction)
            alpha, gamma = rng.uniform(0.2, 3.0, 2).tolist()
            hp = Hyperparameters(alpha=alpha, gamma=gamma)
            cases.append((data, Partition.from_assignments(labels), hp))
    return cases


def test_run_logweights_equal_the_per_entity_detach():
    # every row of a batched run, from every starting entity, must be the
    # very log-weights and entries the per-entity path computes at that state
    rows_checked = 0
    for data, part, hp in _batch_cases():
        shared = (part.counts[part.assignments] > 1).tolist()
        for start in range(data.n_entities):
            stop = start
            while stop < data.n_entities and shared[stop]:
                stop += 1
            if stop == start:
                continue
            state = irm._ChainState(data, part)
            state.tabulate(hp.alpha)
            z, counts = list(state.z), state.counts.copy()
            rows = irm._run_logweights(state, start, stop, hp)
            for i, (logw, entries) in enumerate(rows, start):
                alone = irm._ChainState(data, part)
                alone.tabulate(hp.alpha)
                alone.log_seats = state.log_seats.copy()
                want_logw, want_entries = irm._detached_logweights(alone, i, hp)
                assert np.array_equal(logw, want_logw)
                assert np.array_equal(entries, want_entries)
                rows_checked += 1
            assert i == stop - 1
            # the run scored every entity without changing the state
            assert state.z == z and np.array_equal(state.counts, counts)
    assert rows_checked > 1000


@pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
def test_chain_is_the_same_on_the_per_entity_path(monkeypatch, fraction):
    rng = np.random.default_rng(int(fraction * 10))
    n = 24
    z = rng.integers(0, 4, n)
    link = rng.random((4, 4)) ** 2
    data = RelationData(n, rng.random((n, n)) < link[z][:, z], rng.random((n, n)) < fraction)
    schedule = McmcSchedule(burn_in=30, n_retained=10, thinning=2, seed=5)
    runs = irm._run_logweights
    chains = {}
    # (min run, max run): the defaults, batch whenever possible, the same
    # with runs cut at 4 entities, and per-entity only
    for bounds in ((irm._MIN_RUN, irm._MAX_RUN), (1, n), (1, 4), (n + 1, n)):
        batches = []
        with monkeypatch.context() as patch:
            patch.setattr(irm, "_MIN_RUN", bounds[0])
            patch.setattr(irm, "_MAX_RUN", bounds[1])
            patch.setattr(irm, "_run_logweights", lambda *a: batches.append(a) or runs(*a))
            chains[bounds] = run_irm_chain(data, schedule)
        assert bool(batches) == (bounds[0] <= n)
        assert max((stop - start for _, start, stop, _ in batches), default=0) <= bounds[1]
    per_entity = chains.pop((n + 1, n))
    for chain in chains.values():
        assert np.array_equal(chain.partitions, per_entity.partitions)
        assert np.array_equal(chain.logliks, per_entity.logliks)
        assert np.array_equal(chain.alphas, per_entity.alphas)


def test_single_entity_kernel_detailed_balance():
    rng = np.random.default_rng(6)
    hp = Hyperparameters(1.0, 1.0)
    data = random_data(rng, 5)
    part = Partition.from_assignments([0, 1, 0, 2, 1])
    entity = 3
    states = candidate_states(part, entity)
    log_pi = joint_logweights(data, part, entity, hp)

    def kernel_probs(state: Partition) -> dict:
        logw = conditional_class_logweights(data, state, entity, hp)
        probs = np.exp(logw - logsumexp(logw))
        return {
            s.key(): p for s, p in zip(candidate_states(state, entity), probs)
        }

    for a in range(len(states)):
        pa = kernel_probs(states[a])
        for b in range(len(states)):
            pb = kernel_probs(states[b])
            lhs = np.exp(log_pi[a] - logsumexp(log_pi)) * pa[states[b].key()]
            rhs = np.exp(log_pi[b] - logsumexp(log_pi)) * pb[states[a].key()]
            assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-12)


def test_gibbs_sweep_returns_valid_partition_deterministically():
    rng = np.random.default_rng(12)
    data = random_data(rng, 6)
    part = Partition.from_assignments([0] * 6)
    hp = Hyperparameters()
    out1 = gibbs_sweep(data, part, hp, np.random.default_rng(3))
    out2 = gibbs_sweep(data, part, hp, np.random.default_rng(3))
    assert out1.assignments.tolist() == out2.assignments.tolist()
    assert out1.counts.sum() == 6


def test_gibbs_chain_matches_enumerated_posterior():
    # fixed hyperparameters, 4 entities: the sweep kernel's long-run
    # distribution over partitions must match brute-force enumeration
    rng = np.random.default_rng(44)
    data = random_data(rng, 4, observed_fraction=0.7)
    hp = Hyperparameters(1.0, 1.0)
    exact, _ = exact_irm_partition_posterior(data, hp.alpha, hp.gamma)

    chain_rng = np.random.default_rng(45)
    part = Partition.from_assignments([0, 0, 0, 0])
    burn, keep = 500, 20_000
    freq: dict = {}
    for sweep in range(burn + keep):
        part = gibbs_sweep(data, part, hp, chain_rng)
        if sweep >= burn:
            key = part.key()
            freq[key] = freq.get(key, 0) + 1
    empirical = {k: v / keep for k, v in freq.items()}
    assert total_variation(empirical, exact) < 0.05


@pytest.mark.parametrize("alpha", [0.01, 1.0, 37.0])
def test_exact_theory_evidence(alpha):
    # nothing observed: every partition explains the data with probability 1
    nothing = RelationData(3, np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))
    _, log_ev = exact_irm_partition_posterior(nothing, alpha, 1.3)
    assert_allclose(log_ev, 0.0, atol=1e-14)
    # one entity and its self-cell: the Beta(alpha, alpha) predictive is 1/2
    for cell in (0, 1):
        one = RelationData(1, [[cell]], [[True]])
        _, log_ev = exact_irm_partition_posterior(one, alpha, 1.3)
        assert_allclose(log_ev, np.log(0.5), rtol=1e-12)
    # two entities: the sum over their two partitions, by the package's terms
    two = RelationData(2, [[1, 0], [1, 1]], [[True, True], [False, True]])
    gamma = 0.4
    terms = [
        crp_log_prior(Partition.from_assignments(z), gamma)
        + collapsed_loglik(two, Partition.from_assignments(z), alpha)
        for z in ([0, 0], [0, 1])
    ]
    _, log_ev = exact_irm_partition_posterior(two, alpha, gamma)
    assert_allclose(log_ev, np.logaddexp(*terms), rtol=1e-12)


def test_mh_accepts_identical_proposal_without_drawing_uniform():
    # zero proposal scale makes the proposal equal the current value; the
    # ratio is then exactly 1 and the step must accept outright
    data = random_data(np.random.default_rng(1), 3)
    part = Partition.from_assignments([0, 1, 1])
    hp = Hyperparameters(alpha=0.7, gamma=1.2)
    rng = np.random.default_rng(10)
    out = mh_update_alpha(data, part, hp, rng, scale=0.0)
    assert out.alpha == hp.alpha
    # exactly one normal variate consumed, no acceptance uniform
    ref = np.random.default_rng(10)
    ref.standard_normal()
    assert rng.random() == ref.random()


def test_alpha_sampler_matches_truncated_prior():
    # with no observed cells the collapsed likelihood is flat, so the alpha
    # chain samples its truncated power-law prior; compare via KS distance
    data = RelationData(2, np.zeros((2, 2), np.int8), np.zeros((2, 2), bool), ())
    part = Partition.from_assignments([0, 1])
    hp = Hyperparameters(alpha=0.01, gamma=1.0)
    rng = np.random.default_rng(77)
    draws = np.empty(40_000)
    for burn in range(2_000):
        hp = mh_update_alpha(data, part, hp, rng)
    for q in range(draws.size):
        for _ in range(5):  # thin: the walk is local
            hp = mh_update_alpha(data, part, hp, rng)
        draws[q] = hp.alpha
    stat = kstest(draws, truncated_power_cdf).statistic
    assert stat < 0.03


def test_gamma_sampler_matches_truncated_prior():
    # a one-entity partition has probability 1 under every concentration,
    # so the gamma chain's target reduces to the truncated exponential prior
    part = Partition.from_assignments([0])
    hp = Hyperparameters(alpha=1.0, gamma=1.0)
    rng = np.random.default_rng(78)
    draws = np.empty(40_000)
    for burn in range(2_000):
        hp = mh_update_gamma(part, hp, rng)
    for q in range(draws.size):
        for _ in range(5):
            hp = mh_update_gamma(part, hp, rng)
        draws[q] = hp.gamma
    stat = kstest(draws, truncated_exp_cdf).statistic
    assert stat < 0.03


def test_run_chain_shapes_and_bookkeeping():
    rng = np.random.default_rng(19)
    data = random_data(rng, 8)
    sched = McmcSchedule(burn_in=30, n_retained=12, thinning=3, seed=5)
    samples = run_irm_chain(data, sched)
    assert samples.model_tag == "irm"
    assert len(samples.partitions) == 12
    assert samples.alphas.shape == (12,)
    assert np.all(samples.alphas >= 1e-3) and np.all(samples.alphas <= 1e3)
    # recorded log-likelihoods must agree with a from-scratch recomputation,
    # which catches any drift in the incremental count state
    for z, ll, alpha in zip(samples.partitions, samples.logliks, samples.alphas):
        part = Partition.from_assignments(z)
        assert_allclose(ll, collapsed_loglik(data, part, float(alpha)), rtol=1e-9)

    again = run_irm_chain(data, sched)
    for a, b in zip(samples.partitions, again.partitions):
        assert a.tolist() == b.tolist()
    assert_allclose(samples.logliks, again.logliks)


def test_run_chain_fixed_hyperparameters():
    data = random_data(np.random.default_rng(2), 5)
    sched = McmcSchedule(burn_in=10, n_retained=5, thinning=1, seed=0)
    hp = Hyperparameters(alpha=2.0, gamma=0.5)
    samples = run_irm_chain(data, sched, hp=hp, sample_hyperparams=False)
    assert np.all(samples.alphas == 2.0)


def test_chain_predictive_matches_enumeration():
    rng = np.random.default_rng(101)
    data = random_data(rng, 4, observed_fraction=0.6, n_test=4)
    exact = exact_irm_predictive(data, data.test_cells, 1.0, 1.0)
    sched = McmcSchedule(burn_in=300, n_retained=400, thinning=2, seed=7)
    samples = run_irm_chain(
        data, sched, hp=Hyperparameters(1.0, 1.0), sample_hyperparams=False
    )
    approx = irm_predict_cells(samples, data, data.test_cells)
    assert np.abs(approx - exact).max() < 0.02


def test_predictions_match_per_draw_loops():
    # the class count varies across draws, so the batched counts span more
    # classes than most draws use; a single cell must still sum in draw order
    rng = np.random.default_rng(102)
    data = random_data(rng, 12)
    samples = run_irm_chain(data, McmcSchedule(burn_in=20, n_retained=30, thinning=1, seed=8))
    k = samples.partitions.max(axis=1) + 1
    assert k.min() < k.max()
    wide = StoredSystem("wide", rng.uniform(size=(k.max(), k.max())), np.full(k.max(), 1 / k.max()))
    cells = [(r, c) for r in range(12) for c in range(12)]
    for query in (cells, cells[5:6], []):
        assert_array_equal(irm_predict_cells(samples, data, query),
                           irm_predictions_by_draw(data, samples, query))
        assert_array_equal(stored_component_predictions(samples, wide, query),
                           stored_predictions_by_draw(samples, wide, query))


def test_irm_predict_single_draw_by_hand():
    # one retained draw, everyone in one class: the posterior-mean link
    # probability is (ones + alpha) / (observed + 2 alpha) in that block
    cells = np.array([[0, 1], [1, 0]], dtype=np.int8)
    mask = np.array([[False, True], [True, False]])
    data = RelationData(2, cells, mask, ((0, 0),))
    samples_fixed = run_irm_chain(
        data,
        McmcSchedule(burn_in=1, n_retained=1, thinning=1, seed=1),
        hp=Hyperparameters(1.0, 1.0),
        sample_hyperparams=False,
    )
    z = samples_fixed.partitions[0]
    (got,) = irm_predict_cells(samples_fixed, data, [(0, 0)])
    if z[0] == z[1]:  # both entities in one class: n1=2, n0=0
        assert_allclose(got, 3.0 / 4.0)
    else:  # separate classes: the diagonal block is empty
        assert_allclose(got, 0.5)


def test_predict_requires_alpha_record():
    data = random_data(np.random.default_rng(3), 4)
    from relgen import PosteriorSamples

    bare = PosteriorSamples(
        (np.zeros(4, dtype=np.int64),), np.array([-1.0]), "stored:x"
    )
    with pytest.raises(ConfigError):
        irm_predict_cells(bare, data, ((0, 1),))
