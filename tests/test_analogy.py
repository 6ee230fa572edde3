"""Stored-system mixture: per-system chains, evidence, weighting, predictions."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import chisquare

from relgen import (
    AnalogyReport,
    ConfigError,
    DegenerateWeightsError,
    DimensionError,
    McmcSchedule,
    PosteriorSamples,
    RelationData,
    StoredSystem,
    analogy_predict_cells,
    analogy_report,
    analogy_weights,
    gibbs_sweep_stored,
    greedy_starts,
    harmonic_mean_evidence,
    pair_counts,
    predictive_prob,
    run_stored_chain,
    sample_stored_assignments,
    stored_component_predictions,
)
from relgen import analogy
from relgen.analogy import (
    INIT_GREEDY_SWEEPS,
    INIT_RESTARTS,
    _argmax_sweep,
    _move_entity,
    _stay_screen,
    _stored_table,
    _swap_gains,
    _swap_score,
    _sweep_stored,
    _sweep_tables,
)
from relgen.core import _loglik_from_counts
from relgen.datagen import generate_synthetic_system, make_split, simulate_interactions
from relgen.datagen import SplitSpec
from relgen.irm import _sample_logweights

from oracles import (
    clamped_loglik,
    exact_stored_enumeration,
    exact_stored_predictive,
    greedy_swap_reference,
    stored_chain_reference,
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


def tie_system():
    # every conditional is flat, so each argmax is a tie
    return StoredSystem("tie", np.full((3, 3), 0.5), np.full(3, 1 / 3))


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
    tables = _sweep_tables(data, system)
    D, G, B = tables[:3]
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
                    L += _move_entity(D, tables[5], i, int(z[i]), b)
                    z[i] = b
                    moves += 1
            expected = [stored_conditional(data, system, z, j) for j in range(n)]
            assert_allclose(L, expected, rtol=1e-12)
        _sweep_stored(start, tables, twin)
        assert_array_equal(start, z)
    return moves


def argmax_sweep(z, tables):
    """The greedy init's argmax sweep of one system, in place, over the
    labelings stacked along leading axes of ``z``."""
    D, G, B, _, _, dG = tables[:6]
    Z = z.reshape(-1, z.shape[-1])
    _argmax_sweep(Z, _stored_table(D, G, B, Z), D, dG[None], np.zeros(len(Z), dtype=int))


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
    for system in (gap_system(), tie_system()):
        z = sample_stored_assignments(system, 30, np.random.default_rng(26))
        want = z.copy()
        for i in range(30):
            want[i] = np.argmax(stored_conditional(data, system, want, i))
        argmax_sweep(z, _sweep_tables(data, system))
        assert_array_equal(z, want)
    assert not want.any()  # all-equal conditionals pick class 0


def test_draw_never_returns_zero_weight_index():
    # u = 1 runs past the last running sum; the draw falls back to the
    # last index with positive weight, not the zero-prior last class
    assert _sample_logweights([0.0, 0.0, -np.inf], 1.0) == 1
    assert _sample_logweights([0.0, 0.0, -np.inf], 0.0) == 0


def certificate_rows(rng, m):
    """Log-weight rows over m classes, each under a random common offset:
    moderate, spread over about 700 nats, near one-hot (the other classes
    near the margin's scale), exact ties among 0, -1 and -inf, and random
    rows with zero-prior classes at -inf."""
    hot = np.log(1e-9) + rng.normal(0, 1, m)
    hot[rng.integers(m)] = 0.0
    tied = rng.choice([0.0, -1.0, -np.inf], m)
    tied[rng.integers(m)] = 0.0
    gap = rng.normal(0, 3, m)
    gap[rng.random(m) < 0.4] = -np.inf
    gap[rng.integers(m)] = rng.normal()
    rows = (rng.normal(0, 3, m), rng.uniform(-700, 0, m), hot, tied, gap)
    return [row + rng.uniform(-300, 300) for row in rows]


def exact_running_sums(row) -> list:
    """The exact draw's running weight sums over a row, after a leading 0."""
    top = max(row.tolist())
    return [0.0, *itertools.accumulate(math.exp(w - top) for w in row.tolist())]


def test_certificate_implies_exact_draw():
    # every (row, uniform) meets every current class; the uniforms include
    # each running-sum boundary C[k] / total of the exact draw, both its
    # float neighbours, 0 and the largest float below 1
    rng = np.random.default_rng(40)
    below_one = np.nextafter(1.0, 0.0)
    for m in range(1, 8):
        rows, labels, uniforms = [], [], []
        for _ in range(20):
            for row in certificate_rows(rng, m):
                running = exact_running_sums(row)
                edges = np.array(running[1:]) / running[-1]
                us = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                                     [0.0, below_one], rng.random(4)])
                for u in us[us < 1.0]:
                    rows += [row] * m
                    labels += range(m)
                    uniforms += [u] * m
        table, labels, uniforms = np.array(rows), np.array(labels), np.array(uniforms)
        n = labels.size
        sure = _stay_screen(n, m)(labels, uniforms)(table)
        weights = np.exp(table - table.max(1, keepdims=True))[np.arange(n), labels]
        assert not sure[weights == 0.0].any()
        inside = 0
        for row, a, u, ok in zip(table, labels.tolist(), uniforms.tolist(), sure):
            draw = _sample_logweights(row.tolist(), u)
            if ok:
                assert draw == a
            # the certificate is not much more cautious than its margin
            running = exact_running_sums(row)
            x, slack = u * running[-1], 1e-8 * running[-1]
            if running[a] + slack < x < running[a + 1] - slack:
                assert ok
                inside += 1
        assert inside


def test_greedy_candidate_matches_nested_swap_scan(monkeypatch):
    # the batched scan must take the same swaps, in the same order, as the
    # nested loop over live class pairs scored by the full log joint; every
    # candidate is checked, each refined from its own prior draw.  The
    # reference always runs every sweep, while the stack stops at its fixed
    # point, so the early stop must give the same states.
    sweeps = []

    def counting(*args):
        sweeps.append(1)
        _argmax_sweep(*args)

    monkeypatch.setattr(analogy, "_argmax_sweep", counting)
    rng = np.random.default_rng(31)
    swapped = empty = zero_prior = stopped_early = 0
    for trial in range(60):
        sweeps.clear()
        m, n = int(rng.integers(1, 7)), int(rng.integers(2, 9))
        system = random_gap_system(rng, m)
        data = self_cell_data(rng, n)
        live = np.flatnonzero(system.class_probs > 0.0)
        (start,) = greedy_starts(data, [system], [McmcSchedule(0, 1, 1, seed=trial)])
        got, joints = start.candidates, start.joints
        assert got.shape == (INIT_RESTARTS, n) and joints.shape == (INIT_RESTARTS,)
        assert 1 <= len(sweeps) <= INIT_GREEDY_SWEEPS
        stopped_early += len(sweeps) < INIT_GREEDY_SWEEPS
        draws = np.random.default_rng(trial)
        for r in range(INIT_RESTARTS):
            want = sample_stored_assignments(system, n, draws)
            for _ in range(INIT_GREEDY_SWEEPS):
                for i in range(n):
                    want[i] = np.argmax(stored_conditional(data, system, want, i))
                empty += np.bincount(want, minlength=m)[live].min() == 0
                before = want.copy()
                want, want_joint = greedy_swap_reference(data, system, want)
                swapped += not np.array_equal(before, want)
            assert_array_equal(got[r], want)
            assert_allclose(joints[r], want_joint, rtol=1e-12)
        zero_prior += live.size < m
    assert swapped and empty and zero_prior and stopped_early


def test_chain_starts_from_first_best_candidate(monkeypatch):
    # the first Gibbs sweep receives the chain's starting state: the first
    # candidate whose joint is highest.  In the mirror case, two entities
    # that link to each other fit (0, 1) and (1, 0) with equal joints, so
    # the tied candidates differ.
    starts = []

    def recording(z, tables, rng=None, screen=None):
        if rng is not None and not starts:
            starts.append(z.copy())
        return _sweep_stored(z, tables, rng, screen)

    monkeypatch.setattr(analogy, "_sweep_stored", recording)
    rng = np.random.default_rng(32)
    mirror = StoredSystem("mirror", [[0.1, 0.9], [0.9, 0.1]], [0.5, 0.5])
    pair = RelationData(2, [[0, 1], [1, 0]], [[False, True], [True, False]])
    distinct_ties = 0
    for trial in range(40):
        if trial % 4:
            system = random_gap_system(rng, int(rng.integers(1, 7)))
            data = self_cell_data(rng, int(rng.integers(1, 13)))
        else:
            system, data = mirror, pair
        (start,) = greedy_starts(data, [system], [McmcSchedule(0, 1, 1, seed=trial)])
        candidates, joints = start.candidates, start.joints
        best = candidates[joints == joints.max()]
        distinct_ties += (best != best[0]).any()
        starts.clear()
        run_stored_chain(data, system, McmcSchedule(0, 1, 1, seed=trial))
        assert_array_equal(starts[0], best[0])
    assert distinct_ties


def random_pool(rng, size):
    """Random systems of 1-6 classes, some with zero-prior classes, their
    links rounded to exactly 0 or 1 at random."""
    pool = []
    for k in range(size):
        system = random_gap_system(rng, int(rng.integers(1, 7)))
        link = system.link_probs
        link = np.where(rng.random(link.shape) < 0.3, np.round(link), link)
        pool.append(StoredSystem(f"s{k}", link, system.class_probs))
    return pool


def test_pooled_starts_equal_each_system_alone(monkeypatch):
    # every member of a pool gets the start, joints and generator state of a
    # pool of its system alone, bit for bit, and so the same chain.  Pools
    # mix class counts 1-6 (padded stacks), or hold one class count (stacks
    # without padding); systems drop out of the sweeps at different times
    sweeps = []

    def counting(Z, L, D, dG, owner):
        sweeps.append((np.unique(owner).size, L.shape[-1]))
        _argmax_sweep(Z, L, D, dG, owner)

    monkeypatch.setattr(analogy, "_argmax_sweep", counting)
    rng = np.random.default_rng(42)
    one = StoredSystem("one", [[0.7]], [1.0])
    fixed = ([gap_system(), edge_system(), tie_system()], [one, gap_system()], [two_class_system()])
    dropped = padded = same_width = 0
    for trial in range(24):
        n = 1 if trial % 4 == 0 else int(rng.integers(2, 20))
        data = self_cell_data(rng, n)
        pool = fixed[trial % 3] if trial < 3 else random_pool(rng, int(rng.integers(2, 8)))
        schedules = [McmcSchedule(2, 3, 1, seed=1000 * trial + k) for k in range(len(pool))]
        sweeps.clear()
        starts = greedy_starts(data, pool, schedules)
        pooled = list(sweeps)
        widths = {s.n_classes for s in pool}
        padded += len(widths) > 1
        same_width += len(widths) == 1 and len(pool) > 1
        dropped += any(active < len(pool) for active, _ in pooled)
        assert all(width == max(widths) for _, width in pooled)
        assert len(starts) == len(pool)
        for system, schedule, start in zip(pool, schedules, starts):
            (alone,) = greedy_starts(data, [system], [schedule])
            assert start.candidates.shape == (INIT_RESTARTS, n)
            assert np.array_equal(start.candidates, alone.candidates)
            assert np.array_equal(start.joints, alone.joints)
            assert start.rng.bit_generator.state == alone.rng.bit_generator.state
            given = run_stored_chain(data, system, schedule, start)
            own = run_stored_chain(data, system, schedule)
            assert np.array_equal(given.partitions, own.partitions)
            assert np.array_equal(given.logliks, own.logliks)
    assert dropped and padded and same_width
    assert greedy_starts(data, [], []) == []


def test_a_start_serves_more_than_one_chain():
    # the chain draws from a copy of the start's generator
    data = self_cell_data(np.random.default_rng(43), 10)
    system, schedule = gap_system(), McmcSchedule(3, 4, 1, seed=44)
    (start,) = greedy_starts(data, [system], [schedule])
    state = start.rng.bit_generator.state
    first = run_stored_chain(data, system, schedule, start)
    again = run_stored_chain(data, system, schedule, start)
    assert start.rng.bit_generator.state == state
    assert np.array_equal(first.partitions, again.partitions)


def test_stored_chain_refuses_a_start_that_does_not_fit():
    rng = np.random.default_rng(45)
    data, system, schedule = self_cell_data(rng, 5), two_class_system(), McmcSchedule(1, 1, 1)
    (start,) = greedy_starts(data, [system], [schedule])
    longer = start._replace(candidates=np.zeros((INIT_RESTARTS, 6), dtype=np.int64))
    with pytest.raises(DimensionError, match="do not end in the entity count 5"):
        run_stored_chain(data, system, schedule, longer)
    wider = start._replace(candidates=np.full_like(start.candidates, 2))
    with pytest.raises(DimensionError, match="max 2 with 2 classes"):
        run_stored_chain(data, system, schedule, wider)
    with pytest.raises(ValueError, match="shorter"):
        greedy_starts(data, [system, system], [schedule])


def test_stored_chain_refuses_a_start_made_for_another_dataset_or_system():
    # the start carries its system's tables on its dataset; without the
    # check, another dataset of the same size, or an equal but distinct
    # system, would run silently on the start's tables
    rng = np.random.default_rng(46)
    data, other = self_cell_data(rng, 5), self_cell_data(rng, 5)
    system, schedule = two_class_system(), McmcSchedule(1, 1, 1)
    (start,) = greedy_starts(data, [system], [schedule])
    for d, s in ((other, system), (data, two_class_system()), (other, gap_system())):
        with pytest.raises(ConfigError, match="made for another dataset or system"):
            run_stored_chain(d, s, schedule, start)
    run_stored_chain(data, system, schedule, start)


def mirror_case():
    # two entities that link to each other fit (0, 1) and (1, 0) equally
    return (StoredSystem("mirror", [[0.1, 0.9], [0.9, 0.1]], [0.5, 0.5]),
            RelationData(2, [[0, 1], [1, 0]], [[False, True], [True, False]]))


def test_stored_chain_equals_reference_chain():
    # the whole chain, greedy init to retained draws, against the reference
    # built from the slow conditional, the nested swap scan and relabelled
    # class-pair counts; every swap outcome must occur somewhere
    mirror, pair = mirror_case()
    one = StoredSystem("one", [[0.7]], [1.0])
    datasets = (self_cell_data(np.random.default_rng(33), 30), RelationData(1, [[1]], [[True]]),
                RelationData(6, np.ones((6, 6), dtype=np.int8), np.zeros((6, 6), dtype=bool)))
    systems = (two_class_system(), gap_system(), edge_system(), tie_system(), one)
    cases = [(data, system) for data in datasets for system in systems] + [(pair, mirror)]
    outcomes = Counter()
    for (data, system), seed in itertools.product(cases, range(3)):
        schedule = McmcSchedule(3, 4, 2, seed=seed)
        samples = run_stored_chain(data, system, schedule)
        partitions, logliks, seen = stored_chain_reference(
            data, system, schedule, INIT_RESTARTS, INIT_GREEDY_SWEEPS
        )
        assert np.array_equal(samples.partitions, partitions)
        assert np.array_equal(samples.logliks, logliks)
        outcomes += seen
    assert set(outcomes) == {"no uniform", "uniform", "rejected", "empty"}


def test_dense_stored_chain_equals_reference_chain(monkeypatch):
    # 60 entities at fraction 0.5 from a sharp system.  Its own chain moves
    # few entities, so its sweeps are screened; a copy with softened links
    # moves many, so its chain also runs sweeps without a screen.  Both
    # chains must equal the reference chain draw for draw.  A short greedy
    # init keeps the reference affordable; the init has its own tests.
    screens, sweeps = Counter(), Counter()
    stay_screen, sweep = analogy._stay_screen, analogy._sweep_stored

    def counting(*args):
        sweep_screen = stay_screen(*args)

        def per_sweep(*sweep_args):
            certified = sweep_screen(*sweep_args)

            def screen(L):
                sure = certified(L)
                screens["calls"] += 1
                screens["certified"] += int(sure.sum())
                return sure

            return screen

        return per_sweep

    def recording(z, tables, rng=None, screen=None):
        before = screens["calls"]
        moves = sweep(z, tables, rng, screen)
        if rng is not None:
            sweeps["screened" if screens["calls"] > before else "unscreened"] += 1
        return moves

    monkeypatch.setattr(analogy, "_stay_screen", counting)
    monkeypatch.setattr(analogy, "_sweep_stored", recording)
    monkeypatch.setattr(analogy, "INIT_RESTARTS", 2)
    monkeypatch.setattr(analogy, "INIT_GREEDY_SWEEPS", 1)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        sharp = generate_synthetic_system(rng, alpha=0.2)
        full, _ = simulate_interactions(sharp, 60, rng)
        data = make_split(full, SplitSpec(0.5, 0.1, seed))
        soft = StoredSystem("soft", 0.5 + 0.1 * (sharp.link_probs - 0.5), sharp.class_probs)
        for system in (sharp, soft):
            schedule = McmcSchedule(3, 4, 2, seed=seed)
            samples = run_stored_chain(data, system, schedule)
            partitions, logliks, _ = stored_chain_reference(data, system, schedule, 2, 1)
            assert np.array_equal(samples.partitions, partitions)
            assert np.array_equal(samples.logliks, logliks)
    assert sweeps["screened"] and sweeps["unscreened"] and screens["certified"]


def stack_cases():
    """(data, system) pairs for the stacked-path checks: a 30-entity split
    with self cells, one entity, and an empty observed set."""
    datasets = (
        self_cell_data(np.random.default_rng(33), 30),
        RelationData(1, [[1]], [[True]]),
        RelationData(6, np.ones((6, 6), dtype=np.int8), np.zeros((6, 6), dtype=bool)),
    )
    systems = (two_class_system(), gap_system(), edge_system(), tie_system(),
               random_gap_system(np.random.default_rng(34), 6))
    return [(data, system) for data in datasets for system in systems]


@pytest.mark.parametrize("data, system", stack_cases())
def test_stacked_table_equals_each_labeling_table(data, system):
    D, G, B = _sweep_tables(data, system)[:3]
    Z = sample_stored_assignments(system, (2, 4, data.n_entities), np.random.default_rng(35))
    L = _stored_table(D, G, B, Z)
    assert L.shape == Z.shape + (system.n_classes,)
    for idx in np.ndindex(Z.shape[:-1]):
        assert np.array_equal(L[idx], _stored_table(D, G, B, Z[idx]))


@pytest.mark.parametrize("data, system", stack_cases())
def test_stacked_argmax_sweep_equals_each_labeling_sweep(data, system):
    # a column that changes in two or more rows within one sweep is an
    # entity whose moving candidates took one batched table update
    tables = _sweep_tables(data, system)
    Z = sample_stored_assignments(
        system, (INIT_RESTARTS, data.n_entities), np.random.default_rng(36)
    )
    rows = [z.copy() for z in Z]
    together = 0
    for _ in range(3):
        before = Z.copy()
        argmax_sweep(Z, tables)
        for z in rows:
            argmax_sweep(z, tables)
        assert np.array_equal(Z, np.stack(rows))
        together += ((Z != before).sum(0) >= 2).sum()
    assert together


@pytest.mark.parametrize("data, system", stack_cases())
def test_stacked_swap_scores_equal_each_state_scores(data, system):
    tables = _sweep_tables(data, system)
    m = system.n_classes
    live = np.flatnonzero(system.class_probs > 0.0)
    pairs = live[np.array(np.triu_indices(live.size, 1))]
    assert np.array_equal(tables.pairs, pairs)
    for perm, a, b in zip(tables.perms, *pairs):
        want = np.arange(m)
        want[[a, b]] = b, a
        assert np.array_equal(perm, want)
    Z = sample_stored_assignments(
        system, (INIT_RESTARTS, data.n_entities), np.random.default_rng(37)
    )
    counts = pair_counts(data, Z, m)
    lls = _loglik_from_counts(*counts.swapaxes(0, 1), tables.log_tables)
    sizes = (Z[:, :, None] == np.arange(m)).sum(1)
    new_ll, gains = _swap_gains(tables, counts, sizes, lls[:, None])
    assert new_ll.shape == gains.shape == (INIT_RESTARTS, pairs.shape[1])
    priors = tables.log_prior[Z].sum(1)
    for r, z in enumerate(Z):
        ll = float(_loglik_from_counts(*counts[r], tables.log_tables))
        assert np.array_equal(counts[r], pair_counts(data, z, m))
        assert np.array_equal(sizes[r], np.bincount(z, minlength=m))
        assert lls[r] == ll and priors[r] == tables.log_prior[z].sum()
        one = _swap_gains(tables, counts[r], sizes[r], ll)
        assert np.array_equal(new_ll[r], one[0])
        assert np.array_equal(gains[r], one[1])
        for perm, gather in zip(tables.perms, tables.gathers):
            # a swap's gathered counts are the counts of its relabelled state
            assert np.array_equal(counts[r].take(gather), pair_counts(data, perm[z], m))


ONE_LIVE = StoredSystem("one-live", np.full((3, 3), 0.4), [0.0, 1.0, 0.0])


@pytest.mark.parametrize(
    "data, system", stack_cases() + [(self_cell_data(np.random.default_rng(39), 12), ONE_LIVE)]
)
def test_chain_swap_score_equals_init_batch_score(data, system):
    # every ordered pair of live classes, (b, a) with its gap negated
    # included, scores in the chain as in the init's batch for the same
    # state, bit for bit; zero-prior classes have no entry
    tables = _sweep_tables(data, system)
    m, live = system.n_classes, tables.live.tolist()
    assert set(tables.moves) == set(itertools.permutations(live, 2))
    Z = sample_stored_assignments(system, (4, data.n_entities), np.random.default_rng(41))
    eye = np.eye(m)
    for z in Z:
        counts = eye[z].T @ data.observed_link_matrices @ eye[z]  # as the chain counts
        ll = float(_loglik_from_counts(*counts, tables.log_tables))
        sizes = np.bincount(z, minlength=m)
        new_ll, gains = _swap_gains(tables, counts, sizes, ll)
        assert gains.shape == (len(live) * (len(live) - 1) // 2,)
        for p, (a, b) in enumerate(tables.pairs.T.tolist()):
            for x, y in ((a, b), (b, a)):
                perm, chain_ll, gain = _swap_score(tables, counts, sizes.tolist(), ll, x, y)
                assert np.array_equal(perm, tables.perms[p])
                assert chain_ll == new_ll[p] and gain == gains[p]


@pytest.mark.parametrize("n", [1, 7, 30])
def test_stacked_prior_draw_equals_each_draw(n):
    for system in (two_class_system(), gap_system(), random_gap_system(np.random.default_rng(n), 6)):
        stacked, single = np.random.default_rng(38), np.random.default_rng(38)
        Z = sample_stored_assignments(system, (INIT_RESTARTS, n), stacked)
        rows = [sample_stored_assignments(system, n, single) for _ in range(INIT_RESTARTS)]
        assert Z.shape == (INIT_RESTARTS, n) and Z.dtype == np.int64
        assert np.array_equal(Z, np.stack(rows))
        assert stacked.bit_generator.state == single.bit_generator.state


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


def test_logsumexp_matches_scipy_bit_for_bit():
    # the evidences and weights must not move by an ulp against the scipy
    # call the port replaces; every float is compared with ==
    rng = np.random.default_rng(41)
    tied = with_neg_inf = 0
    for _ in range(4000):
        n = int(rng.integers(1, 71))
        spread = 10.0 ** rng.uniform(-9, np.log10(500))
        a = rng.normal(rng.normal(0, 100), spread, n)
        if rng.random() < 0.3:
            a[rng.integers(0, n, int(rng.integers(1, n + 1)))] = a.max()
        if rng.random() < 0.3:
            a[rng.integers(0, n, int(rng.integers(1, n + 1)))] = -np.inf
        tied += np.count_nonzero(a == a.max()) > 1
        with_neg_inf += bool(np.isneginf(a).any()) and np.isfinite(a.max())
        assert analogy._logsumexp(a) == scipy_logsumexp(a), a
    assert tied > 100 and with_neg_inf > 100
    for a in ([-np.inf] * 3, [np.inf, 1.0], [np.inf, -np.inf], [-np.inf]):
        assert analogy._logsumexp(np.array(a)) == scipy_logsumexp(np.array(a)), a
    for a in ([np.nan, 1.0], [np.inf, np.nan], [-np.inf, np.nan]):
        assert np.isnan(analogy._logsumexp(np.array(a)))
        assert np.isnan(scipy_logsumexp(np.array(a)))


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
    # the same contract as PosteriorSamples: every draw's log-likelihood finite
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            harmonic_mean_evidence(np.array([-1.0, bad]))
        with pytest.raises(ValueError):
            harmonic_mean_evidence([bad])


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


def test_report_derives_weights_and_breaks_ties_by_name():
    le = [0.0, 0.0, -1.0]
    report = AnalogyReport(("b", "a", "c"), le)
    assert report.ranking == ("a", "b", "c")
    assert report.best == "a"
    assert_array_equal(report.weights, analogy_weights(le))
    with pytest.raises(ConfigError):
        AnalogyReport(("a", "a"), [0.0, -1.0])
    with pytest.raises(DimensionError):
        AnalogyReport(("a", "b"), [0.0, -1.0, -2.0])


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


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda pool, chains: analogy_weights([]), DimensionError),
        (lambda pool, chains: analogy_weights([0.0, 0.0], [0.0]), DimensionError),
        (lambda pool, chains: analogy_report([], []), DimensionError),
        (lambda pool, chains: analogy_report(pool, chains[:1]), DimensionError),
        (
            lambda pool, chains: analogy_predict_cells(chains, pool, [1.0], [(0, 0)]),
            DimensionError,
        ),
        # was a bare IndexError
        (
            lambda pool, chains: stored_component_predictions(
                PosteriorSamples([[0, 2, 1]], [-1.0], "stored:a"), pool[0], [(0, 1)]
            ),
            DimensionError,
        ),
    ],
    ids=[
        "no evidences", "prior shape", "empty pool", "one chain short", "weights short",
        "draw label beyond the system",
    ],
)
def test_analogy_refuses_malformed_input(call, error):
    pool = [two_class_system("a"), two_class_system("b")]
    chains = [PosteriorSamples([[0, 1, 0]], [-1.0], f"stored:{s.name}") for s in pool]
    with pytest.raises(error) as caught:
        call(pool, chains)
    assert type(caught.value) is error
