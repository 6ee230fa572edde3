"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and prints
a single PASS/FAIL verdict line.  The slow shared piece — the 20-system
evaluation grid at four observation levels — runs once per session and backs
the behavioral criteria (6 and 7).
"""

import numpy as np
import pytest

from relgen import (
    ExperimentConfig,
    Hyperparameters,
    McmcSchedule,
    Partition,
    RelationData,
    SplitSpec,
    StoredSystem,
    analogy_report,
    analogy_weights,
    crp_assignment_probs,
    crp_log_prior,
    derive_seed,
    emit_results_csv,
    generate_synthetic_system,
    harmonic_mean_evidence,
    hybrid_prior,
    hybrid_weights,
    irm_predict_cells,
    make_split,
    optimize_tau,
    run_experiment,
    run_irm_chain,
    run_stored_chain,
    simulate_interactions,
    stored_component_predictions,
)

from oracles import (
    crp_log_prob_sequential,
    exact_irm_partition_posterior,
    exact_irm_predictive,
    exact_stored_enumeration,
    exact_stored_predictive,
    set_partitions,
)
from test_core import random_data


def _verdict(num: int, description: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} {description}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Theory-model inference agrees with exact enumeration on small problems.

def test_criterion_1_irm_matches_enumeration():
    hp = Hyperparameters(1.0, 1.0)
    sched = McmcSchedule(burn_in=300, n_retained=500, thinning=2, seed=0)
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        data = random_data(rng, 4, observed_fraction=0.6, n_test=4)
        if not data.test_cells:
            data = random_data(rng, 4, observed_fraction=0.5, n_test=4)
        exact = exact_irm_predictive(data, data.test_cells, hp.alpha, hp.gamma)
        samples = run_irm_chain(
            data,
            sched.with_seed(derive_seed(2, "criterion-1", trial)),
            hp=hp,
            sample_hyperparams=False,
        )
        approx = irm_predict_cells(samples, data, data.test_cells)
        worst = max(worst, float(np.abs(approx - exact).max()))
    _verdict(
        1,
        "theory model matches exact enumeration within 0.02 on 20 small cases",
        worst < 0.02,
        f"worst abs deviation {worst:.4f}",
    )


# ---------------------------------------------------------------------------
# 2. Stored-system inference agrees with exact enumeration.

def test_criterion_2_stored_matches_enumeration():
    sched = McmcSchedule(burn_in=200, n_retained=5_000, thinning=1, seed=0)
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        link = rng.uniform(0.1, 0.9, size=(2, 2))
        probs = rng.dirichlet([2.0, 2.0])
        system = StoredSystem(f"case-{trial}", link, probs)
        full = RelationData(
            3,
            rng.integers(0, 2, size=(3, 3)).astype(np.int8),
            np.ones((3, 3), dtype=bool),
            (),
        )
        data = make_split(full, SplitSpec(0.7, 0.25, seed=3000 + trial))
        exact = exact_stored_predictive(data, system, data.test_cells)
        samples = run_stored_chain(
            data, system, sched.with_seed(derive_seed(3, "criterion-2", trial))
        )
        approx = stored_component_predictions(samples, system, data.test_cells)
        worst = max(worst, float(np.abs(approx - exact).max()))
    _verdict(
        2,
        "stored-system model matches exact enumeration within 0.02 on 20 cases",
        worst < 0.02,
        f"worst abs deviation {worst:.4f}",
    )


# ---------------------------------------------------------------------------
# 3. Clustering prior: normalization, exchangeability, assignment rule.

def test_criterion_3_clustering_prior_identities():
    ok = True
    detail = []
    for gamma in (0.5, 1.0, 2.0):
        for n in range(1, 6):
            total = sum(
                np.exp(crp_log_prior(Partition.from_assignments(z), gamma))
                for z in set_partitions(n)
            )
            if abs(total - 1.0) > 1e-9:
                ok = False
                detail.append(f"normalization off at n={n}, gamma={gamma}")

    rng = np.random.default_rng(33)
    z = np.array([0, 0, 1, 2, 1, 0, 3, 2])
    base = crp_log_prior(Partition.from_assignments(z), 1.7)
    for _ in range(100):
        perm = rng.permutation(z.size)
        if crp_log_prior(Partition.from_assignments(z[perm]), 1.7) != base:
            ok = False
            detail.append("exchangeability broken")
            break

    for _ in range(50):
        counts = rng.integers(1, 8, size=int(rng.integers(1, 5)))
        gamma = float(rng.uniform(0.1, 5.0))
        s = crp_assignment_probs(counts, gamma).sum()
        if abs(s - 1.0) > 1e-12:
            ok = False
            detail.append("assignment probabilities do not normalize")
            break

    _verdict(
        3,
        "clustering prior normalizes (1e-9), is exchangeable, sums to one",
        ok,
        "; ".join(detail) or "all identities hold",
    )


# ---------------------------------------------------------------------------
# 4. Harmonic-mean evidence estimator against a conjugate ground truth.

def test_criterion_4_harmonic_mean_estimator():
    exact = np.log(1.0 / 6.0)
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(400 + seed)
        p = rng.beta(2.0, 2.0, size=10_000)
        est = harmonic_mean_evidence(np.log(p) + np.log1p(-p))
        worst = max(worst, abs(est - exact))
    constant_exact = harmonic_mean_evidence(np.full(64, -3.25)) == pytest.approx(
        -3.25, rel=1e-12
    )
    _verdict(
        4,
        "harmonic-mean evidence within 0.3 nats of 1/6 at 1e4 draws",
        worst < 0.3 and constant_exact,
        f"worst abs error {worst:.3f} nats; constant case exact: {constant_exact}",
    )


# ---------------------------------------------------------------------------
# 5. Retrieval: the generating system wins the evidence race.

def test_criterion_5_generator_recovery_rate():
    sched = McmcSchedule(burn_in=100, n_retained=40, thinning=2, seed=0)
    hits = 0
    trials = 20
    for trial in range(trials):
        gen_rng = np.random.default_rng(derive_seed(5, "gen", trial))
        target = generate_synthetic_system(gen_rng, name="target", probe_entities=30)
        pool = [target] + [
            generate_synthetic_system(
                np.random.default_rng(derive_seed(5, "alt", trial, j)),
                name=f"alt-{j}",
                probe_entities=30,
            )
            for j in range(4)
        ]
        data, _ = simulate_interactions(
            target, 30, np.random.default_rng(derive_seed(5, "data", trial))
        )
        data = make_split(data, SplitSpec(0.5, 0.0, seed=derive_seed(5, "split", trial)))
        chains = [
            run_stored_chain(
                data, s, sched.with_seed(derive_seed(5, "chain", trial, j))
            )
            for j, s in enumerate(pool)
        ]
        if analogy_report(pool, chains).best == "target":
            hits += 1
    _verdict(
        5,
        "generating system gets the top weight in at least 80% of 20 trials",
        hits >= 16,
        f"{hits}/{trials} recovered",
    )


# ---------------------------------------------------------------------------
# 6 & 7. Behavioral comparison on the shared 20-system evaluation grid.

GRID_FRACTIONS = (0.1, 0.2, 0.3, 0.9)


@pytest.fixture(scope="module")
def trend_rows():
    config = ExperimentConfig(
        entity_count=30,
        observed_fractions=GRID_FRACTIONS,
        stored_counts=(2, 5),
        models=("irm", "analogy", "hybrid"),
        n_target_systems=20,
        test_fraction=0.1,
        burn_in=150,
        n_retained=60,
        thinning=2,
        master_seed=777,
        class_range=(3, 6),
        include_target_in_pool=True,
        # Wide mixing-weight search range: when one component's estimated
        # evidence dominates by G nats, suppressing it needs tau beyond
        # e^-G, which the [-4, 4] default cannot reach for G > ~9.
        tau_lower=-12.0,
        tau_upper=12.0,
    )
    # grid output does not depend on workers, and two cut the fixture's wall time
    rows = run_experiment(config, workers=2)
    assert all(r.status == "ok" for r in rows)
    return rows


def _mean_scores(rows, model, pool_size=None):
    out = {}
    for f in GRID_FRACTIONS:
        scores = [
            r.score
            for r in rows
            if r.model == model
            and r.observed_fraction == f
            and (pool_size is None or r.n_stored == pool_size)
        ]
        out[f] = float(np.mean(scores))
    return out


def test_criterion_6_observation_and_pool_trends(trend_rows):
    irm = _mean_scores(trend_rows, "irm")
    analogy = _mean_scores(trend_rows, "analogy", pool_size=2)

    more_data_helps = irm[0.9] < irm[0.1]
    analogy_wins_sparse = all(analogy[f] < irm[f] for f in (0.1, 0.2, 0.3))
    _verdict(
        6,
        "theory model improves with data; stored pool wins when data is sparse",
        more_data_helps and analogy_wins_sparse,
        f"theory {irm[0.1]:.1f}@0.1 -> {irm[0.9]:.1f}@0.9; "
        + "; ".join(
            f"analogy {analogy[f]:.1f} vs theory {irm[f]:.1f} @{f}"
            for f in (0.1, 0.2, 0.3)
        ),
    )


def test_criterion_7_hybrid_tracks_the_better_component(trend_rows):
    irm = _mean_scores(trend_rows, "irm")
    slack = {}
    for pool_size in (2, 5):
        analogy = _mean_scores(trend_rows, "analogy", pool_size)
        hybrid = _mean_scores(trend_rows, "hybrid", pool_size)
        for f in GRID_FRACTIONS:
            slack[(pool_size, f)] = hybrid[f] - min(irm[f], analogy[f])
    worst = max(slack.values())
    # the fixture's tau mode, per-cell, fits tau on the very test cells it
    # scores, so this tau is an oracle; a tau* at its bound may want a wider range
    taus = [r.tau_star for r in trend_rows if r.model == "hybrid"]
    at_upper, at_lower = (sum(t == 10.0**e for t in taus) for e in (12.0, -12.0))
    _verdict(
        7,
        "combined model, its tau fitted on the scored cells (per-cell), stays "
        "within 0.5 nats of the better pure model",
        worst <= 0.5,
        "; ".join(f"K={k}@{f}: {s:+.3f}" for (k, f), s in slack.items())
        + f"; tau* at 10^+12 on {at_upper} and at 10^-12 on {at_lower} of {len(taus)} rows",
    )


# ---------------------------------------------------------------------------
# 8. Mixing-weight machinery: extremes, normalization, optimizer.

def test_criterion_8_tau_machinery():
    rng = np.random.default_rng(88)
    le = rng.normal(-40.0, 5.0, size=6)  # five stored + one fresh component

    lo = hybrid_weights(le, 1e-300)
    hi = hybrid_weights(le, 1e300)
    extremes_ok = (
        lo[-1] < 1e-6
        and float(np.abs(lo[:5] - analogy_weights(le[:5])).max()) < 1e-6
        and hi[-1] > 1 - 1e-6
        and float(hi[:5].max()) < 1e-6
    )

    norm_ok = all(
        abs(hybrid_prior(k, t).sum() - 1.0) < 1e-12
        for k in (1, 5, 100)
        for t in (1e-6, 1.0, 1e6)
    )

    tau_star = optimize_tau(lambda t: -((np.log10(t) - 0.5) ** 2))
    optimizer_ok = abs(np.log10(tau_star) - 0.5) < 1e-3

    _verdict(
        8,
        "tau extremes collapse to the pure models; prior normalizes; "
        "optimizer finds the quadratic peak",
        extremes_ok and norm_ok and optimizer_ok,
        f"tau* = {tau_star:.6g}",
    )


# ---------------------------------------------------------------------------
# 9. Full-run determinism: identical config and seed, identical bytes.

def test_criterion_9_byte_identical_reruns():
    config = ExperimentConfig(
        entity_count=8,
        observed_fractions=(0.2, 0.5),
        stored_counts=(2,),
        models=("irm", "analogy", "hybrid"),
        n_target_systems=3,
        burn_in=20,
        n_retained=10,
        thinning=1,
        master_seed=4242,
        class_range=(2, 4),
    )
    first = emit_results_csv(run_experiment(config))
    second = emit_results_csv(run_experiment(config))
    _verdict(
        9,
        "rerunning the same config and seed reproduces the CSV byte for byte",
        first == second,
        f"{len(first.splitlines()) - 1} rows compared",
    )


# ---------------------------------------------------------------------------
# 10. Each model's evidence estimate against exact enumeration.

def test_criterion_10_evidence_matches_enumeration():
    # Ten cases fixed before the first run, n = 5 or 6 so that both models
    # enumerate; the bounds record where the harmonic mean stands today
    hp = Hyperparameters(1.0, 1.0)
    gaps = {"stored": [], "theory": []}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        system = StoredSystem(
            f"case-{seed}", rng.beta(0.5, 0.5, (m, m)), rng.dirichlet(np.ones(m))
        )
        full, _ = simulate_interactions(system, 5 + seed % 2, rng)
        data = make_split(full, SplitSpec(0.5, 0.0, seed))
        sched = McmcSchedule(burn_in=150, n_retained=60, thinning=2, seed=100 + seed)
        stored = run_stored_chain(data, system, sched).log_evidence
        gaps["stored"].append(stored - exact_stored_enumeration(data, system)[1])
        theory = run_irm_chain(data, sched, hp, sample_hyperparams=False).log_evidence
        gaps["theory"].append(theory - exact_irm_partition_posterior(data, 1.0, 1.0)[1])
    stored, theory = np.array(gaps["stored"]), np.array(gaps["theory"])
    _verdict(
        10,
        "harmonic-mean evidence within 6 nats (stored) and 1 nat (theory) "
        "of exact enumeration on 10 cases",
        bool(np.abs(stored).max() <= 6.0 and np.abs(theory).max() <= 1.0),
        "; ".join(
            f"{name} HM - exact {g.min():+.2f} to {g.max():+.2f}, mean {g.mean():+.2f}"
            for name, g in (("stored", stored), ("theory", theory))
        ),
    )
