"""The benchmark's workloads: inputs built from a seed, one round of work each.

Every workload draws its stored-system library from the fixed
``LIBRARY_SEED``, like a system corpus kept on disk.  The grid workloads draw
everything else from the run's ``--seed``, which ``run_experiment`` takes as
its master seed: simulated interactions, observed/test splits, pool order and
every chain seed.  ``large-pool`` fits one fixed dataset, as ``relgen infer``
fits a dataset file, and its seed draws the pool order and the chain seeds.
A library drawn per seed makes the target's own difficulty the main source
of spread: on five seeds of ``trend-grid``, held-out nats per cell ranged
0.49-0.63 with a per-seed library and 0.53-0.56 with the fixed one.

A round is a fixed set of result rows, so every run attempts whole rounds of
the same operations.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

import relgen as rg
from relgen.cli import ExperimentConfig, materialize_systems

import checks
from tracing import measuring_pool

LIBRARY_SEED = 0


def _span(tracer, name, **attrs):
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


@dataclass
class Inputs:
    seed: int
    config: ExperimentConfig
    systems: list
    # (target name, observed fraction) -> the cell's observed/test split
    splits: dict = field(default_factory=dict)
    # large-pool only
    target: object = None
    pool: list = field(default_factory=list)
    chain_seeds: tuple = ()


class GridWorkload:
    """``run_experiment`` over a grid of targets x fractions x models x K."""

    top_span = "cli.run_experiment"

    def __init__(self, name, library_size, **config):
        self.name = name
        self.library_size = library_size
        self.config = config

    def build(self, seed: int, tracer=None) -> Inputs:
        config = ExperimentConfig(master_seed=seed, **self.config)
        library = replace(
            config, master_seed=LIBRARY_SEED, n_target_systems=self.library_size
        )
        with _span(tracer, "datagen.systems"):
            systems = materialize_systems(library)
        inputs = Inputs(seed, config, systems)
        n = config.entity_count
        with _span(tracer, "datagen.split"):
            for target in systems[: config.n_target_systems]:
                # the program's own derivation: data per target, split per cell
                rng = np.random.default_rng(rg.derive_seed(seed, "data", target.name))
                full, _ = rg.simulate_interactions(target, n, rng)
                for f_idx, frac in enumerate(config.observed_fractions):
                    spec = rg.SplitSpec(
                        frac,
                        config.test_fraction,
                        rg.derive_seed(seed, "split", target.name, f_idx),
                    )
                    inputs.splits[(target.name, frac)] = rg.make_split(full, spec)
        return inputs

    def run_round(self, inputs: Inputs, tracer=None):
        with _span(tracer, self.top_span):
            rows = rg.run_experiment(inputs.config, systems=inputs.systems)
        return rows, None

    def planned_keys(self, inputs: Inputs) -> list[tuple]:
        """Every row the grid must produce, counted from the benchmark's plan."""
        cfg = inputs.config
        keys = []
        for target in inputs.systems[: cfg.n_target_systems]:
            for frac in cfg.observed_fractions:
                for model in cfg.models:
                    for k in (None,) if model == "irm" else cfg.stored_counts:
                        keys.append((target.name, model, k, frac))
        return keys

    def check(self, inputs: Inputs, rows, fits, task_bytes: list) -> list[str]:
        problems = checks.check_grid(inputs, rows, self.planned_keys(inputs))
        if inputs.config.tau_mode == "per-cell":
            # a global tau couples every row, so a single cell cannot be re-run
            problems += self._workers_agree(inputs, rows, task_bytes)
        return problems

    def _workers_agree(self, inputs: Inputs, rows, task_bytes: list) -> list[str]:
        """Re-run the first (target, fraction) cell at workers 2; require the
        CSV bytes of that cell's rows from the timed run at workers 1.

        Appends the pickled size of each task sent to the pool to ``task_bytes``.
        """
        cfg = inputs.config
        cell = replace(cfg, n_target_systems=1, observed_fractions=cfg.observed_fractions[:1])
        target, frac = inputs.systems[0].name, cfg.observed_fractions[0]
        timed = rg.emit_results_csv(
            [r for r in rows if r.target_system == target and r.observed_fraction == frac]
        )
        with measuring_pool(task_bytes):
            again = rg.emit_results_csv(rg.run_experiment(cell, inputs.systems, workers=2))
        if again != timed:
            return [f"cell {target}/{frac} at workers 2 differs from the timed run at workers 1"]
        return []

    def probe_pairs(self, inputs: Inputs, rows) -> dict:
        """(split, stored system) pairs the rows' chains ran on, with use counts."""
        by_name = {s.name: s for s in inputs.systems}
        pairs: dict = {}
        for r in rows:
            for name, _ in r.weights:
                key = (r.target_system, r.observed_fraction, name)
                pairs[key] = pairs.get(key, 0) + 1
        return {
            key: (inputs.splits[key[:2]], by_name[key[2]], uses)
            for key, uses in pairs.items()
        }


@dataclass
class Fit:
    """One library-path hybrid fit, kept whole so the audit can recheck it."""

    data: object
    pool: list
    chains: list
    theory: object
    log_evidences: np.ndarray
    components: np.ndarray
    truths: np.ndarray
    tau_star: float
    weights: np.ndarray
    predictions: np.ndarray
    score: float


class LibraryWorkload:
    """Hybrid fits through the library path that ``relgen infer`` runs.

    One fit per target: a theory chain, one stored chain per pool system,
    the pool's analogy report, hybrid evidences and component predictions,
    then tau chosen on the test cells by ``optimize_tau``.
    """

    top_span = "library.fit"

    def __init__(self, name, n, fraction, k, test_fraction, schedule):
        self.name = name
        self.n = n
        self.fraction = fraction
        self.k = k
        self.test_fraction = test_fraction
        self.schedule = schedule

    def build(self, seed: int, tracer=None) -> Inputs:
        burn_in, retained, thinning = self.schedule
        config = ExperimentConfig(
            entity_count=self.n,
            observed_fractions=(self.fraction,),
            stored_counts=(self.k,),
            models=("hybrid",),
            n_target_systems=self.k + 1,
            test_fraction=self.test_fraction,
            burn_in=burn_in,
            n_retained=retained,
            thinning=thinning,
            master_seed=LIBRARY_SEED,
        )
        with _span(tracer, "datagen.systems"):
            systems = materialize_systems(config)
        # like `relgen infer` on a dataset file: the data stay fixed and the
        # seed draws the pool order and every chain seed
        target = systems[0]
        data_rng = np.random.default_rng(LIBRARY_SEED)
        with _span(tracer, "datagen.split"):
            full, _ = rg.simulate_interactions(target, self.n, data_rng)
            spec = rg.SplitSpec(
                self.fraction, self.test_fraction, int(data_rng.integers(2**63))
            )
            data = rg.make_split(full, spec)
        rng = np.random.default_rng(seed)
        pool = [systems[i] for i in rng.permutation(self.k) + 1]
        chain_seeds = tuple(int(s) for s in rng.integers(2**63, size=self.k + 1))
        inputs = Inputs(seed, config, systems, target=target, pool=pool)
        inputs.splits[(target.name, self.fraction)] = data
        inputs.chain_seeds = chain_seeds
        return inputs

    def fit(self, inputs: Inputs, tracer=None) -> Fit:
        burn_in, retained, thinning = self.schedule
        data = inputs.splits[(inputs.target.name, self.fraction)]
        cells = data.test_cells
        truths = np.asarray([data.cells[r, c] for r, c in cells], dtype=np.int64)
        n, pool, seeds = data.n_entities, inputs.pool, inputs.chain_seeds
        sched = rg.McmcSchedule(burn_in, retained, thinning, seeds[-1])
        sweeps = sched.total_sweeps
        with _span(tracer, "irm.chain", n=n, sweeps=sweeps):
            theory = rg.run_irm_chain(data, sched)
        chains = []
        for j, system in enumerate(pool):
            with _span(tracer, "analogy.chain", n=n, sweeps=sweeps, system=system.name):
                chains.append(rg.run_stored_chain(data, system, sched.with_seed(seeds[j])))
        with _span(tracer, "analogy.report"):
            rg.analogy_report(pool, chains)
        with _span(tracer, "hybrid.evidence"):
            log_ev = rg.hybrid_log_evidences(chains, theory)
        with _span(tracer, "hybrid.components"):
            comps = rg.hybrid_component_predictions(chains, theory, pool, data, cells)

        def objective(tau, span=None):
            w = rg.hybrid_weights(log_ev, tau)
            preds = [rg.predictive_prob(comps[i], w) for i in range(comps.shape[0])]
            if span is not None:
                span["attrs"]["evals"] += 1
                span["attrs"]["cells"] += len(preds)
            return -rg.evaluate(preds, truths)

        with _span(tracer, "hybrid.tau_search", evals=0, cells=0) as span:
            tau_star = rg.optimize_tau(lambda t: objective(t, span))
        w = rg.hybrid_weights(log_ev, tau_star)
        preds = np.asarray([rg.predictive_prob(comps[i], w) for i in range(comps.shape[0])])
        score = rg.evaluate(preds, truths)
        return Fit(data, pool, chains, theory, log_ev, comps, truths, tau_star, w, preds, score)

    def run_round(self, inputs: Inputs, tracer=None):
        start = time.perf_counter()
        with _span(tracer, self.top_span):
            fit = self.fit(inputs, tracer)
        row = rg.ResultRow(
            target_system=inputs.target.name,
            model="hybrid",
            n_stored=self.k,
            observed_fraction=self.fraction,
            score=fit.score,
            n_test=len(fit.truths),
            weights=tuple(zip((s.name for s in fit.pool), (float(x) for x in fit.weights[:-1]))),
            tau_star=float(fit.tau_star),
            irm_weight=float(fit.weights[-1]),
            seed=inputs.seed,
            wall_seconds=time.perf_counter() - start,
        )
        return [row], [fit]

    def planned_keys(self, inputs: Inputs) -> list[tuple]:
        return [(inputs.target.name, "hybrid", self.k, self.fraction)]

    def check(self, inputs: Inputs, rows, fits, task_bytes: list) -> list[str]:
        problems = checks.check_grid(inputs, rows, self.planned_keys(inputs))
        bounds = (inputs.config.tau_lower, inputs.config.tau_upper)
        for fit in fits:
            problems += checks.audit_fit(fit, bounds)
        return problems

    def probe_pairs(self, inputs: Inputs, rows) -> dict:
        data = inputs.splits[(inputs.target.name, self.fraction)]
        return {
            (inputs.target.name, self.fraction, s.name): (data, s, 1) for s in inputs.pool
        }


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        GridWorkload(
            "trend-grid",
            library_size=20,
            entity_count=30,
            observed_fractions=(0.1, 0.2, 0.3, 0.9),
            stored_counts=(2, 5),
            models=("irm", "analogy", "hybrid"),
            n_target_systems=1,
            test_fraction=0.1,
            burn_in=150,
            n_retained=60,
            thinning=2,
            include_target_in_pool=True,
            tau_lower=-12.0,
            tau_upper=12.0,
        ),
        LibraryWorkload(
            "large-pool", n=60, fraction=0.5, k=20, test_fraction=0.1,
            schedule=(150, 60, 2),
        ),
        GridWorkload(
            "global-tau",
            library_size=20,
            entity_count=30,
            observed_fractions=(0.2, 0.5),
            stored_counts=(5,),
            models=("hybrid",),
            n_target_systems=20,
            test_fraction=0.4,
            burn_in=10,
            n_retained=10,
            thinning=1,
            tau_mode="global",
        ),
    )
}


def tiny(workload):
    """A seconds-long version of a workload, for the benchmark's smoke test."""
    if isinstance(workload, LibraryWorkload):
        return LibraryWorkload(
            workload.name, n=10, fraction=0.5, k=3, test_fraction=0.1,
            schedule=(2, 3, 1),
        )
    cfg = dict(workload.config)
    cfg.update(entity_count=8, burn_in=2, n_retained=3, thinning=1)
    cfg["observed_fractions"] = cfg["observed_fractions"][:2]
    cfg["n_target_systems"] = min(cfg["n_target_systems"], 2)
    return GridWorkload(
        workload.name,
        library_size=max(cfg["n_target_systems"], max(cfg["stored_counts"]) + 1),
        **cfg,
    )
