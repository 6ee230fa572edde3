"""Seed derivation, config handling, the experiment grid, CSV, and commands."""

import csv
import io
import json
import os
import pickle
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import relgen.cli
from relgen import (
    ConfigError,
    DimensionError,
    ExperimentConfig,
    OptimizationError,
    PosteriorSamples,
    RelationData,
    ResultRow,
    StoredSystem,
    analogy_report,
    dataset_from_text,
    dataset_to_text,
    derive_seed,
    emit_results_csv,
    emit_summary_csv,
    evaluate,
    harmonic_mean_evidence,
    hybrid_log_evidences,
    main,
    optimize_tau,
    parse_results_csv,
    run_experiment,
    save_system,
    summarize,
    system_from_text,
    system_to_text,
)
from relgen.cli import (
    VALID_TAU_MODES,
    _cell_rows,
    build_parser,
    materialize_systems,
)


def tiny_config(**over):
    base = dict(
        entity_count=8,
        observed_fractions=(0.2, 0.5),
        stored_counts=(2,),
        models=("irm", "analogy", "hybrid"),
        n_target_systems=3,
        test_fraction=0.1,
        burn_in=20,
        n_retained=10,
        thinning=1,
        master_seed=42,
        class_range=(2, 4),
    )
    base.update(over)
    return ExperimentConfig(**base)


# --------------------------------------------------------------------- seeds

def test_derive_seed_is_deterministic_and_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)
    assert derive_seed(1, "a", "b") != derive_seed(1, "ab")
    assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")
    assert derive_seed(1, 5) != derive_seed(1, "5")
    # long strings hash chunk by chunk without collisions between lengths
    assert derive_seed(0, "x" * 8) != derive_seed(0, "x" * 9)
    for parts in ((), ("only",), (0, 0, 0)):
        s = derive_seed(7, *parts)
        assert 0 <= s < 2**64


def test_derive_seed_rejects_other_types():
    with pytest.raises(TypeError):
        derive_seed(1, 2.5)
    with pytest.raises(TypeError):
        derive_seed(1, True)
    with pytest.raises(TypeError):
        derive_seed(1, None)


def test_derive_seed_spreads_values():
    seeds = {derive_seed(0, "row", i) for i in range(2000)}
    assert len(seeds) == 2000


# ------------------------------------------------------------------ evaluate

def test_evaluate_frozen_values():
    preds = np.full(10, 0.5)
    truths = np.array([0, 1] * 5)
    assert_allclose(evaluate(preds, truths), 10 * np.log(2.0), rtol=1e-12)
    assert evaluate([], []) == 0.0
    # a confident wrong answer is heavily, but finitely, penalized
    bad = evaluate(np.array([1.0]), np.array([0]))
    assert np.isfinite(bad) and bad > 10


def test_evaluate_validation():
    with pytest.raises(DimensionError):
        evaluate(np.array([0.5, 0.5]), np.array([1]))
    for bad in (2, 0.5, -1, np.nan):
        with pytest.raises(ValueError):
            evaluate(np.array([0.5, 0.5]), np.array([1, bad]))
    p = np.array([0.9, 0.2])
    assert evaluate(p, np.array([True, False])) == evaluate(p, np.array([1, 0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_refuses_non_finite_predictions(bad):
    with pytest.raises(ValueError, match="finite"):
        evaluate(np.array([bad, 0.5]), np.array([1, 0]))


# -------------------------------------------------------------------- config

def test_config_defaults_are_valid():
    config = ExperimentConfig()
    assert config.entity_count == 30
    assert len(config.observed_fractions) == 9
    assert config.stored_counts == (2, 5, 10, 100)
    assert config.n_target_systems == 101


# settings of the wrong type, as a JSON config file can give them
WRONG_TYPES = [
    dict(entity_count="5"),
    dict(tau_lower="x"),
    dict(master_seed="x"),
    dict(class_range=5),
    dict(class_range=[2, 3, 4]),
    dict(observed_fractions="abc"),
    dict(stored_counts=[2.5]),
    dict(include_target_in_pool="no"),
    dict(models="irm"),
    dict(entity_count=True),
    dict(systems_dir=5),
]


@pytest.mark.parametrize(
    "bad",
    WRONG_TYPES + [
        dict(entity_count=0),
        dict(observed_fractions=()),
        dict(observed_fractions=(0.2, 0.2)),
        dict(observed_fractions=(0.95,)),  # collides with test fraction
        dict(stored_counts=(0,)),
        dict(stored_counts=(2, 2)),
        dict(stored_counts=()),  # the default models include analogy and hybrid
        dict(models=("hybrid",), stored_counts=()),
        dict(models=()),
        dict(models=("irm", "irm")),
        dict(models=("nonsense",)),
        dict(n_target_systems=0),
        dict(test_fraction=1.2),
        dict(burn_in=-1),
        dict(n_retained=0),
        dict(thinning=0),
        dict(tau_lower=4.0, tau_upper=-4.0),
        dict(tau_mode="sometimes"),
        dict(class_range=(0, 3)),
        dict(class_range=(5, 3)),
        dict(entity_count=2),  # below the default class minimum of 3
        dict(generation_gamma=0.0),
        # tau = 10**bound must be a positive finite float
        dict(tau_upper=400.0),
        dict(tau_lower=-400.0),
        dict(tau_lower=float("-inf")),
        dict(tau_upper=float("nan")),
        # generation settings must be positive and finite
        dict(generation_alpha=float("nan")),
        dict(generation_alpha=float("inf")),
        dict(generation_gamma=float("nan")),
        dict(generation_gamma=float("inf")),
        dict(generation_alpha=0.0),
    ],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        ExperimentConfig(**bad)


@pytest.mark.parametrize("bad", WRONG_TYPES)
def test_config_wrong_type_names_the_setting(bad):
    (name,) = bad
    with pytest.raises(ConfigError, match=f"^{name} "):
        ExperimentConfig.from_sources(bad)


# one type rule for settings and files: each case is (kind, depth, value),
# refused both as the setting and as the file field of that kind and depth
SHARED_MISFITS = [
    ("int", 0, True),  # a bool for an int
    ("int", 0, 1.5),
    ("float", 1, ["1"]),  # a numeric string for a float
    ("int", 1, 0),  # a scalar where a list belongs
    ("float", 1, [0.5, [0.5]]),  # a misfit nested in a list
]
SETTING_OF = {("int", 0): "entity_count", ("int", 1): "stored_counts",
              ("float", 1): "observed_fractions"}
FILE_FIELD_OF = {("int", 0): "n_entities", ("int", 1): "cells", ("float", 1): "zeta"}


@pytest.mark.parametrize("kind, depth, value", SHARED_MISFITS)
def test_settings_and_files_share_one_type_rule(kind, depth, value):
    setting = SETTING_OF[kind, depth]
    with pytest.raises(ConfigError, match=f"^{setting} ") as from_config:
        ExperimentConfig.from_sources({setting: value})
    key = FILE_FIELD_OF[kind, depth]
    if key == "zeta":
        doc = json.loads(system_to_text(StoredSystem("s", [[0.5]], [1.0])))
        read = system_from_text
    else:
        doc = json.loads(dataset_to_text(RelationData(1, [[1]], [[True]])))
        read = dataset_from_text
    with pytest.raises(ValueError, match=f": {key}: expected ") as from_file:
        read(json.dumps({**doc, key: value}))
    # both name the same misfit in the same words
    problem = str(from_file.value).split(": expected ", 1)[1]
    assert str(from_config.value).endswith(f" must be {problem}")


def test_config_unwraps_numpy_scalars():
    config = ExperimentConfig.from_sources(
        {"entity_count": np.int64(12), "test_fraction": np.float64(0.05),
         "stored_counts": np.array([1, 2])}
    )
    assert config == ExperimentConfig(entity_count=12, test_fraction=0.05, stored_counts=(1, 2))
    assert type(config.entity_count) is int and type(config.stored_counts[0]) is int


def test_config_from_sources_layering():
    file_values = {"entity_count": 12, "master_seed": 5}
    overrides = {"master_seed": 9, "models": ("irm",), "entity_count": None}
    config = ExperimentConfig.from_sources(file_values, overrides)
    assert config.entity_count == 12  # file wins when the flag is unset
    assert config.master_seed == 9  # explicit flag beats the file
    assert config.models == ("irm",)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources({"no_such_setting": 1}, None)
    # emit_timing is not a setting: the results CSV has one format
    with pytest.raises(ConfigError, match="unknown config file setting 'emit_timing'"):
        ExperimentConfig.from_sources({"emit_timing": True})


def test_config_coerces_sequences():
    config = ExperimentConfig.from_sources(
        {"observed_fractions": [0.1, 0.4], "stored_counts": [3], "class_range": [2, 3]},
        None,
    )
    assert config.observed_fractions == (0.1, 0.4)
    assert config.stored_counts == (3,)


# ------------------------------------------------------------------ planning

def test_cell_rows_combinatorics():
    # per target and fraction: one theory row (no K) + one analogy + one hybrid
    config = tiny_config(burn_in=1, n_retained=1)
    assert _cell_rows(config) == [("irm", None), ("analogy", 2), ("hybrid", 2)]
    rows = run_experiment(config)
    assert [(r.model, r.n_stored) for r in rows] == _cell_rows(config) * 3 * 2
    # one seed per (target, fraction) cell, shared by the cell's rows
    cell_seeds = {(r.target_system, r.observed_fraction): r.seed for r in rows}
    assert len(set(cell_seeds.values())) == 3 * 2
    assert all(r.seed == cell_seeds[r.target_system, r.observed_fraction] for r in rows)
    assert cell_seeds["synthetic-001", 0.5] == derive_seed(42, "cell", "synthetic-001", 1)
    # rows come out in canonical order, K ascending, whatever the config's order
    unsorted = replace(config, stored_counts=(5, 1, 2), models=("hybrid", "irm"))
    assert _cell_rows(unsorted) == [("irm", None)] + [("hybrid", k) for k in (1, 2, 5)]
    rows = run_experiment(replace(unsorted, n_target_systems=1))
    assert [(r.model, r.n_stored) for r in rows] == _cell_rows(unsorted) * 2


def test_cell_rows_default_grid_size(monkeypatch):
    import relgen.cli as cli

    config = ExperimentConfig()
    assert len(_cell_rows(config)) == 1 + 4 + 4

    def stub_cell(config, systems, t_idx, f_idx):
        return [((t_idx, f_idx, model, k), None) for model, k in _cell_rows(config)]

    monkeypatch.setattr(cli, "_execute_cell", stub_cell)
    totals = set()
    # stand-ins for the systems: the grid reads only their names
    systems = [SimpleNamespace(name=f"s{i}") for i in range(101)]
    rows = run_experiment(config, systems, progress=lambda _, n: totals.add(n))
    assert len(rows) == 101 * 9 * (1 + 4 + 4) and totals == {len(rows)}
    assert rows[:9] == [(0, 0, model, k) for model, k in _cell_rows(config)]
    assert rows[-1] == (100, 8, "hybrid", 100)


# ----------------------------------------------------------------------- csv

def sample_rows():
    return [
        ResultRow(
            target_system="sys-a",
            model="hybrid",
            n_stored=2,
            observed_fraction=0.3,
            score=12.5,
            n_test=9,
            weights=(("x", 0.25), ("y", 0.5)),
            tau_star=3.3,
            irm_weight=0.25,
            seed=77,
        ),
        ResultRow(
            target_system="sys-b",
            model="irm",
            n_stored=None,
            observed_fraction=0.1,
            score=None,
            n_test=0,
            seed=78,
            status="error",
            error="GenerationError: boom",
        ),
    ]


def test_results_csv_round_trip():
    rows = sample_rows()
    text = emit_results_csv(rows)
    assert text.splitlines()[0].startswith("target_system,model,n_stored")
    assert parse_results_csv(text) == rows


def test_results_csv_rejects_foreign_header():
    # a header with a last wall_seconds column is foreign too: the results
    # CSV has one format
    head, row = emit_results_csv(sample_rows()[:1]).splitlines()
    for text in ("alpha,beta\n1,2\n", f"{head},wall_seconds\n{row},1.25\n"):
        with pytest.raises(ValueError, match="unrecognized results CSV header"):
            parse_results_csv(text)


def test_results_csv_skips_blank_lines_and_refuses_short_ones():
    head, rest = emit_results_csv(sample_rows()).split("\n", 1)
    assert parse_results_csv(f"{head}\n\n{rest}\n") == sample_rows()
    with pytest.raises(ValueError, match=f"expected {len(head.split(','))} fields, got 2"):
        parse_results_csv(f"{head}\nsys-a,irm\n")


def test_results_csv_rejects_unknown_model():
    text = emit_results_csv(sample_rows()[:1]).replace(",hybrid,", ",theory,")
    with pytest.raises(ValueError, match="unknown model 'theory'"):
        parse_results_csv(text)


def test_result_row_rejects_unknown_model():
    # summarize used to meet such a row with a bare KeyError
    with pytest.raises(ValueError, match="unknown model 'x'"):
        summarize([
            ResultRow(target_system="t", model="x", n_stored=None,
                      observed_fraction=0.5, score=1.0, n_test=1)
        ])


def test_emit_is_deterministic():
    rows = sample_rows()
    assert emit_results_csv(rows) == emit_results_csv(rows)


# ----------------------------------------------------------------- summaries

def test_summarize_groups_and_means():
    def row(model, k, frac, score, irm_w=None, status="ok"):
        return ResultRow(
            target_system="t",
            model=model,
            n_stored=k,
            observed_fraction=frac,
            score=score,
            n_test=5,
            irm_weight=irm_w,
            status=status,
            error="" if status == "ok" else "x",
        )

    rows = [
        row("irm", None, 0.1, 10.0),
        row("irm", None, 0.1, 14.0),
        row("irm", None, 0.5, 6.0),
        row("hybrid", 2, 0.1, 8.0, irm_w=0.5),
        row("hybrid", 2, 0.1, 4.0, irm_w=0.7),
        row("irm", None, 0.1, None, status="error"),
    ]
    summary = summarize(rows)
    assert sum(s.n_rows for s in summary) == 5  # the error row is excluded
    by_key = {(s.model, s.n_stored, s.observed_fraction): s for s in summary}
    assert len(by_key) == len(summary)  # each row lands in exactly one group
    assert by_key[("irm", None, 0.1)].mean_score == 12.0
    assert by_key[("irm", None, 0.1)].mean_irm_weight is None
    assert_allclose(by_key[("hybrid", 2, 0.1)].mean_irm_weight, 0.6)

    trimmed = summarize(rows, exclude_smallest_fraction=True)
    assert {s.observed_fraction for s in trimmed} == {0.5}

    text = emit_summary_csv(summary)
    assert text.splitlines()[0] == (
        "model,n_stored,observed_fraction,mean_score,n_rows,mean_irm_weight"
    )


# ------------------------------------------------------------ the experiment

def test_run_experiment_grid_and_determinism():
    config = tiny_config()
    rows = run_experiment(config)
    assert len(rows) == 18
    assert all(r.status == "ok" for r in rows)
    assert all(r.n_test == 6 for r in rows)  # floor(0.1 * 64)
    # canonical order: target, fraction, then irm < analogy < hybrid
    first_six = [r.model for r in rows[:6]]
    assert first_six == ["irm", "analogy", "hybrid"] * 2
    hybrid_rows = [r for r in rows if r.model == "hybrid"]
    assert all(r.tau_star is not None and r.irm_weight is not None
               for r in hybrid_rows)
    assert all(len(r.weights) == 2 for r in hybrid_rows)
    analogy_rows = [r for r in rows if r.model == "analogy"]
    for r in analogy_rows:
        assert_allclose(sum(w for _, w in r.weights), 1.0, atol=1e-9)

    again = run_experiment(config)
    assert emit_results_csv(again) == emit_results_csv(rows)


@pytest.mark.parametrize("tau_mode", VALID_TAU_MODES)
def test_run_experiment_worker_count_is_invisible(tau_mode):
    config = tiny_config(n_target_systems=2, tau_mode=tau_mode)
    alone = run_experiment(config, workers=1)
    pooled = run_experiment(config, workers=2)
    assert emit_results_csv(alone) == emit_results_csv(pooled)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_reports_progress_per_cell(workers):
    seen = []
    run_experiment(tiny_config(), workers=workers, progress=lambda *done: seen.append(done))
    assert seen == [(3 * cells, 18) for cells in range(1, 7)]


def test_run_experiment_refuses_a_bad_worker_count(monkeypatch):
    import relgen.cli as cli

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "_execute_cell", no_cell)
    config = tiny_config(n_target_systems=1, observed_fractions=(0.5,), models=("irm",))
    # each is refused before any cell runs, whatever its type
    for workers in (0, -3, True, 2.5, "2", None):
        with pytest.raises(ConfigError, match=f"positive integer, got {workers!r}"):
            run_experiment(config, workers=workers)


# (edge settings, held-out cells per row): no test set, no observed cell, n = 1
EDGE_GRIDS = [
    pytest.param(dict(test_fraction=0.0), 0, id="no-test-set"),
    pytest.param(dict(observed_fractions=(0.0,)), 6, id="nothing-observed"),
    pytest.param(dict(entity_count=1, class_range=(1, 1)), 0, id="one-entity"),
]


@pytest.mark.parametrize("tau_mode", VALID_TAU_MODES)
@pytest.mark.parametrize("edge, n_test", EDGE_GRIDS)
def test_run_experiment_edge_grids(edge, n_test, tau_mode):
    config = tiny_config(tau_mode=tau_mode, **edge)
    rows = run_experiment(config)
    assert len(rows) == 3 * len(config.observed_fractions) * 3
    assert all(r.status == "ok" and r.n_test == n_test for r in rows)
    assert all(r.score == 0.0 for r in rows if n_test == 0)
    assert emit_results_csv(run_experiment(config, workers=2)) == emit_results_csv(rows)


def test_run_experiment_sizes_the_pool_by_cells(monkeypatch):
    import relgen.cli as cli

    sizes = []

    class InlinePool:
        """Runs the pool's tasks in this process, recording its size."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "_WORKER_GRID", ())
    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    config = tiny_config(n_target_systems=1, models=("irm",))
    serial = emit_results_csv(run_experiment(config))
    # two cells: eight workers asked for, two started
    assert emit_results_csv(run_experiment(config, workers=8)) == serial
    one_cell = replace(config, observed_fractions=config.observed_fractions[:1])
    # one cell still goes through the pool, with one worker
    assert emit_results_csv(run_experiment(one_cell, workers=2)) == emit_results_csv(
        run_experiment(one_cell)
    )
    assert sizes == [2, 1]


def test_run_experiment_rejects_a_short_systems_list():
    # three systems cannot serve five targets: refused, not a smaller grid
    with pytest.raises(ConfigError, match=r"3 systems .* n_target_systems=5"):
        run_experiment(tiny_config(n_target_systems=5), materialize_systems(tiny_config()))


def test_run_experiment_records_row_failures():
    # ask for more stored systems than the pool can provide: those rows
    # error out, everything else still completes
    config = tiny_config(n_target_systems=2, stored_counts=(5,))
    rows = run_experiment(config)
    failed = [r for r in rows if r.status == "error"]
    fine = [r for r in rows if r.status == "ok"]
    assert all(r.model in ("analogy", "hybrid") for r in failed)
    assert all(r.model == "irm" for r in fine)
    assert all("pool" in r.error for r in failed)
    assert len(fine) == 4


def test_run_experiment_keeps_errors_per_row():
    # a pool of two serves K = 2 but not K = 5: only the K = 5 rows fail
    rows = run_experiment(tiny_config(stored_counts=(2, 5)))
    failed = [r for r in rows if r.status == "error"]
    assert {(r.model, r.n_stored) for r in failed} == {("analogy", 5), ("hybrid", 5)}
    assert all("pool" in r.error for r in failed)
    fine = [r for r in rows if r.status == "ok"]
    assert {(r.model, r.n_stored) for r in fine} == {
        ("irm", None), ("analogy", 2), ("hybrid", 2)
    }
    assert len(fine) == 3 * 2 * 3


def test_error_row_bytes_are_pinned():
    # the pool of a target holds only the 2 other systems, so K = 3 fails
    config = tiny_config(models=("analogy",), stored_counts=(3,), observed_fractions=(0.2,))
    lines = emit_results_csv(run_experiment(config)).splitlines()
    assert lines[1] == (
        "synthetic-000,analogy,3,0.2,,0,,,,13168316344630658888,error,"
        "ConfigError: pool size 3 requested but only 2 systems available"
    )


def test_cell_runs_each_chain_once_and_pairs_its_rows(monkeypatch):
    import relgen.cli as cli

    counts = {"stored": 0, "theory": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "run_stored_chain", counting("stored", cli.run_stored_chain))
    monkeypatch.setattr(cli, "run_irm_chain", counting("theory", cli.run_irm_chain))
    config = tiny_config(stored_counts=(1, 2))
    rows = run_experiment(config)
    cells = config.n_target_systems * len(config.observed_fractions)
    assert counts == {"stored": 2 * cells, "theory": cells}
    assert all(r.status == "ok" for r in rows)
    # a cell's analogy and hybrid rows weigh the same stored evidences, so
    # the hybrid's stored weights, renormalised, are the analogy's weights
    for analogy in (r for r in rows if r.model == "analogy"):
        (hybrid,) = [
            r for r in rows
            if r.model == "hybrid" and r.n_stored == analogy.n_stored
            and (r.target_system, r.observed_fraction)
            == (analogy.target_system, analogy.observed_fraction)
        ]
        stored = np.array([w for _, w in hybrid.weights])
        assert_allclose(stored / stored.sum(), [w for _, w in analogy.weights], rtol=1e-9)

    def csv_of(rows, model, k):
        return emit_results_csv([r for r in rows if r.model == model and r.n_stored == k])

    # the K = 2 rows do not depend on which other pool sizes the grid holds
    alone = run_experiment(tiny_config(stored_counts=(2,)))
    for model in ("analogy", "hybrid"):
        assert csv_of(rows, model, 2) == csv_of(alone, model, 2)
    # nor does the theory row depend on the other models
    irm_only = run_experiment(tiny_config(models=("irm",)))
    assert csv_of(rows, "irm", None) == emit_results_csv(irm_only)


def test_cell_makes_its_pool_starts_in_one_call(monkeypatch):
    # one greedy_starts call per cell, for the pool of its largest K, whose
    # starts its chains take in pool order
    import relgen.cli as cli

    pools, given = [], []
    real_starts, real_chain = cli.greedy_starts, cli.run_stored_chain

    def starts(data, systems, schedules):
        pools.append([s.name for s in systems])
        return real_starts(data, systems, schedules)

    def chain(data, system, schedule, start):
        given.append((system.name, start))
        return real_chain(data, system, schedule, start)

    monkeypatch.setattr(cli, "greedy_starts", starts)
    monkeypatch.setattr(cli, "run_stored_chain", chain)
    config = tiny_config(stored_counts=(1, 3))
    systems = materialize_systems(tiny_config(n_target_systems=4))
    rows = run_experiment(config, systems)
    assert all(r.status == "ok" for r in rows)
    cells = config.n_target_systems * len(config.observed_fractions)
    assert len(pools) == cells and all(len(p) == 3 for p in pools)
    assert [name for name, _ in given] == [name for p in pools for name in p]
    assert all(start is not None for _, start in given)


def test_cell_builds_each_pool_report_once(monkeypatch):
    # a K's analogy row builds its report; a hybrid row builds none
    import relgen.cli as cli

    calls = []

    def counting(systems, chains):
        calls.append(len(systems))
        return analogy_report(systems, chains)

    monkeypatch.setattr(cli, "analogy_report", counting)
    config = tiny_config(n_target_systems=1, observed_fractions=(0.5,), stored_counts=(2, 3))
    systems = materialize_systems(tiny_config(n_target_systems=4))
    rows = run_experiment(config, systems)
    assert all(r.status == "ok" for r in rows) and len(rows) == 5
    assert sorted(calls) == [2, 3]
    calls.clear()
    rows = run_experiment(replace(config, models=("hybrid",)), systems)
    assert all(r.status == "ok" for r in rows) and len(rows) == 2
    assert calls == []


@pytest.mark.parametrize("model", ["analogy", "hybrid"])
def test_cli_infer_builds_the_pool_report_once(tmp_path, monkeypatch, model):
    calls = []

    def counting(systems, chains):
        calls.append(len(systems))
        return analogy_report(systems, chains)

    monkeypatch.setattr(relgen.cli, "analogy_report", counting)
    systems = tmp_path / "systems"
    assert main(["generate", "--out-dir", str(systems), "--count", "3",
                 "--entities", "6", "--class-min", "2", "--class-max", "3"]) == 0
    dataset = tmp_path / "data.json"
    assert main(["simulate", "--system", str(systems / "synthetic-000.json"),
                 "--entities", "6", "--out", str(dataset)]) == 0
    out = tmp_path / "p.csv"
    assert main(["infer", "--dataset", str(dataset), "--model", model,
                 "--systems-dir", str(systems), "--burn-in", "5", "--retained", "5",
                 "--thinning", "1", "--out", str(out)]) == 0
    assert calls == [3]
    assert len(Path(f"{out}.report.csv").read_text().splitlines()) == 4


def test_validation_split_hybrid_row_makes_one_component_call(monkeypatch):
    # the test and validation cells go through one call, split after it
    import relgen.cli as cli

    calls = []
    real = cli.hybrid_component_predictions

    def counting(stored, theory, systems, data, cells):
        calls.append(len(cells))
        return real(stored, theory, systems, data, cells)

    monkeypatch.setattr(cli, "hybrid_component_predictions", counting)
    config = tiny_config(n_target_systems=1, observed_fractions=(0.5,),
                         models=("hybrid",), tau_mode="validation-split")
    (row,) = run_experiment(config, materialize_systems(tiny_config(n_target_systems=3)))
    assert row.status == "ok" and row.score is not None
    # 6 test cells and as many validation cells
    assert calls == [2 * row.n_test]


def test_run_experiment_refuses_repeated_system_names():
    # refused before any cell runs, not as errors of the rows whose pool
    # holds both systems
    systems = materialize_systems(tiny_config())
    systems[2] = replace(systems[2], name=systems[1].name)
    with pytest.raises(ConfigError, match="system names must be unique; 'synthetic-001'"):
        run_experiment(tiny_config(), systems)


def test_each_chain_estimates_its_evidence_once(monkeypatch):
    import relgen.cli as cli
    import relgen.core as core

    calls = []

    def counting(logliks):
        calls.append(logliks)
        return harmonic_mean_evidence(logliks)

    pool, stored, theories = [], [], []
    real_stored, real_theory = cli.run_stored_chain, cli.run_irm_chain

    def stored_chain(data, system, schedule, start=None):
        pool.append(system)
        stored.append(real_stored(data, system, schedule, start))
        return stored[-1]

    def theory_chain(data, schedule):
        theories.append(real_theory(data, schedule))
        return theories[-1]

    monkeypatch.setattr(core, "harmonic_mean_evidence", counting)
    monkeypatch.setattr(cli, "run_stored_chain", stored_chain)
    monkeypatch.setattr(cli, "run_irm_chain", theory_chain)
    config = tiny_config(n_target_systems=1, observed_fractions=(0.5,), stored_counts=(2, 3))
    rows = run_experiment(config, materialize_systems(tiny_config(n_target_systems=4)))
    assert all(r.status == "ok" for r in rows) and len(rows) == 5
    # three stored chains and one theory chain, each estimated when it ran
    assert len(calls) == 4
    (theory,) = theories
    own = np.array([c.log_evidence for c in stored + [theory]])
    assert np.array_equal(analogy_report(pool, stored).log_evidences, own[:-1])
    assert np.array_equal(hybrid_log_evidences(stored, theory), own)
    for chain in stored + [theory]:
        assert chain.log_evidence == harmonic_mean_evidence(chain.logliks)
        assert pickle.loads(pickle.dumps(chain)).log_evidence == chain.log_evidence
    with pytest.raises(TypeError):
        PosteriorSamples(theory.partitions, theory.logliks, "irm", log_evidence=0.0)


def test_run_experiment_global_tau_is_shared():
    config = tiny_config(models=("hybrid",), tau_mode="global")
    rows = run_experiment(config)
    taus = {r.tau_star for r in rows}
    assert len(taus) == 1  # one pool size, therefore one shared tau
    assert all(r.score is not None for r in rows)


def test_per_cell_and_global_tau_agree_on_one_cell():
    # one cell holds one hybrid row per K, so the tau global mode shares
    # across a K's rows is that row's own tau: both modes score through one
    # function and write the same bytes
    systems = materialize_systems(tiny_config())
    csvs = [
        emit_results_csv(run_experiment(
            tiny_config(
                n_target_systems=1, observed_fractions=(0.5,), stored_counts=(1, 2),
                tau_mode=mode,
            ),
            systems,
        ))
        for mode in ("per-cell", "global")
    ]
    assert csvs[0] == csvs[1]
    assert csvs[0].count(",hybrid,") == 2 and ",error," not in csvs[0]


@pytest.mark.parametrize("tau_mode", VALID_TAU_MODES)
def test_failed_tau_search_errors_only_its_row(tau_mode, monkeypatch):
    # a failed search marks only the rows it scores as errors (one row, or
    # under global mode its K's rows) and the run returns every row
    searches = []

    def fail_from(first_ok):
        def search(*args, **kwargs):
            searches.append(1)
            if len(searches) < first_ok:
                raise OptimizationError("non-finite score at tau=1.0", 1.0)
            return optimize_tau(*args, **kwargs)
        return search

    config = tiny_config(n_target_systems=1, stored_counts=(1, 2), tau_mode=tau_mode)
    systems = materialize_systems(tiny_config())
    monkeypatch.setattr("relgen.cli.optimize_tau", fail_from(first_ok=float("inf")))
    rows = run_experiment(config, systems)
    hybrid = [r for r in rows if r.model == "hybrid"]
    assert len(hybrid) == 4
    assert all(r.status == "error" and r.score is None and r.n_test == 0 for r in hybrid)
    assert all(r.error == "OptimizationError: non-finite score at tau=1.0" for r in hybrid)
    assert all(r.status == "ok" for r in rows if r.model != "hybrid")

    searches.clear()
    monkeypatch.setattr("relgen.cli.optimize_tau", fail_from(first_ok=2))
    rows = run_experiment(config, systems)
    errored = [r for r in rows if r.status == "error"]
    assert len(errored) == (2 if tau_mode == "global" else 1)
    assert all(r.model == "hybrid" and r.n_stored == errored[0].n_stored for r in errored)
    assert sum(r.model == "hybrid" and r.score is not None for r in rows) == 4 - len(errored)


@pytest.mark.parametrize("tau_mode", VALID_TAU_MODES)
def test_cell_returns_hybrid_rows_unscored_with_their_payloads(tau_mode):
    # a cell scores nothing, whatever the tau mode: its hybrid rows come back
    # with the payloads that run_experiment, the one scorer, chooses tau from
    from relgen.cli import _HybridPayload, _execute_cell, _scored_rows

    config = tiny_config(
        n_target_systems=1, observed_fractions=(0.5,), stored_counts=(1, 2), tau_mode=tau_mode
    )
    systems = materialize_systems(tiny_config())
    out = _execute_cell(config, systems, 0, 0)
    assert [(row.model, row.n_stored) for row, _ in out] == _cell_rows(config)
    for row, payload in out:
        assert row.status == "ok" and row.n_test > 0
        if row.model == "hybrid":
            assert row.score is None and row.tau_star is None and row.weights == ()
            assert isinstance(payload, _HybridPayload) and len(payload.names) == row.n_stored
        else:
            assert row.score is not None and payload is None
    bounds = (config.tau_lower, config.tau_upper)
    assert _scored_rows(out, bounds) == run_experiment(config, systems)


# the spans the benchmark's tracer records from calls made inside the grid
GRID_SPANS = {
    "irm.chain", "analogy.chain", "irm.predict", "analogy.predict", "analogy.report",
    "hybrid.evidence", "hybrid.components", "hybrid.tau_search", "datagen.row_split",
}


@pytest.mark.parametrize("tau_mode", VALID_TAU_MODES)
def test_benchmark_tracer_sees_every_grid_layer(tau_mode, monkeypatch):
    # perfbench/tracing.py wraps names that relgen.cli looks up at call time;
    # a call moved out of relgen.cli would zero its layer's metrics
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    config = tiny_config(n_target_systems=1, stored_counts=(1, 2), tau_mode=tau_mode)
    tracer = Tracer()
    tracer.install()
    try:
        rows = run_experiment(config, materialize_systems(tiny_config()))
    finally:
        tracer.restore()
    assert all(r.status == "ok" for r in rows)
    assert GRID_SPANS <= {s["name"] for s in tracer.spans}
    searches = [s["attrs"] for s in tracer.spans if s["name"] == "hybrid.tau_search"]
    hybrid_rows = sum(r.model == "hybrid" for r in rows)
    assert hybrid_rows == 4
    if tau_mode == "global":
        # one joint search per K, each scoring all of that K's rows per tau
        assert len(searches) == len(config.stored_counts)
        per_search = hybrid_rows // len(config.stored_counts)
    else:
        assert len(searches) == hybrid_rows
        per_search = 1
    assert all(a["evals"] > 0 and a["cells"] == a["evals"] * per_search for a in searches)


def test_run_experiment_validation_split_mode():
    config = tiny_config(models=("hybrid",), tau_mode="validation-split")
    rows = run_experiment(config)
    assert all(r.status == "ok" for r in rows)
    assert all(r.tau_star is not None for r in rows)


def _split(n, observed, test_cells):
    mask = np.zeros((n, n), dtype=bool)
    for r, c in observed:
        mask[r, c] = True
    return RelationData(n, np.zeros((n, n), dtype=np.int8), mask, tuple(test_cells))


def test_validation_cells_are_spare_sorted_and_seeded():
    from relgen.cli import _validation_cells

    n = 6
    observed = [(r, c) for r in range(n) for c in range(n) if (r + c) % 3 == 0]
    data = _split(n, observed, [(0, 1), (2, 3), (4, 4)])
    cells = _validation_cells(data, seed=11)
    assert len(cells) == 3  # as many as the test cells
    assert not set(cells) & (set(observed) | set(data.test_cells))
    assert list(cells) == sorted(cells)
    assert _validation_cells(data, seed=11) == cells
    assert {_validation_cells(data, seed) for seed in range(20)} != {cells}

    # fewer spare cells than test cells, or no test cells: every spare cell
    spare = {(r, c) for r in range(n) for c in range(n)} - set(observed)
    crowded = _split(n, observed, sorted(spare)[:-2])
    assert _validation_cells(crowded, seed=3) == tuple(sorted(spare)[-2:])
    untested = _split(n, observed, [])
    assert _validation_cells(untested, seed=3) == tuple(sorted(spare))
    with pytest.raises(ConfigError):
        _validation_cells(_split(n, observed, sorted(spare)), seed=3)


def test_include_target_in_pool_changes_membership():
    config = tiny_config(models=("analogy",), include_target_in_pool=True)
    rows = run_experiment(config)
    for r in rows:
        assert r.target_system in {name for name, _ in r.weights}


# ------------------------------------------------------------------ commands

def test_cli_full_workflow(tmp_path):
    systems = tmp_path / "systems"
    assert main([
        "generate", "--out-dir", str(systems), "--count", "3",
        "--entities", "10", "--class-min", "2", "--class-max", "4",
        "--seed", "3",
    ]) == 0
    assert len(list(systems.glob("*.json"))) == 3

    dataset = tmp_path / "data.json"
    assert main([
        "simulate", "--system", str(systems / "synthetic-000.json"),
        "--entities", "10", "--observed-fraction", "0.4", "--seed", "2",
        "--out", str(dataset),
    ]) == 0

    preds = tmp_path / "preds.csv"
    assert main([
        "infer", "--dataset", str(dataset), "--model", "hybrid",
        "--systems-dir", str(systems), "--burn-in", "20", "--retained", "10",
        "--thinning", "1", "--seed", "4", "--out", str(preds),
    ]) == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "row,col,truth,prob"
    assert len(lines) == 11  # ten test cells
    report = preds.with_name(preds.name + ".report.csv")
    assert report.read_text().splitlines()[0] == "rank,system,log_evidence,weight"

    results = tmp_path / "results.csv"
    assert main([
        "experiment", "--targets", "2", "--entities", "8",
        "--fractions", "0.2,0.5", "--k-values", "1", "--models", "irm,analogy",
        "--burn-in", "10", "--retained", "5", "--thinning", "1",
        "--seed", "11", "--out", str(results),
    ]) == 0
    parsed = parse_results_csv(results.read_text())
    assert len(parsed) == 2 * 2 * 2

    summary = tmp_path / "summary.csv"
    assert main([
        "summarize", "--results", str(results), "--out", str(summary),
    ]) == 0
    assert summary.read_text().startswith("model,n_stored")


def test_cli_infer_requires_systems_dir(tmp_path):
    dataset = tmp_path / "d.json"
    config = tiny_config(n_target_systems=1)
    systems = materialize_systems(config)
    from relgen import SplitSpec, make_split, save_dataset, simulate_interactions

    data, _ = simulate_interactions(systems[0], 8, np.random.default_rng(0))
    save_dataset(make_split(data, SplitSpec(0.5, 0.1, seed=1)), dataset)
    code = main([
        "infer", "--dataset", str(dataset), "--model", "analogy",
        "--out", str(tmp_path / "p.csv"),
    ])
    assert code == 2


def test_cli_infer_irm_refuses_pool_flags(tmp_path, capsys):
    systems = tmp_path / "systems"
    assert main(["generate", "--out-dir", str(systems), "--count", "2",
                 "--entities", "6", "--class-min", "2", "--class-max", "3"]) == 0
    dataset = tmp_path / "data.json"
    assert main(["simulate", "--system", str(systems / "synthetic-000.json"),
                 "--entities", "6", "--out", str(dataset)]) == 0
    capsys.readouterr()
    out = tmp_path / "p.csv"
    base = ["infer", "--dataset", str(dataset), "--model", "irm", "--out", str(out)]
    for extra in (["--k", "99", "--systems-dir", str(tmp_path / "nonexistent")],
                  ["--k", "2"], ["--systems-dir", str(systems)]):
        assert main(base + extra) == 2, extra
        assert capsys.readouterr().err.startswith(
            "error: --k and --systems-dir apply only to analogy/hybrid"
        ), extra
        assert not out.exists()
    assert main(base) == 0


@pytest.mark.parametrize("k", ["-1", "0", "4"])
def test_cli_infer_rejects_bad_pool_size(tmp_path, capsys, k):
    systems = tmp_path / "systems"
    assert main([
        "generate", "--out-dir", str(systems), "--count", "3",
        "--entities", "6", "--class-min", "2", "--class-max", "3",
    ]) == 0
    dataset = tmp_path / "data.json"
    assert main([
        "simulate", "--system", str(systems / "synthetic-000.json"),
        "--entities", "6", "--out", str(dataset),
    ]) == 0
    out = tmp_path / "p.csv"
    code = main([
        "infer", "--dataset", str(dataset), "--model", "hybrid",
        "--systems-dir", str(systems), "--k", k, "--out", str(out),
    ])
    assert code == 2
    assert "pool size" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_input_files_exit_2(tmp_path, capsys):
    systems = tmp_path / "systems"
    assert main([
        "generate", "--out-dir", str(systems), "--count", "2",
        "--entities", "6", "--class-min", "2", "--class-max", "3",
    ]) == 0
    dataset = tmp_path / "data.json"
    assert main([
        "simulate", "--system", str(systems / "synthetic-000.json"),
        "--entities", "6", "--out", str(dataset),
    ]) == 0
    capsys.readouterr()
    empty = tmp_path / "empty"
    empty.mkdir()
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "bad.json").write_text("{")
    not_json = tmp_path / "not.json"
    not_json.write_text("{")
    not_results = tmp_path / "not-results.csv"
    not_results.write_text("alpha,beta\n1,2\n")
    foreign_model = tmp_path / "foreign-model.csv"
    foreign_model.write_text(emit_results_csv(sample_rows()[1:]).replace(",irm,", ",x,"))
    doc = json.loads(dataset.read_text())
    doc["test_idx"] = doc["test_idx"][:1] * 2
    repeated_test = tmp_path / "repeated-test.json"
    repeated_test.write_text(json.dumps(doc))
    # a float index is refused, not truncated to the cell before it
    doc = json.loads(dataset.read_text())
    doc["test_idx"] = [doc["test_idx"][0] + 0.5]
    float_index = tmp_path / "float-index.json"
    float_index.write_text(json.dumps(doc))
    # gamma this small all but never opens a second class, let alone a third
    unreachable = {"class_range": [3, 3], "generation_gamma": 0.001, "entity_count": 3}
    no_systems = tmp_path / "no-systems.json"
    no_systems.write_text(json.dumps({**unreachable, "n_target_systems": 1}))
    nan_system = tmp_path / "nan-system.json"
    nan_system.write_text(json.dumps(
        {"name": "nan", "eta": [[float("nan"), 0.5], [0.5, 0.5]], "zeta": [0.5, 0.5]}
    ))
    no_entities = tmp_path / "no-entities.json"
    no_entities.write_text(json.dumps(
        {"n_entities": 0, "cells": [], "observed_idx": [], "test_idx": []}
    ))
    # one cell is (-1) * (-1) cells, so only the entity count is wrong
    negative_entities = tmp_path / "negative-entities.json"
    negative_entities.write_text(json.dumps(
        {"n_entities": -1, "cells": [0], "observed_idx": [], "test_idx": []}
    ))
    out = tmp_path / "p.csv"
    to_out = ["--out", str(out)]
    cases = [
        (["infer", "--dataset", str(tmp_path / "missing.json"), "--model", "irm"]
         + to_out, "error: --dataset: "),
        (["infer", "--dataset", str(dataset), "--model", "analogy",
          "--systems-dir", str(empty)] + to_out, "error: --systems-dir: "),
        (["experiment", "--config", str(tmp_path / "missing.json")] + to_out,
         "error: --config: "),
        (["experiment", "--systems-dir", str(empty)] + to_out,
         "error: --systems-dir: "),
        (["experiment", "--systems-dir", str(systems), "--targets", "3"] + to_out,
         "error: --systems-dir: 2 systems given, fewer than n_target_systems=3"),
        (["experiment", "--config", str(no_systems)] + to_out,
         "error: no partition with 3..3 classes"),
        (["generate", "--out-dir", str(out), "--count", "1", "--entities", "3",
          "--class-min", "3", "--class-max", "3", "--gamma", "0.001"],
         "error: no partition with 3..3 classes"),
        (["infer", "--dataset", str(not_json), "--model", "irm"] + to_out,
         "error: --dataset: "),
        (["infer", "--dataset", str(repeated_test), "--model", "irm"] + to_out,
         "error: --dataset: "),
        (["infer", "--dataset", str(float_index), "--model", "irm"] + to_out,
         "error: --dataset: malformed dataset document: test_idx: "),
        (["experiment", "--config", str(not_json)] + to_out, "error: --config: "),
        (["infer", "--dataset", str(dataset), "--model", "hybrid",
          "--systems-dir", str(broken)] + to_out, "error: --systems-dir: "),
        (["summarize", "--results", str(not_results)] + to_out,
         "error: --results: "),
        (["summarize", "--results", str(foreign_model)] + to_out,
         "error: --results: unknown model 'x'"),
        (["simulate", "--system", str(not_json)] + to_out, "error: --system: "),
        (["simulate", "--system", str(tmp_path / "missing.json")] + to_out,
         "error: --system: "),
        (["simulate", "--system", str(systems / "synthetic-000.json"),
          "--observed-fraction", "2"] + to_out, "error: --observed-fraction"),
        (["simulate", "--system", str(systems / "synthetic-000.json"),
          "--entities", "0"] + to_out, "error: --entities: "),
        # settings built from several flags name the setting, as `experiment`
        # does for its config errors
        (["generate", "--out-dir", str(out), "--class-min", "5", "--class-max", "3"],
         "error: invalid class_range (5, 3)"),
        (["infer", "--dataset", str(dataset), "--model", "irm", "--retained", "0"]
         + to_out, "error: retained draw count"),
        (["simulate", "--system", str(nan_system)] + to_out, "error: --system: "),
        (["infer", "--dataset", str(no_entities), "--model", "irm"] + to_out,
         "error: --dataset: "),
        (["infer", "--dataset", str(no_entities), "--model", "hybrid",
          "--systems-dir", str(systems)] + to_out, "error: --dataset: "),
        (["infer", "--dataset", str(negative_entities), "--model", "irm"] + to_out,
         "error: --dataset: n_entities must be at least 1, got -1"),
        (["generate", "--out-dir", str(out), "--alpha", "nan"],
         "error: generation_alpha must be positive and finite"),
        (["generate", "--out-dir", str(out), "--gamma", "inf"],
         "error: generation_gamma must be positive and finite"),
    ]
    for args, prefix in cases:
        assert main(args) == 2, args
        assert capsys.readouterr().err.startswith(prefix), args
        assert not out.exists()


def test_cli_experiment_rejects_bad_workers_and_setting_types(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    base = ["experiment", "--targets", "1", "--models", "irm", "--entities", "6",
            "--fractions", "0.5", "--burn-in", "1", "--retained", "1",
            "--thinning", "1", "--out", str(out)]
    for workers in ("0", "-1"):
        assert main(base + ["--workers", workers]) == 2
        assert capsys.readouterr().err.startswith("error: --workers: ")
        assert not out.exists()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"stored_counts": [2.5]}))
    assert main(base + ["--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: stored_counts item ")
    assert not out.exists()
    # tau = 10**400 overflows: refused up front, not after every chain ran
    config_path.write_text(json.dumps({"tau_upper": 400}))
    for mode in VALID_TAU_MODES:
        assert main(base + ["--config", str(config_path), "--tau-mode", mode]) == 2
        assert capsys.readouterr().err.startswith("error: tau_upper: 10**400.0 ")
        assert not out.exists()


def test_cli_experiment_refuses_emit_timing(tmp_path, capsys):
    # argparse exits 2 on a flag it does not know
    out = tmp_path / "rows.csv"
    with pytest.raises(SystemExit) as caught:
        main(["experiment", "--targets", "1", "--models", "irm", "--entities", "6",
              "--fractions", "0.5", "--burn-in", "1", "--retained", "1",
              "--thinning", "1", "--out", str(out), "--emit-timing"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --emit-timing" in capsys.readouterr().err
    assert not out.exists()


def test_cli_experiment_verbose_reports_rows(tmp_path, capsys, monkeypatch):
    # a clock that stands still but for 2 s before each progress report: a
    # report after `done` rows has seen 2 s per cell, 3 rows each
    clock = [100.0]
    monkeypatch.setattr("relgen.cli.time", SimpleNamespace(perf_counter=lambda: clock[0]))
    grid = relgen.cli.run_experiment

    def ticking(config, systems, workers, progress):
        def tick(done, total):
            clock[0] += 2.0
            progress(done, total)
        return grid(config, systems, workers=workers, progress=progress and tick)

    monkeypatch.setattr("relgen.cli.run_experiment", ticking)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(asdict(tiny_config())))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(config_path), "--verbose",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6
    for cells, line in enumerate(err, start=1):
        prefix, rate, eta = line.split(", ")
        assert prefix == f"row {3 * cells}/18"
        assert rate == "1.5 rows/s"
        assert eta == f"ETA {(18 - 3 * cells) / 1.5:.0f} s"
    quiet = tmp_path / "quiet.csv"
    assert main(["experiment", "--config", str(config_path), "--out", str(quiet)]) == 0
    assert quiet.read_bytes() == out.read_bytes()
    assert capsys.readouterr().err == ""


def test_cli_experiment_error_exit(tmp_path):
    args = [
        "experiment", "--targets", "2", "--entities", "6",
        "--fractions", "0.3", "--k-values", "5", "--models", "analogy",
        "--burn-in", "5", "--retained", "3", "--thinning", "1",
        "--out", str(tmp_path / "r.csv"),
    ]
    assert main(args) == 1  # pool too small: every row fails
    assert main(args + ["--keep-going"]) == 0


def test_cli_experiment_config_file(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "entity_count": 8,
        "observed_fractions": [0.3],
        "stored_counts": [1],
        "models": ["irm"],
        "n_target_systems": 1,
        "burn_in": 5,
        "n_retained": 3,
        "thinning": 1,
        "class_range": [2, 4],
    }))
    out = tmp_path / "rows.csv"
    assert main([
        "experiment", "--config", str(config_path), "--out", str(out),
    ]) == 0
    rows = parse_results_csv(out.read_text())
    assert len(rows) == 1
    assert rows[0].model == "irm"
    assert main([
        "experiment", "--config", str(config_path), "--models", "bogus",
        "--out", str(out),
    ]) == 2


def test_cli_experiment_config_must_be_an_object(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text("[1, 2]")
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --config: expected a JSON object")
    assert not out.exists()


def test_cli_summarize_without_out_writes_stdout(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(emit_results_csv(sample_rows()))
    assert main(["summarize", "--results", str(results)]) == 0
    assert capsys.readouterr().out == emit_summary_csv(summarize(sample_rows()))
    assert list(tmp_path.iterdir()) == [results]


def test_cli_summarize_can_drop_the_smallest_fraction(tmp_path, capsys):
    rows = [
        ResultRow(target_system="t", model=model, n_stored=None if model == "irm" else 2,
                  observed_fraction=frac, score=score, n_test=3)
        for model, frac, score in [("irm", 0.1, 4.0), ("irm", 0.5, 2.0),
                                   ("analogy", 0.1, 5.0), ("analogy", 0.3, 3.0)]
    ]
    results = tmp_path / "results.csv"
    results.write_text(emit_results_csv(rows))
    assert main(["summarize", "--results", str(results)]) == 0
    kept = parse_summary_fractions(capsys.readouterr().out)
    assert kept == [("irm", 0.1), ("irm", 0.5), ("analogy", 0.1), ("analogy", 0.3)]
    assert main(["summarize", "--results", str(results), "--exclude-smallest-partition"]) == 0
    text = capsys.readouterr().out
    assert parse_summary_fractions(text) == [("irm", 0.5), ("analogy", 0.3)]
    assert text == emit_summary_csv(summarize(rows, exclude_smallest_fraction=True))


def parse_summary_fractions(text):
    """The (model, observed fraction) of each row of a summary CSV."""
    return [(r["model"], float(r["observed_fraction"])) for r in csv.DictReader(io.StringIO(text))]


def test_cli_config_file_systems_dir_loads_the_files(tmp_path):
    systems = tmp_path / "systems"
    assert main([
        "generate", "--out-dir", str(systems), "--count", "2",
        "--entities", "6", "--class-min", "2", "--class-max", "3", "--seed", "8",
    ]) == 0
    settings = {
        "entity_count": 6, "observed_fractions": [0.4], "models": ["irm"],
        "n_target_systems": 2, "burn_in": 2, "n_retained": 2, "thinning": 1,
        "class_range": [2, 3],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**settings, "systems_dir": str(systems)}))
    from_config = tmp_path / "from-config.csv"
    from_flag = tmp_path / "from-flag.csv"
    assert main([
        "experiment", "--config", str(config_path), "--out", str(from_config),
    ]) == 0
    config_path.write_text(json.dumps(settings))
    assert main([
        "experiment", "--config", str(config_path), "--systems-dir", str(systems),
        "--out", str(from_flag),
    ]) == 0
    assert from_config.read_text() == from_flag.read_text()
    # generated systems of the same names would give other rows
    assert from_config.read_text() != emit_results_csv(
        run_experiment(ExperimentConfig(**{**settings, "master_seed": 0}))
    )


def test_cli_rejects_duplicate_system_names(tmp_path, capsys):
    systems = tmp_path / "systems"
    assert main([
        "generate", "--out-dir", str(systems), "--count", "2",
        "--entities", "6", "--class-min", "2", "--class-max", "3",
    ]) == 0
    (systems / "copy.json").write_text((systems / "synthetic-000.json").read_text())
    dataset = tmp_path / "data.json"
    assert main([
        "simulate", "--system", str(systems / "synthetic-000.json"),
        "--entities", "6", "--out", str(dataset),
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "p.csv"
    for args in (
        ["infer", "--dataset", str(dataset), "--model", "hybrid"],
        ["experiment", "--targets", "2", "--models", "irm", "--entities", "6",
         "--fractions", "0.5", "--burn-in", "1", "--retained", "1", "--thinning", "1"],
    ):
        assert main(args + ["--systems-dir", str(systems), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --systems-dir: "), err
        assert "synthetic-000" in err
        assert not out.exists()


def test_cli_comma_lists_ignore_spaces(tmp_path):
    lists = ["--models", "irm, hybrid", "--k-values", "1, 2", "--fractions", " 0.2 ,0.5,"]
    args = build_parser().parse_args(["experiment", *lists, "--out", "rows.csv"])
    assert args.models == ("irm", "hybrid")
    assert args.stored_counts == (1, 2)
    assert args.observed_fractions == (0.2, 0.5)
    out = tmp_path / "rows.csv"
    assert main([
        "experiment", *lists, "--targets", "3", "--entities", "6", "--burn-in", "1",
        "--retained", "1", "--thinning", "1", "--out", str(out),
    ]) == 0
    assert len(parse_results_csv(out.read_text())) == 3 * 2 * 3


def test_cli_generate_defaults_are_the_configs(tmp_path):
    # with no flag but --out-dir, generate writes ExperimentConfig()'s systems
    assert main(["generate", "--out-dir", str(tmp_path / "cli")]) == 0
    expected = tmp_path / "library"
    expected.mkdir()
    for system in materialize_systems(ExperimentConfig()):
        save_system(system, expected / f"{system.name}.json")
    written = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert written == sorted(p.name for p in expected.iterdir())
    assert len(written) == ExperimentConfig().n_target_systems
    for name in written:
        assert (tmp_path / "cli" / name).read_bytes() == (expected / name).read_bytes()


def test_cli_generate_class_bounds(tmp_path, capsys):
    # a bound left out is the default's; an explicit 0 is refused, not defaulted
    out = tmp_path / "systems"
    for flags, err in (
        (["--class-min", "0"], "error: invalid class_range (0, 6)"),
        (["--class-max", "2"], "error: invalid class_range (3, 2)"),
        (["--class-min", "1", "--class-max", "0"], "error: invalid class_range (1, 0)"),
    ):
        assert main(["generate", "--out-dir", str(out)] + flags) == 2
        assert capsys.readouterr().err == err + "\n"
        assert not out.exists()
    assert main(["generate", "--out-dir", str(out), "--count", "2", "--entities", "4",
                 "--class-max", "4"]) == 0
    assert len(list(out.glob("*.json"))) == 2


@pytest.mark.parametrize(
    "command", [[], ["generate"], ["simulate"], ["infer"], ["experiment"], ["summarize"]]
)
def test_python_m_relgen_help_exits_0(command):
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "relgen", *command, "--help"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: relgen")
