"""Seed derivation, config handling, the experiment grid, CSV, and commands."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relgen import (
    ConfigError,
    DimensionError,
    ExperimentConfig,
    RelationData,
    ResultRow,
    derive_seed,
    emit_results_csv,
    emit_summary_csv,
    evaluate,
    main,
    parse_results_csv,
    run_experiment,
    summarize,
)
from relgen.cli import VALID_TAU_MODES, _cell_rows, materialize_systems


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
    with pytest.raises(ValueError):
        evaluate(np.array([0.5]), np.array([2]))


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
        dict(generation_gamma=0.0),
        # tau = 10**bound must be a positive finite float
        dict(tau_upper=400.0),
        dict(tau_lower=-400.0),
        dict(tau_lower=float("-inf")),
        dict(tau_upper=float("nan")),
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


def test_config_from_sources_layering():
    file_values = {"entity_count": 12, "master_seed": 5}
    overrides = {"master_seed": 9, "models": ("irm",), "entity_count": None}
    config = ExperimentConfig.from_sources(file_values, overrides)
    assert config.entity_count == 12  # file wins when the flag is unset
    assert config.master_seed == 9  # explicit flag beats the file
    assert config.models == ("irm",)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sources({"no_such_setting": 1}, None)


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
    rows = run_experiment(config, [None] * 101, progress=lambda _, n: totals.add(n))
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

    timed = [
        rows[0].__class__(**{**rows[0].__dict__, "wall_seconds": 1.25}),
        rows[1],
    ]
    text2 = emit_results_csv(timed, include_timing=True)
    back = parse_results_csv(text2)
    assert back[0].wall_seconds == 1.25


def test_results_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_results_csv("alpha,beta\n1,2\n")


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


def test_run_experiment_worker_count_is_invisible():
    config = tiny_config(n_target_systems=2)
    alone = run_experiment(config, workers=1)
    pooled = run_experiment(config, workers=2)
    assert emit_results_csv(alone) == emit_results_csv(pooled)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_reports_progress_per_cell(workers):
    seen = []
    run_experiment(tiny_config(), workers=workers, progress=lambda *done: seen.append(done))
    assert seen == [(3 * cells, 18) for cells in range(1, 7)]


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


def test_run_experiment_global_tau_is_shared():
    config = tiny_config(models=("hybrid",), tau_mode="global")
    rows = run_experiment(config)
    taus = {r.tau_star for r in rows}
    assert len(taus) == 1  # one pool size, therefore one shared tau
    assert all(r.score is not None for r in rows)


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
        (["infer", "--dataset", str(not_json), "--model", "irm"] + to_out,
         "error: --dataset: "),
        (["infer", "--dataset", str(repeated_test), "--model", "irm"] + to_out,
         "error: --dataset: "),
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


def test_cli_experiment_verbose_reports_rows(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(asdict(tiny_config())))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", str(config_path), "--verbose",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"row {3 * cells}/18" for cells in range(1, 7)]


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
