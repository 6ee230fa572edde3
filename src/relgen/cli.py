"""Experiment harness and command-line interface.

The harness sweeps a grid of target systems x observed fractions x models
(x stored-pool sizes for the analogy and hybrid models), scores every row
on held-out data, and emits one CSV row each.  The (target, fraction) cell
is the unit of work: each of its chains runs once, and its irm, analogy and
hybrid rows for every pool size are cut from those chains, so they are
paired comparisons.  Every row is a pure function of the experiment config
and the master seed: data simulation, splits, pool order, and every chain
draw their seeds through a splitmix-style derivation.  A cell's seed
derives from (master seed, target name, fraction index); a stored chain's
from (cell seed, "stored-chain", system name) and the theory chain's from
(cell seed, "theory-chain").  Reruns are byte-identical, and any row can be
reproduced in isolation from its cell seed, the CSV's seed column.

Subcommands: generate, simulate, infer, experiment, summarize.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    GenerationError,
    RelationData,
    SplitError,
    StoredSystem,
    _misfit,
    clamp_probs,
    predictive_prob,
)
from .analogy import (
    analogy_predict_cells,
    analogy_report,
    greedy_starts,
    run_stored_chain,
)
from .datagen import (
    SplitSpec,
    generate_synthetic_system,
    load_dataset,
    load_system,
    load_systems_dir,
    make_split,
    save_dataset,
    save_system,
    simulate_interactions,
)
from .hybrid import (
    TAU_LOG10_LOWER,
    TAU_LOG10_UPPER,
    hybrid_component_predictions,
    hybrid_log_evidences,
    hybrid_weights,
    optimize_tau,
)
from .irm import McmcSchedule, irm_predict_cells, run_irm_chain

VALID_MODELS = ("irm", "analogy", "hybrid")
VALID_TAU_MODES = ("per-cell", "global")
_MODEL_ORDER = {name: i for i, name in enumerate(VALID_MODELS)}

_MASK64 = (1 << 64) - 1


def _mix64(state: int, token: int) -> int:
    state = (state ^ (token & _MASK64)) & _MASK64
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *parts) -> int:
    """Deterministic 64-bit seed from a master seed and a label path.

    A splitmix64 finalizer is folded over the parts: ints enter directly,
    strings as UTF-8 bytes in 8-byte little-endian chunks preceded by their
    length, each prefixed with a type tag.  Pure integer arithmetic, so the
    derivation is stable across platforms and runs.
    """
    acc = _mix64(master % (1 << 64), 0x5EED)
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
        if isinstance(part, int):
            acc = _mix64(acc, 1)
            acc = _mix64(acc, part % (1 << 64))
        else:
            raw = part.encode("utf-8")
            acc = _mix64(acc, 2)
            acc = _mix64(acc, len(raw))
            for off in range(0, len(raw), 8):
                acc = _mix64(acc, int.from_bytes(raw[off : off + 8], "little"))
    return acc


DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_STORED_COUNTS = (2, 5, 10, 100)

_SCALAR_TYPES = {"int": int, "float": float, "str": str, "bool": bool}


def _setting(name: str, value, annotation: str):
    """``value`` as the setting ``name`` of the field type ``annotation`` (a
    string, as every annotation in this module is), or a ConfigError naming
    it.  ``str | None`` is a path or None; a ``tuple[...]`` setting is a list
    or tuple, each item checked as the setting ``<name> item``; the rest
    follow `_misfit`'s type rule."""
    if annotation == "str | None":
        if not isinstance(value, (str, Path, type(None))):
            raise ConfigError(f"{name} must be a path, got {value!r}")
        return value
    if annotation.startswith("tuple["):
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        item = annotation.removeprefix("tuple[").split(",")[0]
        return tuple(_setting(f"{name} item", v, item) for v in value)
    kind = _SCALAR_TYPES[annotation]
    if problem := _misfit(value, kind):
        raise ConfigError(f"{name} must be {problem}")
    return kind(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines an experiment run, master seed included.

    Each setting is checked against its field's declared type."""

    entity_count: int = 30
    observed_fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    stored_counts: tuple[int, ...] = DEFAULT_STORED_COUNTS
    models: tuple[str, ...] = VALID_MODELS
    systems_dir: str | None = None
    n_target_systems: int = 101
    test_fraction: float = 0.1
    burn_in: int = McmcSchedule.burn_in
    n_retained: int = McmcSchedule.n_retained
    thinning: int = McmcSchedule.thinning
    master_seed: int = 0
    tau_lower: float = TAU_LOG10_LOWER
    tau_upper: float = TAU_LOG10_UPPER
    tau_mode: str = "per-cell"
    generation_gamma: float = 1.0
    generation_alpha: float = 1.0
    class_range: tuple[int, int] = (3, 6)
    include_target_in_pool: bool = False

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _setting(f.name, getattr(self, f.name), f.type))
        if self.entity_count < 1:
            raise ConfigError(f"entity_count must be >= 1, got {self.entity_count}")
        fr = self.observed_fractions
        if not fr or len(set(fr)) != len(fr):
            raise ConfigError("observed_fractions must be non-empty and unique")
        for f in fr:  # delegates the fraction range checks (a SplitError)
            SplitSpec(f, self.test_fraction)
        ks, models = self.stored_counts, self.models
        if len(set(ks)) != len(ks) or any(k < 1 for k in ks):
            raise ConfigError(f"stored_counts must be unique positive ints, got {ks}")
        if not models or len(set(models)) != len(models):
            raise ConfigError("models must be a non-empty list without duplicates")
        for m in models:
            if m not in VALID_MODELS:
                raise ConfigError(f"unknown model {m!r}; choose from {VALID_MODELS}")
        if ({"analogy", "hybrid"} & set(models)) and not ks:
            raise ConfigError("analogy/hybrid models need at least one stored count")
        if self.n_target_systems < 1:
            raise ConfigError("n_target_systems must be >= 1")
        # delegates burn-in / retained / thinning validation
        McmcSchedule(self.burn_in, self.n_retained, self.thinning, 0)
        for name in ("tau_lower", "tau_upper"):
            bound = getattr(self, name)
            with np.errstate(all="ignore"):
                if not 0.0 < np.power(10.0, bound) < np.inf:
                    raise ConfigError(f"{name}: 10**{bound!r} is not a positive finite float")
        if self.tau_lower >= self.tau_upper:
            raise ConfigError("tau_lower must be below tau_upper")
        if self.tau_mode not in VALID_TAU_MODES:
            raise ConfigError(
                f"tau_mode must be one of {VALID_TAU_MODES}, got {self.tau_mode!r}"
            )
        if len(self.class_range) != 2:
            raise ConfigError(
                f"class_range must be a [min, max] pair, got {self.class_range!r}"
            )
        lo, hi = self.class_range
        if not (1 <= lo <= hi):
            raise ConfigError(f"invalid class_range {self.class_range!r}")
        if not self.systems_dir and self.entity_count < lo:
            raise ConfigError(
                f"entity_count {self.entity_count} is below the class minimum {lo}"
            )
        for name in ("generation_gamma", "generation_alpha"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite")

    @classmethod
    def from_sources(
        cls, file_values: dict | None = None, overrides: dict | None = None
    ) -> "ExperimentConfig":
        """Defaults, overlaid with config-file values, overlaid with flags."""
        values: dict = {}
        known = set(cls.__dataclass_fields__)
        for source, tag in ((file_values, "config file"), (overrides, "flag")):
            if not source:
                continue
            for key, val in source.items():
                if key not in known:
                    raise ConfigError(f"unknown {tag} setting {key!r}")
                if val is not None:
                    values[key] = val
        return cls(**values)


@dataclass(frozen=True)
class ResultRow:
    """One scored grid cell (or its error marker)."""

    target_system: str
    model: str
    n_stored: int | None
    observed_fraction: float
    score: float | None
    n_test: int
    weights: tuple[tuple[str, float], ...] = ()
    tau_star: float | None = None
    irm_weight: float | None = None
    seed: int = 0
    status: str = "ok"
    error: str = ""
    # set only by the benchmark harness's rows; never written to the results CSV
    wall_seconds: float | None = None

    def __post_init__(self):
        if self.model not in VALID_MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {VALID_MODELS}")


def evaluate(predictions, truths) -> float:
    """Held-out score: negative sum of log predictive probabilities.

    Truths are 0/1 and predictions finite; predictions are clamped before
    the logs, so the score is finite and nonnegative.  An empty test set
    scores 0.
    """
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truths)
    if p.ndim != 1 or p.shape != t.shape:
        raise DimensionError(
            f"predictions and truths must be 1-d and equal-length, "
            f"got {p.shape} and {t.shape}"
        )
    if p.size == 0:
        return 0.0
    if not ((t == 0) | (t == 1)).all():
        raise ValueError("truths must be 0/1")
    if not np.isfinite(p).all():
        raise ValueError("predictions must be finite")
    p = clamp_probs(p)
    return float(-np.sum(np.where(t == 1, np.log(p), np.log1p(-p))))


@dataclass(frozen=True)
class _HybridPayload:
    """A hybrid fit's pieces, kept so tau can be chosen after the chains ran.

    ``components`` and ``truths`` cover the test cells, which both choose
    tau and score the row.
    """

    names: tuple[str, ...]
    components: np.ndarray
    log_evidences: np.ndarray
    truths: np.ndarray


def _cell_rows(config: ExperimentConfig) -> list[tuple[str, int | None]]:
    """The (model, K) rows of every (target, fraction) cell, in canonical
    order: models in VALID_MODELS order, K ascending, None for irm."""
    return [
        (model, k)
        for model in VALID_MODELS
        if model in config.models
        for k in ((None,) if model == "irm" else sorted(config.stored_counts))
    ]


def materialize_systems(config: ExperimentConfig) -> list[StoredSystem]:
    """The system collection an experiment draws from: the files under
    ``systems_dir`` when it is set, generated systems otherwise."""
    if config.systems_dir:
        return load_systems_dir(config.systems_dir)
    systems = []
    for i in range(config.n_target_systems):
        rng = np.random.default_rng(derive_seed(config.master_seed, "generate", i))
        systems.append(
            generate_synthetic_system(
                rng,
                name=f"synthetic-{i:03d}",
                gamma=config.generation_gamma,
                alpha=config.generation_alpha,
                class_range=config.class_range,
                probe_entities=config.entity_count,
            )
        )
    return systems


def _split_data(config: ExperimentConfig, target, fraction_index: int) -> RelationData:
    # data and split seeds depend only on (system, fraction), never on the
    # model or pool size: every model in a cell sees the same split
    data_rng = np.random.default_rng(
        derive_seed(config.master_seed, "data", target.name)
    )
    full, _ = simulate_interactions(target, config.entity_count, data_rng)
    spec = SplitSpec(
        config.observed_fractions[fraction_index],
        config.test_fraction,
        derive_seed(config.master_seed, "split", target.name, fraction_index),
    )
    return make_split(full, spec)


def _pool_for(config: ExperimentConfig, systems, target_index: int) -> list[StoredSystem]:
    """Every system a target's rows may draw on, in the target's pool order;
    pool size K takes the first K."""
    target = systems[target_index]
    others = [s for i, s in enumerate(systems) if i != target_index]
    rng = np.random.default_rng(derive_seed(config.master_seed, "pool", target.name))
    pool = [others[i] for i in rng.permutation(len(others))]
    if config.include_target_in_pool:
        pool = [target] + pool
    return pool


def _pool_prefix(pool, k: int) -> list[StoredSystem]:
    """The first k systems of a pool, for 1 <= k <= len(pool)."""
    if k < 1:
        raise ConfigError(f"pool size must be at least 1, got {k}")
    if k > len(pool):
        raise ConfigError(
            f"pool size {k} requested but only {len(pool)} systems available"
        )
    return pool[:k]


class _Cell:
    """One split's chains, each run at most once, and every row cut from them.

    `fit` is the one place that fits a model, for a grid cell and `relgen
    infer` alike.  The cell shares its chains between rows.  Chain seeds
    derive from ``seed``, the cell seed in the grid and --seed in `infer`:
    stored system s's from (seed, "stored-chain", s.name), the theory's from
    (seed, "theory-chain").  Pool size K uses the first K systems of
    ``pool``.  The stored chains run together for the largest of ``counts``
    the pool can serve: one `greedy_starts` call refines the starts of all
    of them as one stack, then each chain runs from its own start.  A row
    passes the first K of them to the library's evidence and prediction
    functions (the evidence being each chain's own ``log_evidence``,
    estimated once), so rows of different K are paired; a K beyond the pool
    fails only its own rows.
    Each chain runs on first use, so a cell without irm or hybrid rows runs
    no theory chain.

    A hybrid row comes back unscored, with the payload `_score_hybrid` needs
    to choose its tau on the test cells.
    """

    def __init__(self, data, pool, counts, schedule, seed):
        self.data, self.pool, self.schedule, self.seed = data, pool, schedule, seed
        self.n_run = max((k for k in counts if k <= len(pool)), default=0)
        self.truths = np.array([data.cells[r, c] for r, c in data.test_cells], dtype=np.int64)

    def _seeded(self, *label) -> McmcSchedule:
        return self.schedule.with_seed(derive_seed(self.seed, *label))

    @cached_property
    def stored(self) -> list:
        """The chains of the first n_run pool systems, in pool order."""
        systems = self.pool[: self.n_run]
        schedules = [self._seeded("stored-chain", s.name) for s in systems]
        starts = greedy_starts(self.data, systems, schedules)
        return [
            run_stored_chain(self.data, *chain)
            for chain in zip(systems, schedules, starts)
        ]

    @cached_property
    def theory(self):
        return run_irm_chain(self.data, self._seeded("theory-chain"))

    def fit(self, model: str, k: int | None):
        """One row: (row fields, test predictions, extra), where extra is an
        analogy row's pool `analogy_report`, a hybrid row's payload, or None.
        A hybrid row returns ``{"score": None}`` and no predictions."""
        data, cells, truths = self.data, self.data.test_cells, self.truths
        if model == "irm":
            preds = irm_predict_cells(self.theory, data, cells)
            return {"score": evaluate(preds, truths)}, preds, None
        systems = _pool_prefix(self.pool, k)
        chains = self.stored[:k]
        if model == "analogy":
            report = analogy_report(systems, chains)
            preds = analogy_predict_cells(chains, systems, report.weights, cells)
            weights = tuple(zip(report.names, (float(x) for x in report.weights)))
            return {"score": evaluate(preds, truths), "weights": weights}, preds, report
        log_ev = hybrid_log_evidences(chains, self.theory)
        comps = hybrid_component_predictions(chains, self.theory, systems, data, cells)
        payload = _HybridPayload(tuple(s.name for s in systems), comps, log_ev, truths)
        return {"score": None}, None, payload


def _score_hybrid(payloads, bounds) -> list[tuple[dict, np.ndarray]]:
    """Score hybrid payloads at one tau, chosen jointly over all of them.

    tau maximizes the mixture's summed log predictive on the payloads' test
    cells, within ``bounds``, optimize_tau's (lower, upper) on log10(tau).
    Returns each payload's scored row fields and test predictions at it.
    """
    tau_star = optimize_tau(
        lambda tau: sum(
            -evaluate(
                predictive_prob(p.components, hybrid_weights(p.log_evidences, tau)),
                p.truths,
            )
            for p in payloads
        ),
        *bounds,
    )
    out = []
    for p in payloads:
        w = hybrid_weights(p.log_evidences, tau_star)
        preds = predictive_prob(p.components, w)
        fields = {
            "score": evaluate(preds, p.truths),
            "weights": tuple(zip(p.names, (float(x) for x in w[:-1]))),
            "tau_star": float(tau_star),
            "irm_weight": float(w[-1]),
        }
        out.append((fields, preds))
    return out


def _error_fields(exc: Exception) -> dict:
    """The fields that mark a row as failed by ``exc``."""
    return dict(score=None, n_test=0, status="error", error=f"{type(exc).__name__}: {exc}")


def _execute_cell(config: ExperimentConfig, systems, target_index, fraction_index):
    """Run the rows of one (target, fraction) cell from one set of chains.

    Returns one (ResultRow, hybrid payload or None) per row of `_cell_rows`,
    in order, each hybrid row unscored with its payload, whatever the tau
    mode: `run_experiment` scores it.  A row that raises is recorded with an
    error marker and the cell's other rows still complete.
    """
    target = systems[target_index]
    seed = derive_seed(config.master_seed, "cell", target.name, fraction_index)
    cell = _Cell(
        _split_data(config, target, fraction_index),
        _pool_for(config, systems, target_index),
        config.stored_counts,
        McmcSchedule(config.burn_in, config.n_retained, config.thinning),
        seed,
    )
    out = []
    for model, k in _cell_rows(config):
        fields = dict(
            target_system=target.name,
            model=model,
            n_stored=k,
            observed_fraction=config.observed_fractions[fraction_index],
            seed=seed,
            n_test=len(cell.data.test_cells),
        )
        payload = None
        try:
            bits, _, payload = cell.fit(model, k)
            fields.update(bits)
        except Exception as exc:  # noqa: BLE001 - a row failure must not kill the run
            fields.update(_error_fields(exc))
        payload = payload if model == "hybrid" else None  # drop an analogy row's report
        out.append((ResultRow(**fields), payload))
    return out


# (config, systems) of the grid a worker process serves; set by the pool's
# initializer in each worker, never in the parent process.
_WORKER_GRID: tuple = ()


def _init_worker(config: ExperimentConfig, systems) -> None:
    global _WORKER_GRID
    _WORKER_GRID = (config, systems)


def _execute_task(cell):
    return _execute_cell(*_WORKER_GRID, *cell)


def _scored_rows(results, bounds) -> list[ResultRow]:
    """The rows of (row, payload or None) pairs, the unscored hybrid rows of
    each pool size K scored by `_score_hybrid` at one tau shared by them: the
    grid's one tau chooser, given one cell's rows or, under global mode, the
    grid's.  A search that raises marks only its own K's rows as errors."""
    rows = [row for row, _ in results]
    by_k: dict[int, list[int]] = {}
    for i, (_, payload) in enumerate(results):
        if payload is not None:
            by_k.setdefault(len(payload.names), []).append(i)
    for idxs in by_k.values():
        try:
            scored = [bits for bits, _ in _score_hybrid([results[i][1] for i in idxs], bounds)]
        except Exception as exc:  # noqa: BLE001 - a failed search errors only its K
            scored = [_error_fields(exc)] * len(idxs)
        for i, bits in zip(idxs, scored):
            rows[i] = replace(rows[i], **bits)
    return rows


def _check_workers(workers) -> None:
    if _misfit(workers, int) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")


def run_experiment(
    config: ExperimentConfig,
    systems: list[StoredSystem] | None = None,
    workers: int = 1,
    progress=None,
) -> list[ResultRow]:
    """Run the full grid and return rows in canonical order.

    The (target, fraction) cell is the unit of work: its chains run once and
    all of its rows are cut from them (see `_Cell`); the chains are dropped
    when the cell's rows are built.  Hybrid rows are scored here only: each
    cell's as it comes back, or under global tau mode all of them at the end.
    A row that raises is recorded with an error marker and the run continues.
    Output is independent of ``workers``, which run whole cells; pass
    ``progress`` (a callable taking done and total row counts) for coarse
    status reporting.  Raises ConfigError, before any cell runs, when
    ``workers`` is not a positive int, or ``systems`` holds fewer than
    ``config.n_target_systems`` systems or two systems of one name.
    """
    _check_workers(workers)
    if systems is None:
        systems = materialize_systems(config)
    if len(systems) < config.n_target_systems:
        raise ConfigError(
            f"{len(systems)} systems given, fewer than "
            f"n_target_systems={config.n_target_systems}"
        )
    names = [s.name for s in systems]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ConfigError(f"system names must be unique; {dup!r} repeats")
    cells = [
        (t_idx, f_idx)
        for t_idx in range(config.n_target_systems)
        for f_idx in range(len(config.observed_fractions))
    ]
    total = len(cells) * len(_cell_rows(config))
    bounds = (config.tau_lower, config.tau_upper)
    results: list[tuple[ResultRow, _HybridPayload | None]] = []

    def collect(outs):
        for out in outs:
            if config.tau_mode != "global":
                out = [(row, None) for row in _scored_rows(out, bounds)]
            results.extend(out)
            if progress:
                progress(len(results), total)

    if workers > 1:
        # the library goes to each worker once; a task carries only its cell's
        # (target, fraction) indices.  A forking pool starts all its workers on
        # the first task, so it starts no more than there are cells.
        with ProcessPoolExecutor(
            max_workers=min(workers, len(cells)),
            initializer=_init_worker,
            initargs=(config, systems),
        ) as pool:
            collect(pool.map(_execute_task, cells))
    else:
        collect(_execute_cell(config, systems, *cell) for cell in cells)

    return _scored_rows(results, bounds)


# ---------------------------------------------------------------------------
# Results CSV (fixed header, repr-exact floats) and summaries.  The row
# dataclasses are the schema: a column is a field, in field order.

RESULT_COLUMNS = [f.name for f in fields(ResultRow) if f.name != "wall_seconds"]


def _cell(value) -> str:
    """One CSV cell: None and empty weights blank, a float by its repr (so it
    parses back exactly), weights as a JSON list of [name, weight] pairs."""
    if isinstance(value, tuple):
        return json.dumps([list(pair) for pair in value]) if value else ""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _csv_text(header, records) -> str:
    """CSV text: the header line, then one line per record of values."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in rec] for rec in records)
    return buf.getvalue()


def emit_results_csv(rows) -> str:
    """Render rows to CSV text; identical rows give identical bytes."""
    return _csv_text(RESULT_COLUMNS, ([getattr(r, n) for n in RESULT_COLUMNS] for r in rows))


def _parse_weights(text: str) -> tuple:
    return tuple((str(n), float(w)) for n, w in json.loads(text or "[]"))


# how a results cell reads back, by the declared type of its field
_CELL_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[tuple[str, float], ...]": _parse_weights,
}


def _field_parser(annotation: str):
    """The parser of a field annotated ``annotation`` (a string, as every
    annotation in this module is); a blank cell of an optional field is None."""
    kind = annotation.removesuffix(" | None")
    parse = _CELL_PARSERS[kind]
    if kind == annotation:
        return parse
    return lambda text: parse(text) if text else None


# each results column's parser, in column order
_RESULT_PARSERS = {
    f.name: _field_parser(f.type) for f in fields(ResultRow) if f.name in RESULT_COLUMNS
}


def parse_results_csv(text: str) -> list[ResultRow]:
    """Inverse of emit_results_csv.

    Raises ValueError on a foreign header, a short or long line, or a row
    naming a model other than irm, analogy or hybrid.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != RESULT_COLUMNS:
        raise ValueError("unrecognized results CSV header")
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(header):
            raise ValueError(f"expected {len(header)} fields, got {len(rec)}")
        rows.append(ResultRow(**{n: p(v) for (n, p), v in zip(_RESULT_PARSERS.items(), rec)}))
    return rows


@dataclass(frozen=True)
class SummaryRow:
    model: str
    n_stored: int | None
    observed_fraction: float
    mean_score: float
    n_rows: int
    mean_irm_weight: float | None


SUMMARY_COLUMNS = [f.name for f in fields(SummaryRow)]


def summarize(rows, exclude_smallest_fraction: bool = False) -> list[SummaryRow]:
    """Mean held-out score per (model, pool size, observed fraction).

    Error rows are skipped.  ``exclude_smallest_fraction`` drops the rows at
    the smallest observed fraction present (the sparsest, noisiest cells).
    Hybrid groups also report the mean theory-component weight.
    """
    ok = [r for r in rows if r.status == "ok" and r.score is not None]
    if exclude_smallest_fraction and ok:
        smallest = min(r.observed_fraction for r in ok)
        ok = [r for r in ok if r.observed_fraction != smallest]
    groups: dict[tuple, list[ResultRow]] = {}
    for r in ok:
        groups.setdefault((r.model, r.n_stored, r.observed_fraction), []).append(r)
    out = []
    for key in sorted(
        groups, key=lambda k: (_MODEL_ORDER[k[0]], k[1] or 0, k[2])
    ):
        members = groups[key]
        scores = [r.score for r in members]
        irm_ws = [r.irm_weight for r in members if r.irm_weight is not None]
        out.append(
            SummaryRow(
                model=key[0],
                n_stored=key[1],
                observed_fraction=key[2],
                mean_score=float(np.mean(scores)),
                n_rows=len(members),
                mean_irm_weight=float(np.mean(irm_ws)) if irm_ws else None,
            )
        )
    return out


def emit_summary_csv(summary_rows) -> str:
    records = ([getattr(s, name) for name in SUMMARY_COLUMNS] for s in summary_rows)
    return _csv_text(SUMMARY_COLUMNS, records)


# ---------------------------------------------------------------------------
# Command-line interface.

def _add_schedule_flags(p: argparse.ArgumentParser):
    p.add_argument("--burn-in", type=int, help="burn-in sweeps")
    p.add_argument("--retained", dest="n_retained", type=int, help="retained draws")
    p.add_argument("--thinning", type=int, help="sweeps between draws")


def _comma_list(kind: type):
    """An argparse type: comma-separated ``kind`` items, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(kind(x.strip()) for x in text.split(",") if x.strip())

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


class UsageError(Exception):
    """A bad flag or input file: `main` prints it and exits with code 2."""


@contextmanager
def _usage(flag: str | None, *errors: type):
    """Re-raise ``errors`` as a UsageError, prefixed with ``flag`` if given."""
    try:
        yield
    except errors as exc:
        raise UsageError(f"{flag}: {exc}" if flag else str(exc)) from exc


def _config(args, file_values: dict | None = None) -> ExperimentConfig:
    """Defaults, overlaid with ``file_values``, overlaid with the flags named
    by their fields (a flag left out is None)."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    with _usage(None, ConfigError):
        return ExperimentConfig.from_sources(file_values, overrides)


def _cmd_generate(args) -> int:
    # a class bound left out is the default's; an explicit 0 stays, and is refused
    ends = zip((args.class_min, args.class_max), ExperimentConfig.class_range)
    args.class_range = tuple(d if v is None else v for v, d in ends)
    config = _config(args)
    with _usage(None, ConfigError, GenerationError):
        systems = materialize_systems(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for system in systems:
        save_system(system, out_dir / f"{system.name}.json")
    print(f"wrote {len(systems)} system files to {out_dir}")
    return 0


def _cmd_simulate(args) -> int:
    with _usage("--system", OSError, ValueError):
        system = load_system(args.system)
    with _usage("--observed-fraction/--test-fraction", SplitError):
        spec = SplitSpec(
            args.observed_fraction,
            args.test_fraction,
            derive_seed(args.seed, "split", system.name),
        )
    rng = np.random.default_rng(derive_seed(args.seed, "simulate", system.name))
    with _usage("--entities", ValueError):
        data, _ = simulate_interactions(system, args.entities, rng)
    save_dataset(make_split(data, spec), args.out)
    print(
        f"simulated {args.entities} entities from {system.name}: "
        f"observed {spec.observed_fraction}, test {spec.test_fraction} -> {args.out}"
    )
    return 0


def _cmd_infer(args) -> int:
    if args.model == "irm" and (args.k is not None or args.systems_dir is not None):
        raise UsageError("--k and --systems-dir apply only to analogy/hybrid")
    if args.model != "irm" and not args.systems_dir:
        raise UsageError("--systems-dir is required for analogy/hybrid")
    with _usage("--dataset", OSError, ValueError):
        data = load_dataset(args.dataset)
    flags = dict(burn_in=args.burn_in, n_retained=args.n_retained, thinning=args.thinning)
    with _usage(None, ConfigError):
        schedule = McmcSchedule(**{k: v for k, v in flags.items() if v is not None})
    pool = []
    if args.model != "irm":
        with _usage("--systems-dir", OSError, ValueError):
            pool = load_systems_dir(args.systems_dir)
        if args.k is not None:
            with _usage("--k", ConfigError):
                pool = _pool_prefix(pool, args.k)
    cell = _Cell(data, pool, (len(pool),), schedule, args.seed)
    bits, preds, extra = cell.fit(args.model, len(pool) or None)
    report = extra  # an analogy row's pool report, or None for irm
    if args.model == "hybrid":
        ((bits, preds),) = _score_hybrid([extra], (TAU_LOG10_LOWER, TAU_LOG10_UPPER))
        report = analogy_report(pool, cell.stored)
    cells = data.test_cells
    records = ((r, c, t, p) for (r, c), t, p in zip(cells, cell.truths, preds))
    Path(args.out).write_text(
        _csv_text(["row", "col", "truth", "prob"], records), encoding="utf-8"
    )
    # the pool models also write the evidence ranking over their pool
    if report is not None:
        by_name = dict(zip(report.names, zip(report.log_evidences, report.weights)))
        records = ((rank, name, *by_name[name]) for rank, name in enumerate(report.ranking, 1))
        Path(str(args.out) + ".report.csv").write_text(
            _csv_text(["rank", "system", "log_evidence", "weight"], records),
            encoding="utf-8",
        )
    extra = f", tau*={bits['tau_star']:.6g}" if "tau_star" in bits else ""
    print(f"held-out score {bits['score']:.6f} over {len(cells)} test cells{extra}")
    return 0


def _cmd_experiment(args) -> int:
    with _usage("--workers", ConfigError):  # run_experiment's rule, checked here to name the flag
        _check_workers(args.workers)
    file_values = None
    if args.config:
        with _usage("--config", OSError, ValueError):
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(file_values, dict):
            raise UsageError("--config: expected a JSON object of settings")
    config = _config(args, file_values)
    with _usage("--systems-dir", OSError, ValueError), _usage(None, GenerationError):
        systems = materialize_systems(config)
    progress = None
    if args.verbose:
        start = time.perf_counter()

        def progress(done, total):
            rate = done / max(time.perf_counter() - start, 1e-9)
            eta = (total - done) / rate
            print(f"row {done}/{total}, {rate:.3g} rows/s, ETA {eta:.0f} s",
                  file=sys.stderr, flush=True)

    with _usage("--systems-dir", ConfigError):  # raised before any cell runs
        rows = run_experiment(config, systems, workers=args.workers, progress=progress)
    Path(args.out).write_text(emit_results_csv(rows), encoding="utf-8")
    errors = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {args.out} ({errors} errored)")
    if errors and not args.keep_going:
        return 1
    return 0


def _cmd_summarize(args) -> int:
    with _usage("--results", OSError, ValueError):
        rows = parse_results_csv(Path(args.results).read_text(encoding="utf-8"))
    text = emit_summary_csv(
        summarize(rows, exclude_smallest_fraction=args.exclude_smallest_partition)
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote summary to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relgen",
        description="Compare theory-based, analogy-based, and hybrid "
        "generalization on relational link prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag that sets an ExperimentConfig field has the field's name as its
    # dest and None as its default, so `_config` reads it by name
    p = sub.add_parser("generate", help="write synthetic stored-system files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", dest="n_target_systems", type=int)
    p.add_argument("--entities", dest="entity_count", type=int)
    p.add_argument("--gamma", dest="generation_gamma", type=float)
    p.add_argument("--alpha", dest="generation_alpha", type=float)
    p.add_argument("--class-min", type=int)
    p.add_argument("--class-max", type=int)
    p.add_argument("--seed", dest="master_seed", type=int)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="simulate a dataset from a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--entities", type=int, default=ExperimentConfig.entity_count)
    p.add_argument("--observed-fraction", type=float, default=0.5)
    p.add_argument("--test-fraction", type=float, default=ExperimentConfig.test_fraction)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("infer", help="fit one model to one dataset and score it")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", choices=VALID_MODELS, required=True)
    p.add_argument("--systems-dir", default=None)
    p.add_argument("--k", type=int, default=None, help="use only the first K systems")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="predictions CSV path")
    _add_schedule_flags(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("experiment", help="run the full evaluation grid")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--entities", dest="entity_count", type=int)
    p.add_argument("--fractions", dest="observed_fractions", type=_comma_list(float))
    p.add_argument("--k-values", dest="stored_counts", type=_comma_list(int))
    p.add_argument("--models", type=_comma_list(str),
                   help="comma list: irm,analogy,hybrid")
    p.add_argument("--systems-dir")
    p.add_argument("--targets", dest="n_target_systems", type=int)
    p.add_argument("--test-fraction", type=float)
    p.add_argument("--seed", dest="master_seed", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--tau-mode", choices=VALID_TAU_MODES)
    p.add_argument("--include-target-in-pool", action="store_true", default=None)
    p.add_argument("--keep-going", action="store_true",
                   help="exit 0 even when some rows errored")
    p.add_argument("--verbose", action="store_true",
                   help="report rows done, rows/s and ETA on stderr")
    _add_schedule_flags(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("summarize", help="aggregate a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--exclude-smallest-partition", action="store_true")
    p.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
