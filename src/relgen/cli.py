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
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .core import (
    ConfigError,
    DimensionError,
    RelationData,
    SplitError,
    StoredSystem,
    clamp_probs,
    predictive_prob,
)
from .analogy import (
    AnalogyReport,
    analogy_predict_cells,
    analogy_report,
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
VALID_TAU_MODES = ("per-cell", "global", "validation-split")
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


def _typed(name: str, value, kind: type):
    """``value`` as ``kind`` (int, float, bool or str), or a ConfigError
    naming the setting.  An int passes as a float; only a bool passes as a
    bool."""
    if isinstance(value, np.generic):
        value = value.item()
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def _setting(name: str, value, annotation: str):
    """``value`` as the setting ``name`` of the field type ``annotation`` (a
    string, as every annotation in this module is), or a ConfigError naming
    it.  ``str | None`` is a path or None; a ``tuple[...]`` setting is a list
    or tuple whose items are checked by `_typed`."""
    if annotation == "str | None":
        if not isinstance(value, (str, Path, type(None))):
            raise ConfigError(f"{name} must be a path, got {value!r}")
        return value
    if not annotation.startswith("tuple["):
        return _typed(name, value, _SCALAR_TYPES[annotation])
    kind = _SCALAR_TYPES[annotation.removeprefix("tuple[").split(",")[0]]
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ConfigError(f"{name} must be a list of {kind.__name__}, got {value!r}")
    return tuple(_typed(f"{name} item", v, kind) for v in value)


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
    burn_in: int = 500
    n_retained: int = 100
    thinning: int = 5
    master_seed: int = 0
    tau_lower: float = TAU_LOG10_LOWER
    tau_upper: float = TAU_LOG10_UPPER
    tau_mode: str = "per-cell"
    generation_gamma: float = 1.0
    generation_alpha: float = 1.0
    class_range: tuple[int, int] = (3, 6)
    include_target_in_pool: bool = False
    emit_timing: bool = False

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _setting(f.name, getattr(self, f.name), f.type))
        if self.entity_count < 1:
            raise ConfigError(f"entity_count must be >= 1, got {self.entity_count}")
        fr = self.observed_fractions
        if not fr or len(set(fr)) != len(fr):
            raise ConfigError("observed_fractions must be non-empty and unique")
        if not (0.0 <= self.test_fraction <= 1.0):
            raise ConfigError(f"test_fraction must lie in [0, 1], got {self.test_fraction!r}")
        for f in fr:
            if not (0.0 <= f <= 1.0) or f + self.test_fraction > 1.0:
                raise ConfigError(
                    f"observed fraction {f!r} incompatible with test fraction "
                    f"{self.test_fraction!r}"
                )
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
        if self.generation_gamma <= 0 or self.generation_alpha <= 0:
            raise ConfigError("generation_gamma and generation_alpha must be positive")

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
    wall_seconds: float | None = None

    def __post_init__(self):
        if self.model not in VALID_MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {VALID_MODELS}")


def evaluate(predictions, truths) -> float:
    """Held-out score: negative sum of log predictive probabilities.

    Truths are 0/1; predictions are clamped before the logs, so the score is
    finite and nonnegative.  An empty test set scores 0.
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
    if not np.isin(t, (0, 1)).all():
        raise ValueError("truths must be 0/1")
    p = clamp_probs(p)
    return float(-np.sum(np.where(t == 1, np.log(p), np.log1p(-p))))


@dataclass(frozen=True)
class _HybridPayload:
    """A hybrid fit's pieces, kept so tau can be chosen after the chains ran.

    ``components`` and ``truths`` cover the test cells that score the row;
    ``tau_components`` and ``tau_truths`` the cells tau is chosen on, the
    same arrays unless a validation slice picks tau.
    """

    names: tuple[str, ...]
    components: np.ndarray
    log_evidences: np.ndarray
    truths: np.ndarray
    tau_components: np.ndarray
    tau_truths: np.ndarray

    @property
    def n_stored(self) -> int:
        return len(self.names)


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
        systems = load_systems_dir(config.systems_dir)
        if len(systems) < config.n_target_systems:
            raise ConfigError(
                f"{config.systems_dir} holds {len(systems)} systems, "
                f"fewer than n_target_systems={config.n_target_systems}"
            )
        return systems
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


def _truths(data: RelationData, cells) -> np.ndarray:
    return np.asarray([data.cells[r, c] for r, c in cells], dtype=np.int64)


class _Cell:
    """One split's chains, each run at most once, and every row cut from them.

    `fit` is the one place that fits a model, for a grid cell and `relgen
    infer` alike.  The cell shares only its chains between rows.  Chain seeds
    derive from ``seed``, the cell seed in the grid and --seed in `infer`:
    stored system s's from (seed, "stored-chain", s.name), the theory's from
    (seed, "theory-chain").  Pool size K uses the first K systems of
    ``pool``.  The stored chains run together for the largest of ``counts``
    the pool can serve, and a row passes the first K of them to the library's
    evidence and prediction functions, so rows of different K are paired; a
    K beyond the pool fails only its own rows.  Each chain runs on first use,
    so a cell without irm or hybrid rows runs no theory chain.

    Hybrid rows choose tau within ``tau_bounds`` (log10) on the test cells,
    or on validation cells drawn with ``validation_seed``.  With
    ``tau_bounds`` None they come back unscored, with the payload
    `_choose_tau` needs.
    """

    def __init__(
        self, data, pool, counts, schedule, seed, tau_bounds, validation_seed=None
    ):
        self.data, self.pool, self.schedule, self.seed = data, pool, schedule, seed
        self.n_run = max((k for k in counts if k <= len(pool)), default=0)
        self.tau_bounds, self.validation_seed = tau_bounds, validation_seed
        self.truths = _truths(data, data.test_cells)

    def _seeded(self, *label) -> McmcSchedule:
        return self.schedule.with_seed(derive_seed(self.seed, *label))

    @cached_property
    def stored(self) -> list:
        """The chains of the first n_run pool systems, in pool order."""
        return [
            run_stored_chain(self.data, s, self._seeded("stored-chain", s.name))
            for s in self.pool[: self.n_run]
        ]

    @cached_property
    def theory(self):
        return run_irm_chain(self.data, self._seeded("theory-chain"))

    def fit(self, model: str, k: int | None):
        """One row: (row fields, test predictions, pool report, payload).

        The pool models also return the first K systems' evidence report; only
        an unscored hybrid row returns a payload.
        """
        data, cells, truths = self.data, self.data.test_cells, self.truths
        if model == "irm":
            preds = irm_predict_cells(self.theory, data, cells)
            return {"score": evaluate(preds, truths)}, preds, None, None
        systems = _pool_prefix(self.pool, k)
        chains = self.stored[:k]
        if model == "analogy":
            report = analogy_report(systems, chains)
            preds = analogy_predict_cells(chains, systems, report.weights, cells)
            bits = {
                "score": evaluate(preds, truths),
                "weights": tuple(zip(report.names, (float(x) for x in report.weights))),
            }
            return bits, preds, report, None
        log_ev = hybrid_log_evidences(chains, self.theory)
        report = AnalogyReport(tuple(s.name for s in systems), log_ev[:-1])
        comps = hybrid_component_predictions(chains, self.theory, systems, data, cells)
        tau_comps, tau_truths = comps, truths
        if self.validation_seed is not None:
            tau_cells = _validation_cells(data, self.validation_seed)
            tau_comps = hybrid_component_predictions(
                chains, self.theory, systems, data, tau_cells
            )
            tau_truths = _truths(data, tau_cells)
        payload = _HybridPayload(report.names, comps, log_ev, truths, tau_comps, tau_truths)
        if self.tau_bounds is None:
            return {"score": None}, None, report, payload
        bits, preds = _hybrid_bits(payload, _choose_tau([payload], self.tau_bounds))
        return bits, preds, report, None


def _choose_tau(payloads, bounds) -> float:
    """tau maximizing the mixture's summed log predictive on the payloads' tau cells.

    ``bounds`` are optimize_tau's (lower, upper) on log10(tau).
    """
    return optimize_tau(
        lambda tau: sum(
            -evaluate(
                predictive_prob(p.tau_components, hybrid_weights(p.log_evidences, tau)),
                p.tau_truths,
            )
            for p in payloads
        ),
        *bounds,
    )


def _hybrid_bits(p: _HybridPayload, tau_star: float):
    """A hybrid row's scored fields and its test predictions at the chosen tau."""
    w = hybrid_weights(p.log_evidences, tau_star)
    preds = predictive_prob(p.components, w)
    fields = {
        "score": evaluate(preds, p.truths),
        "weights": tuple(zip(p.names, (float(x) for x in w[:-1]))),
        "tau_star": float(tau_star),
        "irm_weight": float(w[-1]),
    }
    return fields, preds


def _validation_cells(data: RelationData, seed: int) -> tuple:
    n = data.n_entities
    spare = ~data.observed_mask
    spare[tuple(np.array(data.test_cells, dtype=np.int64).reshape(-1, 2).T)] = False
    free = np.flatnonzero(spare)
    if free.size == 0:
        raise ConfigError("validation-split tau mode needs unobserved spare cells")
    rng = np.random.default_rng(seed)
    take = min(len(data.test_cells), free.size) or free.size
    picked = np.sort(rng.permutation(free)[:take])
    return tuple((int(i) // n, int(i) % n) for i in picked)


def _execute_cell(config: ExperimentConfig, systems, target_index, fraction_index):
    """Run the rows of one (target, fraction) cell from one set of chains.

    Returns one (ResultRow, hybrid payload or None) per row of `_cell_rows`,
    in order.  Only a hybrid row under the global tau mode comes back with a
    payload, and unscored; its tau is chosen once every cell has run.  A row
    that raises is recorded with an error marker and the cell's other rows
    still complete.  A row's wall time includes the split and chains it was
    the first to need.
    """
    target = systems[target_index]
    seed = derive_seed(config.master_seed, "cell", target.name, fraction_index)
    validation_seed = None
    if config.tau_mode == "validation-split":
        validation_seed = derive_seed(
            config.master_seed, "validation", target.name, fraction_index
        )
    tau_bounds = None if config.tau_mode == "global" else (config.tau_lower, config.tau_upper)
    cell = None
    start = time.perf_counter()
    out = []
    for model, k in _cell_rows(config):
        fields = dict(
            target_system=target.name,
            model=model,
            n_stored=k,
            observed_fraction=config.observed_fractions[fraction_index],
            seed=seed,
        )
        payload = None
        try:
            if cell is None:
                cell = _Cell(
                    _split_data(config, target, fraction_index),
                    _pool_for(config, systems, target_index),
                    config.stored_counts,
                    McmcSchedule(config.burn_in, config.n_retained, config.thinning),
                    seed,
                    tau_bounds,
                    validation_seed,
                )
            bits, _, _, payload = cell.fit(model, k)
            fields.update(n_test=len(cell.data.test_cells), **bits)
        except Exception as exc:  # noqa: BLE001 - a row failure must not kill the run
            fields.update(
                score=None, n_test=0, status="error", error=f"{type(exc).__name__}: {exc}"
            )
        now = time.perf_counter()
        out.append((ResultRow(**fields, wall_seconds=now - start), payload))
        start = now
    return out


# (config, systems) of the grid a worker process serves; set by the pool's
# initializer in each worker, never in the parent process.
_WORKER_GRID: tuple = ()


def _init_worker(config: ExperimentConfig, systems) -> None:
    global _WORKER_GRID
    _WORKER_GRID = (config, systems)


def _execute_task(cell):
    return _execute_cell(*_WORKER_GRID, *cell)


def _finalize_global_tau(config, rows, payloads):
    """Choose one tau per pool size by joint held-out score, then fill rows."""
    by_k: dict[int, list[int]] = {}
    for idx, payload in payloads.items():
        by_k.setdefault(payload.n_stored, []).append(idx)
    for idxs in by_k.values():
        members = [payloads[i] for i in idxs]
        tau_star = _choose_tau(members, (config.tau_lower, config.tau_upper))
        for i, p in zip(idxs, members):
            rows[i] = replace(rows[i], **_hybrid_bits(p, tau_star)[0])
    return rows


def run_experiment(
    config: ExperimentConfig,
    systems: list[StoredSystem] | None = None,
    workers: int = 1,
    progress=None,
) -> list[ResultRow]:
    """Run the full grid and return rows in canonical order.

    The (target, fraction) cell is the unit of work: its chains run once and
    all of its rows are cut from them (see `_Cell`); the chains are dropped
    when the cell's rows are built.  A row that raises is recorded with an
    error marker and the run continues.  Output is independent of
    ``workers``, which run whole cells; pass ``progress`` (a callable taking
    done and total row counts) for coarse status reporting.
    """
    if systems is None:
        systems = materialize_systems(config)
    cells = [
        (t_idx, f_idx)
        for t_idx in range(min(config.n_target_systems, len(systems)))
        for f_idx in range(len(config.observed_fractions))
    ]
    total = len(cells) * len(_cell_rows(config))
    results: list[tuple[ResultRow, _HybridPayload | None]] = []

    def collect(outs):
        for out in outs:
            results.extend(out)
            if progress:
                progress(len(results), total)

    if workers > 1:
        # the library goes to each worker once; a task carries only its cell's
        # (target, fraction) indices.  A forking pool starts all its workers on
        # the first task, so it starts no more than there are cells.
        with ProcessPoolExecutor(
            max_workers=max(1, min(workers, len(cells))),
            initializer=_init_worker,
            initargs=(config, systems),
        ) as pool:
            collect(pool.map(_execute_task, cells))
    else:
        collect(_execute_cell(config, systems, *cell) for cell in cells)

    rows = [row for row, _ in results]
    pending = {
        i: payload for i, (_, payload) in enumerate(results) if payload is not None
    }
    if pending:
        rows = _finalize_global_tau(config, rows, pending)
    return rows


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


def emit_results_csv(rows, include_timing: bool = False) -> str:
    """Render rows to CSV text; identical rows give identical bytes.

    ``include_timing`` appends the wall_seconds column — useful diagnostics,
    but timing varies between runs, so the column is off by default to keep
    rerun output byte-identical.
    """
    header = RESULT_COLUMNS + (["wall_seconds"] if include_timing else [])
    return _csv_text(header, ([getattr(r, name) for name in header] for r in rows))


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


_RESULT_PARSERS = {f.name: _field_parser(f.type) for f in fields(ResultRow)}


def parse_results_csv(text: str) -> list[ResultRow]:
    """Inverse of emit_results_csv (timing column included when present).

    Raises ValueError on a foreign header, a short or long line, or a row
    naming a model other than irm, analogy or hybrid.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header not in (RESULT_COLUMNS, RESULT_COLUMNS + ["wall_seconds"]):
        raise ValueError("unrecognized results CSV header")
    parsers = [_RESULT_PARSERS[name] for name in header]
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(header):
            raise ValueError(f"expected {len(header)} fields, got {len(rec)}")
        rows.append(ResultRow(**{n: p(v) for n, p, v in zip(header, parsers, rec)}))
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
        return tuple(kind(x) for x in text.split(",") if x.strip())

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _cmd_generate(args) -> int:
    try:
        config = ExperimentConfig(
            entity_count=args.entities,
            n_target_systems=args.count,
            master_seed=args.seed,
            generation_gamma=args.gamma,
            generation_alpha=args.alpha,
            class_range=(args.class_min, args.class_max),
        )
    except ConfigError as exc:
        return _usage_error(str(exc))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for system in materialize_systems(config):
        save_system(system, out_dir / f"{system.name}.json")
    print(f"wrote {args.count} system files to {out_dir}")
    return 0


def _cmd_simulate(args) -> int:
    try:
        system = load_system(args.system)
    except (OSError, ValueError) as exc:
        return _usage_error(f"--system: {exc}")
    try:
        spec = SplitSpec(
            args.observed_fraction,
            args.test_fraction,
            derive_seed(args.seed, "split", system.name),
        )
    except SplitError as exc:
        return _usage_error(f"--observed-fraction/--test-fraction: {exc}")
    rng = np.random.default_rng(derive_seed(args.seed, "simulate", system.name))
    try:
        data, _ = simulate_interactions(system, args.entities, rng)
    except ValueError as exc:
        return _usage_error(f"--entities: {exc}")
    save_dataset(make_split(data, spec), args.out)
    print(
        f"simulated {args.entities} entities from {system.name}: "
        f"observed {spec.observed_fraction}, test {spec.test_fraction} -> {args.out}"
    )
    return 0


def _infer_schedule(args) -> McmcSchedule:
    flags = dict(burn_in=args.burn_in, n_retained=args.n_retained, thinning=args.thinning)
    return McmcSchedule(**{k: v for k, v in flags.items() if v is not None})


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_infer(args) -> int:
    try:
        data = load_dataset(args.dataset)
    except (OSError, ValueError) as exc:
        return _usage_error(f"--dataset: {exc}")
    try:
        schedule = _infer_schedule(args)
    except ConfigError as exc:
        return _usage_error(str(exc))
    pool = []
    if args.model != "irm":
        if not args.systems_dir:
            return _usage_error("--systems-dir is required for analogy/hybrid")
        try:
            pool = load_systems_dir(args.systems_dir)
        except (OSError, ValueError) as exc:
            return _usage_error(f"--systems-dir: {exc}")
        if args.k is not None:
            try:
                pool = _pool_prefix(pool, args.k)
            except ConfigError as exc:
                return _usage_error(f"--k: {exc}")
    cell = _Cell(
        data, pool, (len(pool),), schedule, args.seed, (TAU_LOG10_LOWER, TAU_LOG10_UPPER)
    )
    bits, preds, report, _ = cell.fit(args.model, len(pool) or None)
    cells = data.test_cells
    records = ((r, c, t, p) for (r, c), t, p in zip(cells, cell.truths, preds))
    Path(args.out).write_text(
        _csv_text(["row", "col", "truth", "prob"], records), encoding="utf-8"
    )
    # the pool models also write the evidence ranking over their pool
    if report is not None:
        ranked = [report.names.index(name) for name in report.ranking]
        records = (
            (rank, report.names[i], report.log_evidences[i], report.weights[i])
            for rank, i in enumerate(ranked, start=1)
        )
        Path(str(args.out) + ".report.csv").write_text(
            _csv_text(["rank", "system", "log_evidence", "weight"], records),
            encoding="utf-8",
        )
    extra = f", tau*={bits['tau_star']:.6g}" if "tau_star" in bits else ""
    print(f"held-out score {bits['score']:.6f} over {len(cells)} test cells{extra}")
    return 0


def _cmd_experiment(args) -> int:
    if args.workers < 1:
        return _usage_error(f"--workers: must be at least 1, got {args.workers}")
    file_values = None
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return _usage_error(f"--config: {exc}")
        if not isinstance(file_values, dict):
            return _usage_error("--config: expected a JSON object of settings")
    overrides = {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)}
    try:
        config = ExperimentConfig.from_sources(file_values, overrides)
    except ConfigError as exc:
        return _usage_error(str(exc))
    try:
        systems = materialize_systems(config)
    except (OSError, ValueError) as exc:
        return _usage_error(f"--systems-dir: {exc}")
    progress = None
    if args.verbose:
        progress = lambda done, total: print(
            f"row {done}/{total}", file=sys.stderr, flush=True
        )
    rows = run_experiment(config, systems, workers=args.workers, progress=progress)
    Path(args.out).write_text(
        emit_results_csv(rows, include_timing=config.emit_timing), encoding="utf-8"
    )
    errors = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {args.out} ({errors} errored)")
    if errors and not args.keep_going:
        return 1
    return 0


def _cmd_summarize(args) -> int:
    try:
        rows = parse_results_csv(Path(args.results).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _usage_error(f"--results: {exc}")
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

    p = sub.add_parser("generate", help="write synthetic stored-system files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", type=int, default=101)
    p.add_argument("--entities", type=int, default=30)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--class-min", type=int, default=3)
    p.add_argument("--class-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="simulate a dataset from a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--entities", type=int, default=30)
    p.add_argument("--observed-fraction", type=float, default=0.5)
    p.add_argument("--test-fraction", type=float, default=0.1)
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

    # a flag that sets an ExperimentConfig field has the field's name as its
    # dest and None as its default, so `_cmd_experiment` reads it by name
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
    p.add_argument("--emit-timing", action="store_true", default=None)
    p.add_argument("--keep-going", action="store_true",
                   help="exit 0 even when some rows errored")
    p.add_argument("--verbose", action="store_true")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
