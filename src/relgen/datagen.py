"""Synthetic system generation, interaction simulation, splits, and file IO.

Synthetic stored systems are drawn the same way the nonparametric model
assumes the world works: a CRP partition over probe entities fixes the class
proportions (rejection-sampled until the class count is acceptable), and a
symmetric Beta fills the class-pair link probabilities.  Target data comes
from sampling entity classes i.i.d. from the class prior and flipping one
Bernoulli coin per directed cell, diagonal included.

System and dataset files are canonical JSON: a fixed key order and plain
float reprs make save -> load -> save byte-stable.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analogy import sample_stored_assignments
from .core import (
    GenerationError,
    RelationData,
    SplitError,
    StoredSystem,
    _misfit,
)
from .crp import sample_partition

DEGENERATE_LINK_TOL = 1e-4


@dataclass(frozen=True)
class SplitSpec:
    """Observed/held-out cell fractions plus the seed that fixes the draw."""

    observed_fraction: float
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.observed_fraction <= 1.0):
            raise SplitError(
                f"observed_fraction must lie in [0, 1], got {self.observed_fraction!r}"
            )
        if not (0.0 <= self.test_fraction <= 1.0):
            raise SplitError(
                f"test_fraction must lie in [0, 1], got {self.test_fraction!r}"
            )
        if self.observed_fraction + self.test_fraction > 1.0:
            raise SplitError(
                "observed_fraction + test_fraction must not exceed 1, got "
                f"{self.observed_fraction!r} + {self.test_fraction!r}"
            )


def generate_synthetic_system(
    rng: np.random.Generator,
    name: str = "synthetic",
    gamma: float = 1.0,
    alpha: float = 1.0,
    class_range: tuple[int, int] = (3, 6),
    probe_entities: int = 30,
    max_attempts: int = 10_000,
) -> StoredSystem:
    """Draw one stored system with an acceptable number of classes.

    CRP partitions of ``probe_entities`` are rejection-sampled until the
    class count lands in ``class_range`` (inclusive); the accepted partition
    fixes the class proportions, and link probabilities are i.i.d.
    Beta(alpha, alpha).
    """
    lo, hi = class_range
    if not (1 <= lo <= hi):
        raise ValueError(f"invalid class_range {class_range!r}")
    if probe_entities < lo:
        raise ValueError("probe_entities cannot be below the class minimum")
    for _ in range(max_attempts):
        part = sample_partition(probe_entities, gamma, rng)
        if lo <= part.n_classes <= hi:
            break
    else:
        raise GenerationError(
            f"no partition with {lo}..{hi} classes in {max_attempts} attempts "
            f"(gamma={gamma}, {probe_entities} entities)"
        )
    m = part.n_classes
    link = rng.beta(alpha, alpha, size=(m, m))
    class_probs = part.counts / part.n_entities
    return StoredSystem(name, link, class_probs)


def simulate_interactions(
    system: StoredSystem, n_entities: int, rng: np.random.Generator
) -> tuple[RelationData, np.ndarray]:
    """Sample a fully defined relation (all n^2 cells) from a stored system.

    Entity classes are i.i.d. from the system's class prior; every directed
    cell, the diagonal included, is an independent Bernoulli flip of the
    class-pair link probability.  Returns the data (nothing observed yet)
    and the true class vector.
    """
    if n_entities < 1:
        raise ValueError("need at least one entity")
    z = sample_stored_assignments(system, n_entities, rng)
    probs = system.link_probs[z[:, None], z[None, :]]
    cells = (rng.random((n_entities, n_entities)) < probs).astype(np.int8)
    data = RelationData(
        n_entities, cells, np.zeros((n_entities, n_entities), dtype=bool)
    )
    return data, z


def make_split(data: RelationData, spec: SplitSpec) -> RelationData:
    """Mark disjoint observed and test cells, uniformly at random.

    floor(observed_fraction * n^2) cells become observed and
    floor(test_fraction * n^2) distinct cells become the held-out test set;
    the rest stay unobserved.  One permutation drawn from ``spec.seed``
    determines everything.
    """
    n = data.n_entities
    n_cells = n * n
    n_obs = int(np.floor(spec.observed_fraction * n_cells))
    n_test = int(np.floor(spec.test_fraction * n_cells))
    # SplitSpec keeps observed + test <= 1, so n_obs + n_test <= n_cells
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n_cells)
    obs_idx = perm[:n_obs]
    test_idx = np.sort(perm[n_obs : n_obs + n_test])
    mask = np.zeros(n_cells, dtype=bool)
    mask[obs_idx] = True
    test_cells = tuple((int(i) // n, int(i) % n) for i in test_idx)
    return RelationData(n, data.cells, mask.reshape(n, n), test_cells)


# ---------------------------------------------------------------------------
# File formats.  Both are canonical JSON documents; cell indices are flat
# row-major positions (index = row * n + col).

def _json_field(doc, key: str, kind: type, depth: int = 0):
    """``doc[key]``, if `_misfit` finds it a JSON ``kind`` inside ``depth``
    levels of lists; else a ValueError naming the key and the misfit."""
    if problem := _misfit(doc[key], kind, depth):
        raise ValueError(f"{key}: expected {problem}")
    return doc[key]


def system_to_text(system: StoredSystem) -> str:
    doc: dict = {
        "name": system.name,
        "eta": [[float(p) for p in row] for row in system.link_probs],
        "zeta": [float(p) for p in system.class_probs],
    }
    if system.class_names is not None:
        doc["class_names"] = list(system.class_names)
    return json.dumps(doc, indent=2) + "\n"


def system_from_text(text: str) -> StoredSystem:
    doc = json.loads(text)
    try:
        name = _json_field(doc, "name", str)
        link = np.asarray(_json_field(doc, "eta", float, 2), dtype=np.float64)
        class_probs = np.asarray(_json_field(doc, "zeta", float, 1), dtype=np.float64)
        class_names = _json_field(doc, "class_names", str, 1) if "class_names" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed system document: {exc}") from exc
    system = StoredSystem(
        name,
        link,
        class_probs,
        tuple(class_names) if class_names is not None else None,
    )
    extreme = (system.link_probs < DEGENERATE_LINK_TOL) | (
        system.link_probs > 1.0 - DEGENERATE_LINK_TOL
    )
    if extreme.any():
        warnings.warn(
            f"system {system.name!r} has {int(extreme.sum())} link probabilities "
            f"within {DEGENERATE_LINK_TOL} of 0 or 1; log scores may saturate",
            UserWarning,
            stacklevel=2,
        )
    return system


def save_system(system: StoredSystem, path) -> None:
    Path(path).write_text(system_to_text(system), encoding="utf-8")


def load_system(path) -> StoredSystem:
    return system_from_text(Path(path).read_text(encoding="utf-8"))


def dataset_to_text(data: RelationData) -> str:
    n = data.n_entities
    flat_mask = data.observed_mask.reshape(-1)
    doc = {
        "n_entities": n,
        "cells": data.cells.reshape(-1).astype(int).tolist(),
        "observed_idx": np.nonzero(flat_mask)[0].astype(int).tolist(),
        "test_idx": sorted(r * n + c for r, c in data.test_cells),
    }
    return json.dumps(doc, indent=2) + "\n"


def dataset_from_text(text: str) -> RelationData:
    doc = json.loads(text)
    try:
        n = _json_field(doc, "n_entities", int)
        cells = np.asarray(_json_field(doc, "cells", int, 1), dtype=np.int8)
        observed_idx = np.asarray(_json_field(doc, "observed_idx", int, 1), dtype=np.int64)
        test_idx = _json_field(doc, "test_idx", int, 1)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed dataset document: {exc}") from exc
    if n < 1:
        raise ValueError(f"n_entities must be at least 1, got {n}")
    if cells.size != n * n:
        raise ValueError(
            f"expected {n * n} cells for {n} entities, got {cells.size}"
        )
    mask = np.zeros(n * n, dtype=bool)
    if observed_idx.size:
        if observed_idx.min() < 0 or observed_idx.max() >= n * n:
            raise ValueError("observed_idx out of range")
        mask[observed_idx] = True
    test_cells = tuple((i // n, i % n) for i in test_idx)
    return RelationData(n, cells.reshape(n, n), mask.reshape(n, n), test_cells)


def save_dataset(data: RelationData, path) -> None:
    Path(path).write_text(dataset_to_text(data), encoding="utf-8")


def load_dataset(path) -> RelationData:
    return dataset_from_text(Path(path).read_text(encoding="utf-8"))


def load_systems_dir(path) -> list[StoredSystem]:
    """Load every .json system document in a directory, sorted by filename.

    Raises ValueError when two files hold systems of the same name.
    """
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no system files (*.json) under {path}")
    systems = [load_system(f) for f in files]
    first: dict[str, str] = {}
    for f, system in zip(files, systems):
        if system.name in first:
            raise ValueError(
                f"{first[system.name]} and {f.name} both hold system {system.name!r}"
            )
        first[system.name] = f.name
    return systems
