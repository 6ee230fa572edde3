"""Golden outputs: results CSVs and `relgen infer` files, byte for byte.

``tests/golden/`` holds what the runs below write: the results CSV of the
tiny grid in ``test_cli.tiny_config`` under each tau mode, the `relgen
summarize` output of the per-cell one, and the predictions (plus the
evidence report, for the pool models) of `relgen infer` for every model on
one small dataset.  ``irm-chain.json`` holds the retained draws, alphas and
log-likelihoods of three theory chains, and ``stored-chain.json`` the
retained draws and log-likelihoods of six stored-system chains; both must
match exactly.  A change that alters any of these bytes on purpose
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md why they changed.  The script names each file whose
bytes it changed, added or removed, or prints "all N unchanged".
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from relgen import (
    McmcSchedule,
    SplitSpec,
    StoredSystem,
    emit_results_csv,
    emit_summary_csv,
    generate_synthetic_system,
    main,
    make_split,
    parse_results_csv,
    run_experiment,
    run_irm_chain,
    run_stored_chain,
    simulate_interactions,
    summarize,
)

from test_cli import tiny_config

GOLDEN = Path(__file__).parent / "golden"
TAU_MODES = ("per-cell", "global")
INFER_MODELS = ("irm", "analogy", "hybrid")
# (entities, observed fraction, seed): the sparse 20-entity split's chain
# opens and closes classes throughout its retained draws
IRM_CHAINS = ((30, 0.3, 2), (12, 0.9, 4), (20, 0.1, 6))
# (entities, observed fraction, seed, stored system): "source" maps the data
# back onto the system it came from, "other" onto a second random system,
# "zero-prior" onto the source with its first class's prior mass removed, and
# "one-class" onto a single class, where no class swap is possible.  In every
# chain but the one-class one, the greedy init takes improving class swaps.
STORED_CHAINS = (
    (30, 0.1, 2, "source"),
    (30, 0.9, 13, "source"),
    (24, 0.3, 13, "other"),
    (20, 0.1, 18, "zero-prior"),
    (20, 0.9, 3, "zero-prior"),
    (12, 0.5, 7, "one-class"),
)


def results_csv(tau_mode: str) -> str:
    return emit_results_csv(run_experiment(tiny_config(tau_mode=tau_mode)))


def summary_csv(results: str) -> str:
    return emit_summary_csv(summarize(parse_results_csv(results)))


def infer_outputs(workdir: Path) -> dict[str, str]:
    """Every file `relgen infer` writes for each model, keyed by file name."""
    systems = workdir / "systems"
    dataset = workdir / "data.json"
    assert main([
        "generate", "--out-dir", str(systems), "--count", "3",
        "--entities", "8", "--class-min", "2", "--class-max", "4", "--seed", "5",
    ]) == 0
    assert main([
        "simulate", "--system", str(systems / "synthetic-001.json"),
        "--entities", "8", "--observed-fraction", "0.5", "--seed", "6",
        "--out", str(dataset),
    ]) == 0
    outputs = {}
    for model in INFER_MODELS:
        preds = workdir / f"infer-{model}.csv"
        pool = [] if model == "irm" else ["--systems-dir", str(systems)]
        assert main([
            "infer", "--dataset", str(dataset), "--model", model, *pool,
            "--seed", "7", "--out", str(preds),
            "--burn-in", "20", "--retained", "10", "--thinning", "1",
        ]) == 0
        for path in (preds, preds.with_name(preds.name + ".report.csv")):
            if path.exists():
                outputs[path.name] = path.read_text(encoding="utf-8")
    return outputs


def irm_chain_records() -> list[dict]:
    """Retained draws, alphas and log-likelihoods of one theory chain per
    split in ``IRM_CHAINS``; floats as ``float.hex`` so equality is exact."""
    records = []
    for n, fraction, seed in IRM_CHAINS:
        rng = np.random.default_rng(seed - 1)
        system = generate_synthetic_system(
            rng, name="golden", class_range=(2, 5), probe_entities=n
        )
        full, _ = simulate_interactions(system, n, rng)
        data = make_split(full, SplitSpec(observed_fraction=fraction, seed=seed))
        schedule = McmcSchedule(burn_in=30, n_retained=15, thinning=2, seed=seed)
        samples = run_irm_chain(data, schedule)
        records.append({
            "entities": n,
            "observed_fraction": fraction,
            "seed": seed,
            "draws": [z.tolist() for z in samples.partitions],
            "alphas": [float(a).hex() for a in samples.alphas],
            "logliks": [float(v).hex() for v in samples.logliks],
        })
    return records


def stored_system(kind: str, source, rng) -> StoredSystem:
    """The system a ``STORED_CHAINS`` entry maps its data onto."""
    if kind == "source":
        return source
    if kind == "other":
        return generate_synthetic_system(rng, name="other", class_range=(3, 5))
    if kind == "zero-prior":
        probs = source.class_probs.copy()
        probs[0] = 0.0
        return StoredSystem("zero-prior", source.link_probs, probs / probs.sum())
    return StoredSystem("one-class", [[0.4]], [1.0])


def stored_chain_records() -> list[dict]:
    """Retained draws and log-likelihoods of one stored chain per entry of
    ``STORED_CHAINS``; floats as ``float.hex`` so equality is exact."""
    records = []
    for n, fraction, seed, kind in STORED_CHAINS:
        rng = np.random.default_rng(seed + 100)
        source = generate_synthetic_system(rng, name="golden", class_range=(3, 5))
        full, _ = simulate_interactions(source, n, rng)
        data = make_split(full, SplitSpec(observed_fraction=fraction, seed=seed))
        system = stored_system(kind, source, rng)
        schedule = McmcSchedule(burn_in=30, n_retained=15, thinning=2, seed=seed)
        samples = run_stored_chain(data, system, schedule)
        records.append({
            "entities": n,
            "observed_fraction": fraction,
            "seed": seed,
            "system": kind,
            "classes": system.n_classes,
            "live_classes": int(np.count_nonzero(system.class_probs)),
            "draws": samples.partitions.tolist(),
            "logliks": [float(v).hex() for v in samples.logliks],
        })
    return records


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("tau_mode", TAU_MODES)
def test_results_csv_matches_golden(tau_mode):
    assert results_csv(tau_mode) == _golden(f"results-{tau_mode}.csv")


@pytest.mark.parametrize("tau_mode", TAU_MODES)
def test_results_csv_golden_round_trips(tau_mode):
    text = _golden(f"results-{tau_mode}.csv")
    assert emit_results_csv(parse_results_csv(text)) == text


def test_summary_matches_golden():
    summary = summary_csv(_golden("results-per-cell.csv"))
    assert summary == _golden("summary-per-cell.csv")


def test_infer_outputs_match_golden(tmp_path):
    outputs = infer_outputs(tmp_path)
    assert sorted(outputs) == sorted(
        p.name for p in GOLDEN.glob("infer-*.csv")
    )
    for name, text in outputs.items():
        assert text == _golden(name), name


def test_irm_chains_match_golden():
    records = irm_chain_records()
    assert records == json.loads(_golden("irm-chain.json"))
    class_counts = [max(z) + 1 for z in records[2]["draws"]]
    assert any(a < b for a, b in zip(class_counts, class_counts[1:]))
    assert any(a > b for a, b in zip(class_counts, class_counts[1:]))


def test_stored_chains_match_golden():
    records = stored_chain_records()
    assert records == json.loads(_golden("stored-chain.json"))
    kinds = {r["system"]: r for r in records}
    assert 1 < kinds["zero-prior"]["live_classes"] < kinds["zero-prior"]["classes"]
    assert kinds["one-class"]["classes"] == 1
    assert {r["observed_fraction"] for r in records} >= {0.1, 0.9}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    before = {path.name: path.read_bytes() for path in GOLDEN.glob("*.*")}
    for stale in GOLDEN.glob("*.csv"):
        stale.unlink()
    for mode in TAU_MODES:
        (GOLDEN / f"results-{mode}.csv").write_text(results_csv(mode), encoding="utf-8")
    (GOLDEN / "summary-per-cell.csv").write_text(
        summary_csv(_golden("results-per-cell.csv")), encoding="utf-8"
    )
    (GOLDEN / "irm-chain.json").write_text(
        json.dumps(irm_chain_records(), indent=1) + "\n", encoding="utf-8"
    )
    (GOLDEN / "stored-chain.json").write_text(
        json.dumps(stored_chain_records(), indent=1) + "\n", encoding="utf-8"
    )
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in infer_outputs(Path(tmp)).items():
            (GOLDEN / name).write_text(text, encoding="utf-8")
    after = {path.name: path.read_bytes() for path in GOLDEN.glob("*.*")}
    print(f"wrote {len(after)} golden files to {GOLDEN}", file=sys.stderr)
    changed = sorted(name for name in before.keys() | after.keys()
                     if before.get(name) != after.get(name))
    if changed:
        print("changed: " + ", ".join(changed), file=sys.stderr)
    else:
        print(f"all {len(after)} unchanged", file=sys.stderr)
