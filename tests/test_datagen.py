"""Synthetic systems, simulated relations, splits, and the JSON file formats."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relgen import (
    GenerationError,
    SplitError,
    SplitSpec,
    StoredSystem,
    dataset_from_text,
    dataset_to_text,
    generate_synthetic_system,
    load_dataset,
    load_system,
    load_systems_dir,
    make_split,
    save_dataset,
    save_system,
    simulate_interactions,
    system_from_text,
    system_to_text,
)

from test_core import random_data


def test_split_spec_validation():
    SplitSpec(0.5, 0.1)
    with pytest.raises(SplitError):
        SplitSpec(-0.1, 0.1)
    with pytest.raises(SplitError):
        SplitSpec(0.5, 1.1)
    with pytest.raises(SplitError):
        SplitSpec(0.95, 0.1)  # sums past 1


def test_generate_synthetic_system_properties():
    rng = np.random.default_rng(5)
    for _ in range(10):
        system = generate_synthetic_system(rng, class_range=(3, 6), probe_entities=30)
        m = system.n_classes
        assert 3 <= m <= 6
        assert_allclose(system.class_probs.sum(), 1.0, rtol=1e-12)
        assert np.all(system.class_probs > 0)
        assert np.all((system.link_probs > 0) & (system.link_probs < 1))
    a = generate_synthetic_system(np.random.default_rng(9), name="x")
    b = generate_synthetic_system(np.random.default_rng(9), name="x")
    assert_allclose(a.link_probs, b.link_probs)
    assert_allclose(a.class_probs, b.class_probs)


def test_generate_gives_up_when_range_unreachable():
    with pytest.raises(GenerationError):
        generate_synthetic_system(
            np.random.default_rng(0),
            class_range=(9, 9),
            probe_entities=9,
            max_attempts=40,
        )  # nine singleton classes almost never happens


def test_simulate_interactions_statistics():
    # a one-class system reduces to iid flips of a single link probability
    system = StoredSystem("coin", np.array([[0.8]]), np.array([1.0]))
    data, z = simulate_interactions(system, 40, np.random.default_rng(3))
    assert z.tolist() == [0] * 40
    assert not data.observed_mask.any()
    assert data.test_cells == ()
    rate = data.cells.mean()
    assert abs(rate - 0.8) < 4 * np.sqrt(0.8 * 0.2 / 1600)

    again, _ = simulate_interactions(system, 40, np.random.default_rng(3))
    assert np.array_equal(again.cells, data.cells)


def test_simulate_class_frequencies():
    system = StoredSystem(
        "mix", np.full((2, 2), 0.5), np.array([0.25, 0.75])
    )
    _, z = simulate_interactions(system, 4000, np.random.default_rng(8))
    rate = float(np.mean(z == 1))
    assert abs(rate - 0.75) < 4 * np.sqrt(0.75 * 0.25 / 4000)


def test_make_split_counts_and_disjointness():
    data = random_data(np.random.default_rng(2), 10, observed_fraction=0.0)
    out = make_split(data, SplitSpec(0.3, 0.1, seed=4))
    assert out.n_observed == 30  # floor(0.3 * 100)
    assert len(out.test_cells) == 10
    for r, c in out.test_cells:
        assert not out.observed_mask[r, c]
    flat = [r * 10 + c for r, c in out.test_cells]
    assert flat == sorted(flat)
    assert np.array_equal(out.cells, data.cells)

    again = make_split(data, SplitSpec(0.3, 0.1, seed=4))
    assert np.array_equal(again.observed_mask, out.observed_mask)
    assert again.test_cells == out.test_cells
    other = make_split(data, SplitSpec(0.3, 0.1, seed=5))
    assert other.test_cells != out.test_cells


def test_make_split_fits_every_fraction_pair_the_spec_accepts():
    # SplitSpec's observed + test <= 1 is the split's only capacity check
    for n in (1, 3, 7, 10):
        data = random_data(np.random.default_rng(n), n, observed_fraction=0.0)
        for f in np.linspace(0.0, 1.0, 21):
            t = np.nextafter(1.0 - f, 2.0)
            if f + t > 1.0:
                t = 1.0 - f
            out = make_split(data, SplitSpec(f, t))
            assert out.n_observed + len(out.test_cells) <= n * n


def test_system_text_round_trip():
    system = StoredSystem(
        "demo",
        np.array([[0.5, 0.25], [0.75, 0.5]]),
        np.array([0.4, 0.6]),
        class_names=("hub", "leaf"),
    )
    text = system_to_text(system)
    doc = json.loads(text)
    assert doc["name"] == "demo"
    assert doc["class_names"] == ["hub", "leaf"]
    back = system_from_text(text)
    assert back.name == system.name
    assert back.class_names == ("hub", "leaf")
    assert_allclose(back.link_probs, system.link_probs)
    assert_allclose(back.class_probs, system.class_probs)
    # canonical form: serialize(parse(text)) == text
    assert system_to_text(back) == text


def test_system_text_warns_on_degenerate_links():
    system = StoredSystem(
        "edge", np.array([[1e-9, 0.5], [0.5, 1.0 - 1e-9]]), np.array([0.5, 0.5])
    )
    with pytest.warns(UserWarning, match="2"):
        system_from_text(system_to_text(system))


def test_system_text_rejects_malformed_documents():
    with pytest.raises(ValueError):
        system_from_text("not json at all {")
    with pytest.raises(ValueError):
        system_from_text(json.dumps({"name": "x", "eta": [0.5]}))  # zeta missing
    good = json.loads(system_to_text(two_by_two()))
    good["eta"] = good["eta"][:-1]  # wrong length
    with pytest.raises(ValueError):
        system_from_text(json.dumps(good))
    # only a JSON string names a system, and only JSON numbers fill eta and
    # zeta: nothing is converted on the way in
    for key, value in [
        ("name", 5),
        ("eta", [["0.5", 0.2], [0.3, 0.7]]),
        ("eta", [[True, 0.2], [0.3, 0.7]]),
        ("eta", [0.6, 0.2, 0.3, 0.7]),
        ("zeta", ["0.5", 0.5]),
        ("zeta", [True, False]),
        ("class_names", "ab"),
        ("class_names", [1, 2]),
    ]:
        doc = {**json.loads(system_to_text(two_by_two())), key: value}
        with pytest.raises(ValueError, match=f"malformed system document: {key}: "):
            system_from_text(json.dumps(doc))


def two_by_two():
    return StoredSystem(
        "t", np.array([[0.6, 0.2], [0.3, 0.7]]), np.array([0.5, 0.5])
    )


def test_dataset_text_round_trip():
    rng = np.random.default_rng(13)
    data = make_split(random_data(rng, 6, observed_fraction=0.0),
                      SplitSpec(0.4, 0.2, seed=6))
    text = dataset_to_text(data)
    back = dataset_from_text(text)
    assert back.n_entities == data.n_entities
    assert np.array_equal(back.cells, data.cells)
    assert np.array_equal(back.observed_mask, data.observed_mask)
    assert back.test_cells == data.test_cells
    assert dataset_to_text(back) == text


def test_dataset_text_rejects_malformed_documents():
    data = random_data(np.random.default_rng(1), 3)
    doc = json.loads(dataset_to_text(data))
    doc["cells"] = doc["cells"][:-1]
    with pytest.raises(ValueError):
        dataset_from_text(json.dumps(doc))
    doc2 = json.loads(dataset_to_text(data))
    doc2["observed_idx"] = [99]
    with pytest.raises(ValueError):
        dataset_from_text(json.dumps(doc2))
    # a repeated test cell would be scored twice
    doc3 = json.loads(dataset_to_text(data))
    spare = min(set(range(9)) - set(doc3["observed_idx"]))
    doc3["test_idx"] = [spare, spare]
    with pytest.raises(ValueError, match="listed twice"):
        dataset_from_text(json.dumps(doc3))
    # only JSON integers are read: a float, a bool or a numeric string is
    # refused, never truncated, and a cell that overflows is refused too
    for key, value in [
        ("n_entities", 2.7),
        ("n_entities", "3"),
        ("n_entities", True),
        ("cells", [0.7] + [0] * 8),
        ("cells", [True] + [0] * 8),
        ("cells", [300] + [0] * 8),
        ("observed_idx", [0.5]),
        ("observed_idx", 0),
        ("test_idx", [1.5]),
        ("test_idx", ["1"]),
    ]:
        doc = {**json.loads(dataset_to_text(data)), key: value}
        with pytest.raises(ValueError, match="malformed dataset document: "):
            dataset_from_text(json.dumps(doc))
    bent = {"n_entities": 2, "cells": [0.7, 1, 0, 1.9], "observed_idx": [0.5, 2.99],
            "test_idx": [1.5]}
    with pytest.raises(ValueError, match="cells: expected a JSON integer, got 0.7"):
        dataset_from_text(json.dumps(bent))


def test_file_round_trips(tmp_path):
    system = two_by_two()
    save_system(system, tmp_path / "sys.json")
    assert load_system(tmp_path / "sys.json").name == "t"

    data = random_data(np.random.default_rng(4), 5)
    save_dataset(data, tmp_path / "data.json")
    back = load_dataset(tmp_path / "data.json")
    assert np.array_equal(back.cells, data.cells)


def test_load_systems_dir_sorted(tmp_path):
    for name in ("bbb", "aaa", "ccc"):
        system = StoredSystem(name, np.array([[0.5]]), np.array([1.0]))
        save_system(system, tmp_path / f"{name}.json")
    systems = load_systems_dir(tmp_path)
    assert [s.name for s in systems] == ["aaa", "bbb", "ccc"]
    with pytest.raises(FileNotFoundError):
        load_systems_dir(tmp_path / "empty")


def test_load_systems_dir_rejects_duplicate_names(tmp_path):
    system = StoredSystem("same", np.array([[0.5]]), np.array([1.0]))
    save_system(system, tmp_path / "a.json")
    save_system(system, tmp_path / "b.json")
    with pytest.raises(ValueError, match="a.json and b.json"):
        load_systems_dir(tmp_path)


@pytest.mark.parametrize(
    "kwargs",
    [{"class_range": (0, 3)}, {"class_range": (4, 3)}, {"probe_entities": 2}],
    ids=["class minimum zero", "minimum above maximum", "probe below minimum"],
)
def test_generate_refuses_unusable_class_bounds(kwargs):
    with pytest.raises(ValueError) as caught:
        generate_synthetic_system(np.random.default_rng(0), **kwargs)
    assert type(caught.value) is ValueError
