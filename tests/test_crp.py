"""Clustering prior: assignment probabilities, closed-form density, sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from relgen import (
    DimensionError,
    Partition,
    crp_assignment_probs,
    crp_log_prior,
    sample_partition,
)

from oracles import crp_log_prob_sequential, set_partitions, total_variation


def test_partition_enumeration_sizes():
    # Bell numbers: sanity check on the oracle itself
    assert len(set_partitions(1)) == 1
    assert len(set_partitions(3)) == 5
    assert len(set_partitions(4)) == 15
    assert len(set_partitions(5)) == 52


def test_assignment_probs_frozen_example():
    # two classes sized 2 and 1, concentration 1.5: denominator 4.5
    probs = crp_assignment_probs(np.array([2, 1]), 1.5)
    assert_allclose(probs, [2 / 4.5, 1 / 4.5, 1.5 / 4.5], rtol=1e-12)


def test_assignment_probs_normalize():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        counts = rng.integers(1, 10, size=k)
        gamma = float(rng.uniform(0.05, 20.0))
        probs = crp_assignment_probs(counts, gamma)
        assert probs.shape == (k + 1,)
        assert_allclose(probs.sum(), 1.0, rtol=1e-12)
        assert (probs > 0).all()


def test_assignment_probs_validation():
    with pytest.raises(ValueError):
        crp_assignment_probs(np.array([2, 0]), 1.0)  # empty class
    with pytest.raises(ValueError):
        crp_assignment_probs(np.array([2, 1]), 0.0)


def test_log_prior_matches_sequential_product():
    for gamma in (0.3, 1.0, 2.7):
        for n in range(1, 6):
            for z in set_partitions(n):
                assert_allclose(
                    crp_log_prior(Partition.from_assignments(z), gamma),
                    crp_log_prob_sequential(z, gamma),
                    rtol=1e-10,
                )


def test_log_prior_normalizes_over_all_partitions():
    # summing the prior over every partition of n <= 5 gives exactly 1
    for gamma in (0.5, 1.0, 3.0):
        for n in range(1, 6):
            total = sum(
                np.exp(crp_log_prior(Partition.from_assignments(z), gamma))
                for z in set_partitions(n)
            )
            assert_allclose(total, 1.0, atol=1e-9)


def test_log_prior_exchangeable():
    # the density depends only on class sizes, so permuting the entities
    # (and re-canonicalizing) never changes it — exact equality
    rng = np.random.default_rng(8)
    z = np.array([0, 0, 1, 2, 1, 0, 3])
    base = crp_log_prior(Partition.from_assignments(z), 1.3)
    for _ in range(100):
        perm = rng.permutation(len(z))
        assert crp_log_prior(Partition.from_assignments(z[perm]), 1.3) == base


def test_sample_partition_deterministic_and_canonical():
    a = sample_partition(12, 1.0, np.random.default_rng(5))
    b = sample_partition(12, 1.0, np.random.default_rng(5))
    assert a.assignments.tolist() == b.assignments.tolist()
    # canonical form: classes appear in order of first use
    seen = []
    for lbl in a.assignments:
        if lbl not in seen:
            seen.append(lbl)
    assert seen == sorted(seen)


def test_sample_partition_matches_enumerated_prior():
    rng = np.random.default_rng(17)
    gamma = 1.0
    n = 4
    reps = 20_000
    freq: dict = {}
    for _ in range(reps):
        key = sample_partition(n, gamma, rng).key()
        freq[key] = freq.get(key, 0) + 1
    empirical = {k: v / reps for k, v in freq.items()}
    exact = {
        tuple(int(v) for v in z): np.exp(crp_log_prob_sequential(z, gamma))
        for z in set_partitions(n)
    }
    assert total_variation(empirical, exact) < 0.05


def test_sample_partition_pair_share_rate():
    # any two entities sit together with probability 1/(1+gamma)
    gamma = 2.0
    rng = np.random.default_rng(23)
    reps = 10_000
    hits = sum(
        1
        for _ in range(reps)
        if (lambda p: p.assignments[0] == p.assignments[4])(
            sample_partition(5, gamma, rng)
        )
    )
    rate = hits / reps
    expected = 1.0 / (1.0 + gamma)
    # ~4 sigma of binomial noise
    assert abs(rate - expected) < 4 * np.sqrt(expected * (1 - expected) / reps)


def test_log_prior_reads_labels_like_the_likelihoods():
    # a partition and its raw labels are one input; 2-d labels are refused
    rng = np.random.default_rng(2)
    for _ in range(20):
        labels = rng.integers(0, 4, size=int(rng.integers(1, 9)))
        p = Partition.from_assignments(labels)
        assert crp_log_prior(p, 1.3) == crp_log_prior(labels, 1.3)
    with pytest.raises(DimensionError):
        crp_log_prior([[0, 1]], 1.0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda rng: crp_assignment_probs([[1.0, 2.0]], 1.0), DimensionError),
        (lambda rng: crp_log_prior([0, 1], 0.0), ValueError),
        (lambda rng: sample_partition(0, 1.0, rng), ValueError),
        (lambda rng: sample_partition(3, 0.0, rng), ValueError),
    ],
    ids=["2-d counts", "prior gamma zero", "no entities", "sampler gamma zero"],
)
def test_crp_refuses_malformed_input(call, error):
    with pytest.raises(error) as caught:
        call(np.random.default_rng(0))
    assert type(caught.value) is error
