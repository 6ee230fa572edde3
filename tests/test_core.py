"""Shared containers and probability primitives."""

import math
import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import betaln

from relgen import (
    ConfigError,
    DimensionError,
    Hyperparameters,
    Partition,
    PosteriorSamples,
    RelationData,
    StoredSystem,
    bernoulli_loglik,
    canonical_labels,
    clamp_probs,
    collapsed_loglik,
    crp_log_prior,
    pair_counts,
    predictive_prob,
)
from relgen.core import PROB_EPS

from oracles import block_counts, marginal_loglik


def random_data(rng, n, observed_fraction=0.6, n_test=0):
    cells = rng.integers(0, 2, size=(n, n)).astype(np.int8)
    mask = rng.random((n, n)) < observed_fraction
    test_cells = []
    if n_test:
        free = np.flatnonzero(~mask.reshape(-1))
        picked = rng.permutation(free)[:n_test]
        test_cells = [(int(i) // n, int(i) % n) for i in np.sort(picked)]
    return RelationData(n, cells, mask, tuple(test_cells))


def test_clamp_probs_bounds_and_idempotence():
    p = np.array([0.0, 1.0, 0.5, 1e-9, 1 - 1e-9])
    q = clamp_probs(p)
    assert q.min() >= 1e-6
    assert q.max() <= 1 - 1e-6
    assert_allclose(clamp_probs(q), q)
    assert q[2] == 0.5


def test_canonical_labels_first_occurrence():
    assert canonical_labels([2, 2, 0, 1]).tolist() == [0, 0, 1, 2]
    assert canonical_labels([5, 5, 5]).tolist() == [0, 0, 0]
    # any relabeling of the same grouping canonicalizes identically
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.integers(0, 4, size=10)
        perm = rng.permutation(10)
        relabeled = perm[z]
        assert canonical_labels(relabeled).tolist() == canonical_labels(
            canonical_labels(relabeled)
        ).tolist()
        groups = canonical_labels(z)
        regroups = canonical_labels(perm[z])
        # same grouping structure either way
        assert len(set(zip(groups, regroups))) == len(set(groups))


def test_relation_data_validation():
    good = np.zeros((3, 3), dtype=np.int8)
    mask = np.zeros((3, 3), dtype=bool)
    RelationData(3, good, mask, ())
    with pytest.raises(DimensionError):
        RelationData(3, np.zeros((2, 3), dtype=np.int8), mask, ())
    with pytest.raises(ValueError):
        RelationData(3, good + 2, mask, ())
    with pytest.raises(DimensionError):
        RelationData(3, good, np.zeros((2, 2), dtype=bool), ())
    with pytest.raises(ValueError):
        RelationData(3, good, mask, ((3, 0),))  # out of range
    observed = mask.copy()
    observed[1, 2] = True
    with pytest.raises(ValueError):
        RelationData(3, good, observed, ((1, 2),))  # test overlaps observed
    with pytest.raises(DimensionError, match="at least one entity"):
        RelationData(0, np.zeros((0, 0), dtype=np.int8), np.zeros((0, 0), dtype=bool), ())


def test_relation_data_tallies_match_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        data = random_data(rng, n)
        assert data.n_observed == int(data.observed_mask.sum())
        M = data.observed_link_matrices
        assert M.shape == (2, n, n) and M.dtype == np.float64
        for i in range(n):
            for j in range(n):
                observed = bool(data.observed_mask[i, j])
                link = int(data.cells[i, j])
                assert M[:, i, j].tolist() == [observed and link == 1, observed and link == 0]


def test_partition_validation_and_canonical_form():
    p = Partition.from_assignments([2, 0, 2, 1])
    assert p.assignments.tolist() == [0, 1, 0, 2]
    assert p.counts.tolist() == [2, 1, 1]
    assert p.n_classes == 3
    assert p.key() == (0, 1, 0, 2)
    assert Partition(np.array([0, 1, 0])).counts.tolist() == [2, 1]
    with pytest.raises(ValueError):
        Partition(np.array([0, 2]))  # label 1 unused


def test_partition_rejects_labels_that_are_not_canonical():
    # one grouping, one key: labels must already be in first-appearance order
    assert Partition.from_assignments([1, 0]).key() == (0, 1)
    for labels in ([1, 0], [0, 0, 2, 1], [1], [0, 1, 3, 2, 2]):
        with pytest.raises(ValueError, match="order of first appearance"):
            Partition(np.array(labels))
    rng = np.random.default_rng(5)
    for _ in range(50):
        labels = rng.integers(0, 4, size=int(rng.integers(1, 9)))
        canonical = Partition.from_assignments(labels).assignments
        assert Partition(canonical).key() == tuple(canonical.tolist())


def test_stored_system_validation():
    link = np.array([[0.5, 0.2], [0.8, 0.5]])
    StoredSystem("ok", link, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        StoredSystem("bad", link, np.array([0.6, 0.6]))  # not normalized
    with pytest.raises(ValueError):
        StoredSystem("bad", link * 3, np.array([0.5, 0.5]))  # probs out of range
    with pytest.raises(DimensionError):
        StoredSystem("bad", link[:1], np.array([1.0]))
    with pytest.raises(ConfigError):
        StoredSystem("bad", np.zeros((0, 0)), np.zeros(0))
    # a NaN or an infinity fails the range and normalization checks
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="link_probs"):
            StoredSystem("bad", [[bad, 0.5], [0.5, 0.5]], [0.5, 0.5])
        with pytest.raises(ValueError, match="class_probs"):
            StoredSystem("bad", link, [bad, 0.5])
    with pytest.raises(ValueError, match="class_probs"):
        StoredSystem("bad", link, [np.nan, np.nan])


def test_hyperparameters_bounds():
    Hyperparameters(1.0, 2.0)
    with pytest.raises(ValueError):
        Hyperparameters(0.0, 1.0)
    with pytest.raises(ValueError):
        Hyperparameters(1.0, 1e9)


def test_posterior_samples_validation():
    z = np.zeros(3, dtype=np.int64)
    PosteriorSamples((z,), np.array([-1.0]), alphas=np.array([1.0]))
    with pytest.raises(ValueError):
        PosteriorSamples((), np.array([]))
    with pytest.raises(ValueError):
        PosteriorSamples((z,), np.array([np.nan]))
    with pytest.raises(DimensionError):
        PosteriorSamples((z,), np.array([-1.0]), alphas=np.array([1.0, 2.0]))


def test_posterior_samples_is_one_read_only_array():
    draws = [np.array([0, 1, 1]), np.array([0, 0, 1])]
    samples = PosteriorSamples(draws, [-1.0, -2.0])
    assert samples.partitions.shape == (2, 3)
    assert samples.partitions.dtype == np.int64
    assert not samples.partitions.flags.writeable
    assert samples.n_draws == 2
    ragged = ([np.zeros(2), np.zeros(3)], [np.zeros((2, 3))], [np.zeros((2, 3))] * 2)
    for bad in ragged:
        with pytest.raises(DimensionError, match="1-d assignment vector of one length"):
            PosteriorSamples(bad, np.full(len(bad), -1.0))


def test_pair_counts_matches_loops():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        data = random_data(rng, n)
        k = int(rng.integers(1, 4))
        z = rng.integers(0, k, size=n)
        ones, zeros = pair_counts(data, z, k)
        o2, z2 = block_counts(data, z, k)
        assert ones.tolist() == o2
        assert zeros.tolist() == z2
        # every observed cell lands in exactly one tally
        assert ones.sum() + zeros.sum() == data.n_observed
        # stacked labelings give each labeling's counts, bit for bit
        stacked = rng.integers(0, k, size=(2, 3, n))
        want = [[pair_counts(data, zq, k) for zq in row] for row in stacked]
        assert_array_equal(pair_counts(data, stacked, k), want)


def test_pair_counts_rejects_bad_labels():
    data = random_data(np.random.default_rng(5), 2)
    for z in ([-1, 0], [0, 2], [0, 1, 1], 0):
        with pytest.raises(DimensionError):
            pair_counts(data, z, 2)
    # stacked labelings: one bad row, or rows of the wrong length
    for z in ([[0, 1], [-1, 0]], [[0, 1], [0, 2]], [[0, 1, 1], [0, 0, 0]]):
        with pytest.raises(DimensionError):
            pair_counts(data, z, 2)


def test_bernoulli_loglik_values():
    cells = np.array([[0, 1], [0, 0]], dtype=np.int8)
    mask = np.array([[False, True], [False, False]])
    data = RelationData(2, cells, mask, ())
    link = np.array([[0.5, 0.7], [0.1, 0.5]])
    got = bernoulli_loglik(data, np.array([0, 1]), link)
    assert_allclose(got, -0.35667494393873245)  # log 0.7

    none = RelationData(2, cells, np.zeros((2, 2), bool), ())
    assert bernoulli_loglik(none, np.array([0, 1]), link) == 0.0


def test_bernoulli_loglik_matches_loops():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        data = random_data(rng, n)
        m = int(rng.integers(1, 4))
        link = rng.uniform(0.05, 0.95, size=(m, m))
        z = rng.integers(0, m, size=n)
        manual = 0.0
        for i in range(n):
            for j in range(n):
                if data.observed_mask[i, j]:
                    eta = link[z[i], z[j]]
                    manual += np.log(eta) if data.cells[i, j] else np.log1p(-eta)
        assert_allclose(bernoulli_loglik(data, z, link), manual, rtol=1e-12)


def test_collapsed_loglik_frozen_value():
    # one class, four observed cells, three links and one non-link, alpha=1:
    # log B(1+3, 1+1) - log B(1, 1) = log(6/120) = log 0.05
    cells = np.array([[1, 0], [1, 1]], dtype=np.int8)
    data = RelationData(2, cells, np.ones((2, 2), bool), ())
    p = Partition.from_assignments([0, 0])
    assert_allclose(collapsed_loglik(data, p, 1.0), np.log(0.05), rtol=1e-12)


def test_collapsed_loglik_matches_quadrature():
    # the closed form equals the numerically integrated Beta mixture:
    # integral of p^n1 (1-p)^n0 under a symmetric Beta(alpha, alpha) prior
    grid = np.linspace(1e-7, 1 - 1e-7, 200_001)
    rng = np.random.default_rng(14)
    for _ in range(6):
        n1 = int(rng.integers(0, 6))
        n0 = int(rng.integers(0, 6))
        alpha = float(rng.uniform(0.8, 3.0))
        pdf = grid ** (alpha - 1) * (1 - grid) ** (alpha - 1)
        pdf = pdf / np.trapezoid(pdf, grid)
        integral = np.trapezoid(grid**n1 * (1 - grid) ** n0 * pdf, grid)
        closed = betaln(alpha + n1, alpha + n0) - betaln(alpha, alpha)
        assert_allclose(closed, np.log(integral), atol=1e-4)


def test_collapsed_loglik_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        data = random_data(rng, n)
        z = canonical_labels(rng.integers(0, 3, size=n))
        p = Partition.from_assignments(z)
        assert_allclose(
            collapsed_loglik(data, p, 1.3),
            marginal_loglik(data, p.assignments, 1.3),
            rtol=1e-10,
        )


def test_predictive_prob_mixture():
    assert_allclose(
        predictive_prob(np.array([0.2, 0.8]), np.array([0.25, 0.75])), 0.65
    )
    # a zero-weight component must not affect the result at all
    with_dead = predictive_prob(
        np.array([0.2, 0.8, 0.999999]), np.array([0.25, 0.75, 0.0])
    )
    assert with_dead == predictive_prob(np.array([0.2, 0.8]), np.array([0.25, 0.75]))
    # output is clamped away from the hard 0/1 endpoints
    assert predictive_prob(np.array([0.0]), np.array([1.0])) >= 1e-6
    assert predictive_prob(np.array([1.0]), np.array([1.0])) <= 1 - 1e-6


@pytest.mark.parametrize("n_components", [3, 6, 21, 101])
def test_predictive_prob_rows_match_single_cell_calls(n_components):
    # the (cells x K) form agrees with an exactly rounded sum per row and
    # with the one-cell form, up to the summation order's last bits
    rng = np.random.default_rng(n_components)
    comps = rng.random((200, n_components))
    w = rng.random(n_components) ** 8
    w[rng.permutation(n_components)[: n_components // 3]] = 0.0
    w /= w.sum()
    mixed = predictive_prob(comps, w)
    reference = clamp_probs(np.array([math.fsum(w * row) for row in comps]))
    assert_allclose(mixed, reference, rtol=1e-13, atol=0)
    single = np.array([predictive_prob(comps[i], w) for i in range(len(comps))])
    assert_allclose(mixed, single, rtol=1e-13, atol=0)
    assert predictive_prob(comps[:0], w).shape == (0,)


def test_one_cell_clamp_matches_np_clip_bit_for_bit():
    # a one-cell result is clamped with min/max, not np.clip; the bits must
    # be np.clip's below, at, inside and above the bounds, and for NaN
    rng = np.random.default_rng(12)
    lo, hi = PROB_EPS, 1.0 - PROB_EPS
    edges = [
        -math.inf, -1.0, -0.0, 0.0, lo / 2, np.nextafter(lo, 0), lo, np.nextafter(lo, 1),
        0.5, np.nextafter(hi, 0), hi, np.nextafter(hi, 1), 1.0, 2.0, math.inf, math.nan,
    ]
    near = np.r_[rng.uniform(0, 2 * lo, 500), 1.0 - rng.uniform(0, 2 * lo, 500)]
    for value in [*edges, *near, *rng.random(1000)]:
        got = predictive_prob(np.array([value]), np.array([1.0]))
        want = float(np.clip(np.float64(value), lo, hi))
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", want), value
    for _ in range(1000):
        k = int(rng.integers(1, 7))
        comps = rng.random(k) * rng.choice([1e-7, 1.0, 1.0 + 1e-6])
        w = rng.random(k) * (rng.random(k) < 0.8)
        w = w / w.sum() if w.sum() > 0 else np.eye(k)[0]
        live = w > 0
        want = float(np.clip(comps[live] @ w[live], lo, hi))
        assert struct.pack("<d", predictive_prob(comps, w)) == struct.pack("<d", want)


@pytest.mark.parametrize("layout", ["1-d", "1-d strided", "C", "F", "2-d strided"])
def test_all_positive_weights_mix_like_the_dropping_gather(layout):
    # every weight positive: the mixture skips the zero-weight gather, and
    # must give the bits that gather's layout gives, for contiguous and
    # strided weights; a plain p @ w differs on C-order rows
    rng = np.random.default_rng(14)
    w = rng.random(6) + 0.01
    w /= w.sum()
    comps = rng.random((180, 12))
    p = {"1-d": comps[0, :6], "1-d strided": comps[0, ::2], "C": comps[:90, :6].copy(),
         "F": np.asfortranarray(comps[:90, :6]), "2-d strided": comps[::2, ::2]}[layout]
    live = np.ones(6, dtype=bool)
    want = p[..., live] @ w[live]
    want = clamp_probs(want) if p.ndim == 2 else float(np.clip(want, PROB_EPS, 1 - PROB_EPS))
    strided = np.repeat(w, 2)[::2]
    for weights in (w, strided):
        got = predictive_prob(p, weights)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("weights", [[np.nan, np.nan], [0.5, np.nan]])
def test_predictive_prob_refuses_nan_weights(weights):
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        predictive_prob(np.array([0.5, 0.5]), np.array(weights))


def test_predictive_prob_validation():
    with pytest.raises(DimensionError):
        predictive_prob(np.array([0.5]), np.array([0.5, 0.5]))
    with pytest.raises(DimensionError):
        predictive_prob(np.full((3, 1), 0.5), np.array([0.5, 0.5]))
    with pytest.raises(DimensionError):
        predictive_prob(np.full((2, 2, 2), 0.5), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        predictive_prob(np.array([0.5, 0.5]), np.array([0.9, 0.3]))  # sum != 1
    with pytest.raises(ValueError):
        predictive_prob(np.array([0.5, 0.5]), np.array([-0.5, 1.5]))


def test_public_names_resolve_once():
    import relgen

    assert len(relgen.__all__) == len(set(relgen.__all__))
    missing = [name for name in relgen.__all__ if not hasattr(relgen, name)]
    assert missing == []


def test_arrays_are_frozen():
    data = random_data(np.random.default_rng(0), 4)
    with pytest.raises(ValueError):
        data.cells[0, 0] = 1
    p = Partition.from_assignments([0, 1, 0])
    with pytest.raises(ValueError):
        p.assignments[0] = 1


def test_labels_enter_by_one_rule():
    # every reader of class labels takes a partition or a 1-d vector, and
    # refuses empty or 2-d labels the same way
    data = random_data(np.random.default_rng(6), 3)
    for loglik in (
        lambda z: collapsed_loglik(data, z, 1.0),
        lambda z: bernoulli_loglik(data, z, np.full((2, 2), 0.5)),
    ):
        for z in ([], [[0, 1, 0]]):
            with pytest.raises(DimensionError):
                loglik(z)
    for read in (canonical_labels, Partition.from_assignments):
        with pytest.raises(DimensionError):
            read([[0, 1, 0]])
    p = Partition.from_assignments([2, 0, 2])
    assert canonical_labels(p).tolist() == [0, 1, 0]
    assert Partition.from_assignments(p).key() == p.key()
    assert collapsed_loglik(data, p, 1.0) == collapsed_loglik(data, [0, 1, 0], 1.0)
    assert_array_equal(pair_counts(data, p, 2), pair_counts(data, p.assignments, 2))


_LINK = np.array([[0.5, 0.2], [0.8, 0.5]])
_EYE = np.eye(2, dtype=np.int8)
_UNOBSERVED = np.zeros((2, 2), dtype=bool)


def _mask_with(value):
    """A 2 x 2 observed mask holding ``value`` at (0, 1)."""
    mask = np.zeros((2, 2))
    mask[0, 1] = value
    return mask


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda d: bernoulli_loglik(d, np.zeros((1, 3)), _LINK), DimensionError),
        (lambda d: bernoulli_loglik(d, [0, 1, 0], np.full((2, 3), 0.5)), DimensionError),
        (lambda d: Partition(np.zeros(0, dtype=np.int64)), DimensionError),
        (lambda d: Partition(np.array([-1, 0])), DimensionError),
        (lambda d: StoredSystem("s", _LINK, [1.0]), DimensionError),
        (lambda d: StoredSystem("s", _LINK, [0.5, 0.5], ("a",)), DimensionError),
        (lambda d: PosteriorSamples([[0, 0, 0]], [-1.0, -2.0]), DimensionError),
        (lambda d: collapsed_loglik(d, [0, 1, 0], 0.0), ValueError),
        (lambda d: collapsed_loglik(d, [0, 1, 0], -1.0), ValueError),
        (lambda d: predictive_prob(np.zeros(0), np.zeros(0)), ValueError),
        # values are checked before a cast could wrap, truncate or read them as true
        (lambda d: RelationData(2, np.array([[257, 0], [0, 1]]), _UNOBSERVED), ValueError),
        (lambda d: RelationData(2, np.array([[-255, 0], [0, 1]]), _UNOBSERVED), ValueError),
        (lambda d: RelationData(2, np.array([[1.0, 0.5], [0.0, 1.0]]), _UNOBSERVED), ValueError),
        (lambda d: RelationData(2, _EYE, _mask_with(0.5)), ValueError),
        (lambda d: RelationData(2, _EYE, _mask_with(2.0)), ValueError),
        (lambda d: RelationData(2, _EYE, _mask_with(-1)), ValueError),
        (lambda d: RelationData(2, _EYE, _UNOBSERVED, ((1.7, 0.2),)), TypeError),
        (lambda d: PosteriorSamples([[0, 1]], [-1.0]).cell_classes([(0.9, 1.2)]),
         TypeError),
        (lambda d: canonical_labels([0.9, 1.5]), TypeError),
        (lambda d: collapsed_loglik(d, [0.9, 1.5, 0], 1.0), TypeError),
        (lambda d: crp_log_prior([0.2, 0.7], 1.0), TypeError),
        (lambda d: Partition([0.0, 1.9]), TypeError),
        (lambda d: pair_counts(d, [0.5, 1.5, 0], 2), TypeError),
        (lambda d: canonical_labels([True, False]), TypeError),
        # draws were truncated, and a label -1 read as a stored system's last class
        (lambda d: PosteriorSamples([[0.5, 1.7]], [-1.0]), TypeError),
        (lambda d: PosteriorSamples([[True, False]], [-1.0]), TypeError),
        (lambda d: PosteriorSamples([[-1, 0]], [-1.0]), DimensionError),
        # theory predictions read these alphas as NaN, or -1 as a silent 0.5
        (lambda d: PosteriorSamples([[0, 1]], [-1.0], alphas=[0.0]), ValueError),
        (lambda d: PosteriorSamples([[0, 1]], [-1.0], alphas=[np.inf]), ValueError),
        (lambda d: PosteriorSamples([[0, 1]], [-1.0], alphas=[np.nan]), ValueError),
        (lambda d: PosteriorSamples([[0, 1]], [-1.0], alphas=[-1.0]), ValueError),
    ],
    ids=[
        "2-d labels",
        "non-square link probabilities",
        "empty partition",
        "negative label",
        "class_probs length",
        "class_names length",
        "logliks length",
        "alpha zero",
        "alpha negative",
        "no components",
        "cell 257",
        "cell -255",
        "cell 0.5",
        "mask 0.5",
        "mask 2.0",
        "mask -1",
        "float test cell",
        "float drawn cell",
        "float labels to canonical_labels",
        "float labels to collapsed_loglik",
        "float labels to crp_log_prior",
        "float labels to Partition",
        "float labels to pair_counts",
        "bool labels",
        "float draws",
        "bool draws",
        "negative draw label",
        "draw alpha 0",
        "draw alpha inf",
        "draw alpha nan",
        "draw alpha -1",
    ],
)
def test_core_refuses_malformed_input(call, error):
    with pytest.raises(error) as caught:
        call(random_data(np.random.default_rng(7), 3))
    assert type(caught.value) is error



def test_binary_values_pass_as_floats_or_bools():
    data = RelationData(
        2,
        np.array([[1.0, 0.0], [0.0, True]]),
        np.array([[1.0, 0.0], [True, False]]),
        ((np.int64(0), True),),
    )
    assert data.cells.dtype == np.int8 and data.cells.tolist() == [[1, 0], [0, 1]]
    assert data.observed_mask.tolist() == [[True, False], [True, False]]
    assert data.test_cells == ((0, 1),) and type(data.test_cells[0][1]) is int
