"""Positive definite cone: removable summands, rank witnesses,
comparability."""

import math

import numpy as np
import pytest

import conetools
from orbitlab.cones import (
    PSDMatrix,
    _removable,
    _trial_stacks,
    rank_upper_sample,
    rank_witness_check,
    removable_index,
)
from orbitlab.errors import InvalidInput, NoneRemovable, SumNotPD


def unit_diag(n, i):
    m = np.zeros((n, n))
    m[i, i] = 1.0
    return m


def test_psd_matrix_type():
    m = PSDMatrix([[1.0, 2.0], [0.0, 1.0]])
    assert np.array_equal(m.mat, m.mat.T)
    assert m.n == 2
    assert not m.is_zero()
    assert PSDMatrix(np.zeros((3, 3))).is_zero()
    with pytest.raises(InvalidInput):
        PSDMatrix(np.ones((2, 3)))
    with pytest.raises(InvalidInput):
        PSDMatrix([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(InvalidInput):
        PSDMatrix([[math.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidInput):
        PSDMatrix(np.zeros((0, 0)))
    # squared, the entries of 1e-200 I underflow to 0 and those of
    # 1e200 I overflow; the norm by hypot does neither
    assert not PSDMatrix(1e-200 * np.eye(2)).is_zero()
    assert repr(PSDMatrix(1e-200 * np.eye(2))) == "PSDMatrix(n=2, norm=1.41421e-200)"
    assert repr(PSDMatrix(1e200 * np.eye(2))) == "PSDMatrix(n=2, norm=1.41421e+200)"


def test_definiteness_is_relative_at_every_scale():
    # a rank-one sum stays singular and multiples of the identity stay
    # definite where squared entries underflow or overflow
    v = np.array([1.0, math.sqrt(2.0)])
    for scale in (1e-200, 1e-170, 1e-150, 1.0, 1e200):
        with pytest.raises(SumNotPD):
            removable_index([scale * np.outer(v, v)] * 2)
        assert removable_index([scale * np.eye(2)] * 3) == 0


def test_removable_index_examples():
    assert removable_index([np.eye(2), unit_diag(2, 0), unit_diag(2, 1)]) == 0
    assert removable_index([np.array([[1.0]]), np.array([[1.0]])]) == 0
    with pytest.raises(NoneRemovable) as info:
        removable_index([unit_diag(2, 0), unit_diag(2, 1)])
    assert info.value.count == 2
    with pytest.raises(NoneRemovable):
        removable_index([np.eye(3)])


def test_removable_index_validation():
    with pytest.raises(SumNotPD):
        removable_index([unit_diag(2, 0), unit_diag(2, 0)])
    with pytest.raises(InvalidInput):
        removable_index([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(InvalidInput):
        removable_index([np.eye(2), np.eye(3)])
    with pytest.raises(InvalidInput):
        removable_index([])


def test_removable_index_post_verified():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        mats = [rng.standard_normal((n, n)) for _ in range(n + 1)]
        mats = [g.T @ g for g in mats]
        k = removable_index(mats)
        rest = sum(m for i, m in enumerate(mats) if i != k)
        assert np.linalg.eigvalsh(rest)[0] > 0.0


def test_removable_index_prefers_smallest():
    # all three summands of 2I are removable; the first wins
    mats = [np.eye(2), np.eye(2) * 0.5, np.eye(2) * 0.5]
    assert removable_index(mats) == 0
    assert removable_index(mats[::-1]) == 0


def test_rank_witness_check():
    for n in (1, 2, 5, 8):
        assert rank_witness_check(n)
    with pytest.raises(InvalidInput):
        rank_witness_check(0)


def test_rank_upper_sample_zero_violations():
    assert rank_upper_sample(1, 50, seed=1) == 0
    assert rank_upper_sample(2, 300, seed=2) == 0
    assert rank_upper_sample(3, 150, seed=3) == 0
    assert rank_upper_sample(4, 80, seed=4) == 0


def test_rank_upper_sample_deterministic():
    a = rank_upper_sample(2, 40, seed=123)
    b = rank_upper_sample(2, 40, seed=123)
    assert a == b == 0
    with pytest.raises(InvalidInput):
        rank_upper_sample(2, 0)
    with pytest.raises(InvalidInput):
        rank_upper_sample(0, 10)


def test_iterated_removal_caratheodory():
    # repeated removal reaches the ambient dimension bound n(n+1)/2
    rng = np.random.default_rng(9)
    for n, start in ((2, 10), (3, 12)):
        bound = n * (n + 1) // 2
        mats = []
        for _ in range(start):
            g = rng.standard_normal((n, n))
            mats.append(g.T @ g)
        while len(mats) > bound:
            k = removable_index(mats)
            mats.pop(k)
            rest = sum(mats)
            assert np.linalg.eigvalsh(rest)[0] > 0.0
        assert len(mats) == bound


def outcome(decide, mats):
    """The index decide returns, or its exception's type, message and
    count."""
    try:
        return decide(mats)
    except (InvalidInput, NoneRemovable, SumNotPD) as exc:
        return type(exc), str(exc), getattr(exc, "count", None)


@pytest.mark.parametrize("mats", [
    [np.eye(2), unit_diag(2, 0), unit_diag(2, 1)],
    [np.array([[1.0]]), np.array([[1.0]])],
    [unit_diag(2, 0), unit_diag(2, 1)],
    [np.eye(3)],
    [unit_diag(2, 0), unit_diag(2, 0)],
    [np.eye(2), np.zeros((2, 2))],
    [np.eye(2), np.eye(3)],
    [],
    [np.eye(2), np.eye(2) * 0.5, np.eye(2) * 0.5],
    [np.eye(2) * 0.5, np.eye(2) * 0.5, np.eye(2)],
    [1e-150 * np.eye(2)] * 3,
])
def test_removable_index_matches_the_spectral_oracle(mats):
    assert outcome(removable_index, mats) == outcome(conetools.removable_index, mats)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trials_match_the_spectral_oracle_on_criterion_02_streams(n):
    # the first 1000 criterion-02 trials: same draws and redraws, so the
    # same stacks bit for bit, and the same removable index
    seed, count = 20 + n, 1000
    pairs = zip(conetools.trials(n, count, seed), _trial_stacks(n, count, seed))
    for (mats, k), stack in pairs:
        assert np.array_equal(np.array([m.mat for m in mats]), stack)
        assert _removable(stack) == k >= 0
