"""Positive definite cone: removable summands, rank witnesses,
comparability."""

import math

import numpy as np
import pytest

from orbitlab.cones import (
    PSDMatrix,
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
