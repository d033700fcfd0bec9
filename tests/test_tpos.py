"""Positive unitriangular semigroup: evaluation, factorization, grading.

The d = 3 factorization has a closed form in the matrix entries, which
pins the convention; higher dimensions are checked by round-trip and by
the closed-form consequences (superdiagonal identity, additivity of the
letter sums under multiplication).
"""

import math

import numpy as np
import pytest

from orbitlab.errors import InvalidInput, NotPositive
from orbitlab.reps import sym_power_matrix
from orbitlab.tpos import (
    POSITIVITY_TOL,
    ConeCoords,
    ReducedWord,
    Unitriangular,
    f_gamma,
    factorize,
    pi_beta,
    _cone_params,
    standard_word,
)

SQ2 = math.sqrt(2.0)


def random_coords(rng, d, lo=0.1, hi=3.0):
    w = standard_word(d)
    return w, rng.uniform(lo, hi, size=len(w))


# ---------------------------------------------------------------- words


def test_standard_word_d3():
    assert standard_word(3).letters == (1, 2, 1)


def test_standard_word_shape():
    for d in range(2, 8):
        w = standard_word(d)
        assert len(w) == d * (d - 1) // 2
        assert w.d == d


def test_other_reduced_word_accepted():
    w = ReducedWord((2, 1, 2), 3)
    assert w.letters == (2, 1, 2)
    assert w != standard_word(3)


def test_word_validation():
    with pytest.raises(InvalidInput):
        ReducedWord((1, 2), 3)  # too short
    with pytest.raises(InvalidInput):
        ReducedWord((1, 1, 1), 3)  # wrong evaluation
    with pytest.raises(InvalidInput):
        ReducedWord((1, 3, 1), 3)  # letter out of range
    with pytest.raises(InvalidInput):
        ReducedWord((), 1)


# ----------------------------------------------------------- containers


def test_unitriangular_requires_exact_shape():
    Unitriangular(np.eye(4))
    with pytest.raises(InvalidInput):
        Unitriangular(np.eye(3) * (1 + 1e-15))
    with pytest.raises(InvalidInput):
        Unitriangular([[1.0, 0.0], [1e-17, 1.0]])
    with pytest.raises(InvalidInput):
        Unitriangular(np.ones((2, 3)))


def test_unitriangular_product_and_superdiagonal():
    a = Unitriangular([[1, 2, 0], [0, 1, 3], [0, 0, 1]])
    b = Unitriangular([[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    c = a @ b
    assert isinstance(c, Unitriangular)
    assert np.allclose(np.diagonal(c.mat, 1), [3.0, 4.0])


def test_cone_coords_validation():
    w = standard_word(3)
    ConeCoords(w, (0.5, 1.0, 2.0))
    with pytest.raises(InvalidInput):
        ConeCoords(w, (0.5, 1.0))
    with pytest.raises(InvalidInput):
        ConeCoords(w, (0.5, 0.0, 2.0))
    with pytest.raises(InvalidInput):
        ConeCoords(w, (0.5, -1.0, 2.0))
    with pytest.raises(InvalidInput):
        ConeCoords(w, (0.5, math.inf, 2.0))



# ----------------------------------------------------------- evaluation


def test_f_gamma_d3_example():
    u = f_gamma(standard_word(3), (1.0, 2.0, 3.0))
    assert np.allclose(u.mat, [[1, 4, 2], [0, 1, 2], [0, 0, 1]])


def test_f_gamma_hits_sym_power_of_translation():
    # the sym-square image of [[1,1],[0,1]] lies on the positive locus
    v = (1 / SQ2, SQ2, 1 / SQ2)
    u = f_gamma(standard_word(3), v)
    t = sym_power_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]), 3)
    assert np.allclose(u.mat, t)
    assert np.allclose(u.mat, [[1, SQ2, 1], [0, 1, SQ2], [0, 0, 1]])


def test_f_gamma_accepts_cone_coords():
    w = standard_word(3)
    cc = ConeCoords(w, (1.0, 2.0, 3.0))
    assert np.allclose(f_gamma(w, cc).mat, f_gamma(w, (1.0, 2.0, 3.0)).mat)
    with pytest.raises(InvalidInput):
        f_gamma(ReducedWord((2, 1, 2), 3), cc)


def test_f_gamma_param_count_checked():
    with pytest.raises(InvalidInput):
        f_gamma(standard_word(3), (1.0, 2.0))


def test_f_gamma_word_order_matters():
    a = f_gamma(standard_word(3), (1.0, 2.0, 3.0))
    b = f_gamma(ReducedWord((2, 1, 2), 3), (1.0, 2.0, 3.0))
    assert not np.allclose(a.mat, b.mat)


# -------------------------------------------------------- factorization


def test_factorize_d3_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m12, m13, m23 = rng.uniform(0.2, 4.0, size=3)
        m13 = min(m13, 0.9 * m12 * m23)  # keep the interior condition
        u = Unitriangular([[1, m12, m13], [0, 1, m23], [0, 0, 1]])
        t1, t2, t3 = factorize(u).params
        assert t2 == pytest.approx(m23)
        assert t1 == pytest.approx(m13 / m23)
        assert t3 == pytest.approx(m12 - m13 / m23)


def test_factorize_round_trip():
    rng = np.random.default_rng(5)
    for d in range(2, 7):
        w = standard_word(d)
        for _ in range(100):
            _, p = random_coords(rng, d)
            u = f_gamma(w, p)
            got = factorize(u)
            assert got.word == w
            assert np.allclose(got.params, p, rtol=1e-9, atol=1e-12)
            back = f_gamma(w, got)
            assert np.allclose(back.mat, u.mat, rtol=1e-9, atol=1e-12)


def test_factorize_rejects_identity_as_marginal():
    with pytest.raises(NotPositive) as err:
        factorize(Unitriangular(np.eye(3)))
    assert err.value.marginal
    assert err.value.stage == 2


def test_factorize_rejects_boundary_point():
    u = Unitriangular([[1, 1, 2], [0, 1, 2], [0, 0, 1]])
    with pytest.raises(NotPositive) as err:
        factorize(u)
    assert err.value.marginal
    assert err.value.stage == 3


def test_factorize_rejects_negative_entry_hard():
    with pytest.raises(NotPositive) as err:
        factorize(Unitriangular([[1.0, -1.0], [0.0, 1.0]]))
    assert not err.value.marginal
    assert err.value.stage == 1


def test_factorize_boundary_scan_all_positions_d4():
    # zeroing any single parameter must be caught somewhere
    rng = np.random.default_rng(9)
    w = standard_word(4)
    for k in range(len(w)):
        p = list(rng.uniform(0.5, 2.0, size=len(w)))
        p[k] = 0.0
        u = np.eye(4)
        for i, t in zip(w.letters, p):
            u[:, i] += t * u[:, i - 1]
        with pytest.raises(NotPositive):
            factorize(Unitriangular(u))


def peel_oracle(u):
    """The block-peeling sweep as it ran on numpy arrays, one block at a
    time: the list of parameters along the standard word."""
    def peel_block(mat, size):
        k = size - 1
        g = np.zeros((size, size))
        g[size - 1, size - 1] = 1.0
        col = g[:, size - 1]
        cs = np.zeros(k)
        for j in range(size - 2, -1, -1):
            c = mat[j, j + 1] - col[j]
            if not (c > POSITIVITY_TOL and math.isfinite(c)):
                letter = j + 1
                raise NotPositive(
                    "block %d parameter for letter %d is %.3g, not positive"
                    % (k, letter, c),
                    stage=k * (k - 1) // 2 + (k - letter) + 1,
                    marginal=c > -POSITIVITY_TOL,
                )
            cs[j] = c
            col = (mat[:, j + 1] - col) / c
            g[:, j] = col
        return list(cs), g[: size - 1, : size - 1]

    d = u.dim
    by_block = {}
    work = u.mat
    for size in range(d, 1, -1):
        by_block[size - 1], work = peel_block(work, size)
    return [t for k in range(1, d) for t in reversed(by_block[k])]


def outcome(route, u):
    """Parameters, or the stage, marginal flag and message of NotPositive."""
    try:
        return route(u)
    except NotPositive as exc:
        return (exc.stage, bool(exc.marginal), str(exc))


def test_factorize_is_bit_identical_to_the_array_sweep():
    rng = np.random.default_rng(19)
    failures = 0
    for d in range(2, 10):
        w = standard_word(d)
        cases = []
        for _ in range(20):
            _, p = random_coords(rng, d)
            _, q = random_coords(rng, d)
            cases.append(f_gamma(w, p) @ f_gamma(w, q))
        for planted in (-0.3, 0.0, 1e-11, 2e-10):
            for k in range(len(w)):
                _, p = random_coords(rng, d, 0.5, 2.0)
                p[k] = planted
                cases.append(f_gamma(w, p))
        for u in cases:
            got = outcome(lambda v: list(factorize(v).params), u)
            assert got == outcome(peel_oracle, u)
            failures += isinstance(got, tuple)
    # every planted -0.3, 0 and 1e-11 fails somewhere in the sweep
    assert failures >= 3 * sum(n * (n - 1) // 2 for n in range(2, 10))


def row_sweep(rows):
    """The sweep on one matrix of nested rows, on Python floats, as it ran
    before it was stacked: the parameters, or the stage and value of the
    first failure."""
    cols = list(zip(*rows))
    params = []
    for k in range(len(rows) - 1, 0, -1):
        col, block, peeled = [0.0] * k + [1.0], [], []
        for j in range(k - 1, -1, -1):
            c = cols[j + 1][j] - col[j]
            if not (c > POSITIVITY_TOL and math.isfinite(c)):
                return k * (k + 1) // 2 - j, c
            col = [(a - b) / c for a, b in zip(cols[j + 1], col)]
            block.append(c)
            peeled.append(col[:k])
        params = block + params
        cols = peeled[::-1]
    return params


def test_stacked_cone_params_match_the_row_sweep():
    rng = np.random.default_rng(71)
    planted = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-10, -1e-10, 2e-10, 1e-300, 1e300]
    seen = set()
    for d in range(2, 8):
        w = standard_word(d)
        mats = []
        for trial in range(120):
            _, p = random_coords(rng, d, 0.05, 2.0)
            if trial % 3 == 1:
                p[rng.integers(len(w))] = rng.choice([1e-10, 1.5e-10, 9e-11, 0.0, -1e-11])
            u = f_gamma(w, p).mat
            if trial % 4 == 2:
                u = np.triu(rng.normal(size=(d, d)), 1) + np.eye(d)
            if trial % 2:
                r, c = np.sort(rng.choice(d, size=2, replace=False))
                u[r, c] = rng.choice(planted)
            mats.append(u)
        params, stage, value = _cone_params(np.array(mats))
        for u, got_params, got_stage, got_value in zip(mats, params, stage, value):
            want = row_sweep(u.tolist())
            if isinstance(want, list):
                assert got_stage == 0 and got_value == 0.0
                assert [t.hex() for t in got_params.tolist()] == [t.hex() for t in want]
            else:
                # the same stage, and the same value bit for bit, nan for nan
                assert (int(got_stage), repr(float(got_value))) == (want[0], repr(want[1]))
                assert float(got_value).hex() == want[1].hex() or math.isnan(want[1])
                assert (got_value > -POSITIVITY_TOL) == (want[1] > -POSITIVITY_TOL)
            seen.add(isinstance(want, list) or (math.isnan(want[1]), want[1] > -POSITIVITY_TOL))
    # passing rows, and failures that are nan, marginal and clearly negative
    assert seen == {True, (True, False), (False, True), (False, False)}


# ---------------------------------------------------- grading and logs


def test_pi_beta_matches_superdiagonal():
    rng = np.random.default_rng(21)
    for d in range(2, 7):
        w = standard_word(d)
        for _ in range(100 // (d - 1)):
            _, p = random_coords(rng, d)
            u = f_gamma(w, p)
            sd = np.diagonal(u.mat, 1)
            for i in range(1, d):
                assert pi_beta(w, p, i) == pytest.approx(sd[i - 1], rel=1e-12)


def test_pi_beta_additive_under_multiplication():
    rng = np.random.default_rng(22)
    w = standard_word(5)
    for _ in range(200):
        _, p = random_coords(rng, 5)
        _, q = random_coords(rng, 5)
        x, y = f_gamma(w, p), f_gamma(w, q)
        xy = factorize(x @ y)
        for i in range(1, 5):
            lhs = pi_beta(w, xy, i)
            rhs = pi_beta(w, p, i) + pi_beta(w, q, i)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_semigroup_closed_under_multiplication():
    rng = np.random.default_rng(23)
    for d in range(2, 7):
        w = standard_word(d)
        for _ in range(40):
            _, p = random_coords(rng, d)
            _, q = random_coords(rng, d)
            cc = factorize(f_gamma(w, p) @ f_gamma(w, q))
            assert all(t > 0 for t in cc.params)


def test_pi_beta_index_checked():
    w = standard_word(3)
    with pytest.raises(InvalidInput):
        pi_beta(w, (1.0, 1.0, 1.0), 3)
