import math

import numpy as np
import pytest
from scipy.linalg import expm

from orbitlab.errors import IllConditioned, InvalidInput
from orbitlab.cartan import (
    PAIRING_TOL,
    CartanVector,
    RootFunctional,
    _centered,
    _factor_exponents,
    cartan_projection,
    parse_functional,
    root_value,
    sp_long_root_min_check,
    word_cartan,
)
from orbitlab.hypdisc import Mobius, _half_lengths
from orbitlab.reps import ScaledMatrix, evaluate, standard_symplectic_form, sym_power
from orbitlab.words import _walk_levels, standard_schottky

# frozen: 2 log((1+sqrt 5)/2), the top log singular value of [[2,1],[1,1]]
TWO_LOG_PHI = 0.96242365011920694

FIB = np.array([[2.0, 1.0], [1.0, 1.0]])


class TestCartanProjection:
    def test_diagonal_example(self):
        kv = cartan_projection(np.diag([math.e**2, 1.0, math.e**-2]))
        assert np.allclose(kv.lambdas, [2.0, 0.0, -2.0], atol=1e-12)

    def test_scalar_multiples_agree(self):
        rng = np.random.default_rng(61)
        m = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        kv1 = cartan_projection(m)
        kv2 = cartan_projection(17.0 * m)
        assert np.allclose(kv1.lambdas, kv2.lambdas, atol=1e-10)

    def test_fibonacci_matrix_frozen(self):
        kv = cartan_projection(FIB)
        assert kv.lambdas[0] == pytest.approx(TWO_LOG_PHI, abs=1e-12)
        assert kv.lambdas[1] == pytest.approx(-TWO_LOG_PHI, abs=1e-12)

    def test_zero_sum_and_sorted(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 2 * np.eye(4)
            if abs(np.linalg.det(m)) < 0.1:
                continue
            kv = cartan_projection(m)
            assert abs(kv.lambdas.sum()) <= 1e-9
            assert np.all(np.diff(kv.lambdas) <= 1e-12)

    def test_ill_conditioned_raises(self):
        with pytest.raises(IllConditioned):
            cartan_projection(np.diag([1e20, 1.0]))

    def test_c_type_pairs(self):
        kv = cartan_projection(np.diag([4.0, 2.0, 0.5, 0.25]), lie_type="C")
        n = 2
        assert np.allclose(kv.lambdas[:n], -kv.lambdas[::-1][:n], atol=1e-12)

    def test_c_type_asymmetry_rejected(self):
        with pytest.raises(IllConditioned):
            cartan_projection(np.diag([4.0, 2.0, 1.0, 1.0]), lie_type="C")

    def test_scaled_matrix_input(self):
        sm = ScaledMatrix(np.diag([math.e**2, 1.0, math.e**-2]), log_scale=300.0)
        kv = cartan_projection(sm)
        assert np.allclose(kv.lambdas, [2.0, 0.0, -2.0], atol=1e-12)


def two_pass_projection(m, lie_type):
    """The route cartan_projection took before it shared _centered: log
    singular values centered and, for C-type, averaged over their pairs,
    then centered and averaged again as a caller's vector."""
    def center(lam):
        lam = lam - lam.mean()
        if lie_type == "C":
            n = lam.size // 2
            half = 0.5 * (lam[:n] - lam[::-1][:n])
            lam = np.concatenate([half, -half[::-1]])
        return lam
    return center(center(np.log(np.linalg.svd(m, compute_uv=False))))


def test_projection_matches_the_two_pass_route():
    rng = np.random.default_rng(71)
    form = standard_symplectic_form(2)
    cases = [(rng.normal(size=(d, d)), "A") for d in (2, 3, 4) for _ in range(20)]
    for _ in range(20):
        s = rng.normal(size=(4, 4))
        cases.append((expm(0.5 * form @ (s + s.T)), "C"))
    # an Sp(4) matrix whose top singular value is 5e-7 off its pair in
    # log: past CartanVector's 1e-8, within PAIRING_TOL, so still taken
    u, svals, vt = np.linalg.svd(cases[-1][0])
    off = u @ np.diag(svals * np.exp([5e-7, 0.0, 0.0, 0.0])) @ vt
    lam = np.log(np.linalg.svd(off, compute_uv=False))
    lam -= lam.mean()
    assert 1e-8 < np.abs(lam + lam[::-1]).max() <= PAIRING_TOL
    cases.append((off, "C"))
    for m, lie_type in cases:
        got = cartan_projection(m, lie_type).lambdas
        assert np.abs(got - two_pass_projection(m, lie_type)).max() <= 1e-15


def test_caller_vector_pairing_is_checked():
    # CartanVector refuses a caller's C-type vector off its pairs by more
    # than 1e-8 and averages one within it
    with pytest.raises(InvalidInput):
        CartanVector([3.0, 1.0 + 1e-7, -1.0, -3.0], lie_type="C")
    kv = CartanVector([3.0, 1.0 + 1e-9, -1.0, -3.0], lie_type="C")
    assert np.array_equal(kv.lambdas, -kv.lambdas[::-1])


class TestRootsAndWeights:
    KV = CartanVector([2.0, 0.0, -2.0])

    def test_simple_roots(self):
        assert root_value(self.KV, 1) == pytest.approx(2.0, abs=1e-14)
        assert root_value(self.KV, 2) == pytest.approx(2.0, abs=1e-14)

    def test_weights(self):
        for k in (1, 2):
            w = RootFunctional("weight", index=k)
            assert w.value(self.KV) == pytest.approx(2.0, abs=1e-14)

    def test_weight_of_fibonacci(self):
        kv = cartan_projection(FIB)
        w1 = RootFunctional("weight", index=1)
        assert w1.value(kv) == pytest.approx(TWO_LOG_PHI, abs=1e-12)

    def test_long_root(self):
        kv = CartanVector([3.0, 1.0, -1.0, -3.0], lie_type="C")
        assert root_value(kv, 2) == pytest.approx(2.0, abs=1e-14)

    def test_c_type_short_root(self):
        kv = CartanVector([3.0, 1.0, -1.0, -3.0], lie_type="C")
        assert root_value(kv, 1) == pytest.approx(2.0, abs=1e-14)

    def test_index_range(self):
        with pytest.raises(InvalidInput):
            root_value(self.KV, 3)
        with pytest.raises(InvalidInput):
            RootFunctional("weight", index=3).value(self.KV)

    def test_dominance_of_produced_vectors(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            m = rng.normal(size=(5, 5)) + 2 * np.eye(5)
            kv = cartan_projection(m)
            for i in range(1, 5):
                assert root_value(kv, i) >= -1e-12


class TestFunctionals:
    KV = CartanVector([2.0, 0.0, -2.0])

    def test_single_root(self):
        phi = parse_functional("a1")
        assert phi.value(self.KV) == pytest.approx(2.0)

    def test_combination_and_normalization(self):
        phi = parse_functional("a1+a2")
        assert phi.value(self.KV) == pytest.approx(4.0)

    def test_coefficient_syntax(self):
        phi = parse_functional("2*a1+1*a2")
        assert phi.value(self.KV) == pytest.approx(6.0)

    def test_weight_syntax(self):
        phi = parse_functional("w1")
        kv = cartan_projection(FIB)
        assert phi.value(kv) == pytest.approx(TWO_LOG_PHI, abs=1e-12)

    def test_long_syntax(self):
        phi = parse_functional("long")
        kv = CartanVector([3.0, 1.0, -1.0, -3.0], lie_type="C")
        assert phi.value(kv) == pytest.approx(2.0)

    def test_long_rejects_a_type(self):
        phi = parse_functional("long")
        with pytest.raises(InvalidInput):
            phi.value(self.KV)

    def test_parse_rejects_garbage(self):
        for bad in ("", "a", "b2", "w1+a1", "2*w1", "-1*a1", "a1-a2"):
            with pytest.raises(InvalidInput):
                parse_functional(bad)

    def test_linearity(self):
        rng = np.random.default_rng(73)
        m = rng.normal(size=(4, 4)) + 2 * np.eye(4)
        kv = cartan_projection(m)
        v1 = parse_functional("a1").value(kv)
        v3 = parse_functional("a3").value(kv)
        v = parse_functional("2*a1+1*a3").value(kv)
        assert v == pytest.approx(2 * v1 + v3, rel=1e-12)


SCHOTTKY_A = {
    "g": np.diag([math.e, 1 / math.e]),
    "G": np.diag([1 / math.e, math.e]),
}
ROT = np.array(
    [[math.cos(0.8), -math.sin(0.8)], [math.sin(0.8), math.cos(0.8)]]
)
SCHOTTKY_B = {
    "g": ROT @ np.diag([math.e**2, math.e**-2]) @ ROT.T,
    "G": ROT @ np.diag([math.e**-2, math.e**2]) @ ROT.T,
}


class TestLongRootMinFormula:
    def test_diagonal_case(self):
        r1 = sym_power(2)({"g": np.diag([math.e**2, math.e**-2])})
        r2 = sym_power(2)({"g": np.diag([math.e, 1 / math.e])})
        lhs, rhs = sp_long_root_min_check([r1, r2], ["g"])
        assert lhs == pytest.approx(2.0, abs=1e-10)
        assert rhs == pytest.approx(2.0, abs=1e-10)

    def test_single_factor_exact(self):
        r1 = sym_power(2)(SCHOTTKY_A)
        lhs, rhs = sp_long_root_min_check([r1], ["g", "g"])
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_random_words_two_factors(self):
        rng = np.random.default_rng(79)
        r1 = sym_power(2)(SCHOTTKY_A)
        r2 = sym_power(2)(SCHOTTKY_B)
        letters = ["g", "G"]
        for _ in range(15):
            word = [letters[k] for k in rng.integers(0, 2, size=6)]
            lhs, rhs = sp_long_root_min_check([r1, r2], word)
            assert abs(lhs - rhs) < 1e-8


class TestSymmetricPowerIdentity:
    def test_all_gaps_reduce_to_the_a1_root(self):
        rng = np.random.default_rng(83)
        s = math.exp(0.4)
        c, h = math.cosh(0.4), math.sinh(0.4)
        base = sym_power(2)(
            {
                "a": np.diag([s, 1 / s]),
                "A": np.diag([1 / s, s]),
                "b": np.array([[c, h], [h, c]]),
                "B": np.array([[c, -h], [-h, c]]),
            }
        )
        letters = list(base.images)
        for d in (3, 4, 5, 6):
            rep = sym_power(d)(
                {k: base.image(k) for k in letters}
            )
            for _ in range(6):
                word = [letters[k] for k in rng.integers(0, 4, size=4)]
                kv2 = cartan_projection(evaluate(base, word))
                kvd = cartan_projection(evaluate(rep, word))
                a1 = root_value(kv2, 1)
                for i in range(1, d):
                    assert root_value(kvd, i) == pytest.approx(a1, abs=1e-9)


class TestUniformContinuity:
    def test_generator_perturbation_is_bounded(self):
        rep = sym_power(2)(SCHOTTKY_A)
        hbound = max(
            float(np.ptp(np.log(np.linalg.svd(rep.image(h), compute_uv=False))))
            for h in rep.images
        )
        rng = np.random.default_rng(89)
        letters = list(rep.images)
        worst = 0.0
        for _ in range(30):
            word = [letters[k] for k in rng.integers(0, 2, size=10)]
            kv = cartan_projection(evaluate(rep, word))
            base = root_value(kv, 1)
            for h in letters:
                kvh = cartan_projection(evaluate(rep, [h] + word))
                worst = max(worst, abs(root_value(kvh, 1) - base))
        assert math.isfinite(worst)
        assert worst <= hbound + 1e-9


class TestLongWords:
    """Words of standard_schottky(4) past a displacement of 500 under
    sym3, on the factor route, whose 2x2 products stay plain."""

    @staticmethod
    def rep():
        group = standard_schottky(4.0)
        return sym_power(3)(group.generator_matrices(), label="sym3")

    def test_long_word_matches_a_scaled_oracle(self):
        rep = self.rep()
        word = "ab" * 90
        sm = ScaledMatrix.identity(2)
        for letter in word:
            sm = sm.times(rep.factors[0][1][letter])
        # sym3's a1 is twice the top log singular value of the factor
        want = 2.0 * sm.log_singular_values()[0]
        got = root_value(word_cartan(rep, word), 1)
        assert want == pytest.approx(602.1673211, abs=1e-6)
        assert abs(got - want) <= 1e-12 * want

    def test_factor_product_past_float64_range_raises(self):
        # numpy warns of the overflow on its way
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IllConditioned, match="float64 range"):
                word_cartan(self.rep(), "ab" * 180)

    def test_dense_product_past_float64_range_raises(self):
        rep = sym_power(2)(standard_schottky(4.0).generator_matrices())
        assert evaluate(rep, "ab" * 180).log_scale > 600.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInput, match="finite"):
                evaluate(rep, "ab" * 220)


def test_one_factor_rows_are_the_sorted_rows():
    # a symmetric power's row skips the sort that several factors need;
    # the rows keep their values, and centering leaves the identity's
    # zeros unsigned
    group = standard_schottky(4.0)
    walked = np.concatenate([level.mats for level in _walk_levels(group, 3)])
    boosts = [(Mobius.rotation(t) @ Mobius.boost(2.0 * mu)).mat
              for t, mu in ((0.3, 1e-9), (1.1, 1.0), (2.0, 354.0), (0.0, 354.3))]
    quarter_turn = [[0.0, -1.0], [1.0, 0.0]]
    mats = np.concatenate([walked, [quarter_turn], boosts])
    mu = _half_lengths(mats)
    assert mu[0] == 0.0 and mu[len(walked)] == 0.0 and 354.0 < mu.max() < 354.4
    for d in range(2, 8):
        rep = sym_power(d)(group.generator_matrices())
        lam = mu[:, np.newaxis] * (d - 1 - 2 * np.arange(d))
        lam.sort(axis=1)
        got = _factor_exponents(rep, [mats])
        assert np.array_equal(got, lam[:, ::-1]), d
        assert not np.signbit(_centered(got, rep.lie_type)[0]).any()
