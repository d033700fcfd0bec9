import math

import numpy as np
import pytest
from buildtools import log_singular_values

from orbitlab.errors import InvalidInput
from orbitlab.reps import (
    Representation,
    ScaledMatrix,
    custom_rep,
    evaluate,
    sp_product,
    standard_symplectic_form,
    sym_power,
    sym_power_matrix,
)

SQRT2 = math.sqrt(2.0)


def sym_power_oracle(mat, d):
    """Independent route: substitute into monomials with sympy and read
    coefficients off the expanded forms."""
    import sympy

    x, y = sympy.symbols("x y")
    a, b = mat[0]
    c, dd = mat[1]
    n = d - 1
    out = sympy.zeros(d, d)
    scale = [sympy.sqrt(sympy.binomial(n, k)) for k in range(d)]
    for j in range(d):
        img = sympy.expand(
            (a * x + c * y) ** (n - j) * (b * x + dd * y) ** j
        )
        poly = sympy.Poly(img, x, y)
        for i in range(d):
            out[i, j] = poly.coeff_monomial(x ** (n - i) * y**i) * scale[j] / scale[i]
    return np.array(out.evalf(20), dtype=float)


def random_sl2(rng):
    m = rng.normal(size=(2, 2))
    while abs(np.linalg.det(m)) < 0.1:
        m = rng.normal(size=(2, 2))
    return m / math.sqrt(abs(np.linalg.det(m)))


SCHOTTKY_IMAGES = {
    "a": np.diag([math.e, 1 / math.e]),
    "A": np.diag([1 / math.e, math.e]),
    "b": np.array([[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]]),
    "B": np.array(
        [[math.cosh(1.0), -math.sinh(1.0)], [-math.sinh(1.0), math.cosh(1.0)]]
    ),
}


class TestSymPower:
    def test_dim2_is_identity_constructor(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert np.allclose(sym_power_matrix(m, 2), m)

    def test_diagonal_cube(self):
        img = sym_power_matrix(np.diag([math.e, 1 / math.e]), 3)
        want = np.diag([math.e**2, 1.0, math.e**-2])
        assert np.allclose(img, want, atol=1e-14)

    def test_shear_cube(self):
        img = sym_power_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]), 3)
        want = np.array([[1.0, SQRT2, 1.0], [0.0, 1.0, SQRT2], [0.0, 0.0, 1.0]])
        assert np.allclose(img, want, atol=1e-14)

    def test_matches_substitution_oracle(self):
        rng = np.random.default_rng(41)
        for d in (3, 4, 5):
            m = random_sl2(rng)
            assert np.allclose(sym_power_oracle(m, d), sym_power_matrix(m, d), atol=1e-12)

    def test_homomorphism(self):
        rng = np.random.default_rng(43)
        for d in (3, 4, 6):
            g, h = random_sl2(rng), random_sl2(rng)
            lhs = sym_power_matrix(g @ h, d)
            rhs = sym_power_matrix(g, d) @ sym_power_matrix(h, d)
            assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_rotations_go_to_orthogonal(self):
        for d in (3, 4, 5):
            for t in (0.3, 1.2, 2.9):
                r = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
                img = sym_power_matrix(r, d)
                assert np.allclose(img @ img.T, np.eye(d), atol=1e-12)
                assert np.linalg.det(img) == pytest.approx(1.0, abs=1e-10)

    def test_singular_values_are_power_ladders(self):
        rng = np.random.default_rng(47)
        m = random_sl2(rng)
        s1, s2 = np.linalg.svd(m, compute_uv=False)
        for d in (3, 5):
            got = np.linalg.svd(sym_power_matrix(m, d), compute_uv=False)
            want = sorted(
                (s1 ** (d - 1 - j) * s2**j for j in range(d)), reverse=True
            )
            assert np.allclose(got, want, rtol=1e-10)

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(53)
        mats = np.array([random_sl2(rng) for _ in range(200)])
        for d in range(2, 7):
            stacked = sym_power_matrix(mats, d)
            assert stacked.shape == (200, d, d)
            for m, got in zip(mats, stacked):
                want = sym_power_matrix(m, d)
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
            # and the substitution oracle agrees on a few
            for m, got in zip(mats[:3], stacked[:3]):
                assert np.allclose(got, sym_power_oracle(m, d), rtol=0.0, atol=1e-12)
        with pytest.raises(InvalidInput):
            sym_power_matrix(np.zeros((2, 2, 2, 2)), 3)
        with pytest.raises(InvalidInput):
            sym_power_matrix(np.zeros((4, 2, 3)), 3)

    def test_builder(self):
        rep = sym_power(3)(SCHOTTKY_IMAGES)
        assert rep.dim == 3
        assert rep.lie_type == "A"
        assert np.allclose(
            rep.image("a") @ rep.image("A"), np.eye(3), atol=1e-12
        )

    def test_rejects_dim_below_2(self):
        with pytest.raises(InvalidInput):
            sym_power(1)


class TestSpProduct:
    def two_reps(self):
        r1 = sym_power(2)({"a": SCHOTTKY_IMAGES["a"], "A": SCHOTTKY_IMAGES["A"]})
        r2 = sym_power(2)({"a": SCHOTTKY_IMAGES["b"], "A": SCHOTTKY_IMAGES["B"]})
        return r1, r2

    def test_block_layout(self):
        a, b, c, d = 2.0, 1.0, 1.0, 1.0
        r1 = sym_power(2)({"g": np.array([[a, b], [c, d]])})
        r2 = sym_power(2)({"g": np.eye(2)})
        prod = sp_product([r1, r2])
        want = np.array(
            [
                [a, 0, b, 0],
                [0, 1, 0, 0],
                [c, 0, d, 0],
                [0, 0, 0, 1],
            ]
        )
        assert np.allclose(prod.image("g"), want, atol=1e-14)

    def test_symplectic_invariant(self):
        prod = sp_product(self.two_reps())
        j = standard_symplectic_form(2)
        for letter in prod.images:
            m = prod.image(letter)
            assert np.abs(m.T @ j @ m - j).max() <= 1e-9

    def test_single_factor_is_same_matrix(self):
        r1, _ = self.two_reps()
        prod = sp_product([r1])
        assert prod.dim == 2
        assert np.allclose(prod.image("a"), r1.image("a"))

    def test_preserves_products_componentwise(self):
        r1, r2 = self.two_reps()
        prod = sp_product([r1, r2])
        lhs = prod.image("a") @ prod.image("a")
        blocks = sp_product(
            [
                sym_power(2)({"aa": r1.image("a") @ r1.image("a")}),
                sym_power(2)({"aa": r2.image("a") @ r2.image("a")}),
            ]
        ).image("aa")
        assert np.allclose(lhs, blocks, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        r1, _ = self.two_reps()
        bad = sym_power(3)(SCHOTTKY_IMAGES)
        with pytest.raises(InvalidInput):
            sp_product([r1, bad])

    def test_singular_values_are_union_of_factors(self):
        r1, r2 = self.two_reps()
        prod = sp_product([r1, r2])
        m = prod.image("a")
        got = np.sort(np.linalg.svd(m, compute_uv=False))
        want = np.sort(
            np.concatenate(
                [
                    np.linalg.svd(r1.image("a"), compute_uv=False),
                    np.linalg.svd(r2.image("a"), compute_uv=False),
                ]
            )
        )
        assert np.allclose(got, want, rtol=1e-12)


class TestScaledMatrix:
    def test_sup_norm_window(self):
        sm = ScaledMatrix(np.diag([3e200, 1e-10]))
        assert 0.5 <= np.abs(sm.mat).max() <= 2.0
        recovered = sm.log_scale + math.log(np.abs(sm.mat).max())
        assert recovered == pytest.approx(math.log(3e200), rel=1e-12)

    def test_ratio_preserved_exactly(self):
        m = np.array([[7.0, 2.0], [1.0, 5.0]])
        sm = ScaledMatrix(m * 2.0**37)
        s_true = np.linalg.svd(m, compute_uv=False)
        s_kept = np.linalg.svd(sm.mat, compute_uv=False)
        assert s_kept[0] / s_kept[1] == pytest.approx(s_true[0] / s_true[1], rel=0)

    def test_log_singular_values(self):
        sm = ScaledMatrix(np.diag([math.e**3, math.e**-1]))
        got = log_singular_values(sm)
        assert np.allclose(got, [3.0, -1.0], atol=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidInput):
            ScaledMatrix(np.zeros((2, 2)))


class TestEvaluate:
    def rep(self):
        return sym_power(2)(SCHOTTKY_IMAGES)

    def test_empty_word(self):
        sm = evaluate(self.rep(), [])
        assert np.allclose(sm.mat, np.eye(2))
        assert sm.log_scale == 0.0

    def test_single_diagonal_letter(self):
        sm = evaluate(self.rep(), ["a"])
        s = np.linalg.svd(sm.mat, compute_uv=False)
        assert s[0] / s[1] == pytest.approx(math.e**2, rel=1e-14)

    def test_length_200_stays_finite(self):
        word = (["a", "b"] * 100)[:200]
        sm = evaluate(self.rep(), word)
        assert np.all(np.isfinite(sm.mat))
        assert 0.5 <= np.abs(sm.mat).max() <= 2.0
        assert sm.log_scale > 100.0

    def test_against_extended_precision_at_length_30(self):
        import mpmath

        mpmath.mp.dps = 60
        # mild boosts keep the length-30 condition number inside double range
        s = math.exp(0.25)
        c, h = math.cosh(0.25), math.sinh(0.25)
        rep = sym_power(2)(
            {
                "a": np.diag([s, 1 / s]),
                "A": np.diag([1 / s, s]),
                "b": np.array([[c, h], [h, c]]),
                "B": np.array([[c, -h], [-h, c]]),
            }
        )
        word = ["a", "b", "A", "b", "a", "a", "b", "B", "a", "b"] * 3
        acc = mpmath.eye(2)
        for letter in word:
            m = rep.image(letter)
            acc = acc * mpmath.matrix(m.tolist())
        exact = mpmath.svd_r(acc, compute_uv=False)
        sm = evaluate(rep, word)
        got = log_singular_values(sm)
        want = [float(mpmath.log(exact[0])), float(mpmath.log(exact[1]))]
        assert got[0] == pytest.approx(want[0], rel=1e-8)
        assert got[1] == pytest.approx(want[1], rel=1e-8)
        # the scale bookkeeping reproduces the true magnitude
        sup_true = float(mpmath.log(max(abs(x) for x in acc)))
        assert sm.log_scale + math.log(np.abs(sm.mat).max()) == pytest.approx(
            sup_true, rel=1e-8
        )

    def test_submultiplicativity_in_log_domain(self):
        rng = np.random.default_rng(53)
        rep = sym_power(3)(SCHOTTKY_IMAGES)
        letters = ["a", "A", "b", "B"]
        for _ in range(20):
            word = [letters[k] for k in rng.integers(0, 4, size=8)]
            cut = int(rng.integers(1, 8))
            u, v = word[:cut], word[cut:]
            su = log_singular_values(evaluate(rep, u))
            sv = log_singular_values(evaluate(rep, v))
            sw = log_singular_values(evaluate(rep, word))
            for k in range(3):
                assert sw[k] <= su[k] + sv[0] + 1e-9
                assert sw[k] >= su[k] + sv[-1] - 1e-9

    def test_unknown_letter(self):
        with pytest.raises(InvalidInput):
            evaluate(self.rep(), ["z"])


class TestRepresentationChecks:
    def test_singular_image_rejected(self):
        with pytest.raises(InvalidInput):
            Representation(2, "A", {"a": np.zeros((2, 2))}, "bad")

    def test_non_finite_image_rejected(self):
        # a 2x2 table whose determinant rounds to 0 normalizes to inf;
        # walks multiply plain products, so the table must be refused here
        b = np.full((2, 2), 3.6e86)
        assert np.linalg.det(b) == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(InvalidInput, match="not finite"):
                sym_power(3)({"a": np.eye(2), "b": b})
            with pytest.raises(InvalidInput, match="not finite"):
                Representation(2, "A", {"a": np.array([[np.inf, 0.0], [0.0, 1.0]])},
                               "bad")

    def test_symplectic_violation_rejected(self):
        with pytest.raises(InvalidInput):
            Representation(4, "C", {"a": np.diag([2.0, 1.0, 1.0, 0.5])}, "bad")

    def test_custom_rep_is_flagged(self):
        rep = custom_rep({"a": np.array([[1.0, 3.0], [0.0, 1.0]])}, 2)
        assert not rep.verified
        assert "unverified representation" in rep.label

    def test_determinant_normalized(self):
        rep = custom_rep({"a": 5.0 * np.eye(2)}, 2)
        assert abs(np.linalg.det(rep.image("a"))) == pytest.approx(1.0, abs=1e-12)
