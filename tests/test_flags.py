"""Flags, the chordal metric, limit curves, and tuple positivity.

The rational normal curve gives a fully explicit positive limit map, so
its osculating flags serve as the oracle for every positivity
convention: all transverse triples on the curve are positive, and a
quadruple is positive exactly when its parameters are in cyclic order.
"""

import collections.abc
import csv
import functools
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from flagtools import attracting_flag, dual, listed_sample, transverse, veronese_flag
from positivitytools import ChartOracle, _eliminate, _lu, _sign_masks
from scipy.linalg import solve_triangular

from orbitlab import flags as flags_module
from orbitlab import words as words_module
from orbitlab.doubling import hyperbolic_with_axis, separated_schottky
from orbitlab.errors import (
    InvalidInput,
    NotPositive,
    NotTransverse,
    SpectrumNotLoxodromic,
)
from orbitlab.flags import (
    TRANSVERSE_TOL,
    Flag,
    GrassPoint,
    _FlagSet,
    _loxodromic_frames,
    _limit_stack,
    _orthonormalize,
    _projectors,
    _views,
    flag_distance,
    limit_curve,
    limit_flags,
    polygonal_length,
    quadruple_positive,
    triple_positive,
    write_curve_csv,
)
from orbitlab.reps import _word_product, custom_rep, sym_power, sym_power_matrix
from orbitlab.tpos import Unitriangular, _cone_params, f_gamma, factorize, standard_word
from orbitlab.words import (
    _limit_rows,
    _rep_tables,
    free_schottky,
    limit_sample_words,
    modular_group,
    standard_schottky,
)


def rot(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def line(theta):
    return GrassPoint([[math.cos(theta)], [math.sin(theta)]])


# ------------------------------------------------------------- carriers


def test_flag_canonical_form_is_unique():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(4, 4))
    f = Flag(b)
    # multiplying on the right by unitriangular-with-positive-diagonal
    # matrices moves the basis but not the flag
    t = np.triu(rng.normal(size=(4, 4)))
    np.fill_diagonal(t, rng.uniform(0.5, 2.0, size=4))
    g = Flag(b @ t)
    assert np.allclose(f.basis, g.basis)
    assert np.allclose(f.basis.T @ f.basis, np.eye(4), atol=1e-12)


def test_bases_are_read_only():
    # a basis is never written in place, so a set's tables stay true to
    # the stack its flags view
    f = Flag(np.random.default_rng(2).normal(size=(3, 3)))
    group = standard_schottky()
    rep = sym_power(3)(group.generator_matrices())
    _, limit = limit_flags(rep, group, 2)[0]
    _, plane = limit_curve(rep, group, 2, 2)[0]
    for basis in (f.basis, f.piece(2).basis, GrassPoint(np.eye(3)[:, :2]).basis,
                  limit.basis, limit.piece(1).basis, plane.basis):
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0


def test_flag_rejects_singular_basis():
    b = np.eye(3)
    b[:, 2] = b[:, 0] + b[:, 1]
    with pytest.raises(InvalidInput):
        Flag(b)
    with pytest.raises(InvalidInput):
        Flag(np.zeros((3, 3)))


def test_flag_pieces_and_bounds():
    f = Flag(np.eye(3))
    assert f.piece(1).k == 1
    assert f.piece(2).k == 2
    with pytest.raises(InvalidInput):
        f.piece(0)
    with pytest.raises(InvalidInput):
        f.piece(3)


def test_grass_point_orthonormalized():
    p = GrassPoint([[3.0, 1.0], [0.0, 2.0], [4.0, 0.0]])
    assert p.k == 2
    assert np.allclose(p.basis.T @ p.basis, np.eye(2), atol=1e-12)
    with pytest.raises(InvalidInput):
        GrassPoint([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])


def test_dual_flag_reverses_pieces():
    rng = np.random.default_rng(3)
    f = Flag(rng.normal(size=(4, 4)))
    d = dual(f)
    # the dual's k-piece is the orthogonal complement of the (4-k)-piece
    for k in (1, 2, 3):
        inner = d.piece(k).basis.T @ f.piece(4 - k).basis
        assert np.allclose(inner, 0.0, atol=1e-12)


# ----------------------------------------------------------- the metric


def test_distance_zero_on_equal_points():
    p = line(0.3)
    assert flag_distance(p, p) == 0.0


def test_orthogonal_lines_at_distance_one():
    assert flag_distance(line(0.0), line(math.pi / 2)) == pytest.approx(1.0)


def test_line_rotation_is_abs_sine():
    for theta in np.linspace(0.0, math.pi / 2, 10):
        assert flag_distance(line(0.0), line(theta)) == pytest.approx(
            abs(math.sin(theta)), abs=1e-12
        )
    ds = [flag_distance(line(0.0), line(t)) for t in np.linspace(0, math.pi / 2, 8)]
    assert all(a < b + 1e-15 for a, b in zip(ds, ds[1:]))


def test_distance_is_metric_on_samples():
    rng = np.random.default_rng(5)
    pts = [GrassPoint(rng.normal(size=(4, 2))) for _ in range(6)]
    for a in pts:
        for b in pts:
            assert flag_distance(a, b) == pytest.approx(flag_distance(b, a))
            for c in pts:
                assert flag_distance(a, c) <= (
                    flag_distance(a, b) + flag_distance(b, c) + 1e-12
                )


def test_distance_requires_matching_grassmannian():
    with pytest.raises(InvalidInput):
        flag_distance(line(0.0), GrassPoint(np.eye(3)[:, :1]))
    with pytest.raises(InvalidInput):
        flag_distance(GrassPoint(np.eye(3)[:, :1]), GrassPoint(np.eye(3)[:, :2]))


# ------------------------------------------------------ attracting flags


def test_attracting_flag_of_diagonal():
    f = attracting_flag(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(np.abs(f.basis), np.eye(3), atol=1e-12)


def test_attracting_flag_of_sym_power_boost():
    m = sym_power_matrix(np.diag([math.e, 1.0 / math.e]), 3)
    f = attracting_flag(m)
    assert np.allclose(np.abs(f.basis), np.eye(3), atol=1e-12)


def test_attracting_flag_equivariance():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(3, 3))
    while abs(np.linalg.det(g)) < 0.3:
        g = rng.normal(size=(3, 3))
    m = g @ np.diag([3.0, 2.0, 1.0]) @ np.linalg.inv(g)
    f = attracting_flag(m)
    expect = Flag(g)
    for k in (1, 2):
        assert flag_distance(f.piece(k), expect.piece(k)) < 1e-8


def test_attracting_flag_rejections():
    with pytest.raises(SpectrumNotLoxodromic):
        attracting_flag(rot(0.4))  # complex pair
    with pytest.raises(SpectrumNotLoxodromic):
        attracting_flag(np.diag([2.0, -2.0, 1.0]))  # tied moduli
    with pytest.raises(SpectrumNotLoxodromic):
        attracting_flag(np.diag([3.0, 3.0 * (1 - 1e-9), 1.0]))  # tiny gap



# ------------------------------------------------------------ positivity


VER = {t: veronese_flag(t, 3) for t in (-2.0, -1.0, 0.0, 1.0, 2.0)}


def test_veronese_triples_positive_in_any_order():
    import itertools

    for p in itertools.permutations((-1.0, 0.0, 1.0)):
        assert triple_positive(VER[p[0]], VER[p[1]], VER[p[2]])


def test_triple_requires_transversality():
    f = VER[0.0]
    with pytest.raises(NotTransverse):
        triple_positive(f, f, VER[1.0])


def test_triple_positive_matches_direct_minor_signs():
    # in dimension 3 the positive unitriangulars are cut out by four
    # inequalities; compare triple_positive against that description of
    # the middle flag's unit in the chart of the outer two
    rng = np.random.default_rng(13)

    def d3_minors_positive(u):
        for signs in ([1, 1, 1], [1, -1, 1], [1, 1, -1], [1, -1, -1]):
            s = np.diag(signs)
            m = s @ u @ s
            if (
                m[0, 1] > 0
                and m[1, 2] > 0
                and m[0, 2] > 0
                and m[0, 1] * m[1, 2] - m[0, 2] > 0
            ):
                return True
        return False

    for _ in range(50):
        ts = np.sort(rng.uniform(-3.0, 3.0, size=3))
        if ts[1] - ts[0] < 0.1 or ts[2] - ts[1] < 0.1:
            continue
        trio = [veronese_flag(t, 3) for t in ts]
        rng.shuffle(trio)
        g = np.linalg.inv(oracle_chart(trio[0], trio[2]))
        u = oracle_eliminate(g @ trio[1].basis)
        assert triple_positive(*trio) == d3_minors_positive(u.mat)


def test_quadruple_positive_iff_cyclic():
    assert quadruple_positive(VER[-2.0], VER[-1.0], VER[1.0], VER[2.0])
    # dihedral images of a cyclic arrangement stay positive
    assert quadruple_positive(VER[2.0], VER[1.0], VER[-1.0], VER[-2.0])
    assert quadruple_positive(VER[-1.0], VER[1.0], VER[2.0], VER[-2.0])
    assert quadruple_positive(VER[1.0], VER[2.0], VER[-2.0], VER[-1.0])
    # interleaved orders are not positive
    assert not quadruple_positive(VER[-2.0], VER[1.0], VER[-1.0], VER[2.0])
    assert not quadruple_positive(VER[-1.0], VER[2.0], VER[1.0], VER[-2.0])


def test_quadruple_rejects_repeats():
    with pytest.raises(NotTransverse):
        quadruple_positive(VER[-1.0], VER[0.0], VER[1.0], VER[0.0])


def test_positivity_invariant_under_group_action():
    rng = np.random.default_rng(17)
    quad = (VER[-2.0], VER[-1.0], VER[1.0], VER[2.0])
    bad = (VER[-2.0], VER[1.0], VER[-1.0], VER[2.0])
    for _ in range(10):
        g = rng.normal(size=(3, 3))
        if abs(np.linalg.det(g)) < 0.2:
            continue
        moved = tuple(Flag(g @ f.basis) for f in quad)
        assert quadruple_positive(*moved)
        moved_bad = tuple(Flag(g @ f.basis) for f in bad)
        assert not quadruple_positive(*moved_bad)


def test_positivity_invariant_under_duality():
    quad = (VER[-2.0], VER[-1.0], VER[1.0], VER[2.0])
    assert quadruple_positive(*(dual(f) for f in quad))
    bad = (VER[-2.0], VER[1.0], VER[-1.0], VER[2.0])
    assert not quadruple_positive(*(dual(f) for f in bad))


def test_subtriples_of_positive_quadruple():
    quad = (VER[-2.0], VER[-1.0], VER[1.0], VER[2.0])
    import itertools

    for trio in itertools.combinations(quad, 3):
        assert triple_positive(*trio)


def test_positivity_in_dimension_two():
    # lines in the plane: every transverse pair extends, triples reduce
    # to distinctness
    a = veronese_flag(-1.0, 2)
    b = veronese_flag(0.0, 2)
    c = veronese_flag(1.0, 2)
    assert triple_positive(a, b, c)
    assert quadruple_positive(a, b, c, veronese_flag(2.0, 2))


def test_positivity_dimension_four_veronese():
    f = {t: veronese_flag(t, 4) for t in (-2.0, -1.0, 0.0, 1.0, 2.0)}
    assert triple_positive(f[-1.0], f[0.0], f[1.0])
    assert quadruple_positive(f[-2.0], f[-1.0], f[1.0], f[2.0])
    assert not quadruple_positive(f[-2.0], f[1.0], f[-1.0], f[2.0])


def scan_positive(units):
    """The scan the single candidate replaced: factorize the units,
    nested rows, under every conjugation by diag(1, +-1, ..., +-1)."""
    d = len(units[0])
    for bits in range(2 ** (d - 1)):
        signs = np.array([1.0] + [-1.0 if bits >> (i - 1) & 1 else 1.0
                                  for i in range(1, d)])
        try:
            for u in units:
                factorize(Unitriangular(np.array(u) * np.outer(signs, signs)))
        except NotPositive:
            continue
        return True
    return False


def own_mask(u):
    """_sign_masks of one unit, nested rows."""
    return int(_sign_masks(np.array(u, dtype=float)[np.newaxis])[0])


def positive_under(mask, u):
    """Whether u, nested rows, passes _cone_params conjugated by diag(s),
    s_k = -1 where bit k of mask is set."""
    signs = np.array([-1.0 if mask >> k & 1 else 1.0 for k in range(len(u))])
    return _cone_params((np.array(u) * np.outer(signs, signs))[np.newaxis])[1][0] == 0


def one_candidate(units):
    """The single candidate's decision on units, nested rows: the first
    unit's sign mask, then every unit conjugated by its signs."""
    mask = own_mask(units[0])
    return mask >= 0 and all(positive_under(mask, u) for u in units)


def test_one_sign_candidate_matches_the_scan():
    rng = np.random.default_rng(29)
    cases = []
    for d in (3, 4, 5):
        for group, depth in ((standard_schottky(), 2), (modular_group(), 5),
                             (separated_schottky(2.0), 2)):
            rep = sym_power(d)(group.generator_matrices())
            flags = [f for _, f in limit_flags(rep, group, depth)]
            for size in (3, 4):
                for _ in range(40):
                    idx = rng.choice(len(flags), size=size, replace=False)
                    cases.append([flags[i] for i in sorted(idx)])
        for _ in range(100):
            cases.append([Flag(rng.normal(size=(d, d))) for _ in range(4)])
    hits = 0
    for flags in cases:
        try:
            units = oracle_units(*flags)
        except NotTransverse:
            continue
        got = one_candidate(units)
        assert got == scan_positive(units)
        hits += got
    # both answers occur, so agreement is not vacuous
    assert 0 < hits < len(cases)


def test_one_sign_candidate_in_dimension_nine():
    rng = np.random.default_rng(31)
    word = standard_word(9)
    for trial in range(3):
        signs = np.concatenate([[1.0], rng.choice([-1.0, 1.0], size=8)])
        flip = np.outer(signs, signs)
        params = rng.uniform(0.2, 2.0, size=len(word))
        u = f_gamma(word, params).mat * flip
        other = rng.uniform(0.2, 2.0, size=len(word))
        v = f_gamma(word, other).mat * flip
        units = [u.tolist(), v.tolist()]
        assert one_candidate(units) and scan_positive(units)
        params[rng.integers(len(word))] = -0.5
        w = [(f_gamma(word, params).mat * flip).tolist()]
        assert one_candidate(w) == scan_positive(w)


def test_only_the_own_sign_mask_can_pass():
    # the chart kernel's quadruple positivity compares the two units' own
    # masks, which is exact because _cone_params fails every other
    # conjugation
    rng = np.random.default_rng(53)
    seen = set()
    for d in (2, 3, 4, 5):
        word = standard_word(d)
        for trial in range(90):
            params = rng.uniform(0.01, 3.0, size=len(word))
            if trial % 3 == 1:
                params[rng.integers(len(word))] = rng.choice([2e-10, 1e-10, 1e-30, -1e-30])
            u = f_gamma(word, params).mat
            if trial % 3 == 2:
                u = np.triu(rng.normal(size=(d, d)), 1) + np.eye(d)
            if trial % 2:
                u = np.triu(solve_triangular(u, np.eye(d), unit_diagonal=True))
                np.fill_diagonal(u, 1.0)
            signs = np.concatenate([[1.0], rng.choice([-1.0, 1.0], size=d - 1)])
            rows = (u * np.outer(signs, signs)).tolist()
            own = own_mask(rows)
            passing = [m for m in range(0, 2 ** d, 2) if positive_under(m, rows)]
            assert passing == ([own] if own >= 0 else [])
            seen.add(own >= 0)
    assert seen == {True, False}


# --------------------- the per-pair, per-k, per-column route as the oracle


def oracle_transverse(f, g):
    """One determinant per complementary pair of pieces."""
    d = f.d
    for k in range(1, d):
        minor = np.linalg.det(np.hstack([f.basis[:, :k], g.basis[:, : d - k]]))
        if abs(minor) <= TRANSVERSE_TOL:
            return False
    return True


def oracle_chart(f1, f3):
    """One SVD per chart column."""
    d = f1.d
    cols = np.empty((d, d))
    for k in range(1, d + 1):
        stack = np.hstack([f1.basis[:, :k], -f3.basis[:, : d - k + 1]])
        _, _, vt = np.linalg.svd(stack)
        v = f1.basis[:, :k] @ vt[-1][:k]
        norm = np.linalg.norm(v)
        if norm <= 1e-12:
            raise NotTransverse("flags share a proper piece, no chart exists")
        cols[:, k - 1] = v / norm
    return cols


def oracle_eliminate(basis):
    """One flag's elimination, a column at a time."""
    d = basis.shape[0]
    done = np.zeros((d, d))
    for k in range(d):
        v = basis[:, k].copy()
        for j in range(k):
            v -= v[d - 1 - j] * done[:, j]
        pivot = v[d - 1 - k]
        if abs(pivot) <= TRANSVERSE_TOL * max(1.0, np.max(np.abs(v))):
            raise NotTransverse("flag is not transverse to the chart's third flag")
        done[:, k] = v / pivot
    u = np.triu(done[:, ::-1])
    np.fill_diagonal(u, 1.0)
    return Unitriangular(u)


def oracle_unit(g, f, position):
    """The unit of f in the chart whose inverse is g, nested rows, by one
    elimination; at position 4, its inverse by scipy's triangular inverse."""
    w = oracle_eliminate(g @ f.basis)
    if position == 4:
        inv = np.triu(solve_triangular(w.mat, np.eye(w.dim), unit_diagonal=True))
        np.fill_diagonal(inv, 1.0)
        return inv.tolist()
    return w.mat.tolist()


def oracle_units(*flags):
    """The second flag's unit and the inverse of the fourth's, nested
    rows, in the per-column chart of the first and third."""
    g = np.linalg.inv(oracle_chart(flags[0], flags[2]))
    return [oracle_unit(g, flags[k], k + 1) for k in range(1, len(flags), 2)]


class IndexedOracle:
    """triple_positive or quadruple_positive by the per-pair minors, the
    per-column chart and oracle_unit, on indices into one list of flags.
    Each pair's minors, each chart, each (f1, f3, middle flag, position)
    unit and its sign decisions are computed once per oracle."""

    def __init__(self, flags):
        cache = functools.lru_cache(maxsize=None)
        self.transverse = cache(lambda i, j: oracle_transverse(flags[i], flags[j]))
        self.chart = cache(lambda i, k: np.linalg.inv(oracle_chart(flags[i], flags[k])))
        self.unit = cache(lambda i, k, m, position: oracle_unit(self.chart(i, k), flags[m], position))
        self.mask = cache(lambda *key: own_mask(self.unit(*key)))
        self.under = cache(lambda mask, *key: positive_under(mask, self.unit(*key)))

    def __call__(self, *idx):
        for p, q in itertools.combinations(range(len(idx)), 2):
            if not self.transverse(idx[p], idx[q]):
                raise NotTransverse("flags %d and %d are not transverse" % (p + 1, q + 1))
        keys = [(idx[0], idx[2], idx[k], k + 1) for k in range(1, len(idx), 2)]
        for key in keys:
            self.unit(*key)
        mask = self.mask(*keys[0])
        return mask >= 0 and all(self.under(mask, *key) for key in keys)


def oracle_positive(*flags):
    """The oracle on one tuple of flags."""
    return IndexedOracle(flags)(*range(len(flags)))


def stacked_positive(*flags):
    return (triple_positive if len(flags) == 3 else quadruple_positive)(*flags)


def decision(route, flags):
    """True, False, or the NotTransverse message."""
    try:
        return route(*flags)
    except NotTransverse as exc:
        return "NotTransverse: %s" % exc


def criterion_11_calls(flags, rng):
    """The tuples criterion 11 tests, in its order: every triple, every
    quadruple with its rotations and reversal, then 100 random
    quadruples with theirs."""
    def dihedral(tup):
        return [tup] + [tup[r:] + tup[:r] for r in range(1, 4)] + [tup[::-1]]

    n = len(flags)
    calls = [tuple(flags[i] for i in trio) for trio in itertools.combinations(range(n), 3)]
    for quad in itertools.combinations(range(n), 4):
        calls += dihedral(tuple(flags[i] for i in quad))
    for _ in range(100):
        calls += dihedral(tuple(flags[i] for i in rng.permutation(n)[:4]))
    return calls


def criterion_11_flags():
    """Both groups' depth-2 sym3 limit flags, as criterion 11 samples them."""
    for group in (standard_schottky(), separated_schottky(2.0)):
        rep = sym_power(3)(group.generator_matrices(), label="sym3")
        yield [f for _, f in limit_flags(rep, group, 2)]


@functools.lru_cache(maxsize=None)
def criterion_11_oracles():
    """One IndexedOracle per group, on flags of its own."""
    return [IndexedOracle(flags) for flags in criterion_11_flags()]


@functools.lru_cache(maxsize=None)
def criterion_11_decisions(seed):
    """Per group, the criterion-11 calls of stream seed as index tuples,
    one stream for both groups as the criterion draws them, with the
    oracle's decisions; computed once for the tests that read them."""
    rng = np.random.default_rng(seed)
    out = []
    for flags, oracle in zip(criterion_11_flags(), criterion_11_oracles()):
        calls = criterion_11_calls(range(len(flags)), rng)
        out.append((calls, [decision(oracle, idx) for idx in calls]))
    return out


def test_stacked_positivity_matches_the_oracle_on_criterion_11():
    for flags, (calls, want) in zip(criterion_11_flags(), criterion_11_decisions(111)):
        assert len(calls) == 3195
        got = [decision(stacked_positive, [flags[i] for i in idx]) for idx in calls]
        assert got == want
        assert True in got and False in got


def gaussian_quadruples(rng, d, count):
    """Gaussian flag quadruples. Of every four, the second repeats a flag,
    the third has a flag whose line lies in another's hyperplane, and the
    fourth is a Gaussian matrix applied to Veronese flags in cyclic
    order, which is positive."""
    for trial in range(count):
        quad = [Flag(rng.normal(size=(d, d))) for _ in range(4)]
        i, j = rng.choice(4, size=2, replace=False)
        if trial % 4 == 1:
            quad[j] = quad[i]
        elif trial % 4 == 2:
            basis = rng.normal(size=(d, d))
            basis[:, 0] = quad[i].basis[:, : d - 1] @ rng.normal(size=d - 1)
            quad[j] = Flag(basis)
        elif trial % 4 == 3:
            g = rng.normal(size=(d, d))
            quad = [Flag(g @ veronese_flag(t, d).basis)
                    for t in np.sort(rng.uniform(-3.0, 3.0, size=4))]
        yield quad


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacked_positivity_matches_the_oracle_on_gaussian_flags(d):
    rng = np.random.default_rng(37 + d)
    seen = []
    for quad in gaussian_quadruples(rng, d, 100):
        for tup in (quad, quad[:3]):
            got = decision(stacked_positive, tup)
            assert got == decision(oracle_positive, tup)
            seen.append(got)
    # positive, not positive and each raising pair all occur
    assert True in seen and False in seen
    raised = {text for text in seen if isinstance(text, str)}
    assert len(raised) >= 4 and all("are not transverse" in text for text in raised)


def test_a_vanishing_triple_determinant_is_not_positive():
    # the pairs are transverse, but D(1, 1, 1) = det[e1 | e1 + e3 | e3]
    # vanishes: no triple or quadruple through it is positive, and none
    # is refused
    a, c = Flag(np.eye(3)), Flag(np.eye(3)[:, ::-1])
    b = Flag([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    d = Flag([[1.0, -1.0, 0.0], [0.3, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert all(transverse(f, g) for f, g in itertools.combinations((a, b, c, d), 2))
    assert np.linalg.det(np.stack([a.basis[:, 0], b.basis[:, 0], c.basis[:, 0]], 1)) == 0.0
    for trio in ((a, b, c), (c, b, a), (b, a, c)):
        assert triple_positive(*trio) is False
    assert quadruple_positive(a, b, c, d) is False


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_triple_positivity_does_not_depend_on_the_order(d):
    # a quadruple (A, B, C, D) reads its triple (A, C, D) as (A, D, C),
    # so a triple has one answer in all six orders; in the plane every
    # triple of distinct lines is positive
    rng = np.random.default_rng(71 + d)
    seen = set()
    for quad in gaussian_quadruples(rng, d, 60):
        for trio in itertools.combinations(quad, 3):
            got = {decision(triple_positive, order) for order in itertools.permutations(trio)}
            got = {x if isinstance(x, bool) else "raised" for x in got}
            assert len(got) == 1
            seen |= got
    assert True in seen and (False in seen) is (d > 2)


def test_stacked_elimination_raises_on_a_zero_pivot():
    # the reversal eliminates to the identity; the identity's rows
    # reversed have a zero leading pivot, which fails the elimination,
    # and a flag's Gram matrix with itself is the identity, which fails
    # the pair check
    with np.errstate(all="ignore"):
        units, failed = _eliminate(np.array([np.eye(3)[::-1], np.eye(3)]))
    assert units[0].tolist() == np.eye(3).tolist() and failed.tolist() == [False, True]
    fs = _FlagSet(np.array([np.eye(3), np.eye(3)[:, ::-1]]))
    fs.ask([0, 1])
    assert fs.bad == {(0, 0), (1, 1)}
    rng = np.random.default_rng(41)
    for d in (2, 3, 6):
        x = rng.normal(size=(d, d))
        want = oracle_eliminate(x).mat
        units, failed = _eliminate(x[np.newaxis])
        assert not failed[0]
        assert np.abs(units[0] - want).max() <= 1e-12 * np.abs(want).max()


def lu_minors_against_dets(flags):
    """Largest gap between the LU transversality minors of each pair of
    flags and oracle_transverse's determinants, in absolute value; the
    minors up to the first at or below TRANSVERSE_TOL, the ones a
    decision reads."""
    d = flags[0].d
    worst = 0.0
    for f, g in itertools.combinations(flags, 2):
        with np.errstate(all="ignore"):
            lu = _lu((g.basis.T @ f.basis)[np.newaxis, ::-1])[0]
        for k, minor in enumerate(np.cumprod(np.diagonal(lu)[:-1]), 1):
            det = np.linalg.det(np.hstack([f.basis[:, :k], g.basis[:, : d - k]]))
            worst = max(worst, abs(abs(minor) - abs(det)))
            if abs(minor) <= TRANSVERSE_TOL:
                break
    return worst


def test_lu_minors_match_the_oracle_determinants():
    for group in (standard_schottky(), separated_schottky(2.0)):
        rep = sym_power(3)(group.generator_matrices(), label="sym3")
        assert lu_minors_against_dets([f for _, f in limit_flags(rep, group, 2)]) <= 1e-12
    for d in (2, 3, 4, 5, 6):
        rng = np.random.default_rng(43 + d)
        for quad in gaussian_quadruples(rng, d, 40):
            assert lu_minors_against_dets(quad) <= 1e-12


def test_warm_memo_cold_memo_and_oracle_decide_alike(monkeypatch):
    for flags, (calls, want) in zip(criterion_11_flags(), criterion_11_decisions(113)):
        tuples = [[flags[i] for i in idx] for idx in calls]
        # the first pass fills the set's tables as it goes, the second
        # reads them, and fresh copies share no set
        first = [decision(stacked_positive, tup) for tup in tuples]
        warm = [decision(stacked_positive, tup) for tup in tuples]
        cold = [decision(stacked_positive, [Flag(f.basis) for f in tup]) for tup in tuples]
        assert first == warm == cold == want
        assert True in warm and False in warm
        # the first call stores the failing pair's verdict, the second reads it
        a, b, c = flags[:3]
        for tup in ((a, b, a), (a, b, c, b), (a, a, b, c)):
            want = decision(oracle_positive, tup)
            assert want.startswith("NotTransverse: flags")
            assert decision(stacked_positive, tup) == want
            assert decision(stacked_positive, tup) == want
    fresh = [veronese_flag(t, 3) for t in (-1.0, 0.0, 1.0)] + [veronese_flag(2.0, 4)]

    def no_set(bases):
        raise AssertionError("a flag set was made")

    monkeypatch.setattr(flags_module, "_FlagSet", no_set)
    with pytest.raises(InvalidInput):
        quadruple_positive(*fresh)
    with pytest.raises(InvalidInput):
        transverse(fresh[0], fresh[3])


def test_memo_bounds_the_determinant_kernels(monkeypatch):
    kernels, formed = [], []
    ask, minors = flags_module._FlagSet.ask, flags_module._minors

    def counted_ask(fs, new):
        old = len(fs.asked)
        ask(fs, new)
        kernels.append((old, len(fs.asked)))

    def counted_minors(bases, members, columns):
        if len(members) == 3:
            formed.append(len(members[0]))
        return minors(bases, members, columns)

    monkeypatch.setattr(flags_module._FlagSet, "ask", counted_ask)
    monkeypatch.setattr(flags_module, "_minors", counted_minors)
    flags = next(criterion_11_flags())
    assert len(flags) == 12
    growths = 0
    for tup in criterion_11_calls(flags, np.random.default_rng(111)):
        growths += any(f._index not in flags[0]._set.asked for f in tup)
        stacked_positive(*tup)
    # one kernel per tuple that brings members not asked about before
    olds, sizes = zip(*kernels)
    assert len(kernels) == growths <= 12 and olds == (0,) + sizes[:-1] and sizes[-1] == 12
    # each triple formed once: the kernels form as many triples as the
    # table holds, all distinct keys
    assert sum(formed) == len(flags[0]._set.triples) == 12 * 11 * 10


def test_memo_goes_with_the_flags():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        flags = next(criterion_11_flags())
        built = tracemalloc.get_traced_memory()[0]
        for tup in criterion_11_calls(flags, np.random.default_rng(111)):
            stacked_positive(*tup)
        tables = tracemalloc.get_traced_memory()[0] - built
        assert len(flags[0]._set.triples) == 12 * 11 * 10
        del flags, tup
        # no reference cycle: the drop alone freed the set and its tables
        assert gc.collect() == 0
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tables > 50_000 and left < 0.05 * tables


def mixed_set_tuples():
    """The limit flags of one set and the 400 tuples drawn from them,
    their moved copies, as in the doubling pool, and fresh copies of
    eight of them: every fourth tuple from the set alone, every fifth
    with a repeat."""
    group = separated_schottky(2.0)
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    base = [f for _, f in limit_flags(rep, group, 3)]
    big = sym_power_matrix(group.image("a").mat, 3)
    pool = base + [Flag(big @ f.basis) for f in base] + [Flag(f.basis) for f in base[:8]]
    rng = np.random.default_rng(61)
    tuples = []
    for trial in range(400):
        picks = rng.choice(len(base) if trial % 4 == 0 else len(pool), size=3 + trial % 2,
                           replace=False)
        tup = [pool[i] for i in (picks if trial % 3 else np.sort(picks))]
        if trial % 5 == 0:
            tup[-1] = tup[rng.integers(len(tup) - 1)]
        tuples.append(tup)
    return base, tuples


def test_mixed_set_tuples_decide_as_the_oracle():
    # limit flags beside moved copies, as in the doubling pool, and
    # repeated flags: a tuple of one set reads its tables, any other
    # takes a throwaway set, and both decide as the oracle does
    base, tuples = mixed_set_tuples()
    seen = []
    for tup in tuples:
        got = decision(stacked_positive, tup)
        assert got == decision(oracle_positive, tup)
        seen.append((got, all(f._set is base[0]._set for f in tup)))
    # both routes give True, False and NotTransverse
    for shared in (True, False):
        got = {x if isinstance(x, bool) else "raised" for x, s in seen if s is shared}
        assert got == {True, False, "raised"}


def count_pair_checks(monkeypatch):
    """The list to which each _require_transverse call from now on
    appends its tuple's length."""
    calls, real = [], flags_module._require_transverse

    def counted(flags):
        calls.append(len(flags))
        return real(flags)

    monkeypatch.setattr(flags_module, "_require_transverse", counted)
    return calls


def take_the_pair_check(monkeypatch):
    """Send every tuple down _require_transverse's route: the lookup
    route reads only sets whose type is _FlagSet itself, and from now on
    the existing sets are of another type than flags._FlagSet."""
    monkeypatch.setattr(flags_module, "_FlagSet", type("Sub", (_FlagSet,), {"__slots__": ()}))


def test_lookup_route_decides_as_the_pair_check(monkeypatch):
    calls = count_pair_checks(monkeypatch)
    rng = np.random.default_rng(111)
    tuples = [tup for flags in criterion_11_flags() for tup in criterion_11_calls(flags, rng)]
    tuples += mixed_set_tuples()[1]
    # the first pass fills the tables, the second reads them, the third
    # takes _require_transverse for every tuple
    cold = [decision(stacked_positive, tup) for tup in tuples]
    del calls[:]
    warm = [decision(stacked_positive, tup) for tup in tuples]
    checked_warm = len(calls)
    take_the_pair_check(monkeypatch)
    del calls[:]
    checked = [decision(stacked_positive, tup) for tup in tuples]
    assert len(calls) == len(tuples)
    assert cold == warm == checked
    # criterion 11's tuples, of one set and no two flags alike, are
    # looked up; the mixed pool's repeats and mixed sets are checked
    assert 0 < checked_warm <= len(tuples) - 2 * 3195
    assert True in warm and False in warm and any(isinstance(x, str) for x in warm)


def test_warm_tuples_make_no_kernel_or_pair_check_call(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a warm tuple left the lookup route")

    rng = np.random.default_rng(113)
    for flags in criterion_11_flags():
        tuples = criterion_11_calls(flags, rng)
        want = [decision(stacked_positive, tup) for tup in tuples]
        with monkeypatch.context() as patch:
            patch.setattr(flags_module._FlagSet, "ask", forbidden)
            patch.setattr(flags_module, "_require_transverse", forbidden)
            assert [decision(stacked_positive, tup) for tup in tuples] == want
        assert True in want and False in want


def test_repeats_and_bad_pairs_in_every_place_take_the_pair_check(monkeypatch):
    # a set of Veronese flags, pairwise transverse, and a flag whose line
    # lies in the first one's hyperplane; each pair of places of a triple
    # and of a quadruple holds that bad pair, in both orders, or a repeat
    calls = count_pair_checks(monkeypatch)
    rng = np.random.default_rng(71)
    for d in (3, 4):
        veronese = [veronese_flag(t, d).basis for t in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        stray = rng.normal(size=(d, d))
        stray[:, 0] = veronese[0][:, :d - 1] @ rng.normal(size=d - 1)
        stack = _orthonormalize(np.array(veronese + [stray]), "flag")
        flags = _views(Flag, stack, _FlagSet(stack))
        oracle = IndexedOracle(flags)
        for size in (3, 4):
            for p, q in itertools.combinations(range(size), 2):
                for a, b in ((0, 5), (5, 0), (1, 1)):
                    rest = iter(n for n in range(1, 5) if n not in (a, b))
                    idx = [a if n == p else b if n == q else next(rest) for n in range(size)]
                    want = "NotTransverse: flags %d and %d are not transverse" % (p + 1, q + 1)
                    assert decision(oracle, idx) == want
                    # the first call may ask new members, the second finds them asked
                    tup = [flags[i] for i in idx]
                    del calls[:]
                    assert [decision(stacked_positive, tup) for _ in range(2)] == [want, want]
                    assert calls == [size, size]


def benchmark_group(name, seed):
    """standard_schottky, separated_schottky(2.0) or the modular group with
    the parameters the ball-and-geometry benchmark draws at a seed: seed 0
    keeps them, any other moves the Schottky translation lengths and axis
    angle by a uniform draw, in the benchmark's order."""
    rng = None if seed == 0 else np.random.default_rng(seed)

    def jitter(center, half_width):
        return center if rng is None else center + float(rng.uniform(-half_width, half_width))

    length, angle = jitter(4.0, 0.2), jitter(0.5 * math.pi, 0.1)
    a, b = jitter(2.0, 0.05), jitter(2.0, 0.05)
    if name == "schottky":
        return standard_schottky(length, angle)
    if name == "separated":
        return free_schottky([hyperbolic_with_axis(0.0, 0.5 * math.pi, a),
                              hyperbolic_with_axis(math.pi, 1.5 * math.pi, b)])
    return modular_group()


@pytest.mark.parametrize("name, depth", [
    ("schottky", 2), ("schottky", 3), ("separated", 2), ("separated", 3),
    ("modular", 4), ("modular", 5),
])
def test_positivity_decisions_match_the_oracle_on_limit_streams(name, depth):
    # the first 14 limit flags of a group, one set's tables filled as the
    # stream asks: every ordered triple, then random quadruples, one in
    # five drawn with repeats, and tuples that repeat a flag; the chart
    # kernel's tables decide the same calls
    oracles = {}
    for seed in range(3):
        group = benchmark_group(name, seed)
        rep = sym_power(3)(group.generator_matrices(), label="sym3")
        flags = [f for _, f in limit_flags(rep, group, depth)][:14]
        key = tuple(f.basis.tobytes() for f in flags)
        oracle = oracles.setdefault(key, ChartOracle(flags))
        n = len(flags)
        rng = np.random.default_rng([seed, depth, 59])
        calls = list(itertools.permutations(range(n), 3))
        calls += [tuple(rng.choice(n, size=4, replace=trial % 5 == 0).tolist())
                  for trial in range(3000)]
        a, b, c = rng.permutation(n)[:3].tolist()
        calls += [(a, b, a), (a, a, b, c), (a, b, c, b), (a, b, c, a), (a, b, b)]
        got = [decision(stacked_positive, [flags[i] for i in idx]) for idx in calls]
        assert got == [decision(oracle, idx) for idx in calls]
        # positive, not positive and a raising tuple all occur
        assert {True, False} <= set(got) and any(isinstance(x, str) for x in got)


def test_one_call_on_a_large_set_keeps_no_square_table():
    group = standard_schottky(4.0)
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    flags = [f for _, f in limit_flags(rep, group, 8)]
    n, d = len(flags), 3
    assert n == 7588
    for picks in ((0, n // 4, n // 2, 3 * n // 4), (0, n // 2, n // 4, 3 * n // 4)):
        quad = [flags[i] for i in picks]
        gc.collect()
        tracemalloc.start()
        try:
            got = decision(stacked_positive, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == decision(oracle_positive, quad)
        # a few (N, d, d) stacks; a table of N^2 booleans alone is 57.6 MB
        assert peak < 24 * n * d * d * 8 < n * n
    assert got is False


# ----------------------------------------------------------- limit maps


@pytest.mark.parametrize("build", [
    pytest.param(standard_schottky, id="schottky"),
    pytest.param(modular_group, id="modular"),
    pytest.param(lambda: separated_schottky(2.0), id="separated"),
])
def test_batched_limit_flags_match_per_frame_flags(build):
    group = build()
    words = [word for _, word in limit_sample_words(group, 5)]
    for d in (3, 4):
        rep = sym_power(d)(group.generator_matrices())
        got = limit_flags(rep, group, 5)
        assert len(got) == len(words) > 20
        for (_, flag), word in zip(got, words):
            product = _word_product(rep.factors[0][1], word, rep.label)
            want = Flag(sym_power_matrix(_loxodromic_frames(product[np.newaxis])[0], d))
            assert np.abs(flag.basis - want.basis).max() <= 1e-12
            for k in range(1, d):
                plane = GrassPoint(flag.basis[:, :k])
                assert np.abs(flag.piece(k).basis - plane.basis).max() <= 1e-12


def test_limit_flags_and_curve_build_no_word(monkeypatch):
    # of the limit-set walk's callers only limit_sample_words reads words
    group = standard_schottky()
    sym3 = sym_power(3)(group.generator_matrices(), label="sym3")
    dense = custom_rep({c: sym_power_matrix(group.image(c).mat, 3)
                        for c in group.alphabet}, 3)

    def no_word(*args):
        raise AssertionError("a Word was built")

    monkeypatch.setattr(words_module, "Word", no_word)
    for rep in (sym3, dense):
        assert len(limit_flags(rep, group, 5)) == len(limit_curve(rep, group, 5, 1)) > 20
    with pytest.raises(AssertionError, match="a Word was built"):
        limit_sample_words(group, 5)


@pytest.mark.parametrize("build", [
    pytest.param(standard_schottky, id="schottky"),
    pytest.param(modular_group, id="modular"),
])
def test_limit_curve_planes_are_flag_pieces(build):
    group = build()
    for d in (3, 4):
        rep = sym_power(d)(group.generator_matrices())
        flags = limit_flags(rep, group, 5)
        for k in range(1, d):
            curve = limit_curve(rep, group, 5, k)
            assert [bp.theta for bp, _ in curve] == [bp.theta for bp, _ in flags]
            got = np.array([plane.basis for _, plane in curve])
            want = np.array([flag.piece(k).basis for _, flag in flags])
            assert got.tobytes() == want.tobytes()
            # the planes view one stack, as the flags share one set
            assert all(plane._set is curve[0][1]._set for _, plane in curve)


def same_pairs(got, want):
    """Whether two lists of (BoundaryPoint, view) pairs hold the same
    angles, view types, indices and basis bytes."""
    def key(pairs):
        return [(bp.theta, type(v), v._index, v.basis.tobytes()) for bp, v in pairs]
    return key(got) == key(want)


@pytest.mark.parametrize("build", [
    pytest.param(standard_schottky, id="schottky"),
    pytest.param(modular_group, id="modular"),
])
def test_limit_samples_read_as_the_listed_samples(build):
    group = build()
    for d in (3, 4):
        rep = sym_power(d)(group.generator_matrices())
        for k in (None, *range(1, d)):
            got = limit_flags(rep, group, 5) if k is None else limit_curve(rep, group, 5, k)
            want = listed_sample(rep, group, 5, k)
            n = len(got)
            assert n == len(want) > 20
            assert isinstance(got, collections.abc.Sequence)
            assert same_pairs(list(got), want) and same_pairs(list(got), want)
            assert same_pairs([got[i] for i in range(n)], want)
            assert same_pairs([got[i] for i in range(-n, 0)], want)
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    got[i]
            for cut in (slice(3, 11), slice(None, None, -3), slice(-5, None), slice(9, 2),
                        slice(n - 2, n + 5)):
                assert same_pairs(got[cut], want[cut])
            assert same_pairs(sorted(got, key=lambda pair: pair[0].theta), want)
            assert got.theta.tobytes() == np.array([bp.theta for bp, _ in want]).tobytes()
            # each read builds new objects on the one set or stack
            assert got[0][1] is not got[0][1]
            owner = got[0][1]._set
            assert (owner.bases if k is None else owner) is got.stack
            assert all(v._set is owner for _, v in got)
            with pytest.raises(TypeError):
                got[0] = want[0]


@pytest.mark.parametrize("build", [
    pytest.param(lambda rep, group: limit_curve(rep, group, 8, 1), id="curve"),
    pytest.param(lambda rep, group: limit_flags(rep, group, 8), id="flags"),
])
def test_limit_samples_hold_no_object_per_point(build):
    # a sample of 7,588 points held as lists of pairs tracked three
    # objects per point, enough to set off full collections
    group = standard_schottky(4.0)
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    build(rep, group)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        sample = build(rep, group)
        held = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(sample) == 7588 and held < 100
    del sample
    assert gc.collect() == 0


@pytest.mark.parametrize("d", range(2, 7))
def test_prefix_column_qr_is_the_full_qr_cut(d):
    # the reflectors past k fix e_1 ... e_k, so the QR of the leading k
    # columns is the leading k columns of the full QR, bit for bit
    stack = np.random.default_rng(70 + d).normal(size=(500, d, d))
    full = _orthonormalize(stack, "flag")
    for k in range(1, d):
        assert _orthonormalize(stack[:, :, :k], "flag").tobytes() == full[:, :, :k].tobytes()


@pytest.mark.parametrize("build, depth", [
    pytest.param(standard_schottky, 8, id="schottky-depth8"),
    pytest.param(modular_group, 8, id="modular-depth8"),
    pytest.param(lambda: separated_schottky(2.0), 6, id="separated-depth6"),
])
def test_limit_stack_columns_are_the_full_qr_cut(build, depth):
    # reference: the full QR of the symmetric-power frames, then the slice
    group = build()
    for d in (3, 5):
        rep = sym_power(d)(group.generator_matrices())
        theta, _, (mats,) = _limit_rows(group, depth, _rep_tables(group, rep, depth))
        full = _orthonormalize(sym_power_matrix(_loxodromic_frames(mats), d), "flag")
        assert _limit_stack(rep, group, depth)[1].tobytes() == full.tobytes()
        for k in range(1, d):
            got_theta, got = _limit_stack(rep, group, depth, k)
            assert got_theta.tobytes() == theta.tobytes()
            assert got.shape == (len(theta), d, k)
            assert got.tobytes() == full[:, :, :k].tobytes()
            assert not got.flags.writeable


def test_limit_stack_columns_on_the_eigenvector_route():
    group = standard_schottky()
    dense = custom_rep({c: sym_power_matrix(group.image(c).mat, 4)
                        for c in group.alphabet}, 4)
    _, full = _limit_stack(dense, group, 4)
    for k in range(1, 4):
        assert _limit_stack(dense, group, 4, k)[1].tobytes() == full[:, :, :k].tobytes()
    for k in (0, 4):
        with pytest.raises(InvalidInput):
            _limit_stack(dense, group, 4, k)


def test_limit_stack_refuses_a_plane_index_before_the_walk(monkeypatch):
    group = standard_schottky()
    sym3 = sym_power(3)(group.generator_matrices())
    dense = custom_rep({c: sym_power_matrix(group.image(c).mat, 4)
                        for c in group.alphabet}, 4)

    def no_walk(*args):
        raise AssertionError("the limit set was walked")

    monkeypatch.setattr(flags_module, "_limit_rows", no_walk)
    for rep in (sym3, dense):
        for k in (0, rep.dim):
            with pytest.raises(InvalidInput, match="piece index must lie in 1..d-1"):
                limit_curve(rep, group, 4, k)
        with pytest.raises(AssertionError, match="walked"):
            limit_curve(rep, group, 4, rep.dim - 1)


def test_projectors_gather_a_shared_stack():
    group = standard_schottky()
    rep = sym_power(3)(group.generator_matrices())
    planes = [plane for _, plane in limit_curve(rep, group, 4, 2)]
    rng = np.random.default_rng(67)
    shuffled = [planes[i] for i in rng.permutation(len(planes))[:40]]
    own = [GrassPoint(rng.normal(size=(3, 2))) for _ in range(5)]
    pieces = [flag.piece(2) for _, flag in limit_flags(rep, group, 4)]
    for points in (planes, shuffled, shuffled[:20] + own + shuffled[20:], pieces,
                   [planes[3]] * 3, own[:1]):
        bases = np.array([p.basis for p in points])
        want = np.einsum("nik,njk->nij", bases, bases)
        assert _projectors(points).tobytes() == want.tobytes()
    with pytest.raises(InvalidInput):
        _projectors(planes[:2] + [line(0.0)])


def test_limit_curve_d2_equivariance():
    group = standard_schottky()
    rep = sym_power(2)(group.generator_matrices(), label="ident")
    curve = limit_curve(rep, group, 3, 1)
    assert len(curve) >= 16
    thetas = [bp.theta for bp, _ in curve]
    assert thetas == sorted(thetas)
    # push one sampled line through a generator image
    from orbitlab.hypdisc import apply_boundary
    from orbitlab.words import Word as W

    gmat = _word_product(rep.images, W(("a",)), rep.label, rep.dim)
    gmob = group.images["a"]
    lookup = {round(bp.theta, 9): pt for bp, pt in curve}
    hits = 0
    for bp, pt in curve:
        image_theta = round(apply_boundary(gmob, bp).theta, 9)
        if image_theta in lookup:
            moved = GrassPoint(gmat @ pt.basis)
            assert flag_distance(moved, lookup[image_theta]) < 1e-8
            hits += 1
    assert hits >= 4


def test_limit_curve_modular_on_conic():
    group = modular_group()
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    curve = limit_curve(rep, group, 6, 1)
    assert len(curve) > 20
    for _, pt in curve:
        v = pt.basis[:, 0]
        assert abs(v[1] ** 2 - 2.0 * v[0] * v[2]) < 1e-8


def test_limit_flags_consecutive_triples_positive():
    group = standard_schottky()
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    flags = [f for _, f in limit_flags(rep, group, 3)]
    assert len(flags) >= 16
    n = len(flags)
    assert all(triple_positive(flags[i], flags[(i + 1) % n], flags[(i + 2) % n])
               for i in range(n))


# ------------------------------------------------------ curve summaries


def test_polygonal_length_antipodal_lines():
    assert polygonal_length([line(0.0), line(math.pi / 2)]) == pytest.approx(2.0)


def test_polygonal_length_refinement_monotone():
    def ring(n):
        return [line(math.pi * k / n) for k in range(n)]

    base = polygonal_length(ring(8))
    fine = polygonal_length(ring(16))
    finer = polygonal_length(ring(32))
    assert base <= fine + 1e-12
    assert fine <= finer + 1e-12
    with pytest.raises(InvalidInput):
        polygonal_length([line(0.0)])


def conic_polygon(n):
    """n lines of the sym3 Veronese conic at uniform angles in [0, pi): the
    images of the plane's lines under sym_power_matrix, the embedding of
    the modular limit curve at k = 1."""
    phi = np.linspace(0.0, math.pi, n, endpoint=False)
    c, s = np.cos(phi), np.sin(phi)
    rotations = np.stack([np.stack([c, -s], 1), np.stack([s, c], 1)], 1)
    lines = _orthonormalize(sym_power_matrix(rotations, 3)[:, :, :1], "plane")
    return _views(GrassPoint, lines, lines)


def test_conic_length_is_the_criterion_08_reference():
    # the modular limit set is the whole circle, so the k = 1 sym3 limit
    # curve is the whole Veronese conic; in sym_power_matrix's basis its
    # line element is sqrt(2) d(phi) over phi in [0, pi), so its length is
    # pi sqrt(2), which inscribed polygons approach from below
    exact = math.pi * math.sqrt(2.0)
    lengths = [polygonal_length(conic_polygon(2 ** j)) for j in (10, 12, 14)]
    assert lengths[0] < lengths[1] < lengths[2] < exact
    assert exact - lengths[2] < 1e-7
    group = modular_group()
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    l8, l9 = (polygonal_length([p for _, p in limit_curve(rep, group, depth, 1)])
              for depth in (8, 9))
    assert l8 < l9 < exact


def test_curve_csv_format(tmp_path):
    group = standard_schottky()
    rep = sym_power(2)(group.generator_matrices(), label="ident")
    curve = limit_curve(rep, group, 2, 1)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "k", "b0", "b1"]
    assert len(rows) == len(curve) + 1
    got = [float(r[0]) for r in rows[1:]]
    assert got == sorted(got)
    for r in rows[1:]:
        assert r[1] == "1"
        vec = np.array([float(r[2]), float(r[3])])
        assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_transverse_helper():
    assert transverse(VER[0.0], VER[1.0])
    assert not transverse(VER[0.0], VER[0.0])
