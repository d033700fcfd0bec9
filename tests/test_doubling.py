"""Boundary reflections, doubled tables, and the doubled enumeration."""

import math

import numpy as np
import pytest

from orbitlab.cartan import parse_functional
from orbitlab.doubling import (
    PANTS_BOUNDARY,
    DoubledRep,
    Reflection,
    _axes_disjoint,
    _group_word_image,
    double_rep,
    doubled_value_sample,
    enumerate_doubled,
    hyperbolic_with_axis,
    reflection_across_axis,
    separated_schottky,
    write_doubled_csv,
    x_involution,
)
from orbitlab.errors import (
    InvalidInput,
    OverlappingAxes,
    SpectrumNotLoxodromic,
)
from orbitlab.flags import Flag, flag_distance, limit_flags
from orbitlab.flags import quadruple_positive
from orbitlab.hypdisc import (
    BoundaryPoint,
    Mobius,
    angular_distance,
    apply_boundary,
    classify,
    displacement,
    fixed_points,
    wrap_angle,
)
from orbitlab.reps import custom_rep, evaluate, sym_power, sym_power_matrix
from orbitlab.tpos import Unitriangular, f_gamma, factorize, standard_word
from orbitlab.words import Word, enumerate_elements, modular_group, standard_schottky

ELL = 2.0
A1 = parse_functional("a1")


def pants_rep(d=3, ell=ELL):
    group = separated_schottky(ell)
    rep = sym_power(d)(group.generator_matrices(), label="sym%d" % d)
    return group, rep


def translation_length(mob):
    return 2.0 * math.acosh(0.5 * abs(np.trace(mob.mat)))


def test_hyperbolic_with_axis():
    gamma = hyperbolic_with_axis(0.7, 2.9, 3.0)
    assert classify(gamma) == "hyperbolic"
    plus, minus = fixed_points(gamma)
    assert angular_distance(plus.theta, 0.7) < 1e-9
    assert angular_distance(minus.theta, 2.9) < 1e-9
    assert abs(translation_length(gamma) - 3.0) < 1e-9
    with pytest.raises(InvalidInput):
        hyperbolic_with_axis(0.7, 2.9, 0.0)
    with pytest.raises(InvalidInput):
        hyperbolic_with_axis(1.1, 1.1, 2.0)


def test_reflection_across_horizontal_axis():
    # axis endpoints 0 and pi; the reflection negates boundary angles
    r = reflection_across_axis(Mobius.boost(2.0))
    assert r.mob.orientation == -1
    assert (r.mob @ r.mob).is_identity(1e-12)
    angles = sorted(wrap_angle(p.theta) % (2.0 * math.pi) for p in r.endpoints)
    assert abs(angles[0] - 0.0) < 1e-12
    assert abs(angles[1] - math.pi) < 1e-12
    for t in (0.3, 0.4, 2.0, -1.3):
        moved = apply_boundary(r.mob, BoundaryPoint(t))
        assert angular_distance(moved.theta, -t) < 1e-12


def test_reflection_conjugation_preserves_length():
    group = separated_schottky(ELL)
    r = reflection_across_axis(group.image("a"))
    b = group.image("b")
    both = r.mob @ b @ r.mob
    assert both.orientation == 1
    assert classify(both) == "hyperbolic"
    assert abs(translation_length(both) - translation_length(b)) < 1e-12


def test_reflection_input_validation():
    with pytest.raises(InvalidInput):
        reflection_across_axis(Mobius.rotation(1.0))
    with pytest.raises(InvalidInput):
        reflection_across_axis(Mobius(np.array([[1.0, 1.0], [0.0, 1.0]])))
    with pytest.raises(InvalidInput):
        reflection_across_axis(Mobius(np.diag([1.0, -1.0])))


def test_reflection_class_validation():
    ends = (BoundaryPoint(0.0), BoundaryPoint(math.pi))
    with pytest.raises(InvalidInput):
        Reflection(Mobius.boost(1.0), ends)  # orientation +1
    with pytest.raises(InvalidInput):
        # glide reflection: reverses orientation but square is a boost
        Reflection(Mobius(np.diag([2.0, -0.5])), ends)
    with pytest.raises(InvalidInput):
        Reflection(Mobius(np.diag([1.0, -1.0])), (ends[0],))
    with pytest.raises(InvalidInput):
        # claimed endpoint off the axis
        Reflection(
            Mobius(np.diag([1.0, -1.0])),
            (BoundaryPoint(0.5), BoundaryPoint(math.pi)),
        )
    good = Reflection(Mobius(np.diag([1.0, -1.0])), ends)
    assert "Reflection" in repr(good)


def test_x_involution_signs():
    for d in range(2, 7):
        x = x_involution(d)
        assert np.array_equal(x @ x, np.eye(d))
        for i in range(d - 1):
            e = np.zeros((d, d))
            e[i, i + 1] = 1.0
            assert np.allclose(x @ e @ x, -e)
    x2 = x_involution(2)
    u = np.array([[1.0, 0.7], [0.0, 1.0]])
    assert np.allclose(x2 @ u @ x2, [[1.0, -0.7], [0.0, 1.0]])
    with pytest.raises(InvalidInput):
        x_involution(1)


def test_x_involution_inverse_positivity():
    # for positive unitriangular u, the inverse of x u x is again positive
    rng = np.random.default_rng(7)
    for d in (3, 4, 5):
        w = standard_word(d)
        params = rng.uniform(0.3, 2.0, size=len(w.letters))
        u = f_gamma(w, params).mat
        x = x_involution(d)
        m = np.linalg.inv(x @ u @ x)
        m = np.triu(m)
        np.fill_diagonal(m, 1.0)
        coords = factorize(Unitriangular(m))
        assert np.all(np.asarray(coords.params) > 0.0)


def test_double_rep_images_are_reflections():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    assert dbl.letters == ("x", "y", "z")
    assert [str(w) for w in dbl.boundary] == list(PANTS_BOUNDARY)
    assert dbl.dim == 3
    assert set(dbl.alphabet) == set("abAB") | {"x", "y", "z"}
    for c in dbl.letters:
        big = dbl.rep.image(c)
        assert np.abs(big @ big - np.eye(3)).max() < 1e-10
        assert abs(np.linalg.det(big) + 1.0) < 1e-9


def test_double_rep_fixes_boundary_flags():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    _, table = rep.factors[0]
    for word, c in zip(dbl.boundary, dbl.letters):
        m2 = np.eye(2)
        for letter in word.letters:
            m2 = m2 @ table[letter]
        lam, vec = np.linalg.eig(m2)
        order = np.argsort(-np.abs(lam))
        frame = vec[:, order].real
        basis = sym_power_matrix(frame, 3)
        big = dbl.rep.image(c)
        for cols in (basis, basis[:, ::-1]):
            fixed = Flag(cols)
            moved = Flag(big @ cols)
            for k in (1, 2):
                assert flag_distance(fixed.piece(k), moved.piece(k)) < 1e-9


def test_double_rep_restriction_is_base():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    for c in "abAB":
        assert np.array_equal(dbl.rep.images[c], rep.images[c])
    w = Word(tuple("abA"))
    left = evaluate(dbl.rep, w)
    right = evaluate(rep, w)
    assert np.array_equal(left.mat, right.mat)
    assert left.log_scale == right.log_scale


def test_double_rep_dim2_matches_geometry():
    group, rep = pants_rep(2)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    for word, c in zip(dbl.boundary, dbl.letters):
        geo = reflection_across_axis(_group_word_image(group, word)).mob.mat
        alg = dbl.rep.image(c)
        delta = min(np.abs(alg - geo).max(), np.abs(alg + geo).max())
        assert delta < 1e-12


def test_reflection_image_ignores_column_scaling():
    group, rep = pants_rep(3)
    _, table = rep.factors[0]
    rng = np.random.default_rng(3)
    for d in (3, 4):
        frame = np.linalg.eig(table["a"])[1].real
        order = np.argsort(-np.abs(np.linalg.eigvals(table["a"])))
        frame = frame[:, order]
        basis = sym_power_matrix(frame, d)
        x = x_involution(d)
        ref = basis @ x @ np.linalg.inv(basis)
        for _ in range(5):
            scales = rng.uniform(0.2, 3.0, size=d) * rng.choice([-1.0, 1.0], size=d)
            scaled = basis @ np.diag(scales)
            big = scaled @ x @ np.linalg.inv(scaled)
            assert np.abs(big - ref).max() < 1e-9 * max(1.0, np.abs(ref).max())


def test_dense_route_matches_structural():
    group, rep = pants_rep(3)
    dense = custom_rep(
        {c: sym_power_matrix(group.image(c).mat, 3) for c in "abAB"},
        3,
        label="dense sym3",
    )
    assert dense.factors is None
    dbl_s = double_rep(rep, PANTS_BOUNDARY)
    dbl_d = double_rep(dense, PANTS_BOUNDARY)
    for c in ("x", "y", "z"):
        assert np.abs(dbl_s.rep.image(c) - dbl_d.rep.image(c)).max() < 1e-8


def test_double_rep_rejects_bad_boundary():
    rep = sym_power(3)(modular_group().generator_matrices(), label="sym3")
    with pytest.raises(SpectrumNotLoxodromic):
        double_rep(rep, ["S"])  # elliptic boundary word
    with pytest.raises(InvalidInput):
        double_rep(rep, ["q"])  # no such letter


def test_doubled_rep_validation():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, ("a",))
    big = dbl.reflection_images[0]
    with pytest.raises(InvalidInput):
        DoubledRep(rep, (Word(("a",)),), ("x", "y"), [big])
    with pytest.raises(InvalidInput):
        DoubledRep(rep, (Word(("a",)), Word(("b",))), ("x", "x"), [big, big])
    with pytest.raises(InvalidInput):
        DoubledRep(rep, (Word(("a",)),), ("a",), [big])
    with pytest.raises(InvalidInput):
        DoubledRep(rep, (Word(("a",)),), ("x",), [big + 0.1])


def test_axes_disjoint_predicate():
    def pair(t0, t1):
        return (BoundaryPoint(t0), BoundaryPoint(t1))

    half_pi = 0.5 * math.pi
    assert _axes_disjoint(pair(0.0, half_pi), pair(math.pi, 3 * half_pi))
    assert not _axes_disjoint(pair(0.0, math.pi), pair(half_pi, 3 * half_pi))
    assert not _axes_disjoint(pair(0.0, half_pi), pair(half_pi, math.pi))


def test_enumerate_without_reflections_matches_plain():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, ())
    doubled = list(enumerate_doubled(group, dbl, 4))
    plain = list(enumerate_elements(group, 4))
    assert len(doubled) == len(plain)
    for (dw, dm, _), (pw, pm) in zip(doubled, plain):
        assert dw == pw
        assert np.array_equal(dm.mat, pm.mat)


def test_doubled_ball_contains_conjugates():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    by_word = {str(w): mob for w, mob, _ in enumerate_doubled(group, dbl, 3)}
    # x reflects across the axis of a, so xax collapses onto a itself
    assert "xax" not in by_word
    assert "xbx" in by_word
    r = reflection_across_axis(group.image("a")).mob
    want = (r @ group.image("b") @ r).mat
    got = by_word["xbx"].mat
    assert min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-9
    assert all(mob.orientation == 1 for mob in by_word.values())


def test_doubled_ball_strictly_larger():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    plain = list(enumerate_elements(group, 4))
    cutoff = max(displacement(mob) for _, mob in plain) + 1e-9
    doubled = [
        row for row in enumerate_doubled(group, dbl, 4)
        if displacement(row[1]) <= cutoff
    ]
    assert len(doubled) > 2 * len(plain)


def test_overlapping_axes_rejected():
    group = standard_schottky(4.0)
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    dbl = double_rep(rep, ("a", "b"))
    with pytest.raises(OverlappingAxes):
        list(enumerate_doubled(group, dbl, 1))


def test_stream_group_validation():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    with pytest.raises(InvalidInput):
        list(enumerate_doubled(modular_group(), dbl, 2))
    with pytest.raises(InvalidInput):
        list(enumerate_doubled(group, dbl, -1))
    with pytest.raises(InvalidInput):
        doubled_value_sample(group, dbl, A1, 0)


def test_stream_images_match_evaluate():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    rows = list(enumerate_doubled(group, dbl, 3))
    for word, _, sm in rows:
        direct = evaluate(dbl.rep, word)
        assert np.array_equal(sm.mat, direct.mat), str(word)
        assert sm.log_scale == direct.log_scale, str(word)


def test_doubled_value_sample_certificate():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    vs = doubled_value_sample(group, dbl, A1, 6)
    assert "non-exhaustive" in vs.label
    assert vs.values[0] == 0.0
    assert np.all(np.diff(vs.values) >= 0.0)
    assert 4.5 < vs.complete_to < 6.0
    assert len(vs.values) > 400


def test_mixed_quadruple_positivity():
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    r0 = reflection_across_axis(group.image("a"))
    big0 = dbl.rep.image("x")
    base = limit_flags(rep, group, 4)
    pool = [(bp.theta, flag) for bp, flag in base]
    for bp, flag in base:
        moved = apply_boundary(r0.mob, bp)
        pool.append((moved.theta, Flag(big0 @ flag.basis)))
    rng = np.random.default_rng(11)
    done = 0
    while done < 30:
        idx = rng.choice(len(pool), size=4, replace=False)
        picks = sorted((pool[i] for i in idx), key=lambda p: p[0] % (2 * math.pi))
        gaps = [
            angular_distance(picks[i][0], picks[(i + 1) % 4][0])
            for i in range(4)
        ]
        if min(gaps) < 1e-3:
            continue
        assert quadruple_positive(*(f for _, f in picks))
        done += 1


def test_write_doubled_csv(tmp_path):
    group, rep = pants_rep(3)
    dbl = double_rep(rep, PANTS_BOUNDARY)
    rows = list(enumerate_doubled(group, dbl, 2))
    path = tmp_path / "doubled.csv"
    write_doubled_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "word,displacement,refl_parity"
    assert len(lines) == len(rows) + 1
    for line, (word, mob, _) in zip(lines[1:], rows):
        name, disp, parity = line.split(",")
        assert name == str(word)
        assert parity == "0"
        assert abs(float(disp) - displacement(mob)) < 1e-12
