"""Differential tests of the one route for products along words.

Orbit tables, distortion scans, the orbit CSV, limit flags and doubled
reflections read their 2x2 products from the level-array walker or from
the single-word product of reps. The oracles below are the per-word
routes those consumers used before: every product rebuilt from the
identity, one letter at a time. Every product along a word is now a
plain matrix product; the rule the walker and word_cartan used before,
one ScaledMatrix.times per letter and the Frobenius norm read through
exp(2 log_scale), is kept once, as the one reference of the frontier
certificate: its values and complete_to come out the same to the ulp.
"""

import itertools
import math

import numpy as np
import pytest
from buildtools import dense_sym_power, doubled_sym3, two_speed_product
from flagtools import attracting_flag

from orbitlab import cli, limitgeom
from orbitlab.cartan import (
    CartanVector,
    _factor_exponents,
    cartan_projection,
    parse_functional,
    word_cartan,
)
from orbitlab.critexp import _frontier_sample, sample_from_enumeration
from orbitlab.doubling import (
    PANTS_BOUNDARY,
    double_rep,
    separated_schottky,
)
from orbitlab.errors import IllConditioned, InvalidInput
from orbitlab.flags import (
    Flag,
    flag_distance,
    limit_curve,
    limit_flags,
)
from orbitlab.hypdisc import TWO_PI, displacement, shadow_of_isometry, wrap_angle
from orbitlab.limitgeom import distortion_scan
from orbitlab.reps import (
    ScaledMatrix,
    custom_rep,
    evaluate,
    sp_product,
    sym_power,
    sym_power_matrix,
)
from orbitlab.words import (
    enumerate_elements,
    limit_sample_words,
    modular_group,
    orbit_table,
    standard_schottky,
)


def oracle_word_cartan(rep, word):
    """Cartan vector of one word, each product rebuilt from the identity:
    with one ScaledMatrix.times per letter for a structureless rep, and
    one plain 2x2 product per letter and factor otherwise."""
    if rep.factors is None:
        sm = ScaledMatrix(np.eye(rep.dim))
        for letter in word:
            sm = sm.times(rep.images[letter])
        return cartan_projection(sm, lie_type=rep.lie_type)
    products = [raw_product(images, word)[np.newaxis] for _, images in rep.factors]
    return CartanVector(_factor_exponents(rep, products)[0], rep.lie_type)


def raw_product(images, word):
    m = np.eye(2)
    for letter in word:
        m = m @ images[letter]
    return m


def tilted(group):
    """The group's generator table conjugated by diag(2, 1/2): a second
    2x2 factor over the same alphabet."""
    h = np.diag([2.0, 0.5])
    hinv = np.diag([0.5, 2.0])
    return {c: h @ group.image(c).mat @ hinv for c in group.alphabet}


def build_rep(group, kind):
    if kind == "sp-product":
        sym2 = sym_power(2)
        return sp_product([sym2(group.generator_matrices(), label="f1"),
                           sym2(tilted(group), label="f2")])
    return sym_power(int(kind[3:]))(group.generator_matrices(), label=kind)


GROUPS = [pytest.param(standard_schottky, 6, id="schottky-L6"),
          pytest.param(modular_group, 8, id="modular-L8")]


@pytest.mark.parametrize("kind", ["sym2", "sym3", "sym5", "sp-product"])
@pytest.mark.parametrize("build, max_len", GROUPS)
def test_orbit_table_kappas_are_bit_identical(build, max_len, kind):
    group = build()
    rep = build_rep(group, kind)
    phi = parse_functional("long" if kind == "sp-product" else "a1")
    records = orbit_table(group, rep, max_len)
    elements = list(enumerate_elements(group, max_len))
    assert len(records) == len(elements) > 200
    for rec, (word, mob) in zip(records, elements):
        want = oracle_word_cartan(rep, word)
        assert rec.word == word
        assert np.array_equal(rec.mob.mat, mob.mat)
        assert rec.kappa.lie_type == want.lie_type
        assert np.array_equal(rec.kappa.lambdas, want.lambdas), str(word)
        assert phi.value(rec.kappa) == phi.value(want)


@pytest.mark.parametrize("build, max_len, d", [
    # sym3 images of the L6 Schottky ball pass the conditioning limit
    pytest.param(standard_schottky, 6, 2, id="schottky-L6-dim2"),
    pytest.param(modular_group, 8, 3, id="modular-L8-dim3"),
])
def test_custom_rep_kappas_agree(build, max_len, d):
    group = build()
    rep = dense_sym_power(group, d)
    records = orbit_table(group, rep, max_len)
    assert len(records) > 200
    for rec in records:
        want = oracle_word_cartan(rep, rec.word).lambdas
        assert np.all(np.abs(rec.kappa.lambdas - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want))), str(rec.word)


def oracle_frame(mat):
    """The 2x2 eigenframe one matrix at a time, as flags read it before
    hypdisc._eigenvectors took every frame of a level at once: the
    larger eigenvalue from trace and det, the other as det over it,
    and each kernel the normal of the longer row."""
    tr = mat[0, 0] + mat[1, 1]
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    root = np.sqrt(tr * tr - 4.0 * det)
    big = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
    kernels = []
    for lam in (big, det / big):
        v1 = (mat[0, 1], lam - mat[0, 0])
        v2 = (lam - mat[1, 1], mat[1, 0])
        v = np.array(v1 if math.hypot(*v1) >= math.hypot(*v2) else v2)
        kernels.append(v / np.hypot(*v))
    return np.column_stack(kernels)


def oracle_arc_extremes(thetas, sh):
    """Indices of the first and last sorted angle inside one Shadow, in
    arc order, or None for fewer than two: the bisection distortion
    scans made once per row before limitgeom._arc_extremes took a whole
    level."""
    n = thetas.size
    if n == 0:
        return None
    if sh.full:
        return (0, n - 1) if n >= 2 else None
    start = wrap_angle(sh.center.theta - sh.half_angle)
    lo = int(np.searchsorted(thetas, start, side="left"))
    end = start + 2.0 * sh.half_angle
    if end < TWO_PI:
        hi = int(np.searchsorted(thetas, end, side="right"))
        return (lo, hi - 1) if hi - lo >= 2 else None
    hi = int(np.searchsorted(thetas, end - TWO_PI, side="right"))
    if (n - lo) + hi < 2:
        return None
    return (lo if lo < n else 0), (hi - 1 if hi > 0 else n - 1)


def oracle_distortion_scan(group, rep, phi, r, max_len):
    """The scan one row at a time: a Mobius value, a displacement, a
    shadow, its extremes and a Cartan vector per word; (word,
    alpha_kappa, endpoint distance, ratio) rows and the skipped count."""
    sample = sorted(limit_curve(rep, group, max_len, 1), key=lambda pair: pair[0].theta)
    thetas = np.array([bp.theta for bp, _ in sample])
    planes = [plane for _, plane in sample]
    rows, skipped = [], 0
    for word, mob in enumerate_elements(group, max_len):
        if displacement(mob) <= r:
            continue
        pick = oracle_arc_extremes(thetas, shadow_of_isometry(mob, r))
        if pick is None:
            skipped += 1
            continue
        dist = flag_distance(planes[pick[0]], planes[pick[1]])
        if dist <= 0.0:
            skipped += 1
            continue
        a = phi.value(oracle_word_cartan(rep, word))
        rows.append((str(word), a, dist, dist * math.exp(a)))
    return rows, skipped


@pytest.mark.parametrize("kind", ["sym3", "custom"])
def test_distortion_scan_rows_agree(kind):
    group = standard_schottky()
    if kind == "custom":
        rep = custom_rep(dict(build_rep(group, "sym2").images), 2)
    else:
        rep = build_rep(group, kind)
    phi = parse_functional("a1")
    report = distortion_scan(group, rep, phi, 9.0, 6)
    rows, skipped = oracle_distortion_scan(group, rep, phi, 9.0, 6)
    assert report.skipped == skipped
    assert len(report.rows) == len(rows) > 100
    for got, want in zip(report.rows, rows):
        assert got.word == want[0]
        for value, ref in zip((got.alpha_kappa, got.endpoint_distance, got.ratio),
                              want[1:]):
            assert abs(value - ref) <= 1e-12 * abs(ref)


def test_distortion_scan_forms_kappa_for_kept_rows_only(monkeypatch):
    # a dense sym3 rep passes the conditioning limit in this ball, yet
    # with no limit sample every row is skipped and none needs kappa
    group = standard_schottky()
    rep = dense_sym_power(group, 3)
    with pytest.raises(IllConditioned):
        orbit_table(group, rep, 6)
    monkeypatch.setattr(limitgeom, "_limit_stack",
                        lambda *args: (np.empty(0), np.empty((0, 3, 1))))
    report = distortion_scan(group, rep, parse_functional("a1"), 9.0, 6)
    beyond = sum(1 for _, mob in enumerate_elements(group, 6)
                 if displacement(mob) > 9.0)
    assert len(report) == 0
    assert report.skipped == beyond > 0


def test_orbit_csv_rows_match_word_cartan(tmp_path):
    group_file = tmp_path / "modular.grp"
    group_file.write_text("kind=modular\n", encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["orbit", "--group", str(group_file), "--rep", "sym3",
                     "--max-len", "6", "--out", str(out)]) == 0
    lines = (out / "orbit.csv").read_text(encoding="utf-8").split("\n")
    assert lines[1] == "word,len,disp,k1,k2,k3"
    group = modular_group()
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    want = []
    for word, mob in enumerate_elements(group, 6):
        lams = ",".join("%.17g" % v for v in oracle_word_cartan(rep, word).lambdas)
        want.append("%s,%d,%.17g,%s" % (word, len(word), displacement(mob), lams))
    assert lines[2:] == want + [""]


@pytest.mark.parametrize("build, depth", [
    pytest.param(standard_schottky, 7, id="schottky-depth7"),
    pytest.param(modular_group, 9, id="modular-depth9"),
])
def test_limit_flag_bases_are_bit_identical(build, depth):
    group = build()
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    images = rep.factors[0][1]
    got = limit_flags(rep, group, depth)
    pairs = limit_sample_words(group, depth)
    assert len(got) == len(pairs) > 200
    for (bp, flag), (want_bp, word) in zip(got, pairs):
        want = Flag(sym_power_matrix(oracle_frame(raw_product(images, word)), 3))
        assert bp.theta == want_bp.theta
        assert np.array_equal(flag.basis, want.basis), str(word)


def test_double_rep_reflections_are_bit_identical():
    group = separated_schottky(2.0)
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    dbl = double_rep(rep, PANTS_BOUNDARY)
    table = rep.factors[0][1]
    factor_table = dbl.rep.factors[0][1]
    for w, letter, image in zip(PANTS_BOUNDARY, dbl.letters, dbl.reflection_images):
        frame = oracle_frame(raw_product(table, w))
        factor = frame @ np.diag([1.0, -1.0]) @ np.linalg.inv(frame)
        assert np.array_equal(factor_table[letter], factor)
        assert np.array_equal(image, sym_power_matrix(factor, 3))


def test_single_word_product_is_shared():
    # evaluate and word_cartan agree with the per-letter oracle, and a
    # letter outside the table raises the same error on both
    group = standard_schottky()
    rep = build_rep(group, "sym3")
    word = "abABBaab"
    sm = evaluate(rep, word)
    want = ScaledMatrix(np.eye(3))
    for letter in word:
        want = want.times(rep.images[letter])
    assert np.array_equal(sm.mat, want.mat) and sm.log_scale == want.log_scale
    assert np.array_equal(word_cartan(rep, word).lambdas,
                          oracle_word_cartan(rep, word).lambdas)
    for fn in (evaluate, word_cartan):
        with pytest.raises(InvalidInput, match="no image under sym3"):
            fn(rep, "abz")


def test_alphabet_check_spares_the_identity_ball():
    # a rep built on another group's letters: the identity alone needs
    # no letter, a longer walk raises before it starts
    group = standard_schottky()
    rep = build_rep(modular_group(), "sym3")
    (rec,) = orbit_table(group, rep, 0)
    assert np.array_equal(rec.kappa.lambdas, oracle_word_cartan(rep, ()).lambdas)
    for call in (lambda: orbit_table(group, rep, 1),
                 lambda: limit_flags(rep, group, 3),
                 lambda: sample_from_enumeration(group, rep, parse_functional("a1"), 2)):
        with pytest.raises(InvalidInput, match="letter 'a' has no image under sym3"):
            call()
    with pytest.raises(InvalidInput, match="max_len >= 1"):
        sample_from_enumeration(group, rep, parse_functional("a1"), 0)


def scaled_cartan(rep, products):
    """Cartan vector from the factor products in ScaledMatrix form, each
    boost read from the Frobenius norm exp(2 log_scale) * sum(mat^2)."""
    lam = []
    for (d, _), sm in zip(rep.factors, products):
        fro2 = math.exp(2.0 * sm.log_scale) * float((sm.mat * sm.mat).sum())
        mu = 0.5 * math.acosh(max(1.0, 0.5 * fro2))
        lam += [(d - 1 - 2 * j) * mu for j in range(d)]
    return CartanVector(sorted(lam, reverse=True), rep.lie_type)


def scaled_frontier_sample(group, rep, phi, max_len):
    """The orientation preserving values, sorted, and complete_to of the
    frontier certificate, each product extended from its parent word's
    by ScaledMatrix.times and read by scaled_cartan."""
    tables = [images for _, images in rep.factors]
    products = {(): [ScaledMatrix(np.eye(2)) for _ in tables]}
    value, kept = {}, []
    frontier_min, worst = math.inf, -math.inf
    for word, mob in enumerate_elements(group, max_len):
        w = word.letters
        if w:
            products[w] = [sm.times(images[w[-1]])
                           for sm, images in zip(products[w[:-1]], tables)]
        value[w] = phi.value(scaled_cartan(rep, products[w]))
        if w:
            worst = max(worst, value[w[:-1]] - value[w])
        if len(w) == max_len:
            frontier_min = min(frontier_min, value[w])
        if mob.orientation == 1:
            kept.append(value[w])
    return np.sort(kept), max(0.0, frontier_min - max(0.0, worst))


def schottky(kind):
    group = standard_schottky(4.0)
    return group, build_rep(group, kind)


# complete_to agrees to the bit, except on the tilted sp-product, where
# exp(2 log_scale) of the scaled rule rounds the frontier minimum one
# ulp below the plain product's
SCALED_CASES = [
    *(pytest.param(lambda: schottky("sym3"), text, 7, 0, id="schottky-sym3-%s-L7" % text)
      for text in ("a1", "a2", "w1", "2*a1+1*a2")),
    pytest.param(lambda: (standard_schottky(4.0), two_speed_product(standard_schottky(4.0))),
                 "long", 7, 0, id="schottky-f4-f3-long-L7"),
    pytest.param(lambda: schottky("sp-product"), "long", 7, 1,
                 id="schottky-tilted-long-L7"),
    pytest.param(lambda: (modular_group(), build_rep(modular_group(), "sym3")),
                 "a1", 10, 0, id="modular-sym3-a1-L10"),
    pytest.param(lambda: doubled_sym3(2.0), "a1", 6, 0, id="doubled-2.0-depth6"),
    pytest.param(lambda: doubled_sym3(1.85), "a1", 6, 0, id="doubled-1.85-depth6"),
]


@pytest.mark.parametrize("setup, text, max_len, ulps", SCALED_CASES)
def test_frontier_sample_matches_the_scaled_rule(setup, text, max_len, ulps):
    group, rep = setup()
    phi = parse_functional(text)
    vs = _frontier_sample(group, rep, phi, max_len, group.kind)
    values, complete_to = scaled_frontier_sample(group, rep, phi, max_len)
    assert len(vs) == len(values) > 500
    assert np.all(np.abs(vs.values - values) <= 1e-12 * np.abs(values))
    assert abs(vs.complete_to - complete_to) <= ulps * np.spacing(complete_to)


# The structureless route: limit flags and Cartan vectors of a rep with
# no 2x2 factors (or more than one) come from the dense product that the
# walk or reps._word_product forms, against the per-word evaluate route.

@pytest.mark.parametrize("build, rep_of, depth", [
    pytest.param(standard_schottky, lambda group: dense_sym_power(group, 3), 5,
                 id="custom-sym3-schottky-depth5"),
    pytest.param(modular_group, lambda group: dense_sym_power(group, 3), 7,
                 id="custom-sym3-modular-depth7"),
    pytest.param(standard_schottky, two_speed_product, 4, id="sp-product-depth4"),
])
def test_structureless_limit_flags_match_evaluate(build, rep_of, depth):
    group = build()
    rep = rep_of(group)
    got = limit_flags(rep, group, depth)
    pairs = limit_sample_words(group, depth)
    assert len(got) == len(pairs) > 50
    for (bp, flag), (want_bp, word) in zip(got, pairs):
        want = attracting_flag(evaluate(rep, word)).basis
        assert bp.theta == want_bp.theta
        assert np.all(np.abs(flag.basis - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), \
            str(word)


@pytest.mark.parametrize("build, d", [
    pytest.param(standard_schottky, 2, id="schottky-dim2"),
    pytest.param(modular_group, 3, id="modular-dim3"),
])
def test_dense_word_cartan_matches_the_projection(build, d):
    group = build()
    rep = dense_sym_power(group, d)
    for length in range(7):
        for word in itertools.product(group.alphabet, repeat=length):
            got = word_cartan(rep, word).lambdas
            want = cartan_projection(evaluate(rep, word)).lambdas
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), \
                "".join(word)
