"""Distortion scans, shadow separation, and box-counting dimension."""

import itertools
import math

import numpy as np
import pytest
from kleintools import contains
from scipy import spatial

from orbitlab import limitgeom
from orbitlab.cartan import _cartan_rows, parse_functional, word_cartan
from orbitlab.errors import InsufficientScales, InvalidInput
from orbitlab.flags import (
    GrassPoint,
    _chordal_distances,
    _limit_stack,
    flag_distance,
    limit_curve,
)
from orbitlab.hypdisc import (
    _shadow_arcs,
    angular_distance,
    displacement,
    shadow_of_isometry,
    wrap_angle,
)
from orbitlab.limitgeom import (
    DimensionEstimate,
    DistortionReport,
    DistortionRow,
    _arc_extremes,
    _embed,
    _net_size,
    box_dimension,
    cantor_sample,
    circle_sample,
    distortion_scan,
    shadow_separation_check,
)
from orbitlab.reps import custom_rep, sym_power
from orbitlab.words import (
    OrbitRecord,
    _rep_tables,
    _walk_levels,
    enumerate_elements,
    modular_group,
    orbit_table,
    standard_schottky,
)

RADIUS = 9.0
A1 = parse_functional("a1")


def schottky_pair(d):
    group = standard_schottky(4)
    rep = sym_power(d)(group.generator_matrices(), label="sym%d" % d)
    return group, rep


def test_cantor_sample_layout():
    pts = cantor_sample(5)
    assert len(pts) == 32
    assert pts[0] > 0.0 and pts[-1] < 1.0
    assert np.all(np.diff(pts) > 0)
    assert np.isclose(np.diff(pts).min(), 2.0 * 3.0**-5)
    with pytest.raises(InvalidInput):
        cantor_sample(0)


def test_circle_sample_uniform_spacing():
    pts = circle_sample(200)
    assert len(pts) == 200
    gaps = [flag_distance(pts[i], pts[i + 1]) for i in range(199)]
    assert np.allclose(gaps, math.sin(math.pi / 200.0), rtol=1e-12)


def test_cantor_dimension():
    est = box_dimension(cantor_sample(12), [3.0**-k for k in range(2, 8)])
    assert abs(est.value - math.log(2.0) / math.log(3.0)) < 0.05
    assert est.stderr < 0.02


def test_circle_dimension():
    est = box_dimension(circle_sample(2000), [0.3 * 10 ** (-k / 2.0) for k in range(5)])
    assert abs(est.value - 1.0) < 0.05


def greedy_net_size(cloud, eps):
    """The row-by-row greedy scan: a row becomes a centre unless a centre
    already taken lies within eps of it."""
    centers = np.empty_like(cloud)
    count = 0
    for row in cloud:
        if count and np.min(np.linalg.norm(centers[:count] - row, axis=1)) <= eps:
            continue
        centers[count] = row
        count += 1
    return count


GRASS_SCALES = [0.3 * 10 ** (-k / 2.0) for k in range(5)]


@pytest.mark.parametrize("cloud, scales", [
    pytest.param(lambda: _embed(cantor_sample(12)), [3.0**-k for k in range(2, 8)],
                 id="cantor"),
    pytest.param(lambda: _embed(circle_sample(2000)), GRASS_SCALES, id="circle"),
    pytest.param(lambda: _embed([plane for _, plane in limit_curve(
        *reversed(schottky_pair(3)), 8, 1)]), GRASS_SCALES, id="schottky-sym3-depth8"),
    # many distances equal the scale exactly, so ties decide the counts
    pytest.param(lambda: np.random.default_rng(59).permutation(
        np.array(list(itertools.product(range(40), repeat=2)), dtype=float)),
        [1.0, math.sqrt(2.0), 2.0, 5.0, 13.0], id="integer-grid"),
    # in three dimensions the tree's rounding of sqrt 2 and sqrt 3 may
    # differ from the norm's
    pytest.param(lambda: np.random.default_rng(61).permutation(
        np.array(list(itertools.product(range(11), repeat=3)), dtype=float)),
        [1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0], id="integer-lattice-3d"),
    # ties at distance 0: every row comes three times
    pytest.param(lambda: np.random.default_rng(67).permutation(
        np.repeat(_embed(circle_sample(500)), 3, axis=0)), GRASS_SCALES,
        id="duplicate-rows"),
])
def test_tree_net_matches_the_greedy_scan(cloud, scales):
    cloud = cloud()
    assert len(cloud) > 1000
    tree = spatial.cKDTree(cloud)
    for eps in scales:
        assert _net_size(tree, eps) == greedy_net_size(cloud, eps)


def test_finite_set_dimension_zero():
    # ten distinct values, scales all below the gap: flat counts
    pts = np.repeat(np.arange(10.0), 150)
    est = box_dimension(pts, [0.3 * 10 ** (-k / 2.0) for k in range(5)])
    assert est.value == 0.0


def test_box_dimension_preconditions():
    good_scales = [0.3 * 10 ** (-k / 2.0) for k in range(5)]
    with pytest.raises(InsufficientScales):
        box_dimension(np.arange(100.0), good_scales)
    pts = np.arange(2000.0) / 2000.0
    with pytest.raises(InsufficientScales):
        box_dimension(pts, good_scales[:4])
    with pytest.raises(InsufficientScales):
        box_dimension(pts, [0.1, 0.2, 0.3, 0.4, 0.5])
    with pytest.raises(InsufficientScales):
        box_dimension(pts, [0.0, 0.001, 0.01, 0.1, 1.0])


def test_dimension_estimate_rejects_negative():
    with pytest.raises(InvalidInput):
        DimensionEstimate(-0.1, (0.1, 0.01, 0.001, 1e-4, 1e-5), 0.0, (1, 2, 3, 4, 5))


def test_grasspoint_embedding_is_isometric():
    rng = np.random.default_rng(3)
    pts = [GrassPoint(rng.normal(size=(4, 2))) for _ in range(12)]
    cloud = _embed(pts)
    for i in range(12):
        for j in range(12):
            direct = flag_distance(pts[i], pts[j])
            assert abs(np.linalg.norm(cloud[i] - cloud[j]) - direct) < 1e-12


def test_distortion_row_requires_positive_ratio():
    with pytest.raises(InvalidInput):
        DistortionRow("a", 1.0, 0.5, 0.0)
    with pytest.raises(InvalidInput):
        DistortionRow("a", 1.0, 0.5, -0.1)
    # a report forms its ratios from alpha_kappa and the distances
    with pytest.raises(InvalidInput):
        DistortionReport("aA", [np.zeros((1, 1), dtype=int)], np.ones(1), np.zeros(1), 0,
                         RADIUS, "a1")


def per_row_distortion(group, rep, phi, r, max_len):
    """The scan's rows one object at a time, from the same level arrays:
    the Word of each kept row and its str, alpha_kappa, the endpoint
    distance, and the ratio by math.exp."""
    thetas, planes = _limit_stack(rep, group, max_len, 1)
    projectors = np.einsum("nik,njk->nij", planes, planes)
    rows = []
    for level in _walk_levels(group, max_len, _rep_tables(group, rep, max_len)):
        centres, halves, full = _shadow_arcs(level.mats, r)
        far = np.flatnonzero(~full)
        first, last, found = _arc_extremes(thetas, centres[far], halves[far])
        dist = np.zeros(len(far))
        if found.any():
            dist[found] = _chordal_distances(*projectors[np.stack([first, last])[:, found]])
        kept = far[dist > 0.0]
        if len(kept):
            lam = _cartan_rows(rep, [m[kept] for m in level.products])
            for i, a, d in zip(kept.tolist(), phi.values(lam, rep.lie_type).tolist(),
                               dist[dist > 0.0].tolist()):
                rows.append((str(level.word(i)), a, d, d * math.exp(a)))
    return rows


@pytest.mark.parametrize("kind", ["sym3", "custom"])
def test_distortion_report_arrays_match_the_per_row_scan(kind):
    group = standard_schottky(4)
    if kind == "custom":
        rep = custom_rep(dict(sym_power(2)(group.generator_matrices()).images), 2)
    else:
        rep = sym_power(3)(group.generator_matrices(), label="sym3")
    report = distortion_scan(group, rep, A1, RADIUS, 6)
    rows = per_row_distortion(group, rep, A1, RADIUS, 6)
    assert len(report) == len(rows) > 1000
    assert [(row.word, row.alpha_kappa, row.endpoint_distance, row.ratio)
            for row in report.rows] == rows
    _, alpha, dist, ratio = (np.array(column) for column in zip(*rows))
    assert report.alpha_kappa.tobytes() == alpha.tobytes()
    assert report.endpoint_distance.tobytes() == dist.tobytes()
    assert report.ratio.tobytes() == ratio.tobytes()
    low, high = min(ratio.tolist()), max(ratio.tolist())
    assert (report.min_ratio, report.max_ratio, report.spread) == (low, high, high / low)


def test_functional_must_be_single_root():
    group, rep = schottky_pair(2)
    for text in ("w1", "a1+a2", "long"):
        with pytest.raises(InvalidInput):
            distortion_scan(group, rep, parse_functional(text), RADIUS, 3)


def test_schottky_identity_band():
    group, rep = schottky_pair(2)
    report = distortion_scan(group, rep, A1, RADIUS, 6)
    assert report.skipped == 0
    assert len(report) > 1000
    assert report.min_ratio > 0.0
    assert report.spread < 100.0


def test_sym3_band_and_depth_stability():
    group, rep = schottky_pair(3)
    shallow = distortion_scan(group, rep, A1, RADIUS, 6)
    deeper = distortion_scan(group, rep, A1, RADIUS, 7)
    assert shallow.spread < 100.0
    assert deeper.spread < 100.0
    assert deeper.spread < 1.25 * shallow.spread


def deeper_sample(monkeypatch, depth):
    """Make distortion_scan read a limit sample of the given depth."""
    monkeypatch.setattr(limitgeom, "_limit_stack",
                        lambda rep, group, _, k: _limit_stack(rep, group, depth, k))


def test_power_word_ratios_converge(monkeypatch):
    # single-axis toy: the ratio along a^n stabilizes once the sample
    # out-resolves the scanned shadows
    group, rep = schottky_pair(2)
    deeper_sample(monkeypatch, 9)
    report = distortion_scan(group, rep, A1, RADIUS, 6)
    by_word = {row.word: row.ratio for row in report.rows}
    ratios = [by_word["a" * n] for n in range(3, 7)]
    assert max(ratios) - min(ratios) < 1e-3 * ratios[-1]
    assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])


def test_empty_sample_skips_every_row(monkeypatch):
    group, rep = schottky_pair(2)
    monkeypatch.setattr(limitgeom, "_limit_stack",
                        lambda *args: (np.empty(0), np.empty((0, 2, 1))))
    report = distortion_scan(group, rep, A1, RADIUS, 4)
    assert len(report) == 0
    beyond = sum(
        1 for _, mob in enumerate_elements(group, 4) if displacement(mob) > RADIUS
    )
    assert report.skipped == beyond > 0


def test_arc_extremes_against_reference_scan():
    from test_hypdisc import coarse_endpoints

    group, rep = schottky_pair(2)
    sample = sorted(limit_curve(rep, group, 5, 1), key=lambda p: p[0].theta)
    thetas = np.array([bp.theta for bp, _ in sample])
    boundary = [bp for bp, _ in sample]
    checked = 0
    for _, mob in enumerate_elements(group, 5):
        if displacement(mob) <= RADIUS:
            continue
        sh = shadow_of_isometry(mob, RADIUS)
        assert not sh.full
        first, last, found = _arc_extremes(
            thetas, np.array([sh.center.theta]), np.array([sh.half_angle]))
        lo, hi = coarse_endpoints(sh, boundary)
        assert found[0]
        assert thetas[first[0]] == lo.theta
        assert thetas[last[0]] == hi.theta
        checked += 1
    assert checked > 100


def test_separation_duplicate_points():
    group, rep = schottky_pair(3)
    recs = orbit_table(group, rep, 1)
    rec = next(r for r in recs if len(r.word) == 1)
    report = shadow_separation_check([rec, rec], A1, RADIUS)
    assert report.pairs_overlapping == 1
    assert report.c0_empirical == 0.0


def test_separation_single_point_annuli():
    group, rep = schottky_pair(3)
    recs = [r for r in orbit_table(group, rep, 1) if len(r.word) == 1][:2]
    # one boost and its inverse share an annulus; pick distinct annuli
    # instead by scaling membership: keep only one record per bucket
    seen = set()
    singles = []
    for rec in recs:
        n = math.floor(A1.value(rec.kappa))
        if n not in seen:
            seen.add(n)
            singles.append(rec)
    report = shadow_separation_check(singles[:1], A1, RADIUS)
    assert report.pairs_overlapping == 0
    assert report.c0_empirical == 0.0


def test_separation_requires_isometries():
    group, rep = schottky_pair(3)
    rec = orbit_table(group, rep, 1)[1]
    bare = OrbitRecord(rec.word, rec.displacement, rec.kappa, mob=None)
    with pytest.raises(InvalidInput):
        shadow_separation_check([bare], A1, RADIUS)


def test_separation_schottky_scan():
    group, rep = schottky_pair(3)
    recs = orbit_table(group, rep, 6)
    report = shadow_separation_check(recs, A1, RADIUS)
    assert report.pairs_overlapping > 1000
    assert 0.0 < report.c0_empirical < 30.0
    # brute force: every same-annulus pair, its two shadows compared one
    # by one, and the distance of an overlapping pair as a displacement
    annuli = {}
    for rec in recs:
        annuli.setdefault(math.floor(A1.value(rec.kappa)), []).append(
            (rec.mob, shadow_of_isometry(rec.mob, RADIUS)))
    worst, overlapping = 0.0, 0
    for bucket in annuli.values():
        for (mp, sp), (mq, sq) in itertools.combinations(bucket, 2):
            if (angular_distance(sp.center.theta, sq.center.theta)
                    <= sp.half_angle + sq.half_angle):
                overlapping += 1
                worst = max(worst, displacement(mp.inverse() @ mq))
    assert overlapping == report.pairs_overlapping
    assert worst == report.c0_empirical


def test_modular_shadow_mass_band():
    # arc mass of the sampled curve inside each shadow, against e^-a1
    group = modular_group()
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    sample = sorted(limit_curve(rep, group, 8, 1), key=lambda p: p[0].theta)
    masses = []
    for word, mob in enumerate_elements(group, 6):
        if displacement(mob) <= 1.0:
            continue
        sh = shadow_of_isometry(mob, 1.0)
        start = 0.0 if sh.full else wrap_angle(sh.center.theta - sh.half_angle)
        inside = [
            (wrap_angle(bp.theta - start), plane)
            for bp, plane in sample
            if contains(sh, bp.theta)
        ]
        if len(inside) < 2:
            continue
        inside.sort(key=lambda item: item[0])
        mass = sum(
            flag_distance(inside[i][1], inside[i + 1][1])
            for i in range(len(inside) - 1)
        )
        if mass <= 0.0:
            continue
        kv = word_cartan(rep, word)
        masses.append(mass * math.exp(A1.value(kv)))
    arr = np.array(masses)
    assert len(arr) > 50
    assert arr.max() / arr.min() < 1e3


def test_ball_shadow_sandwich(monkeypatch):
    # no sampled limit point inside the inner ball escapes the shadow
    group, rep = schottky_pair(2)
    deeper_sample(monkeypatch, 6)
    report = distortion_scan(group, rep, A1, RADIUS, 5)
    inner_scale = 0.5 * report.min_ratio
    sample = sorted(limit_curve(rep, group, 6, 1), key=lambda p: p[0].theta)
    thetas = np.array([bp.theta for bp, _ in sample])
    cloud = _embed([plane for _, plane in sample])
    checked = 0
    for word, mob in enumerate_elements(group, 5):
        if displacement(mob) <= RADIUS:
            continue
        sh = shadow_of_isometry(mob, RADIUS)
        gap = np.abs(np.mod(thetas - sh.center.theta + math.pi, 2 * math.pi) - math.pi)
        center = int(np.argmin(gap))
        kv = word_cartan(rep, word)
        inner = inner_scale * math.exp(-A1.value(kv))
        dists = np.linalg.norm(cloud - cloud[center], axis=1)
        for idx in np.nonzero(dists < inner)[0]:
            checked += 1
            assert contains(sh, thetas[idx])
    assert checked > 1000


def test_dimension_below_exponent():
    from orbitlab.critexp import estimate_exponent, sample_from_enumeration

    group, rep = schottky_pair(3)
    curve = limit_curve(rep, group, 8, 1)
    est = box_dimension(
        [p for _, p in curve], [0.5 * 10 ** (-k / 2.0) for k in range(6)]
    )
    vs = sample_from_enumeration(group, rep, A1, max_len=8)
    exponent = estimate_exponent(vs)
    assert est.value <= exponent.value + 0.15
