import math

import mpmath
import numpy as np
import pytest
from buildtools import boost
from kleintools import DiscPoint, apply_isometry, contains, dist_h

from orbitlab.errors import InvalidInput, OrbitLabError
from orbitlab.hypdisc import (
    BoundaryPoint,
    Mobius,
    Shadow,
    angular_distance,
    apply_boundary,
    classify,
    displacement,
    fixed_points,
    shadow_of_isometry,
    wrap_angle,
)
from orbitlab.words import modular_group, standard_schottky

HALF_LN3 = 0.54930614433405489

ORIGIN = DiscPoint(0.0, 0.0)


def random_isometry(rng, reflect=False):
    m = rng.normal(size=(2, 2))
    while abs(np.linalg.det(m)) < 0.1:
        m = rng.normal(size=(2, 2))
    want = -1.0 if reflect else 1.0
    if np.linalg.det(m) * want < 0:
        m = m @ np.diag([1.0, -1.0])
    return Mobius(m)


def random_point(rng, rmax=0.9):
    r = rmax * math.sqrt(rng.uniform())
    t = rng.uniform(0, 2 * math.pi)
    return DiscPoint(r * math.cos(t), r * math.sin(t))


def ray_hits_ball(b0, theta, z, r, steps=4000):
    """Independent oracle: walk the chord from b0 toward boundary angle
    theta and report whether it enters the closed ball B(z, r)."""
    half = 0.5 * theta
    ex, ey = math.cos(theta), math.sin(theta)
    best = dist_h(b0, z)
    for k in range(1, steps):
        s = k / steps
        x = b0.x + s * (ex - b0.x)
        y = b0.y + s * (ey - b0.y)
        if math.hypot(x, y) >= 1 - 1e-9:
            break
        best = min(best, dist_h(DiscPoint(x, y), z))
    return best <= r


class TestDistance:
    def test_half_radius_value(self):
        assert dist_h(ORIGIN, DiscPoint(0.5, 0.0)) == pytest.approx(
            HALF_LN3, abs=1e-15
        )

    def test_symmetry_and_zero(self):
        p = DiscPoint(0.3, -0.4)
        q = DiscPoint(-0.1, 0.7)
        assert dist_h(p, q) == pytest.approx(dist_h(q, p), abs=1e-13)
        assert dist_h(p, p) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p, q, s = (random_point(rng) for _ in range(3))
            assert dist_h(p, s) <= dist_h(p, q) + dist_h(q, s) + 1e-12

    def test_isometry_invariance_including_reflections(self):
        rng = np.random.default_rng(11)
        for k in range(60):
            m = random_isometry(rng, reflect=(k % 2 == 0))
            p, q = random_point(rng), random_point(rng)
            d0 = dist_h(p, q)
            d1 = dist_h(apply_isometry(m, p), apply_isometry(m, q))
            assert d1 == pytest.approx(d0, rel=1e-10, abs=1e-12)

    def test_point_outside_disc_rejected(self):
        with pytest.raises(InvalidInput):
            DiscPoint(1.0, 0.0)
        with pytest.raises(InvalidInput):
            DiscPoint(0.8, 0.7)


class TestIsometries:
    def test_boost_moves_origin_by_length(self):
        for length in (0.25, 1.0, 3.0):
            img = apply_isometry(boost(length), ORIGIN)
            assert dist_h(ORIGIN, img) == pytest.approx(length, abs=1e-12)
            assert img.y == pytest.approx(0.0, abs=1e-15)
            assert img.x > 0

    def test_rotation_acts_on_boundary_by_angle(self):
        rot = Mobius.rotation(0.9)
        img = apply_boundary(rot, BoundaryPoint(0.3))
        assert angular_distance(img.theta, 1.2) <= 1e-13

    def test_boundary_action_matches_interior_limit(self):
        rng = np.random.default_rng(3)
        for k in range(40):
            m = random_isometry(rng, reflect=(k % 3 == 0))
            theta = rng.uniform(0, 2 * math.pi)
            b = apply_boundary(m, BoundaryPoint(theta))
            near = DiscPoint(
                (1 - 1e-7) * math.cos(theta), (1 - 1e-7) * math.sin(theta)
            )
            img = apply_isometry(m, near)
            assert angular_distance(math.atan2(img.y, img.x), b.theta) <= 1e-4

    def test_group_law_and_inverse(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            a = random_isometry(rng)
            b = random_isometry(rng, reflect=True)
            p = random_point(rng)
            lhs = apply_isometry(a @ b, p)
            rhs = apply_isometry(a, apply_isometry(b, p))
            assert lhs == rhs
            back = apply_isometry(a.inverse(), apply_isometry(a, p))
            assert back == p

    def test_reflection_keeps_orientation_flag(self):
        r = Mobius(np.diag([1.0, -1.0]))
        assert r.orientation == -1
        assert (r @ r).is_identity()

    def test_inverse_is_the_signed_adjugate(self):
        t_inv = modular_group().image("T").inverse()
        assert np.array_equal(t_inv.mat, [[1.0, -1.0], [0.0, 1.0]])
        r = Mobius(np.array([[1.0, 2.0], [0.0, -1.0]]))
        assert np.array_equal(r.inverse().mat, r.mat) and r.inverse().orientation == -1
        back = r @ r.inverse()
        assert back.orientation == 1 and np.array_equal(back.mat, np.eye(2))

    @pytest.mark.parametrize("length", [12, 16, 30])
    def test_long_product_displacement_against_mpmath(self, length):
        # a chain of @ multiplies the generators' matrices as they are,
        # so its displacement, and its inverse's, is that of their exact
        # product
        group = standard_schottky(4.0)
        rng = np.random.default_rng(length)
        for _ in range(20):
            word = [group.alphabet[rng.integers(4)]]
            while len(word) < length:
                letter = group.alphabet[rng.integers(4)]
                if letter != group.inverse_letter[word[-1]]:
                    word.append(letter)
            mob = Mobius(np.eye(2))
            with mpmath.workdps(60):
                acc = mpmath.eye(2)
                for letter in word:
                    mob = mob @ group.image(letter)
                    acc = acc * mpmath.matrix(group.image(letter).mat.tolist())
                sq = sum(x * x for x in acc) / abs(mpmath.det(acc))
                want = float(mpmath.acosh(sq / 2))
            assert displacement(mob) == pytest.approx(want, rel=1e-13), "".join(word)
            assert displacement(mob.inverse()) == pytest.approx(want, rel=1e-13)


class TestClassify:
    def test_kinds(self):
        assert classify(Mobius(np.eye(2))) == "identity"
        assert classify(Mobius.rotation(1.0)) == "elliptic"
        assert classify(Mobius(np.array([[1.0, 1.0], [0.0, 1.0]]))) == "parabolic"
        assert classify(Mobius(np.diag([2.0, 0.5]))) == "hyperbolic"

    def test_projective_sign_irrelevant(self):
        m = np.array([[-2.0, 0.0], [0.0, -0.5]])
        assert classify(Mobius(m)) == "hyperbolic"

    def test_reflection_rejected(self):
        with pytest.raises(InvalidInput):
            classify(Mobius(np.diag([1.0, -1.0])))

    def test_trace_window_is_parabolic(self):
        m = np.array([[1.0, 1e-6], [0.0, 1.0]])
        assert classify(Mobius(m)) == "parabolic"

    def test_near_identity_is_identity(self):
        m = np.array([[1.0 + 1e-12, 0.0], [0.0, 1.0 / (1.0 + 1e-12)]])
        assert classify(Mobius(m)) == "identity"


class TestFixedPoints:
    def test_diagonal_boost(self):
        plus, minus = fixed_points(Mobius(np.diag([2.0, 0.5])))
        assert angular_distance(plus.theta, 0.0) <= 1e-12
        assert angular_distance(minus.theta, math.pi) <= 1e-12

    def test_attracting_point_attracts(self):
        rng = np.random.default_rng(23)
        seen = 0
        for _ in range(60):
            g = random_isometry(rng)
            if classify(g) != "hyperbolic" or g.trace_abs() < 2.5:
                continue
            plus, minus = fixed_points(g)
            probe = BoundaryPoint(0.5 * (plus.theta + minus.theta))
            for _ in range(80):
                probe = apply_boundary(g, probe)
            assert angular_distance(probe.theta, plus.theta) <= 1e-6
            seen += 1
        assert seen >= 5

    def test_fixed_points_are_fixed(self):
        g = Mobius(np.array([[2.0, 1.0], [1.0, 1.0]]))
        for fp in fixed_points(g):
            img = apply_boundary(g, fp)
            assert angular_distance(img.theta, fp.theta) <= 1e-12

    def test_parabolic_single_point_twice(self):
        p, q = fixed_points(Mobius(np.array([[1.0, 1.0], [0.0, 1.0]])))
        assert angular_distance(p.theta, q.theta) <= 1e-12

    def test_elliptic_rejected(self):
        with pytest.raises(InvalidInput):
            fixed_points(Mobius.rotation(1.0))


def carrying_origin_to(z):
    """A Mobius value m with m(o) = z: a boost by d(o, z), then the
    rotation onto the direction of z."""
    return Mobius.rotation(math.atan2(z.y, z.x)) @ boost(dist_h(ORIGIN, z))


class TestShadow:
    """shadow_of_isometry(m, r) is the arc of rays from the origin that
    meet the closed ball B(z, r) around z = m(o)."""

    # frozen: asin(sinh 1 / sinh 2) for a ball of radius 1 at distance 2
    HALF_AT_DIST2 = 0.32998320210789966

    def test_half_angle_closed_form(self):
        sh = shadow_of_isometry(boost(2.0), 1.0)
        assert sh.half_angle == pytest.approx(self.HALF_AT_DIST2, abs=1e-13)
        assert angular_distance(sh.center.theta, 0.0) <= 1e-13
        assert not sh.full

    def test_half_angle_against_ray_oracle(self):
        m = boost(2.0) @ Mobius.rotation(0.7)
        z = apply_isometry(m, ORIGIN)
        sh = shadow_of_isometry(m, 1.0)
        for off in (-1.5, -1.01, -0.99, 0.0, 0.99, 1.01, 1.5):
            theta = sh.center.theta + off * sh.half_angle
            hits = ray_hits_ball(ORIGIN, theta, z, 1.0)
            # the ray oracle is a coarse walker, stay away from the edge
            if abs(off) < 0.995:
                assert hits
            elif abs(off) > 1.05:
                assert not hits

    def test_base_in_ball_gives_full_circle(self):
        m = carrying_origin_to(DiscPoint(0.1, 0.0))
        sh = shadow_of_isometry(m, 5.0)
        assert sh.full
        assert contains(sh, 2.0) and contains(sh, -1.0)

    def test_isometry_equivariance(self):
        # an isometry g fixing the origin, a rotation or a reflection
        # through it, carries the shadow of m(o) onto that of g(m(o))
        rng = np.random.default_rng(29)
        flip = Mobius(np.diag([1.0, -1.0]))
        for k in range(25):
            m = random_isometry(rng, reflect=(k % 2 == 0))
            if displacement(m) <= 0.35:
                continue
            g = Mobius.rotation(rng.uniform(0, 2 * math.pi))
            if k % 3 == 0:
                g = flip @ g
            sh = shadow_of_isometry(m, 0.3)
            moved = shadow_of_isometry(g @ m, 0.3)
            for off in (-0.7, 0.0, 0.7, 1.3):
                theta = sh.center.theta + off * sh.half_angle
                img = apply_boundary(g, BoundaryPoint(theta))
                assert contains(moved, img.theta) == (abs(off) <= 1.0)

    def test_radius_must_be_positive(self):
        with pytest.raises(InvalidInput):
            shadow_of_isometry(carrying_origin_to(DiscPoint(0.5, 0.0)), 0.0)

    def test_monotone_in_radius(self):
        m = carrying_origin_to(DiscPoint(0.8, 0.1))
        halves = [shadow_of_isometry(m, r).half_angle for r in (0.2, 0.5, 0.9)]
        assert halves[0] < halves[1] < halves[2]


class EmptyShadow(OrbitLabError):
    """No limit point inside the shadow arc."""


def coarse_endpoints(sh, limit_pts):
    """First and last limit point inside the arc, ordered along the arc
    from its counterclockwise start (for the full circle: by plain
    angle); the reference scan that limitgeom._arc_extremes replaces."""
    if sh.full:
        inside = list(limit_pts)
        key = lambda p: p.theta
    else:
        start = wrap_angle(sh.center.theta - sh.half_angle)
        inside = [p for p in limit_pts if contains(sh, p.theta)]
        key = lambda p: wrap_angle(p.theta - start)
    if not inside:
        raise EmptyShadow("no limit point inside the shadow")
    return (min(inside, key=key), max(inside, key=key))


class TestCoarseEndpoints:
    def test_orders_along_arc(self):
        sh = Shadow(0.0, 1.0)
        pts = [BoundaryPoint(t) for t in (-0.8, -0.2, 0.5, 2.5)]
        lo, hi = coarse_endpoints(sh, pts)
        assert angular_distance(lo.theta, -0.8) <= 1e-12
        assert angular_distance(hi.theta, 0.5) <= 1e-12

    def test_arc_through_zero(self):
        sh = Shadow(0.1, 0.5)
        pts = [BoundaryPoint(t) for t in (6.0, 0.3, 1.4)]
        lo, hi = coarse_endpoints(sh, pts)
        assert angular_distance(lo.theta, 6.0) <= 1e-12
        assert angular_distance(hi.theta, 0.3) <= 1e-12

    def test_full_circle_uses_plain_angle_order(self):
        sh = Shadow(0.0, math.pi, full=True)
        pts = [BoundaryPoint(t) for t in (5.1, 0.4, 3.3)]
        lo, hi = coarse_endpoints(sh, pts)
        assert angular_distance(lo.theta, 0.4) <= 1e-12
        assert angular_distance(hi.theta, 5.1) <= 1e-12

    def test_empty_raises(self):
        sh = Shadow(0.0, 0.1)
        with pytest.raises(EmptyShadow):
            coarse_endpoints(sh, [BoundaryPoint(2.0)])


def test_equal_boundary_points_are_unhashable():
    # equality allows 1e-12 of angle, which no hash can respect: points
    # on either side of angle 0, or of a rounding boundary, compare equal
    for s, t in ((1e-13, 2.0 * math.pi - 1e-13), (1.00000000005 - 4e-13, 1.00000000005 + 4e-13)):
        a, b = BoundaryPoint(s), BoundaryPoint(t)
        assert a == b and a.theta != b.theta
        with pytest.raises(TypeError):
            hash(a)
