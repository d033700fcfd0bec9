"""Hyperbolic plane geometry in the Klein model.

Points live in the open unit disc; the metric is the Hilbert (cross ratio)
distance, which on the unit disc agrees with the curvature -1 hyperbolic
metric. Isometries are given by real 2x2 matrices up to sign: a matrix g
acts on the space of symmetric 2x2 matrices by X -> g X g^T, which preserves
the determinant form of signature (2,1); interior points of the disc are
the rays of positive definite X with det X > 0, boundary points are the
rank-one rays X = w w^T, so the boundary action is the projective action on
w in RP^1 and the boundary angle of a direction w = (cos phi, sin phi) is
theta = 2 phi.

Under this identification a matrix with negative determinant acts as an
orientation reversing isometry, so reflections are ordinary Mobius values
with orientation -1 and no special casing in the action.

Geodesics are straight chords, which makes shadows exact circular arcs: the
shadow of the ball B(z, r) seen from the origin is the arc of half angle
asin(sinh r / sinh d(0, z)) around the direction of z (a right triangle
relation between the tangent ray, the center distance and the radius).
"""

import math

import numpy as np

from .errors import EmptyShadow, InvalidInput

TWO_PI = 2.0 * math.pi

# |trace| window around 2 that counts as parabolic; configurable per call.
TRACE_TOL = 1e-9

# points must stay this far inside the closed disc
BOUNDARY_MARGIN = 1e-12

# relative tolerance for "same point" predicates
POINT_TOL = 1e-13


def wrap_angle(theta):
    """Reduce an angle to [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return t


def _det2(m):
    """Determinant of a 2x2, or of each 2x2 stacked on leading axes, with
    the products taken in extended precision.

    a*d - b*c cancels catastrophically once entries pass ~1e8 while the
    true determinant stays near one, and the normalization in Mobius
    then amplifies the error on every multiplication; the 64-bit mantissa
    of longdouble moves that wall out past entries of ~1e9.
    """
    m = np.asarray(m, dtype=np.longdouble)
    return (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).astype(float)


def _unit_det_rows(mats):
    """Stacked (N, 2, 2) matrices normalized to |det| = 1 as Mobius
    normalizes one, with their orientations as an int array."""
    det = _det2(mats)
    if np.any(np.abs(det) < 1e-300):
        raise InvalidInput("singular matrix is not an isometry")
    return mats / np.sqrt(np.abs(det))[:, None, None], np.where(det > 0, 1, -1)


def angular_distance(a, b):
    """Shorter arc length between two angles, in [0, pi]."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)


class DiscPoint:
    """A point of the open disc in Klein coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x = float(x)
        y = float(y)
        if math.hypot(x, y) >= 1.0 - BOUNDARY_MARGIN:
            raise InvalidInput(
                "point with norm %.17g is not inside the disc" % math.hypot(x, y)
            )
        self.x = x
        self.y = y

    def __repr__(self):
        return "DiscPoint(%r, %r)" % (self.x, self.y)

    def __eq__(self, other):
        return (
            isinstance(other, DiscPoint)
            and abs(self.x - other.x) <= POINT_TOL
            and abs(self.y - other.y) <= POINT_TOL
        )

    def __hash__(self):
        return hash((round(self.x, 12), round(self.y, 12)))


ORIGIN = DiscPoint(0.0, 0.0)


class BoundaryPoint:
    """A point of the boundary circle, stored as an angle in [0, 2*pi)."""

    __slots__ = ("theta",)

    def __init__(self, theta):
        self.theta = wrap_angle(float(theta))

    def direction(self):
        """Unit vector w with boundary angle theta (so theta = 2 * angle(w))."""
        half = 0.5 * self.theta
        return np.array([math.cos(half), math.sin(half)])

    def __repr__(self):
        return "BoundaryPoint(%r)" % self.theta

    def __eq__(self, other):
        return isinstance(other, BoundaryPoint) and (
            angular_distance(self.theta, other.theta) <= 1e-12
        )

    def __hash__(self):
        return hash(round(self.theta, 10))

    def __lt__(self, other):
        return self.theta < other.theta


class Mobius:
    """A projective real 2x2 matrix together with its orientation.

    The matrix is normalized to |det| = 1; (M, sigma) and (-M, sigma) are
    the same element. orientation is +1 for det > 0 and -1 for det < 0
    (reflections and glide reflections).
    """

    __slots__ = ("mat", "orientation")

    def __init__(self, mat):
        m = np.asarray(mat, dtype=float)
        if m.shape != (2, 2):
            raise InvalidInput("Mobius needs a 2x2 matrix")
        det = _det2(m)
        if abs(det) < 1e-300:
            raise InvalidInput("singular matrix is not an isometry")
        m = m / math.sqrt(abs(det))
        self.mat = m
        self.orientation = 1 if det > 0 else -1

    @classmethod
    def identity(cls):
        return cls(np.eye(2))

    @classmethod
    def _normalized(cls, mat, orientation):
        """A value whose matrix is already normalized to |det| = 1, taken
        as it is, without a second determinant."""
        mob = cls.__new__(cls)
        mob.mat = mat
        mob.orientation = orientation
        return mob

    @classmethod
    def rotation(cls, angle):
        """Rotation of the disc about the origin by the given boundary angle."""
        half = 0.5 * angle
        c, s = math.cos(half), math.sin(half)
        return cls(np.array([[c, -s], [s, c]]))

    @classmethod
    def boost(cls, length):
        """Translation along the horizontal axis moving the origin a
        hyperbolic distance |length| toward angle 0 (length > 0) or pi."""
        s = 0.5 * length
        return cls(np.diag([math.exp(s), math.exp(-s)]))

    def __matmul__(self, other):
        return Mobius(self.mat @ other.mat)

    def inverse(self):
        a, b, c, d = self.mat.ravel()
        det = _det2(self.mat)
        return Mobius(np.array([[d, -b], [-c, a]]) / det)

    def trace_abs(self):
        return abs(self.mat[0, 0] + self.mat[1, 1])

    def is_identity(self, tol=TRACE_TOL):
        m = self.mat if self.mat[0, 0] >= 0 else -self.mat
        return self.orientation == 1 and bool(np.all(np.abs(m - np.eye(2)) <= tol))

    def almost_equal(self, other, tol=1e-10):
        a, b = self.mat, other.mat
        return (
            self.orientation == other.orientation
            and (np.abs(a - b).max() <= tol or np.abs(a + b).max() <= tol)
        )

    def __repr__(self):
        sign = "+" if self.orientation == 1 else "-"
        return "Mobius(%s, %s)" % (np.array2string(self.mat, precision=6), sign)


class Shadow:
    """A closed boundary arc: all directions from a base point whose ray
    meets a closed metric ball."""

    __slots__ = ("center", "half_angle", "full")

    def __init__(self, center, half_angle, full=False):
        if half_angle <= 0.0:
            raise InvalidInput("shadow half angle must be positive")
        if full:
            half_angle = math.pi
        self.center = center if isinstance(center, BoundaryPoint) else BoundaryPoint(center)
        self.half_angle = float(half_angle)
        self.full = bool(full)

    def contains(self, theta):
        if self.full:
            return True
        return angular_distance(theta, self.center.theta) <= self.half_angle

    def start(self):
        """Counterclockwise start of the arc."""
        return wrap_angle(self.center.theta - self.half_angle)

    def overlaps(self, other):
        if self.full or other.full:
            return True
        gap = angular_distance(self.center.theta, other.center.theta)
        return gap <= self.half_angle + other.half_angle

    def __repr__(self):
        return "Shadow(center=%r, half_angle=%r, full=%r)" % (
            self.center.theta,
            self.half_angle,
            self.full,
        )


def dist_h(p, q):
    """Hilbert cross ratio distance between two interior points."""
    if not isinstance(p, DiscPoint) or not isinstance(q, DiscPoint):
        raise InvalidInput("dist_h needs interior points")
    dx = q.x - p.x
    dy = q.y - p.y
    ell = math.hypot(dx, dy)
    if ell < 1e-16:
        return 0.0
    ux, uy = dx / ell, dy / ell
    # chord parameters where |p + t u| = 1; t_minus < 0 < ell < t_plus
    pu = p.x * ux + p.y * uy
    rad = math.sqrt(pu * pu + 1.0 - (p.x * p.x + p.y * p.y))
    t_plus = -pu + rad
    t_minus = -pu - rad
    num = (ell - t_minus) * t_plus
    den = (-t_minus) * (t_plus - ell)
    return 0.5 * math.log(num / den)


def displacement(m, b0=ORIGIN):
    """Hyperbolic distance from b0 to its image under m, computed from the
    matrix itself: moving b0 to the origin turns the distance into
    arccosh of half the squared Frobenius norm, which stays finite for
    displacements far beyond where Klein coordinates pin to the boundary."""
    mat = m.mat
    ell = math.hypot(b0.x, b0.y)
    if ell >= 1e-16:
        h = translation_to_origin(b0).mat
        a, b, c, d = h.ravel()
        det = a * d - b * c
        hinv = np.array([[d, -b], [-c, a]]) / det
        mat = h @ mat @ hinv
    sq = float(np.sum(mat * mat))
    return math.acosh(max(1.0, 0.5 * sq))


def apply_isometry(m, p):
    """Image of an interior point under a Mobius value, via the action
    X -> M X M^T on the determinant hyperboloid."""
    x_mat = np.array([[1.0 + p.x, p.y], [p.y, 1.0 - p.x]])
    y_mat = m.mat @ x_mat @ m.mat.T
    t = 0.5 * (y_mat[0, 0] + y_mat[1, 1])
    return DiscPoint(0.5 * (y_mat[0, 0] - y_mat[1, 1]) / t, y_mat[0, 1] / t)


def apply_boundary(m, bp):
    """Image of a boundary point: projective action on the direction w."""
    w = m.mat @ bp.direction()
    return BoundaryPoint(2.0 * math.atan2(w[1], w[0]))


def classify(m, tol=TRACE_TOL):
    """Sort an orientation preserving Mobius value into identity, elliptic,
    parabolic or hyperbolic by |trace| against 2."""
    if m.orientation != 1:
        raise InvalidInput("orientation reversing values are not classified here")
    if m.is_identity(tol):
        return "identity"
    tr = m.trace_abs()
    if tr > 2.0 + tol:
        return "hyperbolic"
    if tr >= 2.0 - tol:
        return "parabolic"
    return "elliptic"


def fixed_points(m, tol=TRACE_TOL):
    """Attracting and repelling boundary fixed points of a hyperbolic value;
    for a parabolic value the unique fixed point is returned twice."""
    kind = classify(m, tol)
    if kind not in ("hyperbolic", "parabolic"):
        raise InvalidInput("no boundary fixed points for %s values" % kind)
    mat = m.mat if (m.mat[0, 0] + m.mat[1, 1]) >= 0 else -m.mat
    a, b, c, d = mat.ravel()
    tr = a + d
    if kind == "hyperbolic":
        root = math.sqrt(tr * tr - 4.0)
        lam_plus = 0.5 * (tr + root)
        lam_minus = 0.5 * (tr - root)
        return (
            _eigen_boundary(a, b, c, d, lam_plus),
            _eigen_boundary(a, b, c, d, lam_minus),
        )
    fp = _eigen_boundary(a, b, c, d, 0.5 * tr)
    return (fp, BoundaryPoint(fp.theta))


def _eigen_boundary(a, b, c, d, lam):
    # kernel direction of (mat - lam I), taking the better conditioned row
    v1 = (b, lam - a)
    v2 = (lam - d, c)
    w = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
    n = math.hypot(*w)
    if n < 1e-14:
        # scalar matrix; any direction is fixed, pick angle 0
        return BoundaryPoint(0.0)
    return BoundaryPoint(2.0 * math.atan2(w[1], w[0]))


def translation_to_origin(b0):
    """An orientation preserving Mobius value carrying b0 to the origin."""
    ell = math.hypot(b0.x, b0.y)
    if ell < 1e-16:
        return Mobius.identity()
    phi = math.atan2(b0.y, b0.x)
    dist = dist_h(ORIGIN, b0)
    return Mobius.boost(-dist) @ Mobius.rotation(-phi)


def shadow(b0, z, r):
    """The closed boundary arc of rays from b0 that meet the closed ball
    of radius r around z; the whole circle when b0 lies in the ball."""
    if r <= 0.0:
        raise InvalidInput("shadow radius must be positive")
    d = dist_h(b0, z)
    if d <= r:
        center = 0.0
        if d > 0.0:
            center = math.atan2(z.y - b0.y, z.x - b0.x)
        return Shadow(center, math.pi, full=True)
    if math.hypot(b0.x, b0.y) < 1e-15:
        center = math.atan2(z.y, z.x)
        half = math.asin(math.sinh(r) / math.sinh(d))
        return Shadow(center, half)
    # move b0 to the origin, build the arc there, carry the arc back
    g = translation_to_origin(b0)
    z0 = apply_isometry(g, z)
    std = shadow(ORIGIN, z0, r)
    return _transport_arc(g.inverse(), std)


def _transport_arc(ginv, std):
    """Carry an arc seen from the origin through an isometry, keeping
    track of which of the two boundary arcs is the image."""
    lo = apply_boundary(ginv, BoundaryPoint(std.center.theta - std.half_angle))
    hi = apply_boundary(ginv, BoundaryPoint(std.center.theta + std.half_angle))
    mid = apply_boundary(ginv, std.center)
    width = wrap_angle(hi.theta - lo.theta)
    offset = wrap_angle(mid.theta - lo.theta)
    if offset <= width:
        return Shadow(lo.theta + 0.5 * width, 0.5 * width)
    width = TWO_PI - width
    return Shadow(hi.theta + 0.5 * width, 0.5 * width)


def shadow_of_isometry(m, r, b0=ORIGIN):
    """Shadow of the orbit point m(b0) seen from b0, computed from the
    matrix alone so that points far past the reach of interior
    coordinates still get correct arcs."""
    if r <= 0.0:
        raise InvalidInput("shadow radius must be positive")
    mat = m.mat
    ell = math.hypot(b0.x, b0.y)
    h = None
    if ell >= 1e-16:
        h = translation_to_origin(b0)
        hm = h.mat
        det = hm[0, 0] * hm[1, 1] - hm[0, 1] * hm[1, 0]
        hinv = np.array([[hm[1, 1], -hm[0, 1]], [-hm[1, 0], hm[0, 0]]]) / det
        mat = hm @ mat @ hinv
    # image of the origin on the determinant hyperboloid is M M^T
    y_mat = mat @ mat.T
    t = 0.5 * (y_mat[0, 0] + y_mat[1, 1])
    ux = 0.5 * (y_mat[0, 0] - y_mat[1, 1])
    uy = y_mat[0, 1]
    d = math.acosh(max(1.0, t))
    center = math.atan2(uy, ux) if math.hypot(ux, uy) > 0.0 else 0.0
    if d <= r:
        std = Shadow(center, math.pi, full=True)
    else:
        std = Shadow(center, math.asin(math.sinh(r) / math.sinh(d)))
    if h is None:
        return std
    if std.full:
        mid = apply_boundary(h.inverse(), std.center)
        return Shadow(mid.theta, math.pi, full=True)
    return _transport_arc(h.inverse(), std)


def coarse_endpoints(sh, limit_pts):
    """First and last limit point inside the arc, ordered along the arc
    from its counterclockwise start (for the full circle: by plain angle)."""
    if sh.full:
        inside = list(limit_pts)
        key = lambda p: p.theta
    else:
        start = sh.start()
        inside = [p for p in limit_pts if sh.contains(p.theta)]
        key = lambda p: wrap_angle(p.theta - start)
    if not inside:
        raise EmptyShadow("no limit point inside the shadow")
    return (min(inside, key=key), max(inside, key=key))
