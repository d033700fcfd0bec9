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

Orbit quantities are read from the origin o and from the matrix alone,
never from interior coordinates, which pin to the boundary long before
the displacements of long words stop being representable. Each 2x2
formula lives here once, as a kernel on (N, 2, 2) stacks that consumers
call a whole level at a time: _half_lengths (displacements and boosts),
_eigenvectors (fixed points, limit flags, axis reflections) and
_shadow_arcs; displacement, fixed_points and shadow_of_isometry are
their one-row calls. Geodesics are straight chords, which makes shadows
exact circular arcs: the shadow of the ball B(m o, r) seen from o is
the arc of half angle asin(sinh r / sinh d(o, m o)) around the
direction of m o (a right triangle relation between the tangent ray,
the center distance and the radius). The tests check the matrix route
against Klein coordinates, an independent route, where coordinates
still resolve.
"""

import math

import numpy as np

from .errors import InvalidInput

TWO_PI = 2.0 * math.pi

# |trace| window around 2 that counts as parabolic
TRACE_TOL = 1e-9


def wrap_angle(theta):
    """Reduce an angle to [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return t


def angular_distance(a, b):
    """Shorter arc length between two angles, in [0, pi]."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, TWO_PI - d)


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

    def __lt__(self, other):
        return self.theta < other.theta


class Mobius:
    """A projective real 2x2 matrix together with its orientation.

    A matrix from outside is scaled to |det| = 1 once, by the
    constructor. The product of two values is the product of their
    matrices and of their orientations, and the inverse is orientation
    times the adjugate, which is exact for |det| = 1; neither takes a
    determinant. (M, sigma) and (-M, sigma) are the same element.
    orientation is +1 for det > 0 and -1 for det < 0 (reflections and
    glide reflections).
    """

    __slots__ = ("mat", "orientation")

    def __init__(self, mat):
        m = np.asarray(mat, dtype=float)
        if m.shape != (2, 2):
            raise InvalidInput("Mobius needs a 2x2 matrix")
        # products in extended precision: a*d - b*c of large entries
        # cancels in float64 while the true determinant stays near one
        e = m.astype(np.longdouble)
        det = float(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0])
        if abs(det) < 1e-300:
            raise InvalidInput("singular matrix is not an isometry")
        m = m / math.sqrt(abs(det))
        self.mat = m
        self.orientation = 1 if det > 0 else -1

    @classmethod
    def _normalized(cls, mat, orientation):
        """A value taken as it is: mat is a product of |det| = 1 matrices
        and orientation the product of their orientations."""
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

    def __matmul__(self, other):
        return Mobius._normalized(self.mat @ other.mat,
                                  self.orientation * other.orientation)

    def inverse(self):
        a, b, c, d = self.mat.ravel()
        return Mobius._normalized(self.orientation * np.array([[d, -b], [-c, a]]),
                                  self.orientation)

    def trace_abs(self):
        return abs(self.mat[0, 0] + self.mat[1, 1])

    def is_identity(self, tol=TRACE_TOL):
        m = self.mat if self.mat[0, 0] >= 0 else -self.mat
        return self.orientation == 1 and bool(np.all(np.abs(m - np.eye(2)) <= tol))

    def __repr__(self):
        sign = "+" if self.orientation == 1 else "-"
        return "Mobius(%s, %s)" % (np.array2string(self.mat, precision=6), sign)


class Shadow:
    """A closed boundary arc: all directions from the origin whose ray
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

    def __repr__(self):
        return "Shadow(center=%r, half_angle=%r, full=%r)" % (
            self.center.theta,
            self.half_angle,
            self.full,
        )


def displacement(m):
    """Hyperbolic distance from the origin to its image under m, twice
    one row of _half_lengths."""
    return float(2.0 * _half_lengths(m.mat[np.newaxis])[0])


def _half_lengths(mats):
    """mu with singular values e^mu, e^-mu of stacked unimodular 2x2
    matrices from the Frobenius norm alone, 2 mu = d(o, m o): finite far
    past where Klein coordinates pin to the boundary, until squared
    entries overflow once mu passes about 354."""
    fro2 = (mats * mats).sum(axis=(1, 2))
    return 0.5 * np.arccosh(np.maximum(1.0, 0.5 * fro2))


def apply_boundary(m, bp):
    """Image of a boundary point: projective action on the direction w."""
    w = m.mat @ bp.direction()
    return BoundaryPoint(2.0 * math.atan2(w[1], w[0]))


def classify(m):
    """Sort an orientation preserving Mobius value into identity, elliptic,
    parabolic or hyperbolic by |trace| against 2, within TRACE_TOL."""
    if m.orientation != 1:
        raise InvalidInput("orientation reversing values are not classified here")
    if m.is_identity():
        return "identity"
    tr = m.trace_abs()
    if tr > 2.0 + TRACE_TOL:
        return "hyperbolic"
    if tr >= 2.0 - TRACE_TOL:
        return "parabolic"
    return "elliptic"


def fixed_points(m):
    """Attracting and repelling boundary fixed points of a hyperbolic value,
    from one row of _fixed_angles; for a parabolic value the unique fixed
    point is returned twice."""
    kind = classify(m)
    if kind not in ("hyperbolic", "parabolic"):
        raise InvalidInput("no boundary fixed points for %s values" % kind)
    plus, minus = (BoundaryPoint(t[0]) for t in _fixed_angles(m.mat[np.newaxis]))
    return (plus, plus) if kind == "parabolic" else (plus, minus)


def _eigenvectors(mats):
    """Unit eigenvectors of stacked real 2x2 matrices, (N, 2) arrays for
    the larger eigenvalue modulus, then, if asked for, the smaller: the
    larger eigenvalue from trace and det, the other det over it, each
    kernel the normal of the longer row. Immune to the balancing loss of
    eigensolvers on graded matrices; a negative discriminant reads as 0."""
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    tr, det = a + d, a * d - b * c
    root = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    big = 0.5 * (tr + np.where(tr >= 0.0, root, -root))
    for lam in (big, det / big):
        v1, v2 = np.stack([b, lam - a], axis=1), np.stack([lam - d, c], axis=1)
        v = np.where((np.hypot(*v1.T) >= np.hypot(*v2.T))[:, np.newaxis], v1, v2)
        yield v / np.hypot(*v.T)[:, np.newaxis]


def _fixed_angles(mats):
    """Boundary angles in [0, 2*pi) of _eigenvectors, attracting then
    repelling, each read with its sign for the trace nonnegative +-m."""
    sign = np.where(mats[:, 0, 0] + mats[:, 1, 1] >= 0.0, 1.0, -1.0)
    for v in _eigenvectors(mats):
        yield np.mod(2.0 * np.arctan2(sign * v[:, 1], sign * v[:, 0]), TWO_PI)


def _shadow_arcs(mats, r):
    """Shadows from o of the balls B(m o, r) of stacked matrices: centre
    angles in [0, 2*pi), the direction of m o read from M M^T (its image
    on the determinant hyperboloid), half angles, and whether o lies in
    the ball, where the half angle is pi, the whole circle."""
    if r <= 0.0:
        raise InvalidInput("shadow radius must be positive")
    y_mat = mats @ np.swapaxes(mats, 1, 2)
    centres = np.mod(np.arctan2(y_mat[:, 0, 1], 0.5 * (y_mat[:, 0, 0] - y_mat[:, 1, 1])),
                     TWO_PI)
    dist = 2.0 * _half_lengths(mats)
    full = dist <= r
    halves = np.full(len(mats), math.pi)
    halves[~full] = np.arcsin(math.sinh(r) / np.sinh(dist[~full]))
    return centres, halves, full


def shadow_of_isometry(m, r):
    """Shadow of the orbit point m(o) seen from the origin o, one row of
    _shadow_arcs."""
    centres, halves, full = _shadow_arcs(m.mat[np.newaxis], r)
    return Shadow(centres[0], halves[0], full=bool(full[0]))
