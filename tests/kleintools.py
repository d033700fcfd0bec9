"""Klein-model oracles that only the tests use.

DiscPoint is a point of the open disc in Klein coordinates, dist_h the
Hilbert cross ratio distance between two of them, and apply_isometry a
Mobius value's action on one: together an independent route to the
displacements and shadows that hypdisc reads from the matrix alone.
contains is a shadow arc's membership predicate.
"""

import math

import numpy as np

from orbitlab.errors import InvalidInput
from orbitlab.hypdisc import angular_distance

# points must stay this far inside the closed disc
BOUNDARY_MARGIN = 1e-12

# relative tolerance for "same point" predicates
POINT_TOL = 1e-13


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


def apply_isometry(m, p):
    """Image of an interior point under a Mobius value, via the action
    X -> M X M^T on the determinant hyperboloid."""
    x_mat = np.array([[1.0 + p.x, p.y], [p.y, 1.0 - p.x]])
    y_mat = m.mat @ x_mat @ m.mat.T
    t = 0.5 * (y_mat[0, 0] + y_mat[1, 1])
    return DiscPoint(0.5 * (y_mat[0, 0] - y_mat[1, 1]) / t, y_mat[0, 1] / t)


def contains(shadow, theta):
    """Whether the boundary angle theta lies on the closed shadow arc."""
    if shadow.full:
        return True
    return angular_distance(theta, shadow.center.theta) <= shadow.half_angle
