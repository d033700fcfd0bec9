"""Flag builders and checks that only the tests use.

attracting_flag gives the eigenbasis flag of one matrix, veronese_flag
flags of known positivity, dual the flag of orthogonal complements,
transverse the one-pair call of the package's pair check, and
listed_sample the list of (BoundaryPoint, view) pairs that limit_flags
and limit_curve once returned, the reference of their lazy sequence.
"""

import numpy as np

from orbitlab.errors import NotTransverse
from orbitlab.flags import (
    Flag,
    GrassPoint,
    _eigenbasis,
    _FlagSet,
    _limit_stack,
    _require_transverse,
    _views,
)
from orbitlab.hypdisc import TWO_PI, BoundaryPoint, Mobius
from orbitlab.reps import ScaledMatrix, sym_power_matrix


def attracting_flag(m):
    """Eigenbasis flag of a square matrix, a ScaledMatrix or a Mobius, by
    decreasing eigenvalue modulus; flags._eigenbasis refuses complex
    pairs and near-ties, which have no attracting flag."""
    return Flag(_eigenbasis(m.mat if isinstance(m, (ScaledMatrix, Mobius))
                            else np.array(m, dtype=float)))


def veronese_flag(t, d):
    """Osculating flag of the moment curve direction (1, t) under the
    degree d-1 symmetric power."""
    return Flag(sym_power_matrix(np.array([[1.0, 0.0], [float(t), 1.0]]), d))


def dual(f):
    """Flag of orthogonal complements, reversing the basis order."""
    return Flag(f.basis[:, ::-1])


def transverse(f, g):
    """Whether complementary pieces meet trivially: _require_transverse of a pair."""
    try:
        _require_transverse([f, g])
    except NotTransverse:
        return False
    return True


def _boundary_points(thetas):
    """BoundaryPoints of an array of angles, wrapped in numpy as wrap_angle wraps."""
    t = np.fmod(thetas, TWO_PI)
    points = [object.__new__(BoundaryPoint) for _ in range(len(t))]
    for point, theta in zip(points, np.where(t < 0.0, t + TWO_PI, t).tolist()):
        point.theta = theta
    return points


def listed_sample(rep, group, depth, k=None):
    """limit_flags(rep, group, depth), or limit_curve with k, built as a
    list of every pair at once: one BoundaryPoint and one view per point,
    the flags sharing one _FlagSet, the planes viewing their stack."""
    theta, stack = _limit_stack(rep, group, depth, k)
    cls, owner = (Flag, _FlagSet(stack)) if k is None else (GrassPoint, stack)
    return list(zip(_boundary_points(theta), _views(cls, stack, owner)))
