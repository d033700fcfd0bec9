"""Flag builders and checks that only the tests use.

attracting_flag gives the eigenbasis flag of one matrix, veronese_flag
flags of known positivity, dual the flag of orthogonal complements,
and transverse the one-pair call of the package's pair check.
"""

import numpy as np

from orbitlab.errors import NotTransverse
from orbitlab.flags import Flag, _eigenbasis, _require_transverse
from orbitlab.hypdisc import Mobius
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
