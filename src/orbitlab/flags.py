"""Flags, flag metrics, limit curves and positivity of flag tuples.

A full flag is stored as an orthonormal basis whose leading k columns
span the k-dimensional piece; QR with positive diagonal makes the
representative unique. Single Grassmannian pieces carry the chordal
projector metric.

Positivity of a flag tuple is decided in a chart: a linear map sends the
first and third flags to the standard ascending and descending
coordinate flags, the remaining flags become unitriangular matrices via
triangular elimination against the descending flag, and the tuple is
positive when some sign-diagonal conjugation makes those matrices factor
through the positive semigroup. The conjugation quotients out the
diagonal ambiguity left by the chart normalization, and the first
matrix's superdiagonal signs pick the only candidate.
"""

import numpy as np
from scipy.linalg import solve_triangular

from .errors import (
    InvalidInput,
    NotPositive,
    NotTransverse,
    SpectrumNotLoxodromic,
)
from .hypdisc import Mobius, _eigenframes
from .reps import ScaledMatrix, sym_power_matrix
from .tpos import Unitriangular, factorize
from .words import _limit_rows, _rep_tables

TRANSVERSE_TOL = 1e-10
LOG_GAP_MIN = 1e-6
RANK_TOL = 1e-12


def _orthonormalize(basis, what):
    basis = np.array(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] < basis.shape[1]:
        raise InvalidInput("%s needs a tall matrix of basis columns" % what)
    q, r = np.linalg.qr(basis)
    scale = np.max(np.abs(basis)) or 1.0
    diag = np.diagonal(r)
    if np.min(np.abs(diag)) <= RANK_TOL * scale:
        raise InvalidInput("%s basis columns are not independent" % what)
    return q * np.sign(diag)


class Flag:
    """Complete flag; leading k columns of the canonical basis span the
    k-dimensional subspace."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        self.basis = _orthonormalize(basis, "flag")
        if self.basis.shape[0] != self.basis.shape[1]:
            raise InvalidInput("a complete flag needs a square basis")

    @property
    def d(self):
        return self.basis.shape[0]

    def piece(self, k):
        if not 1 <= k <= self.d - 1:
            raise InvalidInput("piece index must lie in 1..d-1")
        return GrassPoint(self.basis[:, :k])

    def dual(self):
        """Flag of orthogonal complements, reversing the basis order."""
        return Flag(self.basis[:, ::-1])

    def __repr__(self):
        return "Flag(d=%d)" % self.d


class GrassPoint:
    """k-plane through the origin, held as an orthonormal basis."""

    __slots__ = ("basis", "k")

    def __init__(self, basis):
        self.basis = _orthonormalize(basis, "plane")
        self.k = self.basis.shape[1]

    @property
    def d(self):
        return self.basis.shape[0]

    def projector(self):
        return self.basis @ self.basis.T

    def __repr__(self):
        return "GrassPoint(k=%d, d=%d)" % (self.k, self.d)


def flag_distance(p, q):
    """Chordal metric, one row of _chordal_distances; lines at right
    angles realize the maximum value 1."""
    if not isinstance(p, GrassPoint) or not isinstance(q, GrassPoint):
        raise InvalidInput("flag_distance compares Grassmannian points")
    if p.k != q.k or p.d != q.d:
        raise InvalidInput("points live on different Grassmannians")
    return float(_chordal_distances(p.projector(), q.projector()))


def _chordal_distances(p, q):
    """Frobenius distances over sqrt(2) of stacked projector pairs."""
    return np.linalg.norm(p - q, axis=(-2, -1)) / np.sqrt(2.0)


def _as_square_matrix(m):
    if isinstance(m, ScaledMatrix):
        return m.mat
    if isinstance(m, Mobius):
        return m.mat
    out = np.array(m, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise InvalidInput("need a square matrix")
    return out


def attracting_flag(m):
    """Eigenbasis flag ordered by decreasing eigenvalue modulus.

    Requires a real spectrum with pairwise modulus gaps; complex pairs
    or near-ties have no attracting flag.
    """
    return Flag(_eigenbasis(_as_square_matrix(m)))


def _eigenbasis(mat):
    """Real unit eigenvectors of a square matrix as columns, by
    decreasing eigenvalue modulus; SpectrumNotLoxodromic unless the
    spectrum is real and consecutive moduli differ by a ratio above
    1 + LOG_GAP_MIN."""
    vals, vecs = np.linalg.eig(mat)
    scale = np.max(np.abs(vals))
    if scale == 0.0:
        raise SpectrumNotLoxodromic("zero spectrum")
    if np.max(np.abs(vals.imag)) > 1e-9 * scale:
        raise SpectrumNotLoxodromic("complex eigenvalues, no modulus gaps")
    order = np.argsort(-np.abs(vals.real))
    mods = np.abs(vals.real[order])
    for i in range(len(mods) - 1):
        if mods[i + 1] == 0.0 or mods[i] / mods[i + 1] <= 1.0 + LOG_GAP_MIN:
            raise SpectrumNotLoxodromic(
                "eigenvalue moduli %d and %d are too close" % (i + 1, i + 2)
            )
    return vecs.real[:, order]


def transverse(f, g):
    """All complementary pairs of pieces intersect trivially."""
    if f.d != g.d:
        raise InvalidInput("flags live in different dimensions")
    d = f.d
    for k in range(1, d):
        minor = np.linalg.det(np.hstack([f.basis[:, :k], g.basis[:, : d - k]]))
        if abs(minor) <= TRANSVERSE_TOL:
            return False
    return True


def _chart(f1, f3):
    """Basis whose ascending flag is f1 and descending flag is f3; the
    k-th column spans the line f1^k meet f3^(d-k+1)."""
    d = f1.d
    cols = np.empty((d, d))
    for k in range(1, d + 1):
        stack = np.hstack([f1.basis[:, :k], -f3.basis[:, : d - k + 1]])
        _, s, vt = np.linalg.svd(stack)
        z = vt[-1]
        v = f1.basis[:, :k] @ z[:k]
        norm = np.linalg.norm(v)
        if norm <= 1e-12:
            raise NotTransverse("flags share a proper piece, no chart exists")
        cols[:, k - 1] = v / norm
    return cols


def _eliminate_unitriangular(basis):
    """Unitriangular u whose last k columns span the same k-space as the
    leading k columns of basis, for every k."""
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
    u = done[:, ::-1]
    u = np.triu(u)
    np.fill_diagonal(u, 1.0)
    return Unitriangular(u)


def _positive_in_some_chart(units):
    """Whether some sign-diagonal conjugation makes every unit factor
    positively. A factorizable matrix has a positive superdiagonal, each
    entry a pi_beta sum of positive parameters, so up to a global sign
    only s_1 = 1, s_(i+1) = s_i sign(u_(i,i+1)) can pass."""
    steps = np.sign(units[0].superdiagonal())
    if not np.all(np.abs(steps) == 1.0):
        return False
    signs = np.concatenate([[1.0], np.cumprod(steps)])
    flip = np.outer(signs, signs)
    for u in units:
        try:
            factorize(Unitriangular(u.mat * flip))
        except NotPositive:
            return False
    return True


def _require_pairwise_transverse(flags):
    n = len(flags)
    for i in range(n):
        for j in range(i + 1, n):
            if not transverse(flags[i], flags[j]):
                raise NotTransverse(
                    "flags %d and %d are not transverse" % (i + 1, j + 1)
                )


def _inverse_unitriangular(u):
    inv = solve_triangular(u.mat, np.eye(u.dim), unit_diagonal=True)
    inv = np.triu(inv)
    np.fill_diagonal(inv, 1.0)
    return Unitriangular(inv)


def triple_positive(f1, f2, f3):
    """Is the flag triple in the positive configuration?

    In the chart sending (f1, f3) to the standard ascending/descending
    pair, f2 becomes a unitriangular matrix; the triple is positive when
    some sign conjugate of it carries positive cone coordinates.
    """
    _require_pairwise_transverse([f1, f2, f3])
    g = np.linalg.inv(_chart(f1, f3))
    u = _eliminate_unitriangular(g @ f2.basis)
    return _positive_in_some_chart([u])


def quadruple_positive(f1, f2, f3, f4):
    """Positivity of a cyclically ordered flag quadruple.

    Both middle flags are eliminated in the single chart of (f1, f3);
    the second flag must factor positively and the fourth must be the
    inverse of a positive element, matching the configuration
    (ascending, u . descending, descending, v^{-1} . descending).
    """
    _require_pairwise_transverse([f1, f2, f3, f4])
    g = np.linalg.inv(_chart(f1, f3))
    u = _eliminate_unitriangular(g @ f2.basis)
    w = _eliminate_unitriangular(g @ f4.basis)
    return _positive_in_some_chart([u, _inverse_unitriangular(w)])


def veronese_flag(t, d):
    """Osculating flag of the moment curve direction (1, t) under the
    degree d-1 symmetric power."""
    return Flag(sym_power_matrix(np.array([[1.0, 0.0], [float(t), 1.0]]), d))


def _loxodromic_frames(mats):
    """hypdisc._eigenframes of stacked real 2x2 matrices, each checked to
    have distinct real eigenvalue moduli."""
    tr = np.trace(mats, axis1=1, axis2=2)
    if np.any(tr * tr - 4.0 * np.linalg.det(mats) <= 1e-9 * np.maximum(1.0, tr * tr)):
        raise SpectrumNotLoxodromic("two-by-two factor is not loxodromic")
    return _eigenframes(mats)


def limit_flags(rep, group, depth):
    """(boundary point, full attracting flag) along the sampled limit
    set, sorted by angle.

    Symmetric-power representations expose their flags through the
    two-by-two eigenframe: the attracting flag of the image is the
    symmetric power of the frame, which stays accurate at word lengths
    where eigensolvers on the large graded image matrix lose the leading
    eigenvector. All the frames come from one _loxodromic_frames call
    on the 2x2 products the limit-set walk carries. Any other
    representation takes the direct eigenvector route on the dense image
    the walk carries.
    """
    tables = _rep_tables(group, rep, depth)
    if rep.factors is None or len(rep.factors) != 1:
        points, _, (mats,) = _limit_rows(group, depth, [rep.images])
        return [(bp, attracting_flag(ScaledMatrix(m))) for bp, m in zip(points, mats)]
    points, _, (mats,) = _limit_rows(group, depth, tables)
    d = rep.factors[0][0]
    return [(bp, Flag(sym_power_matrix(frame, d)))
            for bp, frame in zip(points, _loxodromic_frames(mats))]


def limit_curve(rep, group, depth, k):
    """(boundary point, k-plane) pairs of the sampled sub-limit map."""
    return [(bp, flag.piece(k)) for bp, flag in limit_flags(rep, group, depth)]


def polygonal_length(points):
    """Sum of consecutive chordal distances, closing the loop."""
    if len(points) < 2:
        raise InvalidInput("need at least two points")
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += flag_distance(a, b)
    total += flag_distance(points[-1], points[0])
    return total


def write_curve_csv(path, curve):
    """Rows of theta, k, then the plane basis in row-major order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        first_k = curve[0][1].k if curve else 0
        width = curve[0][1].d * first_k if curve else 0
        header = ["theta", "k"] + ["b%d" % i for i in range(width)]
        fh.write(",".join(header) + "\n")
        for bp, plane in curve:
            row = [repr(float(bp.theta)), str(plane.k)]
            row.extend("%.17g" % x for x in plane.basis.reshape(-1))
            fh.write(",".join(row) + "\n")
