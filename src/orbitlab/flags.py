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

Each step is one no-pivot LU. The leading minors of a Gram matrix
Q_j^T Q_i of orthonormal bases, rows reversed, are the pair's
transversality minors; for (f1, f3) its upper factor inverts to the
chart, and eliminating a middle flag is the same LU. The Gram matrices
come from one matmul and the rest runs on Python floats: at d = 3..9 a
numpy call costs more than the arithmetic. Limit flags come from one
symmetric-power call and one QR for the whole sample, and projectors
from one einsum over the stacked bases.
"""

import itertools
import math
import operator

import numpy as np

from .errors import (
    InvalidInput,
    NotPositive,
    NotTransverse,
    SpectrumNotLoxodromic,
)
from .hypdisc import Mobius, _eigenframes
from .reps import ScaledMatrix, sym_power_matrix
from .tpos import _cone_params
from .words import _limit_rows, _rep_tables

TRANSVERSE_TOL = 1e-10
LOG_GAP_MIN = 1e-6
RANK_TOL = 1e-12


def _orthonormalize(bases, what):
    """Canonical bases of an (N, d, k) stack of tall matrices of basis
    columns: one QR for the stack, each column signed so that R has a
    positive diagonal."""
    bases = np.asarray(bases, dtype=float)
    if bases.ndim != 3 or bases.shape[1] < bases.shape[2]:
        raise InvalidInput("%s needs a tall matrix of basis columns" % what)
    q, r = np.linalg.qr(bases)
    scale = np.max(np.abs(bases), axis=(1, 2), initial=0.0)
    diag = np.diagonal(r, axis1=1, axis2=2)
    if np.any(np.min(np.abs(diag), axis=1) <= RANK_TOL * np.where(scale > 0.0, scale, 1.0)):
        raise InvalidInput("%s basis columns are not independent" % what)
    return q * np.sign(diag)[:, np.newaxis, :]


def _canonical(cls, basis):
    """A Flag or GrassPoint on columns already in canonical form, with
    no second QR."""
    out = object.__new__(cls)
    out.basis = basis
    return out


class Flag:
    """Complete flag; leading k columns of the canonical basis span the
    k-dimensional subspace."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        self.basis = _orthonormalize([basis], "flag")[0]
        if self.basis.shape[0] != self.basis.shape[1]:
            raise InvalidInput("a complete flag needs a square basis")

    @property
    def d(self):
        return self.basis.shape[0]

    def piece(self, k):
        if not 1 <= k <= self.d - 1:
            raise InvalidInput("piece index must lie in 1..d-1")
        return _canonical(GrassPoint, self.basis[:, :k])

    def dual(self):
        """Flag of orthogonal complements, reversing the basis order."""
        return Flag(self.basis[:, ::-1])

    def __repr__(self):
        return "Flag(d=%d)" % self.d


class GrassPoint:
    """k-plane through the origin, held as an orthonormal basis."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        self.basis = _orthonormalize([basis], "plane")[0]

    @property
    def k(self):
        return self.basis.shape[1]

    @property
    def d(self):
        return self.basis.shape[0]

    def projector(self):
        return _projectors([self])[0]

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


def _projectors(points):
    """(N, d, d) projectors of points on one Grassmannian, from one
    einsum over their stacked bases."""
    if (any(not isinstance(p, GrassPoint) for p in points)
            or len({p.basis.shape for p in points}) > 1):
        raise InvalidInput("projectors need points of one Grassmannian")
    if not points:
        return np.empty((0, 0, 0))
    bases = np.array([p.basis for p in points])
    return np.einsum("nik,njk->nij", bases, bases)


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
    """Whether complementary pieces meet trivially: _pairwise_lus of a pair."""
    try:
        _pairwise_lus(_grams([f, g]))
    except NotTransverse:
        return False
    return True


def _grams(flags):
    """Nested lists of the Gram matrices Q_i^T Q_j of the flags' bases."""
    if len({f.d for f in flags}) != 1:
        raise InvalidInput("flags live in different dimensions")
    bases = np.array([f.basis for f in flags])
    return (bases.transpose(0, 2, 1)[:, np.newaxis] @ bases).tolist()


def _lu(rows):
    """No-pivot LU of nested rows: new rows with the unit lower factor
    below the diagonal and the upper on and above it. Pivot k is leading
    minor k + 1 over minor k; a zero pivot stops the elimination there."""
    a = [list(row) for row in rows]
    for k, top in enumerate(a[:-1]):
        if top[k] == 0.0:
            break
        for row in a[k + 1:]:
            m = row[k] = row[k] / top[k]
            for c in range(k + 1, len(a)):
                row[c] -= m * top[c]
    return a


def _minors(lu):
    """Leading minors 1..d-1 of an _lu result: running pivot products."""
    return list(itertools.accumulate((lu[k][k] for k in range(len(lu) - 1)), operator.mul))


def _pairwise_lus(grams):
    """_lu of J Q_j^T Q_i, J the row reversal, for each pair i < j. Its
    leading minor k is, up to sign, the determinant of Q_i's leading k
    columns beside Q_j's leading d - k; NotTransverse names the first
    pair, in (i, j) order, with one at or below TRANSVERSE_TOL."""
    lus = {}
    for i, j in itertools.combinations(range(len(grams)), 2):
        lus[i, j] = _lu(grams[j][i][::-1])
        if any(abs(m) <= TRANSVERSE_TOL for m in _minors(lus[i, j])):
            raise NotTransverse("flags %d and %d are not transverse" % (i + 1, j + 1))
    return lus


def _upper_inverse(u):
    """Columns of the inverse of u's upper triangle, by back-substitution."""
    cols = [[float(r == k) for r in range(len(u))] for k in range(len(u))]
    for c in cols:
        for r in reversed(range(len(u))):
            c[r] = (c[r] - sum(map(operator.mul, u[r][r + 1:], c[r + 1:]))) / u[r][r]
    return cols


def _eliminate(x):
    """The unitriangular u, nested rows, whose last k columns span the
    leading k of x for every k: _lu factors x's rows reversed as (J u J) T.
    NotTransverse when a pivot T_kk is at or below TRANSVERSE_TOL times
    max(1, |T_kk| times the largest entry of column k of J u J)."""
    a = _lu(x[::-1])
    d = len(a)
    for k in range(d):
        pivot = abs(a[k][k])
        column = pivot * max([1.0] + [abs(row[k]) for row in a[k + 1:]])
        if pivot <= TRANSVERSE_TOL * max(1.0, column):
            raise NotTransverse("flag is not transverse to the chart's third flag")
    return [[a[d - 1 - r][d - 1 - c] if r < c else float(r == c) for c in range(d)]
            for r in range(d)]


def _chart_units(flags):
    """The unitriangulars, nested rows, of the second flag and the
    inverse of the fourth in the chart of (f1, f3). With J Q3^T Q1 = L U,
    column k of Q1 U^-1 lies in f1^k meet f3^(d-k+1); at unit length,
    these columns are the chart, with inverse N U Q1^T for N the column
    norms of U^-1."""
    grams = _grams(flags)
    chart = _pairwise_lus(grams)[0, 2]
    norms = [math.hypot(*col) for col in _upper_inverse(chart)]
    inverse = [[0.0] * r + [n * x for x in row[r:]]
               for r, (n, row) in enumerate(zip(norms, chart))]
    units = [_eliminate([[sum(map(operator.mul, row, col)) for col in zip(*grams[0][m])]
                         for row in inverse])
             for m in range(1, len(flags), 2)]
    if len(units) == 2:
        units[1] = list(zip(*_upper_inverse(units[1])))
    return units


def _positive_in_some_chart(units):
    """Whether some sign-diagonal conjugation makes every unit, nested
    rows, factor positively. A factorizable matrix has a positive
    superdiagonal, each entry a pi_beta sum of positive parameters, so up
    to a global sign only s_1 = 1, s_(i+1) = s_i sign(u_(i,i+1)) can
    pass."""
    steps = [row[k + 1] for k, row in enumerate(units[0][:-1])]
    if not all(x > 0.0 or x < 0.0 for x in steps):
        return False
    signs = list(itertools.accumulate([1.0] + steps, lambda s, x: s if x > 0.0 else -s))
    for u in units:
        try:
            _cone_params([[x * s * t for x, t in zip(row, signs)]
                          for row, s in zip(u, signs)])
        except NotPositive:
            return False
    return True


def triple_positive(f1, f2, f3):
    """Is the flag triple in the positive configuration?

    In the chart sending (f1, f3) to the standard ascending/descending
    pair, f2 becomes a unitriangular matrix; the triple is positive when
    some sign conjugate of it carries positive cone coordinates.
    """
    return _positive_in_some_chart(_chart_units([f1, f2, f3]))


def quadruple_positive(f1, f2, f3, f4):
    """Positivity of a cyclically ordered flag quadruple.

    Both middle flags are eliminated in the single chart of (f1, f3);
    the second flag must factor positively and the fourth must be the
    inverse of a positive element, matching the configuration
    (ascending, u . descending, descending, v^{-1} . descending).
    """
    return _positive_in_some_chart(_chart_units([f1, f2, f3, f4]))


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
    on the 2x2 products the limit-set walk carries, their symmetric
    powers from one sym_power_matrix call and the canonical bases from
    one QR. Any other representation takes the direct eigenvector route
    on the dense image the walk carries.
    """
    tables = _rep_tables(group, rep, depth)
    if rep.factors is None or len(rep.factors) != 1:
        points, _, (mats,) = _limit_rows(group, depth, [rep.images])
        return [(bp, attracting_flag(ScaledMatrix(m))) for bp, m in zip(points, mats)]
    points, _, (mats,) = _limit_rows(group, depth, tables)
    bases = _orthonormalize(sym_power_matrix(_loxodromic_frames(mats), rep.factors[0][0]),
                            "flag")
    return [(bp, _canonical(Flag, basis)) for bp, basis in zip(points, bases)]


def limit_curve(rep, group, depth, k):
    """(boundary point, k-plane) pairs of the sampled sub-limit map."""
    return [(bp, flag.piece(k)) for bp, flag in limit_flags(rep, group, depth)]


def polygonal_length(points):
    """Sum of consecutive chordal distances, closing the loop."""
    if len(points) < 2:
        raise InvalidInput("need at least two points")
    proj = _projectors(points)
    return float(np.sum(_chordal_distances(proj, np.roll(proj, -1, axis=0))))


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
