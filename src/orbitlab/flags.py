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
chart, and eliminating a middle flag is the same LU. Each Gram matrix
is one matmul and the rest runs on Python floats: at d = 3..9 a
numpy call costs more than the arithmetic. Limit flags come from one
symmetric-power call and one QR for the whole sample, and projectors
from one einsum over the stacked bases.

Bases are read-only, so a flag's identity names its basis, and each
pair's transversality, chart inverse and middle flag's sign verdict is
memoized: kept by the flag of least id, keyed on the step and the other
flags. Keys hold those flags, so no hit comes from a dead flag's reused
address, and point to higher ids only, so no cycle forms and the memo is
freed with its flag. A failure is kept as a verdict and raised anew.
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
    out = q * np.sign(diag)[:, np.newaxis, :]
    out.flags.writeable = False
    return out


def _canonical(cls, basis):
    """A Flag or GrassPoint on columns already in canonical form, with
    no second QR."""
    out = object.__new__(cls)
    out.basis = basis
    return out


class Flag:
    """Complete flag; leading k columns of the canonical basis span the
    k-dimensional subspace."""

    __slots__ = ("basis", "_memo")

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
    """Whether complementary pieces meet trivially: _require_transverse of a pair."""
    try:
        _require_transverse([f, g])
    except NotTransverse:
        return False
    return True


def _memoized(make, flags, *args):
    """make(*flags, *args), once; the flag of least id is None in the key."""
    owner = min(flags, key=id)
    key = (make, *args, *[None if f is owner else f for f in flags])
    memo = owner._memo = getattr(owner, "_memo", {})
    try:
        return memo[key]
    except KeyError:
        memo[key] = out = make(*flags, *args)
        return out


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


def _pair_lu(f, g):
    """_lu of J Q_g^T Q_f, J the row reversal: its minor k is, up to sign,
    det of Q_f's leading k columns beside Q_g's leading d - k."""
    return _lu((g.basis.T @ f.basis)[::-1].tolist())


def _transverse_pair(f, g):
    return not any(abs(m) <= TRANSVERSE_TOL for m in _minors(_pair_lu(f, g)))


def _require_transverse(flags):
    """NotTransverse names the first pair, in (i, j) order, with a
    _pair_lu minor at or below TRANSVERSE_TOL."""
    if len({f.basis.shape for f in flags}) != 1:
        raise InvalidInput("flags live in different dimensions")
    for i, j in itertools.combinations(range(len(flags)), 2):
        if not _memoized(_transverse_pair, (flags[i], flags[j])):
            raise NotTransverse("flags %d and %d are not transverse" % (i + 1, j + 1))


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


def _chart_inverse(f1, f3):
    """The inverse N U Q1^T of the chart of (f1, f3). With J Q3^T Q1 = L U,
    column k of Q1 U^-1 lies in f1^k meet f3^(d-k+1); at unit length,
    these columns are the chart, and N holds the column norms of U^-1."""
    lu = _pair_lu(f1, f3)
    norms = [math.hypot(*col) for col in _upper_inverse(lu)]
    return np.array([[0.0] * r + [n * x for x in row[r:]]
                     for r, (n, row) in enumerate(zip(norms, lu))]) @ f1.basis.T


def _positive_under(mask, u):
    """Whether u, nested rows, factors positively conjugated by diag(s),
    s_k = -1 where bit k of mask is set."""
    signs = [-1.0 if mask >> k & 1 else 1.0 for k in range(len(u))]
    try:
        _cone_params([[x * s * t for x, t in zip(row, signs)] for row, s in zip(u, signs)])
    except NotPositive:
        return False
    return True


def _positive_mask(u):
    """The sign mask under which u, nested rows, factors positively, or -1.
    _cone_params fails any superdiagonal entry at or below zero: it tests
    the last column's, and each peel lowers the others by a passed
    parameter. So only s_0 = 1, s_(k+1) = s_k sign(u_(k,k+1)) can pass."""
    mask = 0
    for k, row in enumerate(u[:-1]):
        if not (row[k + 1] > 0.0 or row[k + 1] < 0.0):
            return -1
        mask |= (mask >> k & 1 ^ (row[k + 1] < 0.0)) << k + 1
    return mask if _positive_under(mask, u) else -1


def _unit_mask(f1, f3, f, invert):
    """_positive_mask of f's unit in the chart of (f1, f3), inverted if
    asked; None when the elimination fails."""
    try:
        u = _eliminate((_memoized(_chart_inverse, (f1, f3)) @ f.basis).tolist())
    except NotTransverse:
        return None
    return _positive_mask(list(zip(*_upper_inverse(u))) if invert else u)


def _tuple_positive(flags):
    """Whether the second flag's unit, and the fourth's inverse, factor
    positively under one sign mask: by _positive_mask, their own."""
    _require_transverse(flags)
    f1, f3 = flags[0], flags[2]
    masks = [_memoized(_unit_mask, (f1, f3, f), k == 3) for k, f in enumerate(flags) if k % 2]
    if None in masks:
        raise NotTransverse("flag is not transverse to the chart's third flag")
    return masks[0] >= 0 and masks[-1] == masks[0]


def triple_positive(f1, f2, f3):
    """Is the flag triple in the positive configuration?

    In the chart sending (f1, f3) to the standard ascending/descending
    pair, f2 becomes a unitriangular matrix; the triple is positive when
    some sign conjugate of it carries positive cone coordinates.
    """
    return _tuple_positive([f1, f2, f3])


def quadruple_positive(f1, f2, f3, f4):
    """Positivity of a cyclically ordered flag quadruple.

    Both middle flags are eliminated in the single chart of (f1, f3);
    the second flag must factor positively and the fourth must be the
    inverse of a positive element, matching the configuration
    (ascending, u . descending, descending, v^{-1} . descending).
    """
    return _tuple_positive([f1, f2, f3, f4])


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
