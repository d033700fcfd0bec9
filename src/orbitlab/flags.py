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
chart, and eliminating a middle flag is the same LU. Flags built
together, as limit_flags builds its sample from one symmetric-power
call and one QR, keep views of one read-only stack of bases and share a
_FlagSet. When a tuple brings members not asked about before, one kernel
decides the transversality of the asked pairs and, for every new triple
(i, k, j) of distinct asked members, fills j's sign mask in the chart
(f_i, f_k) and its inverse's. A tuple is then a few lookups; the tables
go with the flags and grow with what is asked, not with N. Flags of no
common set, such as Flag(basis), take the same kernel on a throwaway set.
"""

import functools
import itertools

import numpy as np

from .errors import InvalidInput, NotTransverse, SpectrumNotLoxodromic
from .hypdisc import _boundary_points, _eigenvectors
from .reps import ScaledMatrix, sym_power_matrix
from .tpos import _cone_params
from .words import _limit_rows, _rep_tables

TRANSVERSE_TOL = 1e-10
LOG_GAP_MIN = 1e-6
RANK_TOL = 1e-12
_NO_UNIT = -2


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


class Flag:
    """Complete flag; leading k columns of the canonical basis span the
    k-dimensional subspace."""

    __slots__ = ("basis", "_set", "_index")

    def __init__(self, basis):
        self.basis = _orthonormalize([basis], "flag")[0]
        if self.basis.shape[0] != self.basis.shape[1]:
            raise InvalidInput("a complete flag needs a square basis")
        self._set = None

    @property
    def d(self):
        return self.basis.shape[0]

    def piece(self, k):
        if not 1 <= k <= self.d - 1:
            raise InvalidInput("piece index must lie in 1..d-1")
        return _views(GrassPoint, self.basis[np.newaxis, :, :k], None)[0]

    def __repr__(self):
        return "Flag(d=%d)" % self.d


class GrassPoint:
    """k-plane through the origin, held as an orthonormal basis."""

    __slots__ = ("basis", "_set", "_index")

    def __init__(self, basis):
        self.basis = _orthonormalize([basis], "plane")[0]
        self._set = None

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


def _views(cls, stack, owner):
    """Flags or GrassPoints viewing a read-only stack of canonical bases,
    each with its index and, as _set, owner: a _FlagSet, a stack or None."""
    out = []
    for n, basis in enumerate(stack):
        view = object.__new__(cls)
        view.basis, view._set, view._index = basis, owner, n
        out.append(view)
    return out


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
    einsum over their bases, one fancy index when they view one stack."""
    if not all(isinstance(p, GrassPoint) for p in points):
        raise InvalidInput("projectors need points of one Grassmannian")
    if not points:
        return np.empty((0, 0, 0))
    stack = points[0]._set
    if stack is not None and all(p._set is stack for p in points):
        bases = stack[[p._index for p in points]]
    elif len({p.basis.shape for p in points}) > 1:
        raise InvalidInput("projectors need points of one Grassmannian")
    else:
        bases = np.array([p.basis for p in points])
    return np.einsum("nik,njk->nij", bases, bases)


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


class _FlagSet:
    """Flags built together: their read-only (N, d, d) stack of bases and
    positivity tables. asked gives each member asked about its position;
    by positions, bad holds each pair found not transverse, self-pairs
    included, and masks[i, k, j] those of ask. It holds no flag."""

    __slots__ = ("bases", "asked", "bad", "masks")

    def __init__(self, bases):
        self.bases, self.asked, self.bad, self.masks = bases, {}, set(), {}

    def ask(self, new):
        """Ask members new in one kernel. With J Q_k^T Q_i = L U for each
        ordered pair, U's minors decide transversality; the unit columns of
        Q_i U^-1, in f_i^c meet f_k^(d-c+1), are the chart, inverse N U Q_i^T
        with N the column norms of U^-1 (U = I where no tuple reads it)."""
        old = len(self.asked)
        self.asked.update(zip(new, range(old, old + len(new))))
        first, third, pair, middle, keys = (_positions(old, len(self.asked)) if old
                                            else _first_positions(len(self.asked)))
        q = self.bases[list(self.asked)]
        qi = q[first]
        eye, lower, _ = _triangles(q.shape[-1])
        with np.errstate(all="ignore"):
            lu = _lu(np.matmul(q[third].transpose(0, 2, 1), qi)[:, ::-1])
            bad = (np.abs(lu.diagonal(0, 1, 2)[:, :-1].cumprod(1)) <= TRANSVERSE_TOL).any(1)
            upper = np.where(bad[:, np.newaxis, np.newaxis], eye, lu * lower.T)
            inv = np.linalg.inv(upper)
            frames = upper * np.sqrt((inv * inv).sum(1))[:, :, np.newaxis] @ qi.transpose(0, 2, 1)
            units, failed = _eliminate(frames[pair] @ q[middle])
            masks = _sign_masks(np.concatenate([units, _unit_inverse(units)]))
        self.bad.update(zip(first[bad].tolist(), third[bad].tolist()))
        forward, inverse = np.where(failed, _NO_UNIT, masks.reshape(2, -1)).tolist()
        self.masks.update(zip(keys, zip(forward, inverse)))


def _positions(old, size):
    """All ordered pairs (first, third) of positions below size; triples of
    distinct ones, one at or above old, as pair index, middle and key."""
    ne = np.arange(size)[:, np.newaxis] != np.arange(size)
    new = ne[:, :, np.newaxis] & ne[:, np.newaxis, :] & ne
    new[:old, :old, :old] = False
    pair, middle = np.nonzero(new.reshape(size * size, size))
    first, third = np.divmod(np.arange(size * size), size)
    keys = zip(first[pair].tolist(), third[pair].tolist(), middle.tolist())
    return first, third, pair, middle, tuple(keys)


# a set's first kernel, a throwaway set's only one, asks at most a tuple's members
_first_positions = functools.lru_cache(maxsize=None)(functools.partial(_positions, 0))


def _lu(a):
    """No-pivot LU of an (N, d, d) stack, on a copy: the unit lower factor
    below the diagonal, the upper on and above it. Pivot k is leading minor
    k + 1 over minor k; past a zero pivot the entries are inf or nan."""
    a = np.array(a, dtype=float)
    for k in range(a.shape[-1] - 1):
        a[:, k + 1:, k] /= a[:, k, k, np.newaxis]
        a[:, k + 1:, k + 1:] -= a[:, k + 1:, k, np.newaxis] * a[:, k, np.newaxis, k + 1:]
    return a


@functools.lru_cache(maxsize=None)
def _triangles(d):
    """The identity and lower-triangle masks, with and without the diagonal."""
    return np.eye(d), np.tri(d, dtype=bool), np.tri(d, k=-1)


def _eliminate(xs):
    """(units, failed) of an (N, d, d) stack: the unitriangular u whose
    last k columns span the leading k of x for every k, as _lu factors
    x's rows reversed as (J u J) T; failed where a pivot T_kk is at or
    below TRANSVERSE_TOL times max(1, |T_kk| times the largest entry of
    column k of J u J)."""
    a = _lu(xs[:, ::-1])
    eye, lower, strict = _triangles(a.shape[-1])
    pivots = np.abs(a.diagonal(0, 1, 2))
    column = pivots * (np.abs(a) * strict).max(1, initial=1.0)
    failed = (pivots <= TRANSVERSE_TOL * np.fmax(1.0, column)).any(1)
    return np.where(lower, eye, a[:, ::-1, ::-1]), failed


def _unit_inverse(units):
    """Inverses of an (N, d, d) stack of unitriangular matrices: the
    finite series I + M + ... + M^(d-1), M = I - u, by Horner's rule."""
    eye = _triangles(units.shape[-1])[0]
    m, inv = eye - units, eye
    for _ in range(units.shape[-1] - 1):
        inv = eye + m @ inv
    return inv


def _sign_masks(units):
    """The sign mask under which each unit of an (N, d, d) stack factors
    positively, or -1; bit k flips basis vector k. _cone_params fails any
    superdiagonal entry at or below zero: it tests the last column's, and
    each peel lowers the others by a passed parameter. So only s_0 = 1,
    s_(k+1) = s_k sign(u_(k,k+1)) can pass, and none passes a zero or nan."""
    sup = units.diagonal(1, 1, 2)
    signs = np.ones(units.shape[:2])
    signs[:, 1:] = np.where(sup < 0.0, -1.0, 1.0).cumprod(1)
    _, stage, _ = _cone_params(units * (signs[:, :, np.newaxis] * signs[:, np.newaxis, :]))
    ok = (stage == 0) & (np.abs(sup) > 0.0).all(1)
    return np.where(ok, (signs < 0.0) @ (2 ** np.arange(units.shape[-1])), -1)


def _require_transverse(flags):
    """The flags' shared _FlagSet, or else a throwaway set of their own,
    with all of them asked, and their positions in it; NotTransverse
    names the tuple's first pair in (p, q) order found not transverse."""
    fs = flags[0]._set
    if fs is None or [f._set for f in flags].count(fs) < len(flags):
        if len({f.basis.shape for f in flags}) != 1:
            raise InvalidInput("flags live in different dimensions")
        fs, idx = _FlagSet(np.array([f.basis for f in flags])), range(len(flags))
    else:
        idx = [f._index for f in flags]
    pos = [fs.asked.get(i) for i in idx]
    if None in pos:
        fs.ask([i for i in dict.fromkeys(idx) if i not in fs.asked])
        pos = [fs.asked[i] for i in idx]
    if fs.bad and not fs.bad.isdisjoint(itertools.combinations(pos, 2)):
        p, q = next((p, q) for p, q in itertools.combinations(range(len(pos)), 2)
                    if (pos[p], pos[q]) in fs.bad)
        raise NotTransverse("flags %d and %d are not transverse" % (p + 1, q + 1))
    return fs, pos


def _tuple_positive(flags):
    """Whether the second flag's unit, and the fourth's inverse, factor
    positively under one sign mask: by _sign_masks, their own."""
    fs, pos = _require_transverse(flags)
    first = fs.masks[pos[0], pos[2], pos[1]][0]
    last = fs.masks[pos[0], pos[2], pos[3]][1] if len(pos) == 4 else first
    if _NO_UNIT in (first, last):
        raise NotTransverse("flag is not transverse to the chart's third flag")
    return first >= 0 and last == first


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


def _loxodromic_frames(mats):
    """Eigenframes [larger | smaller eigenvalue modulus], the columns of
    hypdisc._eigenvectors, of stacked real 2x2 matrices, each checked to
    have distinct real eigenvalue moduli."""
    tr = np.trace(mats, axis1=1, axis2=2)
    if np.any(tr * tr - 4.0 * np.linalg.det(mats) <= 1e-9 * np.maximum(1.0, tr * tr)):
        raise SpectrumNotLoxodromic("two-by-two factor is not loxodromic")
    return np.stack(list(_eigenvectors(mats)), axis=2)


def _limit_stack(rep, group, depth, k=None):
    """Angles of the sampled limit set, sorted, and the read-only stack
    of their attracting flags' canonical bases, (N, d, d), or only its
    first k columns.

    A symmetric power's attracting flag is the symmetric power of the
    2x2 eigenframe, which stays accurate at word lengths where
    eigensolvers on the graded image lose the leading eigenvector: one
    _loxodromic_frames call on the 2x2 products the limit-set walk
    carries, one sym_power_matrix call. Any other representation takes
    the direct eigenvector route on the dense image the walk carries.
    One QR of the k columns returned, rank check included, gives the
    full QR's leading k columns bit for bit: the reflectors past k fix
    e_1 ... e_k.
    """
    tables = _rep_tables(group, rep, depth)
    if rep.factors is None or len(rep.factors) != 1:
        theta, _, (mats,) = _limit_rows(group, depth, [rep.images])
        bases = np.array([_eigenbasis(ScaledMatrix(m).mat) for m in mats])
    else:
        theta, _, (mats,) = _limit_rows(group, depth, tables)
        bases = sym_power_matrix(_loxodromic_frames(mats), rep.factors[0][0])
    if k is not None and not 1 <= k <= bases.shape[-1] - 1:
        raise InvalidInput("piece index must lie in 1..d-1")
    return theta, _orthonormalize(bases[:, :, :k], "flag")


def limit_flags(rep, group, depth):
    """(boundary point, full attracting flag) along the sampled limit
    set, sorted by angle; the flags share one _FlagSet."""
    theta, bases = _limit_stack(rep, group, depth)
    return list(zip(_boundary_points(theta), _views(Flag, bases, _FlagSet(bases))))


def limit_curve(rep, group, depth, k):
    """(boundary point, k-plane) pairs of the sampled sub-limit map."""
    theta, planes = _limit_stack(rep, group, depth, k)
    return list(zip(_boundary_points(theta), _views(GrassPoint, planes, planes)))


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
