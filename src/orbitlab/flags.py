"""Flags, flag metrics, limit curves and positivity of flag tuples.

A full flag is stored as an orthonormal basis whose leading k columns
span the k-dimensional piece; QR with positive diagonal makes the
representative unique. Single Grassmannian pieces carry the chordal
projector metric.

Positivity of a flag tuple is read from the signs of Fock-Goncharov's
determinants (Publ. Math. IHES 103, 2006, section 9) of leading basis
columns, D(a, b, c) = det[A_a | B_b | C_c], which need no chart:
- A and C are transverse unless some |D(a, 0, d - a)|, 0 < a < d, is at
  or below TRANSVERSE_TOL;
- (A, B, C) is positive when no D(a, b, c), a + b + c = d, vanishes and
  every triple ratio D(a+1, b, c-1) D(a, b-1, c+1) D(a-1, b+1, c) /
  (D(a+1, b-1, c) D(a, b+1, c-1) D(a-1, b, c+1)), a, b, c >= 1, is
  positive, in any order of the flags: a transposition inverts the ratios;
- (A, B, C, D) is positive when (A, B, C) and (A, D, C) are and B's d - 1
  edge signs sign(D(e, 1, d-e-1) D(e-1, 1, d-e)) on AC are opposite to
  D's, which makes every edge coordinate positive.

Flags built together, as limit_flags builds its sample from one
symmetric-power call and one QR, view one read-only stack of bases and
share a _FlagSet, its tables keyed by stack index. When a tuple brings
members not asked about before, one kernel forms the pair minors of the
pairs with a new member and the D(a, b, c) of each new unordered triple
x < y < z of transverse pairs, in that order alone: swapping adjacent
column blocks of widths p and q multiplies a determinant by (-1)^(pq),
which gives each order (f_i, f_j, f_k) its entry (i, k, j), whether the
triple is positive and f_j's edge signs on (f_i, f_k). A warm triple is
then one dict get, a warm quadruple two and one set lookup; the tables
go with the flags and grow with what is asked, not with N. Any other
tuple, a repeat too, takes _require_transverse, flags of no common set,
such as Flag(basis), with a throwaway set.
"""

import collections.abc
import functools
import itertools

import numpy as np

from .errors import InvalidInput, NotTransverse, SpectrumNotLoxodromic
from .hypdisc import TWO_PI, BoundaryPoint, _eigenvectors
from .reps import ScaledMatrix, sym_power_matrix
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
        _check_piece(k, self.d)
        return _views(GrassPoint, self.basis[np.newaxis, :, :k], None)[0]

    def __repr__(self):
        return "Flag(d=%d)" % self.d


def _check_piece(k, d):
    if not 1 <= k <= d - 1:
        raise InvalidInput("piece index must lie in 1..d-1")


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
    """Flags or GrassPoints, cls, viewing a stack: a LimitSample of no angles."""
    return LimitSample(None, stack, cls, owner)


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
    einsum over their bases: a LimitSample's stack as it is, a fancy
    index of one stack that the points view."""
    if isinstance(points, LimitSample) and points._cls is GrassPoint:
        return np.einsum("nik,njk->nij", points.stack, points.stack)
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
    positivity tables, by stack index. asked gives each member asked about
    its position; bad holds each pair found not transverse, self-pairs
    included; triples[i, k, j], for members no two a bad pair, whether
    (f_i, f_j, f_k) is positive and the bitmask of f_j's negative edge
    signs on (f_i, f_k), and edges that of all d - 1. It holds no flag."""

    __slots__ = ("bases", "asked", "bad", "triples", "edges")

    def __init__(self, bases):
        self.bases, self.asked, self.bad, self.triples = bases, {}, set(), {}
        self.edges = (1 << bases.shape[-1] - 1) - 1

    def ask(self, new):
        """Ask members new in one kernel: the pair minors of every pair
        with a new member, then those of every new triple in one order."""
        old, at = len(self.asked), self.asked
        at.update(zip(new, range(old, old + len(new))))
        idx = np.array(list(at))
        (p, q), (x, y, z) = _positions(old, len(at)) if old else _first_positions(len(at))
        pairs, trios, ratios, (index, flip), order_keys = _columns(self.bases.shape[-1])
        bad = (np.abs(_minors(self.bases, (idx[p], idx[q]), pairs)) <= TRANSVERSE_TOL).any(1)
        p, q = idx[p[bad]].tolist(), idx[q[bad]].tolist()
        self.bad.update(zip(p + q, q + p))
        cut = np.zeros((len(at), len(at)), dtype=bool)
        cut[tuple(zip(*[(at[i], at[j]) for i, j in self.bad]))] = True
        trio = idx[np.stack([x, y, z], 1)[~(cut[x, y] | cut[x, z] | cut[y, z])]]
        signs = np.sign(_minors(self.bases, tuple(trio.T), trios))
        positive = (signs != 0.0).all(1) & (signs[:, ratios].prod(2) > 0.0).all(1)
        edges = ((signs[:, index] * flip).prod(3) < 0.0) @ (1 << np.arange(index.shape[1]))
        keys = zip(*trio[:, order_keys].reshape(-1, 3).T.tolist())
        self.triples.update(zip(keys, zip(positive.repeat(6).tolist(), edges.ravel().tolist())))


def _positions(old, size):
    """Pairs p <= q of positions below size with q at or above old, and
    triples x < y < z of them with z at or above old."""
    p, q = np.triu_indices(size)
    lt = np.arange(size)[:, np.newaxis] < np.arange(size)
    x, y, z = np.nonzero((lt[:, :, np.newaxis] & lt)[:, :, old:])
    return (p[q >= old], q[q >= old]), (x, y, z + old)


# a set's first kernel, a throwaway set's only one, asks at most a tuple's members
_first_positions = functools.lru_cache(maxsize=None)(functools.partial(_positions, 0))


def _minors(bases, members, columns):
    """(T, K) determinants of the (d, d) blocks that the K rows of columns
    pick from the bases at members, T stack indices per member, laid side
    by side."""
    side = np.concatenate([bases[m] for m in members], axis=2)
    return np.linalg.det(side[:, :, columns].transpose(0, 2, 1, 3))


@functools.lru_cache(maxsize=None)
def _columns(d):
    """Columns of [A | C] for the pair minors D(a, 0, d - a), 0 < a < d;
    of [A | B | C] for D(a, b, c), a + b + c = d, no part d; as rows into
    the latter, the six minors of each triple ratio; per order (f_i, f_j,
    f_k) of (x, y, z), rows and signs in order (x, y, z) of the two
    minors of each edge sign; and the orders' keys (i, k, j)."""
    parts = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)
             if d not in (a, b, d - a - b)]
    at = {abc: n for n, abc in enumerate(parts)}
    ratios = [[at[a + 1, b, c - 1], at[a, b - 1, c + 1], at[a - 1, b + 1, c],
               at[a + 1, b - 1, c], at[a, b + 1, c - 1], at[a - 1, b, c + 1]]
              for a, b, c in parts if min(a, b, c) >= 1]
    orders = list(itertools.permutations(range(3)))
    # blocks of widths w in order o sort back to (x, y, z) at (-1)^(pq) a swap
    moved = [(at[tuple(w[o.index(s)] for s in range(3))],
              (-1) ** sum(w[u] * w[v] for u, v in itertools.combinations(range(3), 2)
                          if o[u] > o[v]))
             for o in orders for e in range(1, d) for w in ((e, 1, d - e - 1), (e - 1, 1, d - e))]
    return (np.array([[*range(a), *range(d, 2 * d - a)] for a in range(1, d)]),
            np.array([[*range(a), *range(d, d + b), *range(2 * d, 2 * d + c)]
                      for a, b, c in parts]),
            np.array(ratios, dtype=int).reshape(-1, 6),
            np.array(moved, dtype=int).reshape(6, d - 1, 2, 2).transpose(3, 0, 1, 2),
            [[i, k, j] for i, j, k in orders])


def _require_transverse(flags):
    """The flags' shared _FlagSet, or else a throwaway set of their own,
    with all of them asked, and their stack indices in it; NotTransverse
    names the tuple's first pair in (p, q) order found not transverse."""
    fs = flags[0]._set
    if fs is None or [f._set for f in flags].count(fs) < len(flags):
        if len({f.basis.shape for f in flags}) != 1:
            raise InvalidInput("flags live in different dimensions")
        fs, idx = _FlagSet(np.array([f.basis for f in flags])), list(range(len(flags)))
    else:
        idx = [f._index for f in flags]
    if not fs.asked.keys() >= set(idx):
        fs.ask([i for i in dict.fromkeys(idx) if i not in fs.asked])
    if not fs.bad.isdisjoint(itertools.combinations(idx, 2)):
        p, q = next((p, q) for p, q in itertools.combinations(range(len(idx)), 2)
                    if (idx[p], idx[q]) in fs.bad)
        raise NotTransverse("flags %d and %d are not transverse" % (p + 1, q + 1))
    return fs, idx


def triple_positive(f1, f2, f3):
    """Is the flag triple in the positive configuration?

    True when no determinant D(a, b, c), a + b + c = d, of the leading
    columns of the three bases vanishes and every triple ratio is
    positive; the answer does not depend on the order of the flags.
    """
    fs = f1._set
    if type(fs) is _FlagSet and fs is f2._set is f3._set:
        hit = fs.triples.get((f1._index, f3._index, f2._index))
        if hit:
            return hit[0]
    fs, (i, j, k) = _require_transverse([f1, f2, f3])
    return fs.triples[i, k, j][0]


def quadruple_positive(f1, f2, f3, f4):
    """Positivity of a cyclically ordered flag quadruple.

    The triples (f1, f2, f3) and (f1, f4, f3) must be positive and every
    edge coordinate on (f1, f3) positive: each of the d - 1 edge signs of
    f2 is opposite to f4's.
    """
    fs = f1._set
    if type(fs) is _FlagSet and fs is f2._set is f3._set is f4._set:
        i, j, k, m = f1._index, f2._index, f3._index, f4._index
        two, four = fs.triples.get((i, k, j)), fs.triples.get((i, k, m))
        if two and four and (j, m) not in fs.bad:
            return two[0] and four[0] and two[1] ^ four[1] == fs.edges
    fs, (i, j, k, m) = _require_transverse([f1, f2, f3, f4])
    two, four = fs.triples[i, k, j], fs.triples[i, k, m]
    return two[0] and four[0] and two[1] ^ four[1] == fs.edges


def _loxodromic_frames(mats, k=None):
    """Eigenframes [larger | smaller eigenvalue modulus], the columns of
    hypdisc._eigenvectors, or for k = 1 the first, of stacked real 2x2
    matrices, each checked to have distinct real eigenvalue moduli."""
    tr = np.trace(mats, axis1=1, axis2=2)
    if np.any(tr * tr - 4.0 * np.linalg.det(mats) <= 1e-9 * np.maximum(1.0, tr * tr)):
        raise SpectrumNotLoxodromic("two-by-two factor is not loxodromic")
    return np.stack(list(itertools.islice(_eigenvectors(mats), 1 if k == 1 else 2)), axis=2)


def _limit_stack(rep, group, depth, k=None, levels=None):
    """Angles of the sampled limit set, sorted, and the read-only stack
    of their attracting flags' canonical bases, (N, d, d), or only its
    first k columns; a k outside 1..d-1 is refused before the walk, or
    before reading levels, the walk's list, whose last table it reads.

    A symmetric power's attracting flag is the symmetric power of the
    2x2 eigenframe, which stays accurate at word lengths where
    eigensolvers on the graded image lose the leading eigenvector: one
    _loxodromic_frames call on the 2x2 products the limit-set walk
    carries, one sym_power_matrix call for the k columns read. Any other
    representation takes the direct eigenvector route on the dense image
    the walk carries. One QR of the k columns returned, rank check
    included, gives the full QR's leading k columns bit for bit: the
    reflectors past k fix e_1 ... e_k.
    """
    if k is not None:
        _check_piece(k, rep.dim)
    tables = _rep_tables(group, rep, depth)
    dense = rep.factors is None or len(rep.factors) != 1
    theta, _, products = _limit_rows(group, depth, [rep.images if dense else tables[0]], levels)
    if dense:
        bases = np.array([_eigenbasis(ScaledMatrix(m).mat) for m in products[-1]])
    else:
        bases = sym_power_matrix(_loxodromic_frames(products[-1], k), rep.factors[0][0], k)
    return theta, _orthonormalize(bases[:, :, :k], "flag")


class LimitSample(collections.abc.Sequence):
    """Read-only views of cls, Flags or GrassPoints, over one stack of
    canonical bases, the n-th viewing stack[n] with index n and _set
    owner, a _FlagSet, the stack or None: (boundary point, view) pairs
    along a sampled limit set, sorted by angle, or with theta None the
    views alone. Each is built when read and is not kept."""

    __slots__ = ("theta", "stack", "_cls", "_owner")

    def __init__(self, theta, stack, cls, owner):
        # _limit_rows's angles lie in [0, 2 pi]; fmod wraps them as wrap_angle does
        self.theta = None if theta is None else np.fmod(theta, TWO_PI)
        self.stack, self._cls, self._owner = stack, cls, owner

    def __len__(self):
        return len(self.stack)

    def __getitem__(self, n):
        picks = range(len(self.stack))[n]
        return list(map(self._entry, picks)) if isinstance(n, slice) else self._entry(picks)

    def __iter__(self):
        # one pass, each entry built as _entry builds it
        cls, owner = self._cls, self._owner
        thetas = None if self.theta is None else self.theta.tolist()
        for n, basis in enumerate(self.stack):
            view = object.__new__(cls)
            view.basis, view._set, view._index = basis, owner, n
            if thetas is None:
                yield view
                continue
            point = object.__new__(BoundaryPoint)
            point.theta = thetas[n]
            yield point, view

    def _entry(self, n):
        view = object.__new__(self._cls)
        view.basis, view._set, view._index = self.stack[n], self._owner, n
        if self.theta is None:
            return view
        point = object.__new__(BoundaryPoint)
        point.theta = self.theta.item(n)
        return point, view


def limit_flags(rep, group, depth):
    """(boundary point, full attracting flag) along the sampled limit set,
    sorted by angle, as a read-only LimitSample: each pair is built when
    it is read, and a caller that needs a mutable list calls list() on
    it. The flags share one _FlagSet."""
    theta, bases = _limit_stack(rep, group, depth)
    return LimitSample(theta, bases, Flag, _FlagSet(bases))


def limit_curve(rep, group, depth, k):
    """(boundary point, k-plane) pairs of the sampled sub-limit map, as a
    read-only LimitSample: each pair is built when it is read, and a
    caller that needs a mutable list calls list() on it. The planes view
    one stack."""
    theta, planes = _limit_stack(rep, group, depth, k)
    return LimitSample(theta, planes, GrassPoint, planes)


def polygonal_length(points):
    """Sum of consecutive chordal distances, closing the loop."""
    if len(points) < 2:
        raise InvalidInput("need at least two points")
    proj = _projectors(points)
    return float(np.sum(_chordal_distances(proj, np.roll(proj, -1, axis=0))))


def write_curve_csv(path, curve):
    """Rows of theta, k, then the plane basis in row-major order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        width = curve[0][1].basis.size if curve else 0
        header = ["theta", "k"] + ["b%d" % i for i in range(width)]
        fh.write(",".join(header) + "\n")
        for bp, plane in curve:
            row = [repr(float(bp.theta)), str(plane.k)]
            row.extend("%.17g" % x for x in plane.basis.reshape(-1))
            fh.write(",".join(row) + "\n")
