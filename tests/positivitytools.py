"""The chart kernel that decided flag positivity before the determinant
table of orbitlab.flags, kept as its differential oracle.

A linear map sends the first and third flags of a tuple to the standard
ascending and descending coordinate flags; the middle flags become
unitriangular matrices by triangular elimination against the descending
flag, and the tuple is positive when one sign-diagonal conjugation makes
the second flag's matrix, and the inverse of the fourth's, factor through
the positive semigroup. The conjugation quotients out the diagonal
ambiguity left by the chart normalization, and the first matrix's
superdiagonal signs pick the only candidate.

Each step is one no-pivot LU. The leading minors of a Gram matrix
Q_j^T Q_i of orthonormal bases, rows reversed, are the pair's
transversality minors; for (f1, f3) its upper factor inverts to the
chart, and eliminating a middle flag is the same LU. ChartOracle holds
one list of flags and decides tuples of indices into it: when a tuple
brings indices not asked about before, one kernel decides the
transversality of the asked pairs and, for every new triple (i, k, j) of
distinct asked members, fills j's sign mask in the chart (f_i, f_k) and
its inverse's.
"""

import functools
import itertools

import numpy as np

from orbitlab.errors import NotTransverse
from orbitlab.flags import TRANSVERSE_TOL
from orbitlab.tpos import _cone_params

_NO_UNIT = -2


class ChartOracle:
    """triple_positive or quadruple_positive by the chart kernel, on
    indices into one list of flags of one dimension; by positions in
    asked, bad holds each pair found not transverse and masks[i, k, j]
    those of ask."""

    def __init__(self, flags):
        self.bases = np.array([f.basis for f in flags])
        self.asked, self.bad, self.masks = {}, set(), {}

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

    def __call__(self, *idx):
        """True, False, or NotTransverse naming the tuple's first pair in
        (p, q) order found not transverse, or a middle flag that fails its
        elimination."""
        if None in [self.asked.get(i) for i in idx]:
            self.ask([i for i in dict.fromkeys(idx) if i not in self.asked])
        pos = [self.asked[i] for i in idx]
        if not self.bad.isdisjoint(itertools.combinations(pos, 2)):
            p, q = next((p, q) for p, q in itertools.combinations(range(len(pos)), 2)
                        if (pos[p], pos[q]) in self.bad)
            raise NotTransverse("flags %d and %d are not transverse" % (p + 1, q + 1))
        first = self.masks[pos[0], pos[2], pos[1]][0]
        last = self.masks[pos[0], pos[2], pos[3]][1] if len(pos) == 4 else first
        if _NO_UNIT in (first, last):
            raise NotTransverse("flag is not transverse to the chart's third flag")
        return first >= 0 and last == first


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


# an oracle's first kernel asks at most a tuple's members
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
