"""Linear representations of Mobius groups and safe evaluation of long words.

Three constructors are provided. sym_power(d) sends a 2x2 matrix to its
action on binary forms of degree d-1, written in the orthonormalized
monomial basis x^(d-1-k) y^k * sqrt(C(d-1,k)); with this scaling rotations
go to orthogonal matrices, so singular values of the image are exactly the
products sigma_1^(d-1-j) sigma_2^j of the input's singular values.
sp_product interleaves n two-dimensional representations into a 2n x 2n
symplectic matrix built from the diagonals of their entries. custom_rep
accepts raw matrices and only normalizes determinants.

Long products are kept in ScaledMatrix form: a matrix with sup norm in
[1/2, 2] plus a separate natural-log scale. Renormalization divides by a
power of two, so singular-value ratios of the stored matrix equal those of
the true product exactly and no root or weight computation ever sees the
accumulated exponent.
"""

import math

import numpy as np

from .errors import InvalidInput

SYMPLECTIC_TOL = 1e-9


def standard_symplectic_form(n):
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def sym_power_matrix(mat, d):
    """Image of a 2x2 matrix under the degree-(d-1) symmetric power."""
    if d < 2:
        raise InvalidInput("symmetric power needs dimension >= 2")
    m = np.asarray(mat, dtype=float)
    if m.shape != (2, 2):
        raise InvalidInput("symmetric power acts on 2x2 matrices")
    if d == 2:
        return m.copy()
    a, b = m[0]
    c, dd = m[1]
    n = d - 1
    cols = np.zeros((d, d))
    for j in range(d):
        # expand (a x + c y)^(n-j) (b x + d y)^j in monomials x^(n-i) y^i
        p1 = np.array(
            [math.comb(n - j, t) * a ** (n - j - t) * c**t for t in range(n - j + 1)]
        )
        p2 = np.array([math.comb(j, s) * b ** (j - s) * dd**s for s in range(j + 1)])
        cols[:, j] = np.convolve(p1, p2)
    scale = np.sqrt([math.comb(n, k) for k in range(d)])
    return cols * scale[np.newaxis, :] / scale[:, np.newaxis]


class Representation:
    """A generator-to-matrix table with a Lie-type tag.

    images must cover every letter that can appear in a word, inverse
    letters included. lie_type is "A" for SL(d) and "C" for Sp(2n).

    factors, when present, records the two-by-two origin of the matrices:
    a tuple of (block dimension, letter-to-2x2 table) pairs whose
    symmetric powers, interleaved, reproduce the images. Cartan data of
    long words is recovered from the factors without forming the badly
    conditioned large product.
    """

    __slots__ = ("dim", "lie_type", "images", "label", "verified", "factors")

    def __init__(self, dim, lie_type, images, label, verified=True, factors=None):
        if lie_type not in ("A", "C"):
            raise InvalidInput("lie_type must be A or C")
        if lie_type == "C" and dim % 2 != 0:
            raise InvalidInput("C-type dimension must be even")
        self.dim = int(dim)
        self.lie_type = lie_type
        self.images = {}
        form = standard_symplectic_form(dim // 2) if lie_type == "C" else None
        for letter, raw in images.items():
            m = np.asarray(raw, dtype=float)
            if m.shape != (dim, dim):
                raise InvalidInput(
                    "image of %r has shape %r, expected %d x %d"
                    % (letter, m.shape, dim, dim)
                )
            det = np.linalg.det(m)
            if abs(det) < 1e-200:
                raise InvalidInput("image of %r is singular" % letter)
            m = m / abs(det) ** (1.0 / dim)
            if form is not None:
                defect = np.abs(m.T @ form @ m - form).max()
                if defect > SYMPLECTIC_TOL:
                    raise InvalidInput(
                        "image of %r violates the symplectic form by %.3g"
                        % (letter, defect)
                    )
            self.images[letter] = m
        self.label = label
        self.verified = bool(verified)
        self.factors = factors

    def image(self, letter):
        try:
            return self.images[letter]
        except KeyError:
            raise InvalidInput("letter %r has no image under %s" % (letter, self.label))

    def __repr__(self):
        tag = "" if self.verified else ", unverified representation"
        return "Representation(%s, dim=%d, %s-type%s)" % (
            self.label,
            self.dim,
            self.lie_type,
            tag,
        )


def sym_power(d):
    """Constructor: maps a letter-to-2x2 table to the d-dimensional
    symmetric-power representation."""
    if d < 2:
        raise InvalidInput("symmetric power needs dimension >= 2")

    def build(images2, label=None):
        base = {}
        for k, v in images2.items():
            m = _as_2x2(v)
            base[k] = m / abs(np.linalg.det(m)) ** 0.5
        images = {k: sym_power_matrix(m, d) for k, m in base.items()}
        return Representation(
            d, "A", images, label or ("sym%d" % d), factors=((d, base),)
        )

    return build


def sp_product(reps):
    """Block-diagonal-by-interleaving product of n two-dimensional
    representations, landing in Sp(2n)."""
    reps = list(reps)
    n = len(reps)
    if n == 0:
        raise InvalidInput("empty product")
    letters = set(reps[0].images)
    for r in reps:
        if r.dim != 2:
            raise InvalidInput("sp_product factors must be two-dimensional")
        if set(r.images) != letters:
            raise InvalidInput("sp_product factors must share an alphabet")
    images = {}
    for letter in letters:
        blocks = np.zeros((2 * n, 2 * n))
        for i, r in enumerate(reps):
            m = r.images[letter]
            blocks[i, i] = m[0, 0]
            blocks[i, n + i] = m[0, 1]
            blocks[n + i, i] = m[1, 0]
            blocks[n + i, n + i] = m[1, 1]
        images[letter] = blocks
    label = "spprod(%s)" % ",".join(r.label for r in reps)
    verified = all(r.verified for r in reps)
    # a two-dimensional rep is its own factor table
    factors = tuple((2, dict(r.images)) for r in reps)
    return Representation(2 * n, "C", images, label, verified=verified, factors=factors)


def custom_rep(images, dim, label="custom"):
    """Raw matrices with no structure certificate."""
    return Representation(
        dim, "A", images, label + " (unverified representation)", verified=False
    )


def _as_2x2(v):
    m = np.asarray(getattr(v, "mat", v), dtype=float)
    if m.shape != (2, 2):
        raise InvalidInput("expected a 2x2 matrix or Mobius value")
    return m


class ScaledMatrix:
    """A matrix with its magnitude factored into a separate log scale.

    The true matrix is e^log_scale * mat. Renormalization divides mat by
    a power of two chosen to land the sup norm in [1, 2) (inside the
    contract interval [1/2, 2]), so mat's entries stay exact binary
    rescalings of the true product.
    """

    __slots__ = ("mat", "log_scale")

    def __init__(self, mat, log_scale=0.0):
        m = np.asarray(mat, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInput("ScaledMatrix needs a square matrix")
        sup = np.abs(m).max()
        if sup == 0.0 or not np.isfinite(sup):
            raise InvalidInput("ScaledMatrix needs a finite nonzero matrix")
        k = math.floor(math.log2(sup))
        if k != 0:
            m = m / math.ldexp(1.0, k)
        self.mat = m
        self.log_scale = float(log_scale) + k * math.log(2.0)

    @classmethod
    def identity(cls, d):
        return cls(np.eye(d))

    @classmethod
    def _normalized(cls, mat, log_scale):
        """A product already renormalized by the rule of __init__, taken
        as it is."""
        sm = cls.__new__(cls)
        sm.mat = mat
        sm.log_scale = log_scale
        return sm

    @property
    def dim(self):
        return self.mat.shape[0]

    def times(self, raw):
        """Right-multiply by a plain matrix, renormalizing."""
        return ScaledMatrix(self.mat @ np.asarray(raw, dtype=float), self.log_scale)

    def __matmul__(self, other):
        return ScaledMatrix(self.mat @ other.mat, self.log_scale + other.log_scale)

    def true_matrix(self):
        return math.exp(self.log_scale) * self.mat

    def log_singular_values(self):
        svals = np.linalg.svd(self.mat, compute_uv=False)
        if svals[-1] <= 0.0:
            raise InvalidInput("numerically rank-deficient product")
        return np.log(svals) + self.log_scale

    def __repr__(self):
        return "ScaledMatrix(dim=%d, log_scale=%.6g)" % (self.dim, self.log_scale)


def _times_rows(mats, log_scales, raws):
    """ScaledMatrix.times on stacked rows: mats (N, d, d) with log_scales
    (N,) right-multiplied by raws (N, d, d), each product divided by the
    power of two that puts its sup norm in [1, 2)."""
    m = np.matmul(mats, raws)
    sup = np.abs(m).max(axis=(1, 2))
    if not np.all((sup > 0.0) & np.isfinite(sup)):
        raise InvalidInput("ScaledMatrix needs a finite nonzero matrix")
    k = np.floor(np.log2(sup))
    return m / np.ldexp(1.0, k.astype(int))[:, None, None], log_scales + k * math.log(2.0)


def evaluate(rep, word, compensated=False):
    """Product of generator images along a word, as a ScaledMatrix.

    The compensated path accumulates in extended precision before rounding
    back; meant for words past a few hundred letters.
    """
    letters = list(word)
    if not compensated:
        sm = ScaledMatrix.identity(rep.dim)
        for letter in letters:
            sm = sm.times(rep.image(letter))
        return sm
    acc = np.eye(rep.dim, dtype=np.longdouble)
    log_scale = 0.0
    for letter in letters:
        acc = acc @ rep.image(letter).astype(np.longdouble)
        sup = float(np.abs(acc).max())
        k = math.floor(math.log2(sup))
        if k != 0:
            acc = acc / np.longdouble(math.ldexp(1.0, k))
            log_scale += k * math.log(2.0)
    return ScaledMatrix(acc.astype(float), log_scale)
