"""Totally positive unitriangular matrices in cone coordinates.

A reduced word for the longest permutation turns the positive semigroup
of upper unitriangular matrices into a positive orthant: every interior
element is an ordered product of elementary matrices with positive
parameters, one per letter. f_gamma evaluates that product; factorize
inverts it for the standard word (1, 2,1, 3,2,1, ...), whose letters
group into blocks of descending indices. Each block multiplies out to a
unit upper bidiagonal matrix, and a product of bidiagonal blocks can be
peeled from the right by reading one corrected superdiagonal entry per
column. The sweep runs on a stack of matrices at once, one numpy
operation per letter: the tp command sweeps all its trials in one call,
and factorize is the one-row call. A parameter at or below zero means
the input sits outside the open semigroup; the sweep reports which
letter failed first and its value, so NotPositive can say whether the
value was merely marginal.

pi_beta sums the parameters attached to one letter. It equals the
corresponding superdiagonal entry of the product, which makes it
additive under multiplication: the grade-one part of the semigroup is a
vector group sitting inside the nilpotent coordinates.
"""

import functools
import math

import numpy as np

from .errors import InvalidInput, NotPositive

POSITIVITY_TOL = 1e-10


class ReducedWord:
    """Word in the letters 1..d-1 multiplying out to the order-reversing
    permutation, with the minimal letter count d(d-1)/2."""

    __slots__ = ("letters", "d")

    def __init__(self, letters, d):
        letters = tuple(int(i) for i in letters)
        if d < 2:
            raise InvalidInput("need dimension at least 2")
        if any(not 1 <= i <= d - 1 for i in letters):
            raise InvalidInput("letters must lie in 1..d-1")
        need = d * (d - 1) // 2
        if len(letters) != need:
            raise InvalidInput(
                "longest-element words in rank %d have %d letters, got %d"
                % (d - 1, need, len(letters))
            )
        perm = list(range(d))
        for i in letters:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        if perm != list(range(d))[::-1]:
            raise InvalidInput("word does not multiply out to the reversal")
        self.letters = letters
        self.d = d

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, ReducedWord)
            and self.letters == other.letters
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.letters, self.d))

    def __repr__(self):
        return "ReducedWord(%r, d=%d)" % (self.letters, self.d)


@functools.lru_cache(maxsize=None)
def standard_word(d):
    """Blocks of descending letters (1), (2,1), ..., (d-1,...,1); cached per d."""
    letters = []
    for k in range(1, d):
        letters.extend(range(k, 0, -1))
    return ReducedWord(letters, d)


class ConeCoords:
    """Strictly positive parameters along a reduced word."""

    __slots__ = ("word", "params")

    def __init__(self, word, params):
        params = tuple(float(t) for t in params)
        if len(params) != len(word):
            raise InvalidInput(
                "word has %d letters, got %d parameters" % (len(word), len(params))
            )
        if any(not (t > 0.0 and math.isfinite(t)) for t in params):
            raise InvalidInput("cone coordinates must be finite and positive")
        self.word = word
        self.params = params

    def __len__(self):
        return len(self.params)

    def __repr__(self):
        return "ConeCoords(%r, %r)" % (self.word, self.params)


class Unitriangular:
    """Upper triangular with exact unit diagonal and exact zeros below."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        mat = np.array(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidInput("need a square matrix")
        if (mat.diagonal() != 1.0).any():
            raise InvalidInput("diagonal entries must equal 1 exactly")
        rows = np.arange(mat.shape[0])
        if mat[rows[:, np.newaxis] > rows].any():
            raise InvalidInput("entries below the diagonal must vanish")
        self.mat = mat

    @property
    def dim(self):
        return self.mat.shape[0]

    def __matmul__(self, other):
        return Unitriangular(self.mat @ other.mat)

    def __repr__(self):
        return "Unitriangular(%r)" % (self.mat,)


def f_gamma(word, params):
    """Ordered product of elementaries along the word."""
    if isinstance(params, ConeCoords):
        if params.word != word:
            raise InvalidInput("coordinates were built along a different word")
        params = params.params
    params = tuple(float(t) for t in params)
    if len(params) != len(word):
        raise InvalidInput(
            "word has %d letters, got %d parameters" % (len(word), len(params))
        )
    out = np.eye(word.d)
    for i, t in zip(word.letters, params):
        # right-multiplying by I + t E adds t * column(i-1) to column(i)
        out[:, i] += t * out[:, i - 1]
    return Unitriangular(out)


def factorize(u):
    """Cone coordinates along the standard word: the one-row call of
    _cone_params. NotPositive names the first failing letter."""
    word = standard_word(u.dim)
    params, stage, value = _cone_params(u.mat[np.newaxis])
    s, c = int(stage[0]), float(value[0])
    if s:
        k = (math.isqrt(8 * s - 7) + 1) // 2
        raise NotPositive("block %d parameter for letter %d is %.3g, not positive"
                          % (k, k * (k + 1) // 2 - s + 1, c),
                          stage=s, marginal=c > -POSITIVITY_TOL)
    return ConeCoords(word, params[0])


def _cone_params(mats):
    """Standard-word parameters of an (N, d, d) stack of unitriangular
    matrices, (N, m) in word order, and each row's first failure.

    The last descending block is a unit bidiagonal factor b with
    mat = g . b; sweeping columns right to left recovers one parameter
    per column and builds g a column at a time, then g's leading
    principal block carries the same structure one dimension down. Each
    step is one elementwise operation on the stack, so a row gets the
    floats a sweep of that row alone gives. A parameter at or below
    POSITIVITY_TOL, or not finite, fails its row. The (N,) stage is the
    first failure's 1-based position in the word, in elimination order
    (last block first), or 0 where the row passed; value is that
    parameter, 0 where the row passed.
    """
    n, d = mats.shape[0], mats.shape[-1]
    m = d * (d - 1) // 2
    cols = mats.transpose(0, 2, 1)
    # word order, and a last column of zeros that fails every row at stage 0
    found, order = np.zeros((n, m + 1)), []
    with np.errstate(all="ignore"):
        for k in range(d - 1, 0, -1):
            # block k lists letters k, k-1, ..., 1, the order the sweep finds them
            col, peeled = np.eye(k + 1)[k], np.empty((n, k, k))
            for j in range(k - 1, -1, -1):
                order.append(k * (k + 1) // 2 - j - 1)
                c = found[:, order[-1]] = cols[:, j + 1, j] - col[..., j]
                col = (cols[:, j + 1] - col) / c[:, np.newaxis]
                peeled[:, j] = col[:, :k]
            cols = peeled
        ok = (found > POSITIVITY_TOL) & (found < np.inf)
    first = np.array(order + [m])[np.argmin(ok[:, order + [m]], axis=1)]
    return found[:, :m], np.where(first < m, first + 1, 0), found[np.arange(n), first]


def pi_beta(word, params, i):
    """Sum of the parameters carried by letter i; equals the (i, i+1)
    entry of the product, so it adds under semigroup multiplication."""
    if isinstance(params, ConeCoords):
        if params.word != word:
            raise InvalidInput("coordinates were built along a different word")
        params = params.params
    if not 1 <= i <= word.d - 1:
        raise InvalidInput("index must lie in 1..d-1")
    return math.fsum(t for ltr, t in zip(word.letters, params) if ltr == i)

