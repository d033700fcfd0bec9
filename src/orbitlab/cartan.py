"""Cartan projections and linear functionals on them.

The Cartan projection of an invertible matrix is the sorted vector of logs
of its singular values, centered to sum zero so that scalar multiples (and
hence projective representatives) agree. For symplectic matrices the
singular values come in reciprocal pairs; the vector is symmetrized by
averaging the pairs, on every route by the one routine _centered, after
a pairing check: CartanVector refuses a caller's vector off by more than
1e-8 (InvalidInput), the dense route a matrix off by more than
PAIRING_TOL (IllConditioned), and the factor rows of a product
representation pair by construction.

One batched routine, _cartan_rows, turns the plain products along words
in a representation's tables into Cartan rows, for one word
(word_cartan) and a whole level of words._walk_levels alike: factor
boosts when the representation has two-by-two factors, else the dense
route _dense_rows, of which cartan_projection is a one-row call.

Functionals are simple-root combinations, fundamental weights, or the
long root of the symplectic series:

    A-type roots    a_i(kv)   = lambda_i - lambda_(i+1)
    C-type roots    a_i as above for i < n, and a_n(kv) = 2 lambda_n
    weights         w_k(kv)   = lambda_1 + ... + lambda_k
    long            the C-type long root a_n, whatever n is

The text syntax accepted by parse_functional is the one the command line
uses: "a1", "w2", "long", or sums like "2*a1+1*a3".
"""

import math
import re

import numpy as np

from .errors import IllConditioned, InvalidInput
from .hypdisc import _half_lengths
from .reps import ScaledMatrix, _word_product, evaluate, sp_product

CONDITION_LIMIT = 1e14
PAIRING_TOL = 1e-6


def _centered(lam, lie_type):
    """Rows of sorted log singular values centered to sum zero; C-type
    rows are symmetrized over their reciprocal pairs, and zeros carry no
    sign. The one place the pairs are averaged: callers check the pairing
    first, at their own tolerance."""
    lam = lam - lam.mean(axis=-1, keepdims=True)
    if lie_type == "C":
        n = lam.shape[-1] // 2
        half = 0.5 * (lam[..., :n] - lam[..., ::-1][..., :n])
        lam = np.concatenate([half, -half[..., ::-1]], axis=-1)
    return lam + 0.0


class CartanVector:
    """Sorted, centered log singular values with a Lie-type tag."""

    __slots__ = ("lie_type", "lambdas")

    def __init__(self, lambdas, lie_type="A"):
        lam = np.asarray(lambdas, dtype=float)
        if lie_type not in ("A", "C"):
            raise InvalidInput("lie_type must be A or C")
        if lie_type == "C" and lam.size % 2 != 0:
            raise InvalidInput("C-type vector length must be even")
        if np.any(np.diff(lam) > 1e-9):
            raise InvalidInput("Cartan vector must be sorted non-increasing")
        if lie_type == "C":
            asym = np.abs(lam + lam[::-1] - 2.0 * lam.mean()).max()
            if asym > 1e-8:
                raise InvalidInput("C-type pairing violated by %.3g" % asym)
        self.lie_type = lie_type
        self.lambdas = _centered(lam, lie_type)

    @classmethod
    def _of(cls, lambdas, lie_type):
        """A row already sorted and centered, taken as it is."""
        kv = cls.__new__(cls)
        kv.lie_type = lie_type
        kv.lambdas = lambdas
        return kv

    @property
    def d(self):
        return self.lambdas.size

    def __repr__(self):
        return "CartanVector(%s, %s)" % (
            self.lie_type,
            np.array2string(self.lambdas, precision=6),
        )


def cartan_projection(sm, lie_type="A"):
    """Cartan vector of a matrix or ScaledMatrix, one row of _dense_rows;
    the scale part never matters, centering removes it."""
    if not isinstance(sm, ScaledMatrix):
        sm = ScaledMatrix(np.asarray(sm, dtype=float))
    return CartanVector._of(_dense_rows(sm.mat[np.newaxis], lie_type)[0], lie_type)


def _dense_rows(mats, lie_type):
    """Sorted, centered Cartan rows of stacked square matrices from their
    batched singular values. A matrix past float64 range, a condition
    number past CONDITION_LIMIT (the small singular values carry no
    digits) or C-type values off their pairs by more than PAIRING_TOL
    raise IllConditioned rather than return noise."""
    if not np.all(np.isfinite(mats)):
        raise IllConditioned("matrix product leaves float64 range")
    svals = np.linalg.svd(mats, compute_uv=False)
    ratio = svals[:, 0] / np.maximum(svals[:, -1], 1e-300)
    if np.any(svals[:, -1] <= 0.0) or np.any(ratio > CONDITION_LIMIT):
        raise IllConditioned("condition number %.3g exceeds %.3g"
                             % (ratio.max(), CONDITION_LIMIT))
    lam = np.log(svals)
    if lie_type == "C":
        asym = np.abs(lam + lam[:, ::-1] - 2.0 * lam.mean(axis=1, keepdims=True)).max()
        if asym > PAIRING_TOL:
            raise IllConditioned(
                "symplectic singular values fail to pair, asymmetry %.3g" % asym
            )
    return _centered(lam, lie_type)


def _factor_exponents(rep, products):
    """Log singular values, one row per element, of elements given by
    their factor products, in decreasing order.

    products holds one (N, 2, 2) array per entry of rep.factors: the
    plain 2x2 products along each element's word. A factor of block
    dimension d contributes the exponents (d - 1 - 2j) mu, j = 0..d-1,
    of its boost mu, so each row already sums to zero up to rounding.
    With one factor, as for a symmetric power, mu >= 0 puts the row in
    decreasing order already, and it is not sorted.
    """
    if len(rep.factors) == 1:
        ((d, _),) = rep.factors
        return _half_lengths(products[0])[:, np.newaxis] * (d - 1 - 2 * np.arange(d))
    lam = np.concatenate([
        _half_lengths(mats)[:, np.newaxis] * (d - 1 - 2 * np.arange(d))
        for (d, _), mats in zip(rep.factors, products)
    ], axis=1)
    lam.sort(axis=1)
    return lam[:, ::-1]


def _cartan_rows(rep, products):
    """Cartan vectors under rep, one sorted and centered row per element,
    of elements given by their plain products in each of rep.tables:
    from the factor boosts (_factor_exponents), which reach word lengths
    far past the conditioning limit, or else by _dense_rows. A row that
    is not finite raises IllConditioned on either route."""
    if rep.factors is None:
        return _dense_rows(products[0], rep.lie_type)
    lam = _centered(_factor_exponents(rep, products), rep.lie_type)
    if not np.all(np.isfinite(lam)):
        raise IllConditioned("factor product leaves float64 range")
    return lam


def word_cartan(rep, word):
    """Cartan vector of the word's image under the representation: one
    row of _cartan_rows over the word's plain product, from
    reps._word_product, in each of rep.tables.

    Representations built from two-by-two factors expose exact log
    singular values through the factor boosts (symmetric powers carry
    rotations to orthogonal matrices, so the exponents are integer
    multiples of the boost); a boost past about 354 overflows the
    squared entries and raises IllConditioned, as does a structureless
    representation's dense product past CONDITION_LIMIT.
    """
    dim = 2 if rep.factors is not None else rep.dim
    products = [_word_product(images, word, rep.label, dim)[np.newaxis]
                for images in rep.tables]
    return CartanVector._of(_cartan_rows(rep, products)[0], rep.lie_type)


def _root_column(lam, lie_type, i):
    """The i-th simple root on the last axis of stacked lambdas."""
    d = lam.shape[-1]
    if lie_type == "A":
        if not 1 <= i <= d - 1:
            raise InvalidInput("root index %d out of range 1..%d" % (i, d - 1))
        return lam[..., i - 1] - lam[..., i]
    n = d // 2
    if not 1 <= i <= n:
        raise InvalidInput("root index %d out of range 1..%d" % (i, n))
    if i == n:
        return 2.0 * lam[..., n - 1]
    return lam[..., i - 1] - lam[..., i]


def _weight_column(lam, lie_type, k):
    """The k-th fundamental weight on the last axis of stacked lambdas."""
    d = lam.shape[-1]
    top = d - 1 if lie_type == "A" else d // 2
    if not 1 <= k <= top:
        raise InvalidInput("weight index %d out of range 1..%d" % (k, top))
    return lam[..., :k].sum(axis=-1)


def root_value(kv, i):
    """Value of the i-th simple root; for C-type, i = n is the long root."""
    return float(_root_column(kv.lambdas, kv.lie_type, i))


class RootFunctional:
    """A nonnegative combination of simple roots, a fundamental weight,
    or the C-type long root."""

    __slots__ = ("kind", "coeffs", "index")

    def __init__(self, kind, coeffs=None, index=None):
        if kind == "roots":
            if not coeffs:
                raise InvalidInput("empty root combination")
            for i, c in coeffs.items():
                if c < 0:
                    raise InvalidInput("negative coefficient on a%d" % i)
            if math.fsum(coeffs.values()) <= 0:
                raise InvalidInput("root combination must be nonzero")
            self.coeffs = dict(coeffs)
            self.index = None
        elif kind == "weight":
            if index is None or index < 1:
                raise InvalidInput("weight needs a positive index")
            self.index = int(index)
            self.coeffs = None
        elif kind == "long":
            self.index = None
            self.coeffs = None
        else:
            raise InvalidInput("unknown functional kind %r" % kind)
        self.kind = kind

    def value(self, kv):
        return float(self.values(kv.lambdas, kv.lie_type))

    def values(self, lam, lie_type):
        """The functional on every row of stacked Cartan vectors."""
        if self.kind == "roots":
            return sum(c * _root_column(lam, lie_type, i)
                       for i, c in self.coeffs.items())
        if self.kind == "weight":
            return _weight_column(lam, lie_type, self.index)
        if lie_type != "C":
            raise InvalidInput("long root needs a C-type Cartan vector")
        return _root_column(lam, lie_type, lam.shape[-1] // 2)

    def name(self):
        if self.kind == "weight":
            return "w%d" % self.index
        if self.kind == "long":
            return "long"
        terms = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            terms.append("a%d" % i if c == 1 else "%g*a%d" % (c, i))
        return "+".join(terms)

    def __repr__(self):
        return "RootFunctional(%s)" % self.name()


_TERM = re.compile(r"^(?:(\d+(?:\.\d+)?)\*)?([aw])(\d+)$")


def parse_functional(text):
    """Parse the command-line functional syntax.

    "a1" and "w2" are a single root or weight, "long" the C-type long
    root; sums of root terms like "2*a1+1*a3" combine with nonnegative
    coefficients. Weights do not combine.
    """
    s = text.replace(" ", "")
    if not s:
        raise InvalidInput("empty functional")
    if s == "long":
        return RootFunctional("long")
    terms = s.split("+")
    parsed = []
    for t in terms:
        m = _TERM.match(t)
        if not m:
            raise InvalidInput("cannot parse functional term %r" % t)
        coeff = float(m.group(1)) if m.group(1) else 1.0
        parsed.append((coeff, m.group(2), int(m.group(3))))
    if any(kind == "w" for _, kind, _ in parsed):
        if len(parsed) != 1:
            raise InvalidInput("weights do not combine with other terms")
        coeff, _, idx = parsed[0]
        if coeff != 1.0:
            raise InvalidInput("weights take no coefficient")
        return RootFunctional("weight", index=idx)
    coeffs = {}
    for coeff, _, idx in parsed:
        coeffs[idx] = coeffs.get(idx, 0.0) + coeff
    return RootFunctional("roots", coeffs=coeffs)


def sp_long_root_min_check(reps2, word):
    """Two routes to the long-root value of a product representation.

    Left: assemble the symplectic product, evaluate the word, take the
    long root of its Cartan vector. Right: evaluate the word in each
    two-dimensional factor and take the minimum of their root values.
    The two are returned unreduced so callers can see the residual.

    The left route forms the dense symplectic product, so it raises
    IllConditioned once the pairing asymmetry passes PAIRING_TOL; 7- and
    8-letter words at translation lengths of about 2.5-3.9 already do.
    """
    prod = sp_product(reps2)
    lhs_kv = cartan_projection(evaluate(prod, word), lie_type="C")
    lhs = root_value(lhs_kv, prod.dim // 2)
    rhs = min(
        root_value(cartan_projection(evaluate(r, word)), 1) for r in reps2
    )
    return lhs, rhs
