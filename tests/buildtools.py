"""Package values that only the tests construct: isometries, a
ScaledMatrix's log singular values, a value sample of known exponent,
and the representations that several test modules walk."""

import math

import numpy as np

from orbitlab.critexp import ValueSample
from orbitlab.doubling import PANTS_BOUNDARY, _doubled_group, double_rep, separated_schottky
from orbitlab.hypdisc import Mobius
from orbitlab.reps import custom_rep, sp_product, sym_power, sym_power_matrix
from orbitlab.words import standard_schottky


def boost(length):
    """Translation along the horizontal axis moving the origin a
    hyperbolic distance |length| toward angle 0 (length > 0) or pi."""
    s = 0.5 * length
    return Mobius(np.diag([math.exp(s), math.exp(-s)]))


def log_singular_values(sm):
    """Logs of the singular values of e^log_scale * mat, descending."""
    return np.log(np.linalg.svd(sm.mat, compute_uv=False)) + sm.log_scale


def synthetic_log_sample(n, c=2.0):
    """The family {c log k : k = 1..n}; its counting function is
    floor(e^(T/c)) and its exponent is exactly 1/c."""
    vals = c * np.log(np.arange(1, n + 1, dtype=float))
    return ValueSample(vals, float(vals[-1]), label="synthetic c=%g n=%d" % (c, n))


def dense_sym_power(group, d):
    """The d-dimensional symmetric power of group's letters as raw
    matrices, a representation with no 2x2 factor table."""
    return custom_rep({c: sym_power_matrix(group.image(c).mat, d) for c in group.alphabet}, d)


def two_speed_product(group):
    """sp_product of the sym2 tables of group, label f4, and of
    standard_schottky(3), label f3: the second factor's other
    translation lengths keep the moduli apart."""
    sym2 = sym_power(2)
    return sp_product([sym2(group.generator_matrices(), label="f4"),
                       sym2(standard_schottky(3.0).generator_matrices(), label="f3")])


def doubled_sym3(ell):
    """The doubled group of separated_schottky(ell) and its sym3 rep."""
    pants = separated_schottky(ell)
    dbl = double_rep(sym_power(3)(pants.generator_matrices(), label="sym3"), PANTS_BOUNDARY)
    return _doubled_group(pants, dbl), dbl.rep
