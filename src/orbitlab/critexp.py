"""Poincare series, counting functions and critical-exponent estimates.

Everything here works on a ValueSample: the sorted multiset of functional
values phi(kappa(rho(gamma))) over enumerated group elements, together
with a completeness certificate complete_to. Below that threshold the
sample holds every group element's value, proved or estimated as the
routes below say, so counting and estimation restricted to
[0, complete_to] see the true orbit, not an enumeration artifact.

Two certificate routes exist. A ball extracted from a word-length
enumeration, plain or doubled, uses the minimum value on the length
frontier minus the largest one-letter dip seen in the ball. It is a
proof only when that dip is zero, as measured for the Schottky samples;
a positive dip, as in the doubled group, makes it an estimate, since a
word k letters past the frontier can fall k dips. The ball comes a
level at a time from words._walk_levels, the walk that forms every
product along the words of a ball, and its Cartan vectors from
cartan._cartan_rows; a few values are recomputed word by word with
word_cartan as a check, and the sample's provenance records the
frontier minimum, the dip and the words behind both. For the modular
group, words.modular_norm_ball scans the integer matrices with bounded
entries as one array, an (N, 2, 2) int64 array with no words, and the
values come from each matrix's sum of squared entries, with no SVD. The
threshold is slack-free: the top singular value dominates every entry,
so a value below 2 log(bound) forces the matrix inside the scanned box.

The critical exponent is the growth rate of N(T), the number of orbit
elements with value at most T, and estimate_exponent reads it as the
slope of log N(T) against T over a uniform grid inside the certified
window. poincare_series is the series that defines the exponent as its
abscissa of convergence.
"""

import functools
import json
import math

import numpy as np

from .cartan import _cartan_rows, cartan_projection, word_cartan
from .errors import IllConditioned, InsufficientData, InvalidInput
from .hypdisc import _half_lengths
from .reps import sym_power_matrix
from .words import _rep_tables, _walk_levels, modular_norm_ball

CLAMP = 1e-12
MIN_WINDOW_VALUES = 20
GRID_POINTS = 40
TIE_TOL = 1e-12


class ValueSample:
    """Sorted nonnegative functional values with a completeness threshold."""

    __slots__ = ("values", "complete_to", "label", "provenance")

    def __init__(self, values, complete_to, label=""):
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.size and vals[0] < -1e-9:
            raise InvalidInput("functional values must be nonnegative")
        vals = np.where(vals < CLAMP, 0.0, vals)
        top = float(vals[-1]) if vals.size else 0.0
        if complete_to > top + 1e-12:
            raise InvalidInput(
                "complete_to %.6g exceeds the largest sampled value %.6g"
                % (complete_to, top)
            )
        self.values = vals
        self.complete_to = float(complete_to)
        self.label = label
        # where a frontier certificate came from; None for other samples
        self.provenance = None

    def __len__(self):
        return int(self.values.size)

    def __repr__(self):
        return "ValueSample(n=%d, complete_to=%.6g)" % (len(self), self.complete_to)


def poincare_series(vs, s):
    """Truncated sum of e^(-s v) over the sample, compensated, in
    ascending value order; 0 for an empty sample."""
    return math.fsum(math.exp(-s * v) for v in vs.values)


def counting_function(vs, t):
    """Number of sampled values at most t; certified only when
    t <= complete_to."""
    return int(np.searchsorted(vs.values, t, side="right"))


class ExponentEstimate:
    __slots__ = ("value", "stderr", "window", "n_values", "complete_to")

    def __init__(self, value, stderr, window, n_values, complete_to):
        if stderr < 0:
            raise InvalidInput("stderr must be nonnegative")
        self.value = float(value)
        self.stderr = float(stderr)
        self.window = (float(window[0]), float(window[1]))
        self.n_values = int(n_values)
        self.complete_to = float(complete_to)

    def report(self, functional_name):
        return {
            "functional": functional_name,
            "method": "slope",
            "window": list(self.window),
            "value": self.value,
            "stderr": self.stderr,
            "complete_to": self.complete_to,
            "n_values": self.n_values,
        }

    def __repr__(self):
        return "ExponentEstimate(%.4f +- %.4f, window=(%.3g, %.3g))" % (
            self.value,
            self.stderr,
            self.window[0],
            self.window[1],
        )


def default_window(vs):
    return (0.5 * vs.complete_to, vs.complete_to)


def estimate_exponent(vs, window=None):
    """Critical-exponent estimate over a certified window: the
    least-squares slope of log N(T) against T on a uniform grid, where
    N(T) counts the values at most T(1 + TIE_TOL), so values tied with a
    grid point in exact arithmetic count whichever way they round.
    """
    if window is None:
        window = default_window(vs)
    t0, t1 = float(window[0]), float(window[1])
    if not (0.0 <= t0 < t1):
        raise InvalidInput("window must satisfy 0 <= T0 < T1")
    if t1 > vs.complete_to + 1e-12:
        raise InvalidInput(
            "window end %.6g is past the certificate %.6g" % (t1, vs.complete_to)
        )
    inside = vs.values[(vs.values >= t0) & (vs.values <= t1)]
    distinct = np.unique(inside)
    if distinct.size < MIN_WINDOW_VALUES:
        raise InsufficientData(
            "window holds %d distinct values, need %d"
            % (distinct.size, MIN_WINDOW_VALUES)
        )
    grid = np.linspace(t0, t1, GRID_POINTS)
    counts = np.searchsorted(vs.values, grid * (1.0 + TIE_TOL), side="right")
    keep = counts > 0
    if keep.sum() < 3:
        raise InsufficientData("too few grid points with nonzero counts")
    slope, stderr = _line_fit(grid[keep], np.log(counts[keep].astype(float)))
    return ExponentEstimate(slope, stderr, (t0, t1), inside.size, vs.complete_to)


def _line_fit(x, y):
    """Least-squares slope of y on x (three points or more) and its
    standard error, bit for bit as scipy.stats.linregress (1.17.1) forms
    them, without importing scipy.stats."""
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    r = ((math.nan if ssxym == 0 else 0.0) if ssxm == 0.0 or ssym == 0.0
         else min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0))
    return ssxym / ssxm, np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))


def sample_from_enumeration(group, rep, phi, max_len):
    """Enumerate to max_len and certify by the length frontier.

    complete_to is the smallest value on the frontier minus the dip, the
    largest drop from a word's value to a one-letter extension's seen
    in the ball, or 0 when no extension drops. Only with dip 0 is this
    a proof: a word k letters past the frontier can fall k dips below
    its frontier prefix, not one, and drops past the ball are not seen.
    With dip 0, and if extensions never drop beyond the ball either,
    every longer word is worth at least its frontier prefix, so a value
    below the threshold would already have been enumerated. The
    provenance of the sample records frontier_min, dip and the words
    behind them, so a caller can tell which case it is in. A group whose
    enumeration rounds (custom) is labelled non-exhaustive.
    """
    return _frontier_sample(group, rep, phi, max_len, group.kind)


def _frontier_sample(group, rep, phi, max_len, name):
    """ValueSample of phi over the ball of enumerate_elements(group,
    max_len), with the length-frontier certificate of
    sample_from_enumeration.

    The ball comes a level at a time from words._walk_levels, and phi is
    applied to each level's rows from cartan._cartan_rows at once.
    word_cartan recomputes the identity, every one-letter word, the
    frontier-minimum word and the worst-dip pair, and a disagreement
    beyond 1e-12 relative raises IllConditioned. The frontier minimum
    and the one-letter dips run over every element, since in a group
    with reflections an orientation preserving word passes through
    reversing prefixes; values are kept only for the orientation
    preserving elements. The label reads "<name> ball".
    """
    if max_len < 1:
        raise InvalidInput("need max_len >= 1 for a frontier certificate")
    levels, values = [], []
    for level in _walk_levels(group, max_len, _rep_tables(group, rep, max_len)):
        levels.append(level)
        values.append(phi.values(_cartan_rows(rep, level.products), rep.lie_type))
    if len(levels) <= max_len:
        raise InsufficientData("no words on the length frontier")
    worst, worst_at = -math.inf, None
    for length in range(1, len(levels)):
        drops = values[length - 1][levels[length].parent] - values[length]
        i = int(np.argmax(drops))
        if drops[i] > worst:
            worst, worst_at = float(drops[i]), (length, i)
    frontier_at = (max_len, int(np.argmin(values[max_len])))
    frontier_min = float(values[max_len][frontier_at[1]])
    dip = max(0.0, worst)
    dip_parent = (worst_at[0] - 1, int(levels[worst_at[0]].parent[worst_at[1]]))
    checks = [(0, 0)] + [(1, j) for j in range(len(levels[1]))]
    checks += [frontier_at, dip_parent, worst_at]
    word_of = {(length, i): levels[length].word(i) for length, i in checks}
    for (length, i), word in word_of.items():
        direct = phi.value(word_cartan(rep, word))
        batched = float(values[length][i])
        if abs(batched - direct) > 1e-12 * max(1.0, abs(direct)):
            raise IllConditioned(
                "batched value %.17g of %s differs from word_cartan's %.17g"
                % (batched, word, direct)
            )
    kept = np.concatenate([v[level.orientation == 1]
                           for v, level in zip(values, levels)])
    label = "%s ball, max_len %d" % (name, max_len)
    if not group.exact_dedup:
        label += ", non-exhaustive enumeration"
    vs = ValueSample(kept, max(0.0, frontier_min - dip), label=label)
    vs.provenance = {
        "frontier_min": frontier_min,
        "frontier_word": word_of[frontier_at],
        "dip": dip,
        "worst_drop": worst,
        "dip_parent": word_of[dip_parent],
        "dip_child": word_of[worst_at],
    }
    return vs


def sample_from_norm_ball(bound, sym_dim, phi):
    """Modular-group sample from the exact entry-bound scan.

    The ball is words.modular_norm_ball's (N, 2, 2) integer array; no
    words are formed and no SVD is taken: log of the top singular value
    is hypdisc._half_lengths, from the sum of squared entries, which is
    exact algebra for determinant 1. Certificate: an element with top
    singular value at most `bound` has every entry inside the scanned
    box, and for a symmetric power all root data reduce to 2 log(top
    singular value) of the underlying 2x2 matrix, scaled by the
    functional's value on the unit-gap direction. No slack term is
    needed.
    """
    # functional on the sym-power Cartan vector of a unit-gap 2x2 matrix
    unit = sym_power_matrix(np.diag([math.exp(0.5), math.exp(-0.5)]), sym_dim)
    mult = phi.value(cartan_projection(unit))
    vals = 2.0 * mult * _norm_ball_half_lengths(bound)
    return ValueSample(
        np.maximum(vals, 0.0),
        2.0 * mult * math.log(bound),
        label="modular norm ball %d, sym%d" % (bound, sym_dim),
    )


@functools.lru_cache(maxsize=1)
def _norm_ball_half_lengths(bound):
    """Read-only half-lengths of modular_norm_ball(bound): one scan per
    bound, however many functionals' samples read it."""
    half = _half_lengths(modular_norm_ball(bound))
    half.flags.writeable = False
    return half


def synthetic_log_sample(n, c=2.0):
    """The family {c log k : k = 1..n}; its counting function is
    floor(e^(T/c)) and its exponent is exactly 1/c."""
    if n < 1:
        raise InvalidInput("need n >= 1")
    vals = c * np.log(np.arange(1, n + 1, dtype=float))
    return ValueSample(vals, float(vals[-1]), label="synthetic c=%g n=%d" % (c, n))


def write_report_jsonl(path, rows):
    """One JSON object per line; rows come from ExponentEstimate.report."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
