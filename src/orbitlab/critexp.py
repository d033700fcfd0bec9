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
word k letters past the frontier can fall k dips. The ball is walked as
the level arrays of words._walk_levels, and the values of
representations with 2x2 factors come a level at a time from
cartan.factor_values; a few of them are recomputed word by word as a
check, and the sample's provenance records the frontier minimum, the
dip and the words behind both. For the modular group the scan over
integer matrices with bounded entries gives a slack-free threshold: the
top singular value dominates every entry, so a value below 2 log(bound)
forces the matrix inside the scanned box.

The slope estimator regresses log N(T) on T over a uniform grid; the
bisection estimator finds where the truncated window series crosses a
threshold and is kept only as an upper-biased cross-check.
"""

import json
import math

import numpy as np
from scipy import stats

from .cartan import cartan_projection, factor_values, word_cartan
from .errors import IllConditioned, InsufficientData, InvalidInput
from .reps import sym_power_matrix
from .words import _walk_levels, _walk_rows, _word_at, modular_norm_ball

CLAMP = 1e-12
MIN_WINDOW_VALUES = 20
GRID_POINTS = 40


class ValueSample:
    """Sorted nonnegative functional values with a completeness threshold."""

    __slots__ = ("values", "complete_to", "label", "provenance")

    def __init__(self, values, complete_to, label=""):
        vals = np.sort(np.asarray(list(values), dtype=float))
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

    def is_certified(self, t):
        return t <= self.complete_to

    def __repr__(self):
        return "ValueSample(n=%d, complete_to=%.6g)" % (len(self), self.complete_to)


def poincare_series(vs, s):
    """Truncated sum of e^(-s v) over the sample, compensated, in
    ascending value order."""
    if len(vs) == 0:
        return 0.0
    return math.fsum(math.exp(-s * v) for v in vs.values)


def counting_function(vs, t):
    """Number of sampled values at most t; certified only when
    t <= complete_to (check is_certified)."""
    return int(np.searchsorted(vs.values, t, side="right"))


class ExponentEstimate:
    __slots__ = ("value", "stderr", "method", "window", "n_values", "complete_to")

    def __init__(self, value, stderr, method, window, n_values, complete_to):
        if stderr < 0:
            raise InvalidInput("stderr must be nonnegative")
        self.value = float(value)
        self.stderr = float(stderr)
        self.method = method
        self.window = (float(window[0]), float(window[1]))
        self.n_values = int(n_values)
        self.complete_to = float(complete_to)

    def report(self, functional_name):
        return {
            "functional": functional_name,
            "method": self.method,
            "window": list(self.window),
            "value": self.value,
            "stderr": self.stderr,
            "complete_to": self.complete_to,
            "n_values": self.n_values,
        }

    def __repr__(self):
        return "ExponentEstimate(%.4f +- %.4f, %s, window=(%.3g, %.3g))" % (
            self.value,
            self.stderr,
            self.method,
            self.window[0],
            self.window[1],
        )


def default_window(vs):
    return (0.5 * vs.complete_to, vs.complete_to)


def estimate_exponent(vs, window=None, method="slope", threshold=1.0):
    """Critical-exponent estimate over a certified window.

    slope: least-squares slope of log N(T) against T on a uniform grid.
    bisection: smallest s where the window-truncated series drops below
    the threshold; truncation biases this upward, use as a cross-check.
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
    if method == "slope":
        grid = np.linspace(t0, t1, GRID_POINTS)
        counts = np.searchsorted(vs.values, grid, side="right")
        keep = counts > 0
        if keep.sum() < 3:
            raise InsufficientData("too few grid points with nonzero counts")
        fit = stats.linregress(grid[keep], np.log(counts[keep].astype(float)))
        return ExponentEstimate(
            fit.slope, fit.stderr, "slope", (t0, t1), inside.size, vs.complete_to
        )
    if method == "bisection":
        lo, hi = 0.0, 1.0
        while _window_series(inside, hi) >= threshold:
            hi *= 2.0
            if hi > 1e6:
                raise InsufficientData("window series never drops below threshold")
        if _window_series(inside, lo) < threshold:
            return ExponentEstimate(
                0.0, 0.0, "bisection", (t0, t1), inside.size, vs.complete_to
            )
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if _window_series(inside, mid) >= threshold:
                lo = mid
            else:
                hi = mid
        return ExponentEstimate(
            0.5 * (lo + hi),
            0.5 * (hi - lo),
            "bisection",
            (t0, t1),
            inside.size,
            vs.complete_to,
        )
    raise InvalidInput("method must be slope or bisection")


def _window_series(values, s):
    return math.fsum(math.exp(-s * v) for v in values)


def sample_from_records(records, phi, complete_to, label=""):
    """ValueSample of a functional over an orbit table."""
    name = phi.name()
    vals = []
    for rec in records:
        if name in rec.phi_values:
            vals.append(rec.phi_values[name])
        else:
            vals.append(phi.value(rec.kappa))
    return ValueSample(vals, complete_to, label=label)


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

    The ball is walked as the level arrays of words._walk_levels. When
    rep has 2x2 factors the walk carries their tables, and every value
    comes from cartan.factor_values, a level at a time; otherwise each
    word goes through word_cartan. Either way word_cartan recomputes the
    identity, every one-letter word, the frontier-minimum word and the
    worst-dip pair, and a disagreement beyond 1e-12 relative raises
    IllConditioned. The frontier minimum and the one-letter dips run
    over every element, since in a group with reflections an orientation
    preserving word passes through reversing prefixes; values are kept
    only for the orientation preserving elements. The label reads
    "<name> ball".
    """
    if max_len < 1:
        raise InvalidInput("need max_len >= 1 for a frontier certificate")
    if rep.factors is not None:
        tables = [images for _, images in rep.factors]
        for letter in group.alphabet:
            if any(letter not in images for images in tables):
                raise InvalidInput(
                    "letter %r has no image under %s" % (letter, rep.label)
                )
        levels = list(_walk_levels(group, max_len, tables))
        values = [factor_values(rep, phi, level.products) for level in levels]
    else:
        levels, flat = [], []
        for word, _, level, i in _walk_rows(group, max_len):
            if i == 0:
                levels.append(level)
            flat.append(phi.value(word_cartan(rep, word)))
        values = np.split(np.array(flat), np.cumsum([len(lv) for lv in levels])[:-1])
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
    words = {}
    for length, i in dict.fromkeys(checks):
        word = _word_at(levels, group.alphabet, length, i)
        words[length, i] = word
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
        "frontier_word": words[frontier_at],
        "dip": dip,
        "worst_drop": worst,
        "dip_parent": words[dip_parent],
        "dip_child": words[worst_at],
    }
    return vs


def sample_from_norm_ball(bound, sym_dim, phi):
    """Modular-group sample from the exact entry-bound scan.

    Certificate: an element with top singular value at most `bound` has
    every entry inside the scanned box, and for a symmetric power all
    root data reduce to 2 log(top singular value) of the underlying 2x2
    matrix, scaled by the functional's value on the unit-gap direction.
    No slack term is needed.
    """
    ball = modular_norm_ball(bound)
    mats = np.array([[list(m[0]), list(m[1])] for _, m in ball], dtype=float)
    svals = np.linalg.svd(mats, compute_uv=False)
    # functional on the sym-power Cartan vector of a unit-gap 2x2 matrix
    unit = sym_power_matrix(np.diag([math.exp(0.5), math.exp(-0.5)]), sym_dim)
    mult = phi.value(cartan_projection(unit))
    logs = np.log(svals[:, 0])
    vals = 2.0 * mult * logs
    return ValueSample(
        np.maximum(vals, 0.0),
        2.0 * mult * math.log(bound),
        label="modular norm ball %d, sym%d" % (bound, sym_dim),
    )


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
