"""Shadow diagnostics along the limit set and box-counting dimension.

distortion_scan measures how a sub-limit map stretches shadows: for each
orbit point past the radius, the boundary arc it shadows is intersected
with the sampled limit set, the flag images of the extreme sample points
give an endpoint distance, and the product with e^(alpha(kappa)) is the
distortion ratio. Bounded ratios across the orbit are the numerical
shape of the two-sided distortion property; the constants are outputs,
never inputs. The ball comes a level at a time from words._walk_levels,
shadows from hypdisc._shadow_arcs and kappa, for the kept rows only,
from cartan._cartan_rows; the DistortionReport holds arrays and spells
no word unless its rows are asked for.

shadow_separation_check buckets orbit points into annuli by functional
value and looks for same-annulus pairs whose shadows overlap even though
the points are far apart; the largest such pair distance is the
empirical separation constant.

box_dimension fits log N against log(1/eps) (critexp._line_fit) over a
geometric grid of scales, N the size of a greedy eps-net. Grassmannian
points embed isometrically through their projectors, so one covering
code serves real samples and flag curves, read from flags.limit_curve's
lazy sample. The net steps from centre to centre and asks one k-d tree
over the sample for each centre's ball.
"""

import math

import numpy as np
from scipy import spatial

from .cartan import _cartan_rows
from .critexp import _line_fit
from .errors import InsufficientScales, InvalidInput
from .flags import (
    GrassPoint,
    _chordal_distances,
    _limit_stack,
    _orthonormalize,
    _projectors,
    _views,
)
from .hypdisc import TWO_PI, _half_lengths, _shadow_arcs
from .words import Word, _rep_tables, _walk_levels

MIN_POINTS = 1000
MIN_SCALES = 5
MIN_SCALE_SPAN = 100.0


class DistortionRow:
    __slots__ = ("word", "alpha_kappa", "endpoint_distance", "ratio")

    def __init__(self, word, alpha_kappa, endpoint_distance, ratio):
        if ratio <= 0.0:
            raise InvalidInput("distortion ratios must be positive")
        self.word = word
        self.alpha_kappa = float(alpha_kappa)
        self.endpoint_distance = float(endpoint_distance)
        self.ratio = float(ratio)


class DistortionReport:
    """A distortion scan's rows as arrays in scan order (alpha_kappa,
    endpoint_distance, ratio, and codes, their words' letter codes per
    word length, spelled in alphabet), the count of shadows too small to
    measure, and rows, the DistortionRow objects, built when asked."""

    __slots__ = ("alphabet", "codes", "alpha_kappa", "endpoint_distance", "ratio",
                 "skipped", "radius", "functional")

    def __init__(self, alphabet, codes, alpha_kappa, endpoint_distance, skipped, radius,
                 functional):
        self.ratio = np.array([d * math.exp(a) for a, d in zip(
            alpha_kappa.tolist(), endpoint_distance.tolist())], dtype=float)
        if np.any(self.ratio <= 0.0):
            raise InvalidInput("distortion ratios must be positive")
        self.alphabet, self.codes = alphabet, codes
        self.alpha_kappa, self.endpoint_distance = alpha_kappa, endpoint_distance
        self.skipped, self.radius, self.functional = int(skipped), float(radius), functional

    def __len__(self):
        return len(self.ratio)

    @property
    def rows(self):
        words = (str(Word(self.alphabet[c] for c in row))
                 for codes in self.codes for row in codes.tolist())
        return list(map(DistortionRow, words, self.alpha_kappa.tolist(),
                        self.endpoint_distance.tolist(), self.ratio.tolist()))

    @property
    def min_ratio(self):
        return float(self.ratio.min())

    @property
    def max_ratio(self):
        return float(self.ratio.max())

    @property
    def spread(self):
        return self.max_ratio / self.min_ratio

    def __repr__(self):
        if not len(self):
            return "DistortionReport(empty, skipped=%d)" % self.skipped
        return "DistortionReport(%d rows, spread=%.3g, skipped=%d)" % (
            len(self), self.spread, self.skipped)


def _single_root_index(phi):
    if phi.kind != "roots" or len(phi.coeffs) != 1:
        raise InvalidInput(
            "shadow diagnostics need a single simple-root functional"
        )
    return next(iter(phi.coeffs))


def _arc_extremes(thetas, centres, halves):
    """For each arc short of the whole circle (centre and half angle, as
    hypdisc._shadow_arcs gives them), the indices of the first and last
    sorted angle of thetas inside it, in arc order, and whether at least
    two fall inside. Found by bisection for all arcs at once, not by a
    scan over the sample; tests/test_hypdisc.py keeps the scan,
    coarse_endpoints, as the oracle it must match."""
    n = thetas.size
    starts = np.mod(centres - halves, TWO_PI)
    ends = starts + 2.0 * halves
    wraps = ends >= TWO_PI
    lo = np.searchsorted(thetas, starts, side="left")
    hi = np.searchsorted(thetas, np.where(wraps, ends - TWO_PI, ends), side="right")
    found = np.where(wraps, n - lo + hi, hi - lo) >= 2
    return np.where(lo < n, lo, 0), np.where(hi > 0, hi - 1, n - 1), found


def distortion_scan(group, rep, phi, r, max_len):
    """Distortion ratios of the sub-limit map over an orbit ball.

    Rows cover the orbit points with displacement beyond r whose shadows
    capture at least two sampled limit points with distinct flag images;
    the rest are counted as skipped. The limit sample, sorted by angle,
    has the same depth as the scan. A level takes one _shadow_arcs call,
    whose whole-circle rows lie within r, and one _arc_extremes call;
    rows keep enumeration order. No point object is built.
    """
    thetas, planes = _limit_stack(rep, group, max_len, _single_root_index(phi))
    projectors = np.einsum("nik,njk->nij", planes, planes)
    codes, alpha, dists = [], [np.empty(0)], [np.empty(0)]
    skipped = 0
    for level in _walk_levels(group, max_len, _rep_tables(group, rep, max_len)):
        centres, halves, full = _shadow_arcs(level.mats, r)
        far = np.flatnonzero(~full)
        first, last, found = _arc_extremes(thetas, centres[far], halves[far])
        dist = np.zeros(len(far))
        if found.any():
            dist[found] = _chordal_distances(*projectors[np.stack([first, last])[:, found]])
        kept = far[dist > 0.0]
        skipped += len(far) - len(kept)
        if not len(kept):
            continue
        # the Cartan vectors of the kept rows only
        lam = _cartan_rows(rep, [m[kept] for m in level.products])
        codes.append(level.codes[kept])
        alpha.append(phi.values(lam, rep.lie_type))
        dists.append(dist[dist > 0.0])
    return DistortionReport(group.alphabet, codes, np.concatenate(alpha),
                            np.concatenate(dists), skipped, r, phi.name())


class SeparationReport:
    """Empirical same-annulus shadow separation constant."""

    __slots__ = ("c0_empirical", "pairs_overlapping", "annuli")

    def __init__(self, c0_empirical, pairs_overlapping, annuli):
        self.c0_empirical = float(c0_empirical)
        self.pairs_overlapping = int(pairs_overlapping)
        self.annuli = dict(annuli)

    def __repr__(self):
        return "SeparationReport(c0=%.6g, pairs_overlapping=%d)" % (
            self.c0_empirical,
            self.pairs_overlapping,
        )


def shadow_separation_check(records, phi, r):
    """Scan same-annulus orbit pairs for overlapping shadows.

    Points land in annulus n when their functional value lies in
    [n, n+1). c0_empirical is the largest distance between same-annulus
    points whose shadows still overlap: the smallest separation
    constant the sample allows.
    """
    buckets = {}
    for rec in records:
        if rec.mob is None:
            raise InvalidInput("records carry no isometries; rebuild the table")
        value = phi.value(rec.kappa)
        n = math.floor(value)
        buckets.setdefault(n, []).append(rec)
    c0_emp = 0.0
    overlapping = 0
    annuli = {n: len(v) for n, v in buckets.items()}
    for n, bucket in sorted(buckets.items()):
        mats = np.array([rec.mob.mat for rec in bucket])
        centers, halves, _ = _shadow_arcs(mats, r)
        for i in range(len(bucket) - 1):
            gap = np.abs(np.mod(centers[i + 1:] - centers[i] + math.pi, TWO_PI) - math.pi)
            hit = i + 1 + np.flatnonzero(gap <= halves[i + 1:] + halves[i])
            # d(m_i o, m_j o) is the displacement of m_i^-1 m_j
            dist = 2.0 * _half_lengths(bucket[i].mob.inverse().mat @ mats[hit])
            overlapping += len(hit)
            c0_emp = max(c0_emp, dist.max(initial=0.0))
    return SeparationReport(c0_emp, overlapping, annuli)


class DimensionEstimate:
    """Box-dimension slope over its scale grid with the covering counts.

    stderr is the regression standard error of the slope, the scatter of
    the counts about one line; it is not an error bar on the dimension,
    which the choice of grid and fit can move by much more: the sym3
    limit curve of standard_schottky(3) at depth 8, on scales 0.3 to
    3e-3, reads 0.473 +- 0.005, while its limit set has dimension
    0.4372."""

    __slots__ = ("value", "scales", "stderr", "counts")

    def __init__(self, value, scales, stderr, counts):
        if value < 0.0:
            raise InvalidInput("dimension cannot be negative")
        self.value = float(value)
        self.scales = tuple(float(s) for s in scales)
        self.stderr = float(stderr)
        self.counts = tuple(int(c) for c in counts)

    def __repr__(self):
        return "DimensionEstimate(%.4f +- %.4f over %d scales)" % (
            self.value,
            self.stderr,
            len(self.scales),
        )


def _embed(points):
    first = points[0]
    if isinstance(first, GrassPoint):
        return _projectors(points).reshape(len(points), -1) / math.sqrt(2.0)
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def _net_size(tree, eps):
    """Number of centres of the greedy eps-net of the rows of tree.data
    in order: a row becomes a centre unless an earlier centre lies
    within eps of it, found by stepping to the next row not yet covered.
    The k-d tree proposes each centre's ball with a relative slack of
    1e-9; a row is covered when the norm of its difference from the
    centre, formed as np.linalg.norm forms it, is at most eps, so ties
    at eps fall as in the row-by-row scan, whatever the tree rounds."""
    cloud = tree.data
    covered = np.zeros(len(cloud) + 1, dtype=bool)  # its last entry ends the scan
    count = i = 0
    while i < len(cloud):
        near = np.array(tree.query_ball_point(cloud[i], eps * (1.0 + 1e-9)))
        diff = cloud[near] - cloud[i]
        covered[near[np.sqrt(np.add.reduce(diff * diff, axis=1)) <= eps]] = True
        count += 1
        i += int(covered[i:].argmin())
    return count


def box_dimension(points, scales):
    """Slope of greedy covering counts on a geometric scale grid.

    Each count is the size of the row-by-row greedy eps-net of the
    embedded sample, by _net_size on one k-d tree for all scales. The
    estimate's stderr is the fit's regression standard error, not an
    error bar (see DimensionEstimate)."""
    if len(points) < MIN_POINTS:
        raise InsufficientScales(
            "need at least %d points, got %d" % (MIN_POINTS, len(points))
        )
    scales = sorted(float(s) for s in scales)
    if len(scales) < MIN_SCALES or scales[0] <= 0.0:
        raise InsufficientScales("need %d positive scales" % MIN_SCALES)
    if scales[-1] / scales[0] < MIN_SCALE_SPAN:
        raise InsufficientScales("scales must span two decades")
    tree = spatial.cKDTree(_embed(points))
    counts = [_net_size(tree, eps) for eps in scales]
    xs = np.log(1.0 / np.array(scales))
    ys = np.log(np.array(counts, dtype=float))
    slope, stderr = _line_fit(xs, ys)
    return DimensionEstimate(max(0.0, slope), scales, max(0.0, stderr), counts)


def cantor_sample(depth):
    """Midpoints of the middle-thirds construction at the given depth."""
    if depth < 1:
        raise InvalidInput("depth must be positive")
    pts = np.zeros(1)
    for k in range(1, depth + 1):
        pts = np.concatenate([pts, pts + 2.0 / 3.0**k])
    return np.sort(pts + 0.5 / 3.0**depth)


def circle_sample(n):
    """n lines through the origin of the plane at uniform angles."""
    if n < 1:
        raise InvalidInput("need at least one point")
    angles = np.linspace(0.0, math.pi, n, endpoint=False).tolist()
    lines = np.array([list(map(math.cos, angles)), list(map(math.sin, angles))])
    planes = _orthonormalize(lines.T[:, :, np.newaxis], "plane")
    return _views(GrassPoint, planes, planes)
