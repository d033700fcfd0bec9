"""Series, counting and exponent estimation against closed-form families.

The synthetic family {c log k : k <= n} has counting function
floor(e^(T/c)) and critical exponent exactly 1/c, which pins down both
estimators without any group theory. Group-driven samples are then
checked for certificate validity and for landing in known windows.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

import orbitlab.critexp as critexp
import orbitlab.limitgeom as limitgeom
from orbitlab.cartan import CartanVector, parse_functional, word_cartan
from orbitlab.critexp import (
    ExponentEstimate,
    ValueSample,
    _line_fit,
    counting_function,
    default_window,
    estimate_exponent,
    poincare_series,
    sample_from_enumeration,
    sample_from_norm_ball,
    synthetic_log_sample,
    write_report_jsonl,
)
from orbitlab.doubling import (
    PANTS_BOUNDARY,
    _doubled_group,
    double_rep,
    doubled_value_sample,
    enumerate_doubled,
    separated_schottky,
)
from orbitlab.errors import IllConditioned, InsufficientData, InvalidInput
from orbitlab.flags import limit_curve
from orbitlab.hypdisc import Mobius, _half_lengths
from orbitlab.limitgeom import box_dimension, cantor_sample, circle_sample
from orbitlab.reps import sp_product, sym_power
from orbitlab.words import (
    MODULAR_S,
    MODULAR_T,
    custom_group,
    enumerate_elements,
    free_schottky,
    modular_group,
    modular_norm_ball,
    standard_schottky,
)

A1 = parse_functional("a1")


def sym3(group):
    return sym_power(3)(group.generator_matrices(), label="sym3")


def test_empty_sample_series_is_zero():
    vs = ValueSample([], 0.0)
    assert poincare_series(vs, 0.7) == 0.0
    assert poincare_series(vs, 0.0) == 0.0
    assert counting_function(vs, 5.0) == 0


def test_values_are_sorted_and_clamped():
    vs = ValueSample([3.0, 1e-14, 2.0, 0.0], 1.5)
    assert list(vs.values) == [0.0, 0.0, 2.0, 3.0]
    assert len(vs) == 4


def test_array_list_and_generator_inputs_agree():
    # arrays and lists go to numpy as they are; only an iterator is listed
    values = np.random.default_rng(5).exponential(3.0, 1000)
    values[::7] = 0.0
    arrays = [ValueSample(values, 2.0).values,
              ValueSample(values.tolist(), 2.0).values,
              ValueSample((v for v in values), 2.0).values]
    for got in arrays:
        assert got.dtype == np.float64
        assert np.array_equal(got, np.sort(values))
    assert all(a.tobytes() == arrays[0].tobytes() for a in arrays)


def test_negative_values_rejected():
    with pytest.raises(InvalidInput):
        ValueSample([-0.5, 1.0], 0.5)


def test_certificate_cannot_exceed_largest_value():
    with pytest.raises(InvalidInput):
        ValueSample([1.0, 2.0], 3.0)


def test_series_matches_direct_sum():
    vs = synthetic_log_sample(10_000)
    got = poincare_series(vs, 0.6)
    direct = sum(k ** -1.2 for k in range(1, 10_001))
    assert abs(got - direct) < 1e-10


def test_series_decreasing_in_s():
    vs = synthetic_log_sample(500)
    ss = [0.1, 0.4, 0.7, 1.3, 2.0]
    qs = [poincare_series(vs, s) for s in ss]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_counting_matches_floor_formula():
    vs = synthetic_log_sample(100_000)
    for t in [0.5, 1.0, 3.7, 6.0, 11.2, 20.0]:
        assert counting_function(vs, t) == math.floor(math.exp(t / 2.0))


def test_counting_right_continuity_at_sample_point():
    vs = ValueSample([1.0, 2.0, 2.0, 3.0], 3.0)
    assert counting_function(vs, 2.0) == 3
    assert counting_function(vs, 2.0 - 1e-9) == 1


def test_slope_recovers_synthetic_exponent():
    vs = synthetic_log_sample(100_000)
    est = estimate_exponent(vs, window=(6.0, 20.0))
    assert abs(est.value - 0.5) < 0.01
    assert est.stderr >= 0.0
    assert est.report("a1")["method"] == "slope"
    assert est.window == (6.0, 20.0)


def test_slope_counts_values_tied_with_the_last_grid_point():
    # the last grid point is complete_to; copies of it one ulp above
    # count as the exact copies do, as values tied in exact arithmetic
    # must whichever way they round
    base = synthetic_log_sample(10_000).values
    top = float(base[-1])
    exact = ValueSample(np.concatenate([base, [top] * 3]), top)
    nudged = ValueSample(np.concatenate([base, [np.nextafter(top, np.inf)] * 3]), top)
    assert nudged.values[-1] > top
    want = estimate_exponent(exact)
    got = estimate_exponent(nudged)
    assert (got.value, got.stderr) == (want.value, want.stderr)


def test_default_window_is_upper_half():
    vs = synthetic_log_sample(1000)
    t0, t1 = default_window(vs)
    assert t0 == pytest.approx(0.5 * vs.complete_to)
    assert t1 == pytest.approx(vs.complete_to)
    est = estimate_exponent(vs)
    assert abs(est.value - 0.5) < 0.05


def test_window_past_certificate_rejected():
    vs = synthetic_log_sample(1000)
    with pytest.raises(InvalidInput):
        estimate_exponent(vs, window=(1.0, vs.complete_to + 1.0))
    with pytest.raises(InvalidInput):
        estimate_exponent(vs, window=(3.0, 2.0))
    with pytest.raises(InvalidInput):
        estimate_exponent(vs, window=(-1.0, 2.0))


def test_sparse_window_raises_insufficient_data():
    vs = ValueSample(np.linspace(0.0, 10.0, 15), 10.0)
    with pytest.raises(InsufficientData):
        estimate_exponent(vs, window=(0.0, 10.0))


def test_scaling_covariance_is_exact():
    # scaling every value by c divides the exponent by c
    base = synthetic_log_sample(20_000)
    for c in [0.5, 2.0, 3.7]:
        scaled = ValueSample(c * base.values, c * base.complete_to)
        e0 = estimate_exponent(base, window=(5.0, base.complete_to))
        e1 = estimate_exponent(scaled, window=(5.0 * c, scaled.complete_to))
        assert e1.value == pytest.approx(e0.value / c, rel=1e-12)


def test_series_convexity_in_the_functional():
    # combining functionals on the same elements can only shrink the sum:
    # exp is convex, so Q(t phi1 + (1-t) phi2) <= t Q(phi1) + (1-t) Q(phi2)
    rng = np.random.default_rng(7)
    v1 = np.sort(rng.uniform(0.0, 8.0, size=400))
    v2 = np.sort(rng.uniform(0.0, 8.0, size=400))
    for t in [0.25, 0.5, 0.9]:
        mix = t * v1 + (1 - t) * v2
        for s in [0.3, 0.8, 1.5]:
            lhs = t * math.fsum(np.exp(-s * v1)) + (1 - t) * math.fsum(
                np.exp(-s * v2)
            )
            rhs = math.fsum(np.exp(-s * mix))
            assert lhs >= rhs - 1e-12


def test_modular_norm_ball_sample_certificate():
    phi = parse_functional("a1")
    vs = sample_from_norm_ball(150, 3, phi)
    # entry bound 150 certifies values up to 2 log 150 for the first root
    assert vs.complete_to == pytest.approx(2.0 * math.log(150.0))
    assert vs.complete_to >= 10.0
    assert len(vs) > 100_000


def test_modular_first_root_exponent_window():
    phi = parse_functional("a1")
    vs = sample_from_norm_ball(450, 3, phi)
    assert vs.complete_to >= 12.0
    est = estimate_exponent(vs, window=(6.0, 12.0))
    assert 0.85 <= est.value <= 1.15


def test_norm_ball_sample_scales_with_functional_coefficient():
    one = parse_functional("a1")
    two = parse_functional("2*a1")
    a = sample_from_norm_ball(40, 3, one)
    b = sample_from_norm_ball(40, 3, two)
    assert b.complete_to == pytest.approx(2.0 * a.complete_to)
    assert np.allclose(b.values, 2.0 * a.values)


def test_norm_ball_scans_each_bound_once(monkeypatch):
    # a1, then a2, then a1 again: one scan, and values bit-identical to
    # an uncached scan
    scans = []

    def counted(bound):
        scans.append(bound)
        return modular_norm_ball(bound)

    monkeypatch.setattr(critexp, "modular_norm_ball", counted)
    critexp._norm_ball_half_lengths.cache_clear()
    half = _half_lengths(modular_norm_ball(80))
    a2 = parse_functional("a2")
    for phi in (A1, a2, A1):
        vs = sample_from_norm_ball(80, 3, phi)
        mult = 2.0 * phi.value(critexp.cartan_projection(critexp.sym_power_matrix(
            np.diag([math.exp(0.5), math.exp(-0.5)]), 3)))
        assert vs.values.tobytes() == np.sort(np.maximum(mult * half, 0.0)).tobytes()
    assert scans == [80]
    cached = critexp._norm_ball_half_lengths(80)
    assert cached.tobytes() == half.tobytes()
    assert not cached.flags.writeable
    sample_from_norm_ball(60, 3, A1)
    assert scans == [80, 60]


def fit_inputs(monkeypatch, run):
    """(x, y) of every line fit that run() makes."""
    seen = []

    def record(x, y):
        seen.append((np.array(x), np.array(y)))
        return _line_fit(x, y)

    monkeypatch.setattr(critexp, "_line_fit", record)
    monkeypatch.setattr(limitgeom, "_line_fit", record)
    run()
    return seen


def assert_fit_is_linregress(x, y):
    slope, stderr = _line_fit(x, y)
    want = stats.linregress(x, y)
    assert np.array([slope, stderr]).tobytes() == np.array([want.slope, want.stderr]).tobytes()


def test_line_fit_is_linregress_on_the_criteria_windows(monkeypatch):
    # criteria 05 and 06 (norm balls at 450 on the window (6, 12), the
    # Schottky and sp-product balls at length 9) and 10 (the calibrations
    # and the Schottky curve at depth 9)
    group = standard_schottky(4.0)
    slow = standard_schottky(3.0)
    grass = [0.3 * 10.0 ** (-j / 2.0) for j in range(5)]

    def criteria():
        for sym_dim, names in ((2, ("a1",)), (3, ("a1", "a2"))):
            rep = sym_power(sym_dim)(group.generator_matrices())
            for name in names:
                phi = parse_functional(name)
                estimate_exponent(sample_from_norm_ball(450, sym_dim, phi), window=(6.0, 12.0))
                estimate_exponent(sample_from_enumeration(group, rep, phi, 9))
        prod = sp_product([sym_power(2)({c: g.image(c).mat for c in "abAB"})
                           for g in (group, slow)])
        estimate_exponent(sample_from_enumeration(group, prod, parse_functional("long"), 9))
        box_dimension(cantor_sample(12), [3.0 ** -k for k in range(2, 8)])
        box_dimension(circle_sample(2000), grass)
        rep = sym_power(3)(group.generator_matrices())
        box_dimension([p for _, p in limit_curve(rep, group, 9, 1)], grass)

    seen = fit_inputs(monkeypatch, criteria)
    assert len(seen) == 10
    for x, y in seen:
        assert_fit_is_linregress(x, y)


def test_line_fit_is_linregress_on_random_fits():
    rng = np.random.default_rng(83)
    for _ in range(2000):
        n = int(rng.integers(3, 60))
        x = np.sort(rng.uniform(-5.0, 5.0, n))
        y = rng.normal(rng.normal(), 1.0, n) + rng.normal() * x
        assert_fit_is_linregress(x, y)
    # exact lines, a flat line that rounds to a tiny variance, and flat
    # counts, where the variance is 0 and r is nan
    x = np.linspace(0.0, 1.0, 7)
    for y in (2.0 * x + 1.0, -x, np.full(7, math.log(10.0)), np.zeros(7)):
        assert_fit_is_linregress(x, y)
    slope, stderr = _line_fit(x, np.zeros(7))
    assert slope == 0.0 and math.isnan(stderr)


def test_schottky_enumeration_sample_certificate():
    group = standard_schottky()
    rep = sym_power(2)(group.generator_matrices(), label="ident")
    phi = parse_functional("a1")
    vs = sample_from_enumeration(group, rep, phi, max_len=5)
    # frontier words displace by at least 3 len - 3, so the certificate
    # must sit well above the max_len - 1 ball
    assert vs.complete_to > 12.0
    assert len(vs) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, 6))
    inside = counting_function(vs, vs.complete_to)
    assert inside < len(vs)


def test_schottky_slope_estimate_is_positive_and_stable():
    group = standard_schottky()
    rep = sym_power(2)(group.generator_matrices(), label="ident")
    phi = parse_functional("a1")
    vs = sample_from_enumeration(group, rep, phi, max_len=6)
    est = estimate_exponent(vs)
    # rank-2 free group with these translation lengths grows like
    # e^(delta T) with delta = log 3 / 3.27 roughly; just pin the window
    assert 0.2 < est.value < 0.45


def _pinned_doubled():
    group = separated_schottky(2.0)
    dbl = double_rep(sym3(group), PANTS_BOUNDARY)
    counts = {
        "walked": sum(1 for _ in enumerate_elements(_doubled_group(group, dbl), 5)),
        "enumerate_doubled": sum(1 for _ in enumerate_doubled(group, dbl, 5)),
    }
    return doubled_value_sample(group, dbl, A1, 5), counts


def _pinned_plain(group, max_len):
    return sample_from_enumeration(group, sym3(group), A1, max_len), {}


# value count, complete_to, fsum of values and walker counts of the
# frontier certificate on three groups; a change to the walker or the
# certificate must keep them (counts exactly, floats to 1e-12 relative)
@pytest.mark.parametrize("build, n_values, complete_to, total, counts", [
    pytest.param(_pinned_doubled, 3451, 5.009555826872347, 32310.312032407517,
                 {"walked": 6898, "enumerate_doubled": 3451}, id="doubled-depth5"),
    pytest.param(lambda: _pinned_plain(standard_schottky(), 6), 1457,
                 20.382817738736566, 29046.67516541211, {}, id="schottky-L6"),
    pytest.param(lambda: _pinned_plain(modular_group(), 8), 282,
                 3.6368929184641337, 1036.5178467427713, {}, id="modular-L8"),
])
def test_frontier_samples_are_pinned(build, n_values, complete_to, total, counts):
    vs, got_counts = build()
    assert len(vs) == n_values
    assert vs.complete_to == pytest.approx(complete_to, rel=1e-12)
    assert math.fsum(vs.values) == pytest.approx(total, rel=1e-12)
    assert got_counts == counts


@pytest.mark.parametrize("max_len", [4, 5, 6])
def test_schottky_frontier_certificate_has_no_dip(max_len):
    # no one-letter extension lowers a1 inside the ball, so the frontier
    # minimum itself is the certificate
    group = standard_schottky()
    rep = sym3(group)
    vs = sample_from_enumeration(group, rep, A1, max_len)
    prov = vs.provenance
    assert prov["dip"] == 0.0 and prov["worst_drop"] < 0.0
    assert vs.complete_to == prov["frontier_min"]
    assert len(prov["frontier_word"]) == max_len
    assert prov["frontier_min"] == pytest.approx(
        A1.value(word_cartan(rep, prov["frontier_word"])), rel=1e-12)


def test_doubled_frontier_certificate_subtracts_a_dip():
    # reflections let an extension lower a1, so this certificate is an
    # estimate (the label says non-exhaustive)
    group = separated_schottky(2.0)
    dbl = double_rep(sym3(group), PANTS_BOUNDARY)
    vs = doubled_value_sample(group, dbl, A1, 5)
    prov = vs.provenance
    assert prov["dip"] == prov["worst_drop"] > 0.0
    assert prov["dip_child"].letters[:-1] == prov["dip_parent"].letters
    drop = (A1.value(word_cartan(dbl.rep, prov["dip_parent"]))
            - A1.value(word_cartan(dbl.rep, prov["dip_child"])))
    assert drop == pytest.approx(prov["dip"], rel=1e-12)
    assert vs.complete_to == max(0.0, prov["frontier_min"] - prov["dip"])


def test_batched_values_are_cross_checked(monkeypatch):
    def drifting(rep, word):
        kv = word_cartan(rep, word)
        return CartanVector(kv.lambdas * (1.0 + 1e-9), kv.lie_type)

    monkeypatch.setattr(critexp, "word_cartan", drifting)
    group = standard_schottky()
    with pytest.raises(IllConditioned, match="word_cartan"):
        sample_from_enumeration(group, sym3(group), A1, 3)


def test_rounding_enumerations_are_labelled_estimates():
    schottky = standard_schottky()
    custom = custom_group([schottky.image(c).mat for c in "ab"])
    for group, rounds in ((schottky, False), (modular_group(), False), (custom, True)):
        vs = sample_from_enumeration(group, sym3(group), A1, 3)
        assert ("non-exhaustive" in vs.label) == rounds, vs.label


@pytest.mark.parametrize("generators", [
    pytest.param(lambda: [standard_schottky(4.0).image(c).mat for c in "ab"], id="schottky-4"),
    pytest.param(lambda: [separated_schottky(2.0).image(c).mat for c in "ab"], id="separated-2"),
    pytest.param(lambda: [MODULAR_S, MODULAR_T], id="modular"),
])
@pytest.mark.parametrize("max_len", [4, 5, 6])
def test_custom_certificate_holds_three_letters_deeper(generators, max_len):
    # words of lengths max_len + 1 to max_len + 3 add no value at or
    # below the rounding enumeration's certificate
    group = custom_group(generators())
    rep = sym3(group)
    shallow = sample_from_enumeration(group, rep, A1, max_len)
    deeper = sample_from_enumeration(group, rep, A1, max_len + 3)
    t = shallow.complete_to
    assert len(deeper) > len(shallow)
    assert counting_function(deeper, t) == counting_function(shallow, t) > 0


def test_fifth_generator_letter_keeps_the_identity():
    # the fifth letter is "e", the name the identity word prints as
    gens = [
        Mobius.rotation(0.2 * math.pi * k) @ Mobius.boost(6.0)
        @ Mobius.rotation(-0.2 * math.pi * k)
        for k in range(5)
    ]
    group = free_schottky(gens)
    rep = sym_power(2)(group.generator_matrices(), label="ident")
    vs = sample_from_enumeration(group, rep, A1, 2)
    assert len(vs) == 1 + 10 + 10 * 9
    assert vs.values[0] == 0.0


def test_report_jsonl_round_trip(tmp_path):
    vs = synthetic_log_sample(5000)
    est = estimate_exponent(vs, window=(4.0, vs.complete_to))
    path = tmp_path / "report.jsonl"
    write_report_jsonl(path, [est.report("a1"), est.report("w1")])
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert row["functional"] == "a1"
    assert row["method"] == "slope"
    assert row["n_values"] == est.n_values
    assert row["value"] == pytest.approx(est.value)
    assert row["window"] == [4.0, vs.complete_to]


def test_estimate_rejects_negative_stderr():
    with pytest.raises(InvalidInput):
        ExponentEstimate(0.5, -0.1, (0.0, 1.0), 30, 1.0)
