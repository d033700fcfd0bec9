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

import orbitlab.critexp as critexp
from orbitlab.cartan import CartanVector, parse_functional, word_cartan
from orbitlab.critexp import (
    ExponentEstimate,
    ValueSample,
    counting_function,
    default_window,
    estimate_exponent,
    poincare_series,
    sample_from_enumeration,
    sample_from_norm_ball,
    sample_from_records,
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
from orbitlab.hypdisc import Mobius
from orbitlab.reps import sym_power
from orbitlab.words import (
    custom_group,
    enumerate_elements,
    free_schottky,
    modular_group,
    orbit_table,
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
    assert vs.is_certified(20.0)
    assert not vs.is_certified(vs.complete_to + 1.0)


def test_counting_right_continuity_at_sample_point():
    vs = ValueSample([1.0, 2.0, 2.0, 3.0], 3.0)
    assert counting_function(vs, 2.0) == 3
    assert counting_function(vs, 2.0 - 1e-9) == 1


def test_slope_recovers_synthetic_exponent():
    vs = synthetic_log_sample(100_000)
    est = estimate_exponent(vs, window=(6.0, 20.0), method="slope")
    assert abs(est.value - 0.5) < 0.01
    assert est.stderr >= 0.0
    assert est.method == "slope"
    assert est.window == (6.0, 20.0)


def test_bisection_is_upper_biased_cross_check():
    vs = synthetic_log_sample(100_000)
    est = estimate_exponent(vs, window=(6.0, 20.0), method="bisection")
    # truncation inflates the answer, but not wildly
    assert 0.5 - 1e-6 < est.value < 0.75
    assert est.method == "bisection"


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
        e0 = estimate_exponent(base, window=(5.0, base.complete_to), method="slope")
        e1 = estimate_exponent(
            scaled, window=(5.0 * c, scaled.complete_to), method="slope"
        )
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


def test_bisection_monotone_under_pointwise_growth():
    rng = np.random.default_rng(3)
    vals = np.sort(rng.uniform(1.0, 9.0, size=300))
    grown = vals + 0.8
    a = ValueSample(vals, float(vals[-1]))
    b = ValueSample(grown, float(grown[-1]))
    w = (0.0, float(vals[-1]))
    ea = estimate_exponent(a, window=w, method="bisection")
    eb = estimate_exponent(b, window=w, method="bisection")
    assert eb.value <= ea.value + 1e-9


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
    est = estimate_exponent(vs, window=(6.0, 12.0), method="slope")
    assert 0.85 <= est.value <= 1.15


def test_norm_ball_sample_scales_with_functional_coefficient():
    one = parse_functional("a1")
    two = parse_functional("2*a1")
    a = sample_from_norm_ball(40, 3, one)
    b = sample_from_norm_ball(40, 3, two)
    assert b.complete_to == pytest.approx(2.0 * a.complete_to)
    assert np.allclose(b.values, 2.0 * a.values)


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
    est = estimate_exponent(vs, method="slope")
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
    pytest.param(_pinned_doubled, 3452, 3.6618655924691237, 32310.31203242859,
                 {"walked": 6901, "enumerate_doubled": 3452}, id="doubled-depth5"),
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


def test_sample_from_records_matches_direct_route():
    group = modular_group()
    rep = sym_power(3)(group.generator_matrices(), label="sym3")
    phi = parse_functional("a1")
    recs = orbit_table(group, rep, 6, functionals=(phi,))
    vs = sample_from_records(recs, phi, complete_to=1.0)
    assert len(vs) == len(recs)
    direct = sorted(r.phi_values[phi.name()] for r in recs)
    assert np.allclose(vs.values, np.maximum(direct, 0.0))


def test_report_jsonl_round_trip(tmp_path):
    vs = synthetic_log_sample(5000)
    est = estimate_exponent(vs, window=(4.0, vs.complete_to), method="slope")
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
        ExponentEstimate(0.5, -0.1, "slope", (0.0, 1.0), 30, 1.0)
