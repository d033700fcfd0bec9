"""The orbitlab benchmark workloads: inputs, set-up, one pass, audits.

Each workload chains the pipelines behind several numbered claims of the
acceptance suite (tests/test_acceptance.py), at sizes that let a 2-core
machine repeat a pass several times per run, and checks every pass
against that suite's own tolerances.

- orbit-growth: criteria 05 and 07, the word walker, word_cartan and
  ScaledMatrix products, and the doubled walk.
- ball-and-geometry: criteria 05 and 06 on the modular norm ball, which
  bypasses the walker, and criteria 08-11 on limit curves, shadows, box
  counting and flag positivity.

Inputs come from the workload seed alone. Seed 0 keeps the acceptance
suite's group parameters and tuple seed. Any other seed perturbs the
Schottky translation lengths and axis angle inside ranges the ping-pong
check accepts (word counts of a free group do not depend on them) and
draws the criterion-11 tuples from its own stream.

The library is passed around as a namespace of freshly imported orbitlab
modules, so that set-up can be timed by importing again and no module
level cache survives from one pass to the next.
"""

import importlib
import itertools
import math
import sys
import time
from types import SimpleNamespace

import numpy as np

MODULES = ("errors", "hypdisc", "reps", "cartan", "words", "tpos", "flags",
           "critexp", "limitgeom", "doubling")

# window and scale grids exactly as the acceptance suite uses them
GRASS_SCALES = [0.3 * 10.0 ** (-j / 2.0) for j in range(5)]
CANTOR_SCALES = [3.0 ** -k for k in range(2, 8)]


def load_orbitlab():
    """Import orbitlab afresh and return its modules as a namespace."""
    for key in [k for k in sys.modules if k == "orbitlab" or k.startswith("orbitlab.")]:
        del sys.modules[key]
    return SimpleNamespace(
        **{m: importlib.import_module("orbitlab." + m) for m in MODULES}
    )


def _jitter(rng, center, half_width):
    return center if rng is None else center + float(rng.uniform(-half_width, half_width))


def make_params(name, seed):
    """Plain-number description of a workload's inputs for a seed."""
    if name not in WORKLOADS:
        raise KeyError("unknown workload %r" % name)
    rng = None if seed == 0 else np.random.default_rng(seed)
    common = {
        "length": _jitter(rng, 4.0, 0.2),
        "axis_angle": _jitter(rng, 0.5 * math.pi, 0.1),
    }
    if name == "orbit-growth":
        # separated_schottky(2.0) of criterion 07 needs depth 7 (26 s) before
        # its certified window holds 20 values; length 1.85 certifies at
        # depth 6. At that depth the certificate swings with the lengths
        # (10 to 89 window values over 1.84-1.88), so the seed rotates the
        # whole configuration instead: values stay, rounding keys move.
        return dict(
            common,
            slow_length=_jitter(rng, 3.0, 0.15),
            max_len=7,
            separated_length=1.85,
            rotation=_jitter(rng, 0.0, 0.2),
            base_len=7,
            depth=6,
        )
    # the modular group has no parameter; the seed leaves the ball alone
    return dict(
        common,
        bound=80,
        separated_a=_jitter(rng, 2.0, 0.05),
        separated_b=_jitter(rng, 2.0, 0.05),
        curve_depths=(8, 9),
        radius=9.0,
        scan_lens=(6, 7),
        box_depth=8,
        tuple_seed=111 if seed == 0 else [seed, 111],
    )


def _separated(lib, length_a, length_b, rotation=0.0):
    """separated_schottky with one translation length per generator, its
    axes rotated by the given angle."""
    axis = lib.doubling.hyperbolic_with_axis
    return lib.words.free_schottky([
        axis(rotation, rotation + 0.5 * math.pi, length_a),
        axis(rotation + math.pi, rotation + 1.5 * math.pi, length_b),
    ])


def _sym3(lib, group):
    return lib.reps.sym_power(3)(group.generator_matrices(), label="sym3")


def build(name, lib, p):
    """Groups, representations and doubled tables of a workload: its set-up."""
    phi = lib.cartan.parse_functional
    inp = SimpleNamespace(a1=phi("a1"), a2=phi("a2"), long=phi("long"))
    inp.group = lib.words.standard_schottky(p["length"], p["axis_angle"])
    inp.sym3 = _sym3(lib, inp.group)
    if name == "orbit-growth":
        slow = lib.words.standard_schottky(p["slow_length"])
        sym2 = lib.reps.sym_power(2)
        inp.prod = lib.reps.sp_product([
            sym2({c: inp.group.image(c).mat for c in "abAB"}, label="f4"),
            sym2({c: slow.image(c).mat for c in "abAB"}, label="f3"),
        ])
        length = p["separated_length"]
        inp.separated = _separated(lib, length, length, p["rotation"])
        inp.separated_sym3 = _sym3(lib, inp.separated)
        inp.doubled = lib.doubling.double_rep(inp.separated_sym3,
                                              lib.doubling.PANTS_BOUNDARY)
    else:
        inp.modular = lib.words.modular_group()
        inp.modular_sym3 = _sym3(lib, inp.modular)
        inp.separated = _separated(lib, p["separated_a"], p["separated_b"])
        inp.separated_sym3 = _sym3(lib, inp.separated)
    return inp


class PassLog:
    """Operations of one or more passes and what they certified.

    An operation is one certified result together with its output
    checks; it fails when it raises an OrbitLabError or a check fails.
    busy_s adds up the time spent in operations. between_ops, if set, is
    called after each operation, outside that time.
    """

    def __init__(self, between_ops=None):
        self.attempted = 0
        self.failures = []
        self.estimates = {}
        self.samples = []
        self.busy_s = 0.0
        self.between_ops = between_ops

    @property
    def failed(self):
        return len(self.failures)

    def run(self, lib, label, op):
        self.attempted += 1
        started = time.perf_counter()
        try:
            checks = op()
        except lib.errors.OrbitLabError as exc:
            self.failures.append("%s: %s: %s" % (label, type(exc).__name__, exc))
            return
        finally:
            self.busy_s += time.perf_counter() - started
            if self.between_ops is not None:
                self.between_ops()
        bad = [text for text, ok in checks if not ok]
        if bad:
            self.failures.append("%s: %s" % (label, "; ".join(bad)))

    def estimate(self, lib, label, vs):
        """Slope estimate on the default certified window, recorded."""
        est = lib.critexp.estimate_exponent(vs)
        self.samples.append((len(vs), vs.complete_to))
        self.estimates[label] = est
        return est


def _growth_checks(est):
    # criterion 05
    return [
        ("estimate %.4f > 1.05" % est.value, est.value <= 1.05),
        ("estimate + 2 stderr %.4f > 1.15" % (est.value + 2.0 * est.stderr),
         est.value + 2.0 * est.stderr <= 1.15),
    ]


def pass_schottky_growth(lib, inp, p, log):
    ce = lib.critexp
    cases = (("schottky sym3 a1", inp.sym3, inp.a1),
             ("schottky sym3 a2", inp.sym3, inp.a2),
             ("schottky spprod long", inp.prod, inp.long))
    for label, rep, phi in cases:
        def op(label=label, rep=rep, phi=phi):
            vs = ce.sample_from_enumeration(inp.group, rep, phi, p["max_len"])
            return _growth_checks(log.estimate(lib, label, vs))
        log.run(lib, label, op)


def pass_modular_ball(lib, inp, p, log):
    ce = lib.critexp
    for label, phi in (("modular sym3 a1", inp.a1), ("modular sym3 a2", inp.a2)):
        def op(label=label, phi=phi):
            vs = ce.sample_from_norm_ball(p["bound"], 3, phi)
            est = log.estimate(lib, label, vs)
            # criterion 06
            width = est.window[1] - est.window[0]
            return [
                ("estimate %.4f outside [0.85, 1.15]" % est.value,
                 0.85 <= est.value <= 1.15),
                ("window width %.3f < 4" % width, width >= 4.0),
                ("window end past the certificate", est.window[1] <= est.complete_to),
            ]
        log.run(lib, label, op)


def pass_doubled_growth(lib, inp, p, log):
    ce = lib.critexp

    def base_op():
        vs = ce.sample_from_enumeration(inp.separated, inp.separated_sym3, inp.a1,
                                        p["base_len"])
        est = log.estimate(lib, "base a1", vs)
        return [("base estimate %.4f > 0.9" % est.value, est.value <= 0.9)]

    def doubled_op():
        vs = lib.doubling.doubled_value_sample(inp.separated, inp.doubled, inp.a1,
                                               p["depth"])
        est = log.estimate(lib, "doubled a1", vs)
        base = log.estimates.get("base a1")
        if base is None:
            return [("no base estimate to compare against", False)]
        # criterion 07
        gap = est.value - base.value
        need = 2.0 * (base.stderr + est.stderr)
        return [
            ("doubled - base %.4f <= 2 combined stderr %.4f" % (gap, need), gap > need),
            ("label does not say non-exhaustive", "non-exhaustive" in vs.label),
        ]

    log.estimates.pop("base a1", None)
    log.run(lib, "base a1", base_op)
    log.run(lib, "doubled a1", doubled_op)


def _positivity_checks(lib, group, rep, rng):
    """Criterion 11 on the depth-2 flags of one group; returns checks."""
    fl = lib.flags
    flags = [f for _, f in fl.limit_flags(rep, group, 2)]
    n = len(flags)
    bad_triples = sum(
        1 for trio in itertools.combinations(range(n), 3)
        if not fl.triple_positive(*(flags[i] for i in trio))
    )
    bad_quads = 0
    for quad in itertools.combinations(range(n), 4):
        tup = tuple(flags[i] for i in quad)
        ok = fl.quadruple_positive(*tup) is True
        for r in range(1, 4):
            ok &= fl.quadruple_positive(*(tup[r:] + tup[:r])) is True
        ok &= fl.quadruple_positive(*tup[::-1]) is True
        bad_quads += not ok
    bad_dihedral = 0
    for _ in range(100):
        idx = rng.permutation(n)[:4]
        tup = tuple(flags[i] for i in idx)
        value = fl.quadruple_positive(*tup)
        ok = all(fl.quadruple_positive(*(tup[r:] + tup[:r])) is value
                 for r in range(1, 4))
        ok &= fl.quadruple_positive(*tup[::-1]) is value
        bad_dihedral += not ok
    return [
        ("only %d depth-2 flags" % n, n >= 12),
        ("%d triples not positive" % bad_triples, bad_triples == 0),
        ("%d ordered quadruples not positive" % bad_quads, bad_quads == 0),
        ("%d random quadruples not dihedral invariant" % bad_dihedral,
         bad_dihedral == 0),
    ]


def pass_limit_geometry(lib, inp, p, log):
    fl, lg = lib.flags, lib.limitgeom

    def curve_op():
        # criterion 08
        lo, hi = (
            fl.polygonal_length([q for _, q in fl.limit_curve(inp.modular_sym3, inp.modular, d, 1)])
            for d in p["curve_depths"]
        )
        return [
            ("length decreased under refinement", hi >= lo),
            ("length moved by %.3g >= 5%%" % ((hi - lo) / lo), (hi - lo) / lo < 0.05),
        ]

    def distortion_op():
        # criterion 09
        lo, hi = (lg.distortion_scan(inp.group, inp.sym3, inp.a1, p["radius"], n)
                  for n in p["scan_lens"])
        return [
            ("spread is not finite", math.isfinite(lo.spread)),
            ("spread %.4g >= 100" % lo.spread, lo.spread < 100.0),
            ("spread grew from %.4g to %.4g" % (lo.spread, hi.spread),
             hi.spread <= 1.25 * lo.spread),
        ]

    def calibration_op():
        # criterion 10, the box counter's calibrations
        cantor = lg.box_dimension(lg.cantor_sample(12), CANTOR_SCALES)
        circle = lg.box_dimension(lg.circle_sample(2000), GRASS_SCALES)
        return [
            ("Cantor dimension %.4f" % cantor.value,
             abs(cantor.value - math.log(2.0) / math.log(3.0)) < 0.05),
            ("circle dimension %.4f" % circle.value, abs(circle.value - 1.0) < 0.05),
        ]

    def box_op():
        points = [q for _, q in fl.limit_curve(inp.sym3, inp.group, p["box_depth"], 1)]
        box = lg.box_dimension(points, GRASS_SCALES)
        return [("box dimension %.4f not finite" % box.value, math.isfinite(box.value))]

    rng = np.random.default_rng(p["tuple_seed"])
    log.run(lib, "modular curve length", curve_op)
    log.run(lib, "distortion spread", distortion_op)
    log.run(lib, "box counter calibration", calibration_op)
    log.run(lib, "schottky box dimension", box_op)
    for label, group, rep in (("schottky positivity", inp.group, inp.sym3),
                              ("separated positivity", inp.separated, inp.separated_sym3)):
        log.run(lib, label, lambda g=group, r=rep: _positivity_checks(lib, g, r, rng))


def cert_violations(lib, group, rep, phi, max_len):
    """Values at or below the length-max_len certificate that a one-letter
    deeper enumeration adds; a sound certificate keeps this at 0."""
    ce = lib.critexp
    shallow = ce.sample_from_enumeration(group, rep, phi, max_len)
    deeper = ce.sample_from_enumeration(group, rep, phi, max_len + 1)
    t = shallow.complete_to
    return ce.counting_function(deeper, t) - ce.counting_function(shallow, t)


def near_duplicates(lib, group, doubled, depth):
    """Pairs of enumerate_doubled outputs equal up to sign within
    DEDUP_TOL relative to their size: elements the rounding hash failed
    to merge."""
    tol = lib.doubling.DEDUP_TOL
    mats = [mob.mat.ravel() for _, mob, _ in
            lib.doubling.enumerate_doubled(group, doubled, depth)]
    cell = 2.0 * tol
    grid = {}
    for i, m in enumerate(mats):
        unit = m / np.abs(m).max()
        for sign in (1.0, -1.0):
            key = tuple(int(math.floor(v / cell)) for v in sign * unit)
            grid.setdefault(key, []).append(i)
    pairs = set()
    for key, members in grid.items():
        for off in itertools.product((-1, 0, 1), repeat=4):
            for j in grid.get(tuple(k + o for k, o in zip(key, off)), ()):
                for i in members:
                    if i < j:
                        pairs.add((i, j))
    found = 0
    for i, j in pairs:
        a, b = mats[i], mats[j]
        scale = tol * max(np.abs(a).max(), np.abs(b).max())
        found += bool(min(np.abs(a - b).max(), np.abs(a + b).max()) <= scale)
    return found


def audit(name, lib, inp, p):
    """Audit counts of a workload, run untraced after the traced pass."""
    out = {"critexp.cert_violations": 0, "doubling.near_duplicates": 0}
    if name == "orbit-growth":
        out["critexp.cert_violations"] = cert_violations(
            lib, inp.group, inp.sym3, inp.a1, p["max_len"])
        # on criterion 07's own group, where byBy and e both survive the
        # rounding hash, at the workload's depth
        group = lib.doubling.separated_schottky(2.0)
        doubled = lib.doubling.double_rep(_sym3(lib, group), lib.doubling.PANTS_BOUNDARY)
        out["doubling.near_duplicates"] = near_duplicates(lib, group, doubled, p["depth"])
    return out


def pass_orbit_growth(lib, inp, p, log):
    pass_schottky_growth(lib, inp, p, log)
    pass_doubled_growth(lib, inp, p, log)


def pass_ball_and_geometry(lib, inp, p, log):
    pass_modular_ball(lib, inp, p, log)
    pass_limit_geometry(lib, inp, p, log)


WORKLOADS = {
    "orbit-growth": pass_orbit_growth,
    "ball-and-geometry": pass_ball_and_geometry,
}
