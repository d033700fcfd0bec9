"""Benchmark of orbitlab's acceptance pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One single-threaded process runs one workload as a closed loop: one
client, passes back to back, BLAS and OpenMP pinned to one thread. Each
pass imports orbitlab afresh, builds its inputs (the set-up, timed on
its own), then runs the pipeline and checks every output against the
acceptance suite's tolerances. Passes repeat until the next one would
end past --seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones: the median set-up time and the mean pass time of
the run, scaled to a reference host speed. calibrate.py's kernel runs
after every operation of a pass, and each time of the run is multiplied
by calibrate.REFERENCE_S over the kernel's mean time. With --trace 1
two untraced passes run, then set-up and one pass with every function in
tracer.TRACED wrapped in a span recorder, and the metrics are the
per-layer ones, in plain seconds; the spans are written to
perfbench/out/. The line before the result, starting with "report ",
holds the estimates, failures, the unscaled pass, set-up and kernel
times, and the scale.

--workload all runs every workload untraced in its own process and
prints each end-to-end metric, the unscaled median pass time wall_s,
fail_share and exponent_err as a table.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# set-up is a few tens of milliseconds, so it is sampled more often
# than the passes alone would: several times before each pass, so that
# the samples spread over the run as the reference kernel's do
SETUPS_PER_PASS = 3
MIN_SETUPS = 15
UNTRACED_PASSES_IN_TRACE_RUN = 2

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("words.enumerate_elements.us_per_elem", "us"),
    ("words.enumerate_elements.elems", "count"),
    ("words.modular_norm_ball.us_per_elem", "us"),
    ("words.modular_norm_ball.calls", "count"),
    ("words.limit_sample_words.self_s", "s"),
    ("reps.scaledmatrix_times.us_per_call", "us"),
    ("reps.scaledmatrix_times.calls", "count"),
    ("cartan.word_cartan.us_per_elem", "us"),
    ("cartan.word_cartan.calls", "count"),
    ("hypdisc.mobius_matmul.us_per_call", "us"),
    ("hypdisc.mobius_matmul.calls", "count"),
    ("hypdisc.shadow_of_isometry.us_per_point", "us"),
    ("hypdisc.fixed_points.calls", "count"),
    ("critexp.sample_from_enumeration.self_s", "s"),
    ("critexp.sample_from_norm_ball.self_s", "s"),
    ("critexp.estimate_exponent.self_s", "s"),
    ("doubling.doubled_value_sample.self_s", "s"),
    ("doubling.kept_ratio", "ratio"),
    ("doubling.double_rep.self_s", "s"),
    ("flags.limit_flags.us_per_flag", "us"),
    ("flags.triple_positive.us_per_call", "us"),
    ("flags.quadruple_positive.us_per_call", "us"),
    ("tpos.factorize.us_per_call", "us"),
    ("tpos.factorize.calls", "count"),
    ("limitgeom.distortion_scan.self_s", "s"),
    ("limitgeom.box_dimension.us_per_point", "us"),
    ("critexp.values", "count"),
    ("critexp.complete_to", "nat"),
    ("critexp.cert_violations", "count"),
    ("doubling.near_duplicates", "count"),
    ("critexp.exponent_err", "1"),
    ("trace.overhead_s", "s"),
)


def exponent_err(log):
    """Largest |estimate - 1| over the modular-group estimates, the only
    ones with a known exponent: the modular group is a lattice, so its
    exponent is 1. 0 on a workload without them."""
    return max((abs(est.value - 1.0) for label, est in log.estimates.items()
                if label.startswith("modular")), default=0.0)


def kept_ratio(tracer, n_letters):
    """Yielded over candidate products of the doubled walker.

    doubled_value_sample calls word_cartan once per yielded word, so
    the calls by word length count the walk's levels; every word of a
    level but the identity tries all letters except its own inverse.
    """
    level = {}
    for name, parent, size in zip(tracer.names, tracer.parents, tracer.sizes):
        if (name == "cartan.word_cartan" and parent >= 0
                and tracer.names[parent] == "doubling.doubled_value_sample"):
            level[size] = level.get(size, 0) + 1
    if not level:
        return 0.0
    depth = max(level)
    yielded = sum(n for ell, n in level.items() if ell >= 1)
    candidates = n_letters * level.get(0, 0) + (n_letters - 1) * sum(
        level.get(ell, 0) for ell in range(1, depth))
    return yielded / candidates


def layer_metrics(tracer, log, audits, overhead_s, n_letters):
    layers = tracer.layers()
    enum = layers["words.enumerate_elements"]
    ball = layers["words.modular_norm_ball"]
    times = layers["reps.scaledmatrix_times"]
    cartan = layers["cartan.word_cartan"]
    matmul = layers["hypdisc.mobius_matmul"]
    shadow = layers["hypdisc.shadow_of_isometry"]
    lflags = layers["flags.limit_flags"]
    triple = layers["flags.triple_positive"]
    quad = layers["flags.quadruple_positive"]
    fact = layers["tpos.factorize"]
    box = layers["limitgeom.box_dimension"]
    values = {
        "words.enumerate_elements.us_per_elem": enum.us_per(enum.size),
        "words.enumerate_elements.elems": enum.size,
        "words.modular_norm_ball.us_per_elem": ball.us_per(ball.size),
        "words.modular_norm_ball.calls": ball.calls,
        "words.limit_sample_words.self_s": layers["words.limit_sample_words"].self_s,
        "reps.scaledmatrix_times.us_per_call": times.us_per(times.calls),
        "reps.scaledmatrix_times.calls": times.calls,
        "cartan.word_cartan.us_per_elem": cartan.us_per(cartan.calls, self_time=True),
        "cartan.word_cartan.calls": cartan.calls,
        "hypdisc.mobius_matmul.us_per_call": matmul.us_per(matmul.calls),
        "hypdisc.mobius_matmul.calls": matmul.calls,
        "hypdisc.shadow_of_isometry.us_per_point": shadow.us_per(shadow.calls),
        "hypdisc.fixed_points.calls": layers["hypdisc.fixed_points"].calls,
        "critexp.sample_from_enumeration.self_s":
            layers["critexp.sample_from_enumeration"].self_s,
        "critexp.sample_from_norm_ball.self_s": layers["critexp.sample_from_norm_ball"].self_s,
        "critexp.estimate_exponent.self_s": layers["critexp.estimate_exponent"].self_s,
        "doubling.doubled_value_sample.self_s":
            layers["doubling.doubled_value_sample"].self_s,
        "doubling.kept_ratio": kept_ratio(tracer, n_letters),
        "doubling.double_rep.self_s": layers["doubling.double_rep"].self_s,
        "flags.limit_flags.us_per_flag": lflags.us_per(lflags.size),
        "flags.triple_positive.us_per_call": triple.us_per(triple.calls),
        "flags.quadruple_positive.us_per_call": quad.us_per(quad.calls),
        "tpos.factorize.us_per_call": fact.us_per(fact.calls),
        "tpos.factorize.calls": fact.calls,
        "limitgeom.distortion_scan.self_s": layers["limitgeom.distortion_scan"].self_s,
        "limitgeom.box_dimension.us_per_point": box.us_per(box.size),
        "critexp.values": sum(n for n, _ in log.samples),
        "critexp.complete_to": min((t for _, t in log.samples), default=0.0),
        "trace.overhead_s": overhead_s,
    }
    values.update(audits)
    return values


def _timed_setup(wl, name, params):
    started = time.perf_counter()
    lib = wl.load_orbitlab()
    inp = wl.build(name, lib, params)
    return lib, inp, time.perf_counter() - started


def _timed_pass(wl, name, lib, inp, params, log):
    started = time.perf_counter()
    wl.WORKLOADS[name](lib, inp, params, log)
    return time.perf_counter() - started


def run_untraced(wl, name, seed, seconds):
    import calibrate  # after main has pinned the BLAS threads

    params = wl.make_params(name, seed)
    host = calibrate.HostSpeed()
    log = wl.PassLog(between_ops=host.sample)
    setups, walls, laps = [], [], []
    started = time.perf_counter()
    while True:
        lap_started = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            lib, inp, setup_s = _timed_setup(wl, name, params)
            setups.append(setup_s)
        busy_s = log.busy_s
        wl.WORKLOADS[name](lib, inp, params, log)
        walls.append(log.busy_s - busy_s)
        now = time.perf_counter()
        laps.append(now - lap_started)
        if now - started + statistics.median(laps) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(_timed_setup(wl, name, params)[2])
    scale = host.scale()
    metrics = {
        "setup_s": statistics.median(setups) * scale,
        "pass_s": statistics.fmean(walls) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "wall_s": statistics.median(walls),
        "wall_s_passes": walls,
        "setup_s_samples": setups,
        "kernel_s_samples": host.samples,
        "host_scale": scale,
        "fail_share": log.failed / log.attempted,
        "exponent_err": exponent_err(log),
    }
    return log, metrics, report


def run_traced(wl, tracer_mod, name, seed):
    params = wl.make_params(name, seed)
    walls = []
    for _ in range(UNTRACED_PASSES_IN_TRACE_RUN):
        lib, inp, _ = _timed_setup(wl, name, params)
        walls.append(_timed_pass(wl, name, lib, inp, params, wl.PassLog()))
    lib = wl.load_orbitlab()
    log = wl.PassLog()
    tracer = tracer_mod.Tracer()
    tracer.install(lib)
    try:
        inp = wl.build(name, lib, params)
        traced_wall = _timed_pass(wl, name, lib, inp, params, log)
    finally:
        tracer.restore()
    audits = wl.audit(name, lib, inp, params)
    audits["critexp.exponent_err"] = exponent_err(log)
    n_letters = len(inp.doubled.alphabet) if hasattr(inp, "doubled") else 0
    metrics = layer_metrics(tracer, log, audits, traced_wall - min(walls), n_letters)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_csv(out_dir / ("spans-%s-seed%d.csv" % (name, seed)))
    report = {"traced_wall_s": traced_wall, "untraced_wall_s": walls,
              "spans": len(tracer.names)}
    return log, metrics, report


def result_line(log, metrics, units):
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }


def summary(args, wl):
    """Run every workload untraced, each in a fresh process, as a table."""
    rows = []
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        report = json.loads(lines[-2][len("report "):])
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "wall_s", report["wall_s"], "s"))
        rows.append((name, "fail_share", report["fail_share"], "1"))
        if name == "ball-and-geometry":
            rows.append((name, "exponent_err", report["exponent_err"], "1"))
    print("%-16s %-13s %12s  %s" % ("workload", "metric", "value", "unit"))
    for name, metric, value, unit in rows:
        print("%-16s %-13s %12.6g  %s" % (name, metric, value, unit))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "orbitlab" / "__init__.py").is_file():
        sys.stderr.write("orbitlab sources not found under %s\n" % SRC)
        return 2
    sys.path.insert(0, str(SRC))
    # dependencies, not part of the program's set-up: imported before timing
    import scipy.linalg  # noqa: F401
    import scipy.stats  # noqa: F401

    import tracer as tracer_mod
    import workloads as wl

    if args.workload == "all":
        return summary(args, wl)
    if args.workload not in wl.WORKLOADS:
        parser.error("unknown workload %r; choose from %s or all"
                     % (args.workload, ", ".join(wl.WORKLOADS)))
    if args.trace:
        log, metrics, report = run_traced(wl, tracer_mod, args.workload, args.seed)
        units = PER_LAYER
    else:
        log, metrics, report = run_untraced(wl, args.workload, args.seed, args.seconds)
        units = END_TO_END
    report["estimates"] = {k: [e.value, e.stderr] for k, e in log.estimates.items()}
    report["failures"] = log.failures
    print("report " + json.dumps(report))
    print(json.dumps(result_line(log, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
