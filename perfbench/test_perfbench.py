"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
import tracer as tracer_mod
import workloads as wl

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FULL_PARAMS = wl.make_params
COUNTS = ("words.enumerate_elements.elems", "words.modular_norm_ball.calls",
          "reps.scaledmatrix_times.calls", "cartan.word_cartan.calls",
          "hypdisc.mobius_matmul.calls", "hypdisc.fixed_points.calls",
          "tpos.factorize.calls", "critexp.values", "critexp.complete_to",
          "critexp.cert_violations", "doubling.near_duplicates",
          "doubling.kept_ratio")


def small_params(name, seed):
    """The workload's inputs at sizes that take well under a second."""
    p = FULL_PARAMS(name, seed)
    if name == "orbit-growth":
        p.update(max_len=4, base_len=4, depth=4)
    else:
        p.update(bound=20, curve_depths=(5, 6), scan_lens=(4, 5), box_depth=3)
    return p


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(wl, "make_params", small_params)


def _result(args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py")] + args,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_units(result, listed):
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_names_and_units_match_the_spec(small):
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    result = _result(["--workload", "orbit-growth", "--seed", "3",
                      "--seconds", "1", "--trace", "0"])
    assert result["correct"] and result["attempted"] == 5
    _check_units(result, SPEC["end_to_end"])
    log, metrics, _ = run.run_traced(wl, tracer_mod, "orbit-growth", 3)
    _check_units(run.result_line(log, metrics, run.PER_LAYER), SPEC["per_layer"])


@pytest.mark.parametrize("name", ["orbit-growth", "ball-and-geometry"])
def test_traced_counts_repeat(small, name):
    first = run.run_traced(wl, tracer_mod, name, 5)[1]
    second = run.run_traced(wl, tracer_mod, name, 5)[1]
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["hypdisc.mobius_matmul.calls"] > 0


def test_failed_checks_and_errors_count():
    lib = wl.load_orbitlab()
    params = wl.make_params("orbit-growth", 0)
    inp = wl.build("orbit-growth", lib, params)
    original = lib.critexp.estimate_exponent

    def too_steep(vs):
        est = original(vs)
        est.value = 1.2
        return est

    log = wl.PassLog()
    lib.critexp.estimate_exponent = too_steep
    wl.pass_schottky_growth(lib, inp, params, log)
    assert (log.attempted, log.failed) == (3, 3)

    def refuse(vs):
        raise lib.errors.InsufficientData("made to fail")

    lib.critexp.estimate_exponent = refuse
    wl.pass_schottky_growth(lib, inp, params, log)
    assert (log.attempted, log.failed) == (6, 6)
    line = run.result_line(log, {"wall_s": 1.0}, [("wall_s", "s")])
    assert line["correct"] is False and line["failed"] == 6


def test_kernel_runs_between_operations_outside_the_pass_time():
    lib = wl.load_orbitlab()
    host = calibrate.HostSpeed()
    log = wl.PassLog(between_ops=host.sample)

    def refuse():
        raise lib.errors.InsufficientData("made to fail")

    log.run(lib, "passes", lambda: [("fine", True)])
    log.run(lib, "raises", refuse)
    assert (log.attempted, log.failed, len(host.samples)) == (2, 1, 2)
    assert log.busy_s < min(host.samples)
    assert host.scale() == calibrate.REFERENCE_S / statistics.fmean(host.samples)


def test_patched_functions_are_restored(small):
    lib = wl.load_orbitlab()
    owners = [getattr(lib, m) for m in wl.MODULES]
    owners += [lib.reps.ScaledMatrix, lib.hypdisc.Mobius]
    before = [dict(vars(o)) for o in owners]
    tracer = tracer_mod.Tracer()
    tracer.install(lib)
    try:
        patched = {(id(owner), key) for owner, key, _ in tracer.patched}
        for module, cls, attr, _, _ in tracer_mod.TRACED:
            owner = getattr(lib, module) if cls is None else getattr(getattr(lib, module), cls)
            assert (id(owner), attr) in patched
        assert lib.critexp.word_cartan.__wrapped__ is before[3]["word_cartan"]
        params = wl.make_params("orbit-growth", 0)
        inp = wl.build("orbit-growth", lib, params)
        wl.pass_doubled_growth(lib, inp, params, wl.PassLog())
    finally:
        tracer.restore()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(saved)
        assert all(now[k] is saved[k] for k in saved)
    assert tracer.layers()["cartan.word_cartan"].calls > 0


def test_self_time_and_generator_resumptions():
    tracer = tracer_mod.Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = tracer.wrap("leaf", leaf)

    def stream(n):
        for i in range(n):
            traced_leaf()
            yield i

    def outer():
        return list(traced_stream(3))

    traced_stream = tracer.wrap("stream", stream)
    assert tracer.wrap("outer", outer)() == [0, 1, 2]
    layers = tracer.layers()
    assert layers["stream"].calls == 4 and layers["stream"].size == 3
    assert layers["leaf"].calls == 3
    assert layers["outer"].child_ns == layers["stream"].total_ns
    assert layers["stream"].child_ns == layers["leaf"].total_ns
    assert tracer._stack == [-1]


def test_seeds_keep_ping_pong_and_seed_zero_is_the_acceptance_input():
    growth = wl.make_params("orbit-growth", 0)
    assert (growth["length"], growth["axis_angle"], growth["slow_length"]) == (
        4.0, 0.5 * math.pi, 3.0)
    geometry = wl.make_params("ball-and-geometry", 0)
    assert (geometry["separated_a"], geometry["tuple_seed"]) == (2.0, 111)
    lib = wl.load_orbitlab()
    for name in wl.WORKLOADS:
        assert wl.make_params(name, 7) == wl.make_params(name, 7)
        for seed in range(20):
            wl.build(name, lib, wl.make_params(name, seed))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit-growth",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
