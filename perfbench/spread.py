"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--seconds S] [--out FILE]

Runs perfbench/run.py once per workload and seed, untraced, one run
after another. For each end-to-end metric it prints the median of the
runs, the distance between the first and third quartile as a share of
the median (statistics.quantiles with n=4), and the metric's bound from
BENCHMARK.json. A benchmark is steady when every spread but setup_s's
stays below a third of its bound. One traced run per workload, at the
first seed, follows the untraced ones. --out writes every run's result
line, its report (pass and set-up times) and the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: incorrect output %s" % (workload, seed, result))
    return result, json.loads(lines[-2][len("report "):])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload:
        runs, reports = [], []
        for seed in args.seeds:
            result, run_report = run_once(workload, seed, args.seconds)
            runs.append(result)
            reports.append(run_report)
            print("%s seed %d %s" % (workload, seed, json.dumps(result)), flush=True)
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        unscaled = summarize([r["wall_s"] for r in reports])
        traced = run_once(workload, args.seeds[0], args.seconds, trace=1)[0]
        report["workloads"][workload] = {"runs": runs, "reports": reports,
                                         "summary": summary, "traced": traced}
        for name, s in summary.items():
            print("%-16s %-12s median %-12.6g spread %6.3f  bound %.3f%s" % (
                workload, name, s["median"], s["spread"], bounds[name],
                "" if name == "setup_s" or s["spread"] < bounds[name] / 3.0
                else "  UNSTEADY"), flush=True)
        print("%-16s %-12s median %-12.6g spread %6.3f  (unscaled, no bound)" % (
            workload, "wall_s", unscaled["median"], unscaled["spread"]), flush=True)
        report["workloads"][workload]["unscaled_wall_s"] = unscaled
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
