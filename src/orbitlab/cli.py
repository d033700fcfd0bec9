"""Batch front end over the library modules.

Settings come from three layers: built-in defaults, command line
flags, then an optional JSON config file, later layers winning. Every
output starts with a verbatim echo of the merged settings so a report
can be replayed. Text outputs are UTF-8 with LF newlines. Exit codes:
0 success, 2 configuration error, 3 numeric failure inside a module.
"""

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .cartan import parse_functional
from .cones import rank_upper_sample, rank_witness_check
from .critexp import (
    ValueSample,
    estimate_exponent,
    sample_from_enumeration,
    write_report_jsonl,
)
from .doubling import (
    PANTS_BOUNDARY,
    double_rep,
    doubled_value_sample,
    separated_schottky,
)
from .errors import InvalidInput, OrbitLabError
from .flags import limit_curve, polygonal_length, write_curve_csv
from .limitgeom import box_dimension, shadow_separation_check
from .reps import sym_power
from .tpos import f_gamma, factorize, standard_word
from .words import (
    _orbit_csv_header,
    _orbit_csv_row,
    _orbit_records,
    load_group_file,
    orbit_table,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

SHARED_DEFAULTS = {
    "group": None,
    "rep": "sym3",
    "functional": ["a1"],
    "max_len": 6,
    "radius": 9.0,
    "window": None,
    "seed": 0,
    "out": ".",
}

# per-command extra settings and their defaults
EXTRA_DEFAULTS = {
    "orbit": {},
    "critexp": {"values": None},
    "limitcurve": {"depth": 5, "k": 1},
    "dimension": {"depth": 5, "k": 1,
                  "scales": [0.3 * 10.0 ** (-j / 2.0) for j in range(5)]},
    "shadows": {},
    "tp": {"dim": 4, "trials": 200},
    "double": {"depth": 5},
    "conerank": {"dim": 2, "trials": 1000},
    "plot": {"input": None, "column": "disp", "bins": 12, "svg": None},
}


class _ConfigError(Exception):
    """Raised for any failure before computation starts."""


@contextmanager
def _config_phase():
    try:
        yield
    except (InvalidInput, OSError, ValueError, KeyError, TypeError) as exc:
        raise _ConfigError(str(exc)) from exc


class RunConfig:
    """Merged and validated settings of one run.

    settings holds every key verbatim for the output echo; the named
    attributes are the validated shared fields.
    """

    __slots__ = ("settings", "group_path", "rep", "functionals",
                 "max_len", "radius", "window", "seed", "out")

    def __init__(self, settings):
        self.settings = dict(settings)
        self.group_path = settings["group"]
        self.rep = settings["rep"]
        if not (isinstance(self.rep, str) and self.rep.startswith("sym")
                and self.rep[3:].isdigit() and 2 <= int(self.rep[3:]) <= 9):
            raise InvalidInput("rep must be sym2..sym9, got %r" % (self.rep,))
        funcs = settings["functional"]
        if isinstance(funcs, str):
            funcs = [funcs]
        if not funcs:
            raise InvalidInput("need at least one functional expression")
        self.functionals = [str(f) for f in funcs]
        for expr in self.functionals:
            parse_functional(expr)
        self.max_len = int(settings["max_len"])
        if self.max_len < 0:
            raise InvalidInput("max_len must be nonnegative")
        self.radius = float(settings["radius"])
        if self.radius <= 0.0:
            raise InvalidInput("radius must be positive")
        window = settings["window"]
        if window is not None:
            lo, hi = float(window[0]), float(window[1])
            if not lo < hi:
                raise InvalidInput("window needs lo < hi")
            window = (lo, hi)
        self.window = window
        self.seed = int(settings["seed"])
        if self.seed < 0:
            raise InvalidInput("seed must be nonnegative")
        self.out = str(settings["out"])
        for key in ("dim", "trials", "bins"):
            if key in settings and int(settings[key]) < 1:
                raise InvalidInput("%s must be at least 1" % key)
        for key in ("depth", "k"):
            if key in settings and int(settings[key]) < 0:
                raise InvalidInput("%s must be nonnegative" % key)

    def extra(self, key):
        return self.settings[key]

    def echo_json(self):
        return json.dumps(self.settings, sort_keys=True)

    def sym_dim(self):
        return int(self.rep[3:])


def _parse_window(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window format is lo:hi")
    return [float(parts[0]), float(parts[1])]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="matrix group orbit experiments in batch",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON settings file; overrides flags")
    shared.add_argument("--group", help="group description file")
    shared.add_argument("--rep", help="representation name, sym2..sym9")
    shared.add_argument("--functional", action="append",
                        help="functional expression, repeatable")
    shared.add_argument("--max-len", dest="max_len", type=int,
                        help="word length bound")
    shared.add_argument("--radius", type=float, help="orbit ball radius")
    shared.add_argument("--window", type=_parse_window,
                        help="fit window lo:hi")
    shared.add_argument("--seed", type=int, help="random seed")
    shared.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", parents=[shared],
                       help="stream the orbit table to CSV, resumably")
    p.set_defaults(func=cmd_orbit)
    p = sub.add_parser("critexp", parents=[shared],
                       help="growth exponent of a group or a values file")
    p.add_argument("--values", help="JSON file with values and complete_to")
    p.set_defaults(func=cmd_critexp)
    p = sub.add_parser("limitcurve", parents=[shared],
                       help="limit curve sample and polygonal length")
    p.add_argument("--depth", type=int, help="word length of the sample")
    p.add_argument("--k", type=int, help="plane dimension of the curve")
    p.set_defaults(func=cmd_limitcurve)
    p = sub.add_parser("dimension", parents=[shared],
                       help="box counting dimension of the limit curve")
    p.add_argument("--depth", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_dimension)
    p = sub.add_parser("shadows", parents=[shared],
                       help="same-annulus shadow separation report")
    p.set_defaults(func=cmd_shadows)
    p = sub.add_parser("tp", parents=[shared],
                       help="positive factorization round-trip errors")
    p.add_argument("--dim", type=int, help="matrix size")
    p.add_argument("--trials", type=int)
    p.set_defaults(func=cmd_tp)
    p = sub.add_parser("double", parents=[shared],
                       help="base versus doubled growth exponents")
    p.add_argument("--depth", type=int, help="doubled ball word length")
    p.set_defaults(func=cmd_double)
    p = sub.add_parser("conerank", parents=[shared],
                       help="definite cone rank witness and sampling")
    p.add_argument("--dim", type=int, help="matrix size")
    p.add_argument("--trials", type=int)
    p.set_defaults(func=cmd_conerank)
    p = sub.add_parser("plot", parents=[shared],
                       help="text histogram of a CSV column")
    p.add_argument("--input", help="CSV file to read")
    p.add_argument("--column", help="column name to histogram")
    p.add_argument("--bins", type=int)
    p.add_argument("--svg", help="optional vector graphic output path")
    p.set_defaults(func=cmd_plot)
    return parser


def build_config(args):
    settings = dict(SHARED_DEFAULTS)
    settings.update(EXTRA_DEFAULTS[args.command])
    for key in list(settings):
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise InvalidInput("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in settings:
                raise InvalidInput("unknown config key %r" % key)
            settings[key] = value
    return RunConfig(settings)


def _group_for(cfg, default_separated=False):
    if cfg.group_path is None:
        if default_separated:
            return separated_schottky(2.0)
        raise InvalidInput("this command needs a group file")
    return load_group_file(cfg.group_path)


def _rep_for(cfg, group):
    return sym_power(cfg.sym_dim())(
        group.generator_matrices(), label=cfg.rep
    )


def _report_path(cfg, name):
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _write_report(cfg, command, payload, started):
    header = {
        "command": command,
        "config": cfg.settings,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 6),
    }
    path = _report_path(cfg, command + ".jsonl")
    write_report_jsonl(path, [header] + payload)
    return path


def cmd_orbit(cfg):
    """Stream word,len,disp,k1..kd rows; a checkpoint file records the
    last fully written length, the byte offset its rows end at and the
    rows so far, so an interrupted run cuts off any rows of a partly
    written length and appends instead of restarting; the lengths
    already written are walked but get no records."""
    with _config_phase():
        group = _group_for(cfg)
        rep = _rep_for(cfg, group)
        csv_path = _report_path(cfg, "orbit.csv")
    ck_path = csv_path + ".checkpoint"
    start_len = rows = 0
    mode = "w"
    try:
        with open(ck_path, "r", encoding="utf-8") as fh:
            ck = json.load(fh)
        if (ck["config"] == cfg.echo_json() and ck["completed_len"] < cfg.max_len
                and 0 < ck["offset"] <= os.path.getsize(csv_path)):
            start_len, rows = int(ck["completed_len"]) + 1, int(ck["rows"])
            mode = "a"
    except (OSError, ValueError, TypeError, KeyError):
        pass  # no usable checkpoint: start over
    if mode == "a":
        os.truncate(csv_path, ck["offset"])
    resumed_rows = rows

    def checkpoint(done_len, offset):
        with open(ck_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"config": cfg.echo_json(), "completed_len": done_len,
                       "offset": offset, "rows": rows}, fh, sort_keys=True)

    current = start_len
    with open(csv_path, mode, encoding="utf-8", newline="\n") as fh:
        if mode == "w":
            fh.write("# config: %s\n" % cfg.echo_json())
            fh.write(_orbit_csv_header(rep.dim))
        for rec in _orbit_records(group, rep, cfg.max_len, start_len):
            if rec.length > current:
                fh.flush()
                checkpoint(current, fh.tell())
                current = rec.length
            fh.write(_orbit_csv_row(rec))
            rows += 1
    checkpoint(cfg.max_len, os.path.getsize(csv_path))
    print("wrote %s (%d new rows, from length %d)"
          % (csv_path, rows - resumed_rows, start_len))
    return EXIT_OK


def _load_values_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "values" not in data:
        raise InvalidInput("values file needs a JSON object with 'values'")
    values = [float(v) for v in data["values"]]
    complete_to = float(data.get("complete_to", max(values) if values else 0.0))
    return ValueSample(values, complete_to,
                       label=str(data.get("label", path)))


def _with_provenance(row, vs):
    """A report row with the source of the sample's certificate, if any."""
    p = vs.provenance
    if p is not None:
        row["provenance"] = dict(
            frontier_min=p["frontier_min"], dip=p["dip"],
            **{k: str(p[k]) for k in ("frontier_word", "dip_parent", "dip_child")})
    return row


def cmd_critexp(cfg):
    started = time.time()
    with _config_phase():
        values_path = cfg.extra("values")
        if values_path is not None:
            samples = [(None, _load_values_file(values_path))]
        else:
            group = _group_for(cfg)
            rep = _rep_for(cfg, group)
            samples = [(expr, None) for expr in cfg.functionals]
            pending = (group, rep)
    payload = []
    for expr, vs in samples:
        if vs is None:
            group, rep = pending
            vs = sample_from_enumeration(group, rep,
                                         parse_functional(expr), cfg.max_len)
        est = estimate_exponent(vs, window=cfg.window)
        payload.append(_with_provenance(
            est.report(expr if expr is not None else vs.label), vs))
    path = _write_report(cfg, "critexp", payload, started)
    for row in payload:
        print("%s: %.4f +- %.4f (complete_to %.3f)" % (
            row["functional"], row["value"], row["stderr"],
            row["complete_to"]))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_limitcurve(cfg):
    started = time.time()
    with _config_phase():
        group = _group_for(cfg)
        rep = _rep_for(cfg, group)
        depth, k = int(cfg.extra("depth")), int(cfg.extra("k"))
    curve = limit_curve(rep, group, depth, k)
    length = polygonal_length([p for _, p in curve])
    csv_path = _report_path(cfg, "limitcurve.csv")
    write_curve_csv(csv_path, curve)
    payload = [{"depth": depth, "k": k, "points": len(curve),
                "polygonal_length": length, "csv": "limitcurve.csv"}]
    path = _write_report(cfg, "limitcurve", payload, started)
    print("polygonal length %.6f over %d points" % (length, len(curve)))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_dimension(cfg):
    started = time.time()
    with _config_phase():
        group = _group_for(cfg)
        rep = _rep_for(cfg, group)
        depth, k = int(cfg.extra("depth")), int(cfg.extra("k"))
        scales = [float(s) for s in cfg.extra("scales")]
    points = [p for _, p in limit_curve(rep, group, depth, k)]
    est = box_dimension(points, scales)
    payload = [{"depth": depth, "k": k, "points": len(points),
                "value": est.value, "stderr": est.stderr,
                "scales": list(est.scales), "counts": list(est.counts)}]
    path = _write_report(cfg, "dimension", payload, started)
    print("box dimension %.4f +- %.4f" % (est.value, est.stderr))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_shadows(cfg):
    started = time.time()
    with _config_phase():
        group = _group_for(cfg)
        rep = _rep_for(cfg, group)
        phi = parse_functional(cfg.functionals[0])
    records = orbit_table(group, rep, cfg.max_len, functionals=(phi,))
    report = shadow_separation_check(records, phi, cfg.radius)
    payload = [{
        "functional": cfg.functionals[0],
        "radius": cfg.radius,
        "c0_empirical": report.c0_empirical,
        "violations": report.violations,
        "pairs_overlapping": report.pairs_overlapping,
        "annuli": {str(k): v for k, v in sorted(report.annuli.items())},
    }]
    path = _write_report(cfg, "shadows", payload, started)
    print("empirical separation constant %.6g, %d violations" % (
        report.c0_empirical, report.violations))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_tp(cfg):
    started = time.time()
    with _config_phase():
        d = int(cfg.extra("dim"))
        trials = int(cfg.extra("trials"))
        word = standard_word(d)
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(trials):
        params = rng.uniform(0.2, 2.0, size=len(word.letters))
        coords = factorize(f_gamma(word, params))
        err = float(np.abs(np.asarray(coords.params) - params).max())
        worst = max(worst, err)
    payload = [{"dim": d, "trials": trials, "seed": cfg.seed,
                "max_roundtrip_error": worst}]
    path = _write_report(cfg, "tp", payload, started)
    print("max round-trip coordinate error %.3g over %d trials" % (
        worst, trials))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_double(cfg):
    started = time.time()
    with _config_phase():
        group = _group_for(cfg, default_separated=True)
        rep = _rep_for(cfg, group)
        phi = parse_functional(cfg.functionals[0])
        depth = int(cfg.extra("depth"))
    doubled = double_rep(rep, PANTS_BOUNDARY)
    base_vs = sample_from_enumeration(group, rep, phi, cfg.max_len)
    base_est = estimate_exponent(base_vs, window=cfg.window)
    dbl_vs = doubled_value_sample(group, doubled, phi, depth)
    dbl_est = estimate_exponent(dbl_vs)
    payload = []
    for which, est, vs in (("base", base_est, base_vs),
                           ("doubled", dbl_est, dbl_vs)):
        row = _with_provenance(est.report(cfg.functionals[0]), vs)
        row["which"] = which
        row["label"] = vs.label
        payload.append(row)
    path = _write_report(cfg, "double", payload, started)
    print("base %.4f +- %.4f, doubled %.4f +- %.4f" % (
        base_est.value, base_est.stderr, dbl_est.value, dbl_est.stderr))
    print("wrote %s" % path)
    return EXIT_OK


def cmd_conerank(cfg):
    started = time.time()
    with _config_phase():
        n = int(cfg.extra("dim"))
        trials = int(cfg.extra("trials"))
    witness = rank_witness_check(n)
    violations = rank_upper_sample(n, trials, seed=cfg.seed)
    payload = [{"dim": n, "trials": trials, "seed": cfg.seed,
                "witness_ok": bool(witness), "violations": violations}]
    path = _write_report(cfg, "conerank", payload, started)
    print("witness %s, %d violations in %d trials" % (
        "ok" if witness else "FAILED", violations, trials))
    print("wrote %s" % path)
    return EXIT_OK


def _read_csv_column(path, column):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines:
        raise InvalidInput("CSV file %s is empty" % path)
    header = lines[0].split(",")
    if column not in header:
        raise InvalidInput("column %r not in %s" % (column, header))
    idx = header.index(column)
    values = []
    for ln in lines[1:]:
        if ln:
            values.append(float(ln.split(",")[idx]))
    if not values:
        raise InvalidInput("no data rows in %s" % path)
    return values


def _svg_histogram(counts, edges, path):
    width, height, pad = 480, 240, 30
    top = max(counts) or 1
    bars = []
    n = len(counts)
    for i, c in enumerate(counts):
        h = (height - 2 * pad) * c / top
        x = pad + i * (width - 2 * pad) / n
        bars.append(
            '<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" '
            'fill="steelblue"/>' % (
                x, height - pad - h, (width - 2 * pad) / n - 2, h))
    text = (
        '<text x="%d" y="%d" font-size="11">%.4g</text>'
        '<text x="%d" y="%d" font-size="11" text-anchor="end">%.4g</text>'
        % (pad, height - 8, edges[0], width - pad, height - 8, edges[-1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">\n%s\n%s\n</svg>\n'
            % (width, height, width, height, "\n".join(bars), text))


def cmd_plot(cfg):
    with _config_phase():
        src = cfg.extra("input")
        if src is None:
            raise InvalidInput("plot needs an input CSV")
        column = str(cfg.extra("column"))
        bins = int(cfg.extra("bins"))
        values = _read_csv_column(src, column)
    counts, edges = np.histogram(values, bins=bins)
    top = counts.max() or 1
    lines = ["# config: %s" % cfg.echo_json(),
             "%s histogram, %d values" % (column, len(values))]
    for i, c in enumerate(counts):
        bar = "#" * int(round(40.0 * c / top))
        lines.append("%12.5g .. %-12.5g %6d %s" % (edges[i], edges[i + 1],
                                                   c, bar))
    text = "\n".join(lines) + "\n"
    out_path = _report_path(cfg, "plot.txt")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    sys.stdout.write(text)
    svg = cfg.extra("svg")
    if svg is not None:
        _svg_histogram(list(counts), list(edges), svg)
        print("wrote %s" % svg)
    print("wrote %s" % out_path)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _config_phase():
            cfg = build_config(args)
        return args.func(cfg)
    except _ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except OrbitLabError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
