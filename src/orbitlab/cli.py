"""Batch front end over the library modules.

Each command takes only the settings it reads: SETTINGS gives each
setting's default, check and flag, COMMANDS each command's settings
and the defaults in which it differs, and a flag or a config key that
a command does not read is an error. A command's defaults are sizes
at which it succeeds on its own: dimension samples the limit curve at
depth 9, past box_dimension's MIN_POINTS, and double walks the doubled
group to depth 7, enough distinct values for the fit window, while
limitcurve keeps depth 5. Settings come from three layers: built-in
defaults, command line flags, then an optional JSON config file, later
layers winning. Every command's rows go to <command>.jsonl under a
header of command, config (the merged settings, so a run can be
replayed), version and wall_time_s; orbit.csv and plot.txt start with
a "# config:" echo.
orbit.csv is its own checkpoint: a rerun keeps its rows below the last
length it holds and walks on from that length. Text outputs are UTF-8
with LF newlines. Exit codes: 0 success, 2 configuration error (an
output path that cannot be written among them; the report's is tried,
in append mode, before the command runs), 3 numeric failure inside a
module, which leaves an earlier report as it was, or an empty one.
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
from .flags import _check_piece, limit_curve, polygonal_length, write_curve_csv
from .limitgeom import box_dimension, shadow_separation_check
from .reps import sym_power
from .tpos import Unitriangular, _cone_params, f_gamma, factorize, standard_word
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


class _ConfigError(Exception):
    """Raised for any failure before computation starts."""


@contextmanager
def _config_phase():
    try:
        yield
    except (InvalidInput, OSError, ValueError, KeyError, TypeError) as exc:
        raise _ConfigError(str(exc)) from exc


def _rep_name(key, value):
    if not (isinstance(value, str) and value.startswith("sym")
            and value[3:].isdigit() and 2 <= int(value[3:]) <= 9):
        raise InvalidInput("rep must be sym2..sym9, got %r" % (value,))
    return value


def _functionals(key, value):
    funcs = [value] if isinstance(value, str) else value
    if not funcs:
        raise InvalidInput("need at least one functional expression")
    funcs = [str(f) for f in funcs]
    for expr in funcs:
        parse_functional(expr)
    return funcs


def _window(key, value):
    if value is None:
        return None
    lo, hi = float(value[0]), float(value[1])
    if not lo < hi:
        raise InvalidInput("window needs lo < hi")
    return lo, hi


def _positive(key, value):
    if float(value) <= 0.0:
        raise InvalidInput("%s must be positive" % key)
    return float(value)


def _at_least(low):
    def check(key, value):
        if int(value) < low:
            raise InvalidInput("%s must be %s" % (
                key, "nonnegative" if low == 0 else "at least %d" % low))
        return int(value)
    return check


def _as_is(key, value):
    return value


def _parse_window(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("window format is lo:hi")
    return [float(parts[0]), float(parts[1])]


# setting: (default, check(key, value) giving the value a command reads,
# options of its command line flag, or None for a config file key only)
SETTINGS = {
    "group": (None, _as_is, dict(help="group description file")),
    "rep": ("sym3", _rep_name, dict(help="representation name, sym2..sym9")),
    "functional": (["a1"], _functionals, dict(
        action="append", help="functional expression, repeatable")),
    "max_len": (6, _at_least(0), dict(type=int, help="word length bound")),
    "radius": (9.0, _positive, dict(type=float, help="orbit ball radius")),
    "window": (None, _window, dict(type=_parse_window, help="fit window lo:hi")),
    "values": (None, _as_is, dict(help="JSON file with values and complete_to")),
    "depth": (5, _at_least(0), dict(type=int, help="word length of the sample")),
    "k": (1, _at_least(0), dict(type=int, help="plane dimension of the curve")),
    "scales": ([0.3 * 10.0 ** (-j / 2.0) for j in range(5)],
               lambda key, value: [float(s) for s in value], None),
    "dim": (None, _at_least(1), dict(type=int, help="matrix size")),
    "trials": (None, _at_least(1), dict(type=int, help="number of trials")),
    "seed": (0, _at_least(0), dict(type=int, help="random seed")),
    "input": (None, _as_is, dict(help="CSV file to read")),
    "column": ("disp", lambda key, value: str(value),
               dict(help="column name to histogram")),
    "bins": (12, _at_least(1), dict(type=int, help="number of bins")),
    "svg": (None, _as_is, dict(help="optional vector graphic output path")),
    "out": (".", lambda key, value: str(value), dict(help="output directory")),
}


class RunConfig:
    """Merged and validated settings of one command.

    Each setting is an attribute holding its checked value; settings
    holds them all verbatim for the output echo.
    """

    def __init__(self, settings):
        self.settings = dict(settings)
        for key, value in settings.items():
            setattr(self, key, SETTINGS[key][1](key, value))

    def echo_json(self):
        return json.dumps(self.settings, sort_keys=True)


def _group_for(cfg, default_separated=False):
    if cfg.group is None:
        if default_separated:
            return separated_schottky(2.0)
        raise InvalidInput("this command needs a group file")
    return load_group_file(cfg.group)


def _rep_for(cfg, group):
    return sym_power(int(cfg.rep[3:]))(
        group.generator_matrices(), label=cfg.rep
    )


def _one_functional(cfg):
    """The expression and the functional of a command that reads one."""
    if len(cfg.functional) != 1:
        raise InvalidInput("this command reads one functional, got %d"
                           % len(cfg.functional))
    return cfg.functional[0], parse_functional(cfg.functional[0])


def _orbit_resume(path, head):
    """(word length to walk on from, byte offset to cut the CSV at, rows
    before it). A file starting with head keeps its complete rows below
    the last length present and redoes that length, a cut-off trailing
    row with it; a missing, empty or foreign file starts over."""
    if not os.path.exists(path):
        return 0, 0, 0
    with open(path, "rb") as fh:
        if fh.read(len(head)) != head:
            return 0, 0, 0
        length, offset, rows = 0, len(head), 0
        start, kept = offset, rows
        for line in fh:
            fields = line.split(b",", 2)
            if not (line.endswith(b"\n") and len(fields) == 3 and fields[1].isdigit()):
                break
            if int(fields[1]) != length:
                length, start, kept = int(fields[1]), offset, rows
            offset += len(line)
            rows += 1
    return length, start, kept


def cmd_orbit(cfg):
    """Stream word,len,disp,k1..kd rows to orbit.csv under the config
    echo and column header, resuming as _orbit_resume finds."""
    with _config_phase():
        group = _group_for(cfg)
        rep = _rep_for(cfg, group)
        csv_path = os.path.join(cfg.out, "orbit.csv")
    head = "# config: %s\n%s" % (cfg.echo_json(), _orbit_csv_header(rep.dim))
    start_len, offset, rows = _orbit_resume(csv_path, head.encode())
    with open(csv_path, "a", encoding="utf-8", newline="\n") as fh:
        fh.truncate(offset)
        if not offset:
            fh.write(head)
        for rec in _orbit_records(group, rep, cfg.max_len, start_len):
            fh.write(_orbit_csv_row(rec))
            rows += 1
    payload = [{"max_len": cfg.max_len, "from_len": start_len, "rows": rows,
                "csv": "orbit.csv"}]
    return payload, "%d orbit rows, walked from length %d" % (rows, start_len)


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
    with _config_phase():
        if cfg.values is not None:
            vs = _load_values_file(cfg.values)
            samples = [(vs.label, vs)]
        else:
            group = _group_for(cfg)
            rep = _rep_for(cfg, group)
            # sampled lazily, one functional at a time, after this phase
            samples = ((expr, sample_from_enumeration(
                group, rep, parse_functional(expr), cfg.max_len))
                for expr in cfg.functional)
    payload = [_with_provenance(
        estimate_exponent(vs, window=cfg.window).report(name), vs)
        for name, vs in samples]
    return payload, "\n".join(
        "%s: %.4f +- %.4f (complete_to %.3f)" % (
            row["functional"], row["value"], row["stderr"], row["complete_to"])
        for row in payload)


def cmd_limitcurve(cfg):
    with _config_phase():
        group = _group_for(cfg)
        rep = _rep_for(cfg, group)
        _check_piece(cfg.k, rep.dim)
    curve = limit_curve(rep, group, cfg.depth, cfg.k)
    length = polygonal_length(curve)
    write_curve_csv(os.path.join(cfg.out, "limitcurve.csv"), curve)
    payload = [{"depth": cfg.depth, "k": cfg.k, "points": len(curve),
                "polygonal_length": length, "csv": "limitcurve.csv"}]
    return payload, "polygonal length %.6f over %d points" % (length, len(curve))


def cmd_dimension(cfg):
    with _config_phase():
        group = _group_for(cfg)
        rep = _rep_for(cfg, group)
        _check_piece(cfg.k, rep.dim)
    points = limit_curve(rep, group, cfg.depth, cfg.k)
    est = box_dimension(points, cfg.scales)
    payload = [{"depth": cfg.depth, "k": cfg.k, "points": len(points),
                "value": est.value, "stderr": est.stderr,
                "scales": list(est.scales), "counts": list(est.counts)}]
    return payload, "box dimension %.4f +- %.4f" % (est.value, est.stderr)


def cmd_shadows(cfg):
    with _config_phase():
        group = _group_for(cfg)
        rep = _rep_for(cfg, group)
        expr, phi = _one_functional(cfg)
    records = orbit_table(group, rep, cfg.max_len)
    report = shadow_separation_check(records, phi, cfg.radius)
    payload = [{
        "functional": expr,
        "radius": cfg.radius,
        "c0_empirical": report.c0_empirical,
        "pairs_overlapping": report.pairs_overlapping,
        "annuli": {str(k): v for k, v in sorted(report.annuli.items())},
    }]
    return payload, "empirical separation constant %.6g" % report.c0_empirical


def cmd_tp(cfg):
    with _config_phase():
        word = standard_word(cfg.dim)
    params = np.random.default_rng(cfg.seed).uniform(
        0.2, 2.0, size=(cfg.trials, len(word.letters)))
    mats = np.array([f_gamma(word, row).mat for row in params])
    # every trial in one stacked sweep; a failing row raises as factorize does
    found, stage, _ = _cone_params(mats)
    if stage.any():
        factorize(Unitriangular(mats[np.flatnonzero(stage)[0]]))
    worst = float(np.abs(found - params).max())
    payload = [{"dim": cfg.dim, "trials": cfg.trials, "seed": cfg.seed,
                "max_roundtrip_error": worst}]
    return payload, "max round-trip coordinate error %.3g over %d trials" % (
        worst, cfg.trials)


def cmd_double(cfg):
    with _config_phase():
        group = _group_for(cfg, default_separated=True)
        rep = _rep_for(cfg, group)
        expr, phi = _one_functional(cfg)
    doubled = double_rep(rep, PANTS_BOUNDARY)
    base_vs = sample_from_enumeration(group, rep, phi, cfg.max_len)
    base_est = estimate_exponent(base_vs, window=cfg.window)
    dbl_vs = doubled_value_sample(group, doubled, phi, cfg.depth)
    dbl_est = estimate_exponent(dbl_vs)
    payload = []
    for which, est, vs in (("base", base_est, base_vs),
                           ("doubled", dbl_est, dbl_vs)):
        row = _with_provenance(est.report(expr), vs)
        row["which"] = which
        row["label"] = vs.label
        payload.append(row)
    return payload, "base %.4f +- %.4f, doubled %.4f +- %.4f" % (
        base_est.value, base_est.stderr, dbl_est.value, dbl_est.stderr)


def cmd_conerank(cfg):
    witness = rank_witness_check(cfg.dim)
    violations = rank_upper_sample(cfg.dim, cfg.trials, seed=cfg.seed)
    payload = [{"dim": cfg.dim, "trials": cfg.trials, "seed": cfg.seed,
                "witness_ok": bool(witness), "violations": violations}]
    return payload, "witness %s, %d violations in %d trials" % (
        "ok" if witness else "FAILED", violations, cfg.trials)


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
        if cfg.input is None:
            raise InvalidInput("plot needs an input CSV")
        values = _read_csv_column(cfg.input, cfg.column)
    counts, edges = np.histogram(values, bins=cfg.bins)
    top = counts.max() or 1
    lines = ["%s histogram, %d values" % (cfg.column, len(values))]
    for i, c in enumerate(counts):
        bar = "#" * int(round(40.0 * c / top))
        lines.append("%12.5g .. %-12.5g %6d %s" % (edges[i], edges[i + 1],
                                                   c, bar))
    with open(os.path.join(cfg.out, "plot.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("# config: %s\n%s\n" % (cfg.echo_json(), "\n".join(lines)))
    if cfg.svg is not None:
        _svg_histogram(list(counts), list(edges), cfg.svg)
    payload = [{"column": cfg.column, "values": len(values),
                "counts": counts.tolist(), "edges": edges.tolist(),
                "txt": "plot.txt", "svg": cfg.svg}]
    return payload, "\n".join(lines)


# command: (function, help, the settings it reads besides out, its
# defaults that differ from SETTINGS'). A command function returns its
# JSONL rows and summary; main writes them under the report header.
COMMANDS = {
    "orbit": (cmd_orbit, "stream the orbit table to CSV, resumably",
              ("group", "rep", "max_len"), {}),
    "critexp": (cmd_critexp, "growth exponent of a group or a values file",
                ("group", "rep", "functional", "max_len", "window", "values"),
                {}),
    "limitcurve": (cmd_limitcurve, "limit curve sample and polygonal length",
                   ("group", "rep", "depth", "k"), {}),
    "dimension": (cmd_dimension, "box counting dimension of the limit curve",
                  ("group", "rep", "depth", "k", "scales"), {"depth": 9}),
    "shadows": (cmd_shadows, "same-annulus shadow separation report",
                ("group", "rep", "functional", "max_len", "radius"), {}),
    "tp": (cmd_tp, "positive factorization round-trip errors",
           ("dim", "trials", "seed"), {"dim": 4, "trials": 200}),
    "double": (cmd_double, "base versus doubled growth exponents",
               ("group", "rep", "functional", "max_len", "window", "depth"),
               {"depth": 7}),
    "conerank": (cmd_conerank, "definite cone rank witness and sampling",
                 ("dim", "trials", "seed"), {"dim": 2, "trials": 1000}),
    "plot": (cmd_plot, "text histogram of a CSV column",
             ("input", "column", "bins", "svg"), {}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="orbitlab",
        description="matrix group orbit experiments in batch",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, keys, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON settings file; overrides flags")
        for key in keys + ("out",):
            if SETTINGS[key][2] is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               **SETTINGS[key][2])
        p.set_defaults(func=func)
    return parser


def build_config(args):
    _, _, keys, defaults = COMMANDS[args.command]
    settings = {key: SETTINGS[key][0] for key in keys + ("out",)}
    settings.update(defaults)
    given = {key: getattr(args, key) for key in settings
             if getattr(args, key, None) is not None}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise InvalidInput("config file must hold a JSON object")
        for key in loaded:
            if key not in settings:
                raise InvalidInput("unknown config key %r for %s"
                                   % (key, args.command))
        given.update(loaded)
    # a values file replaces the group and every setting that reads it
    clash = sorted(set(given) & {"group", "rep", "functional", "max_len"})
    if given.get("values") is not None and clash:
        raise InvalidInput("a values file takes no %s" % ", ".join(clash))
    settings.update(given)
    return RunConfig(settings)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with _config_phase():
            cfg = build_config(args)
            os.makedirs(cfg.out, exist_ok=True)
            path = os.path.join(cfg.out, args.command + ".jsonl")
            open(path, "a", encoding="utf-8").close()
        started = time.time()
        payload, summary = args.func(cfg)
        header = {"command": args.command, "config": cfg.settings,
                  "version": __version__,
                  "wall_time_s": round(time.time() - started, 6)}
        write_report_jsonl(path, [header] + payload)
    except (_ConfigError, OSError) as exc:
        # an output path that cannot be written is a configuration error
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except OrbitLabError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    print(summary)
    print("wrote %s" % path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
