"""Subcommand exit codes, config precedence, reports, resume, and the
settings table."""

import ast
import json
import pathlib

import numpy as np
import pytest
from buildtools import synthetic_log_sample

from orbitlab import cli, flags
from orbitlab.doubling import separated_schottky
from orbitlab.errors import NotPositive
from orbitlab.tpos import f_gamma, factorize, standard_word
from orbitlab.words import standard_schottky


def write_modular_group(tmp_path):
    path = tmp_path / "modular.grp"
    path.write_text("kind=modular\n", encoding="utf-8")
    return str(path)


def write_schottky_group(tmp_path, group, name):
    lines = ["kind=free_schottky"]
    for c in ("a", "b"):
        vals = " ".join("%.17g" % v for v in group.image(c).mat.ravel())
        lines.append("generator=%s" % vals)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_separated_group(tmp_path):
    return write_schottky_group(tmp_path, separated_schottky(2.0), "sep.grp")


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def settings_read(source):
    """Function name to the names each top-level function of a module
    source reads as cfg.<name>, itself or through the module's functions
    it calls, transitively."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        seen.add(name)
        found = set()
        for node in ast.walk(functions[name]):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "cfg"):
                found.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in functions and node.func.id not in seen):
                found |= reads(node.func.id, seen)
        return found

    return {name: reads(name, set()) for name in functions}


def misread_settings(source, commands, members=()):
    """(command, listed but unread, read but unlisted) for each command
    whose settings in commands, a name-to-settings dict, differ from the
    reads settings_read finds in its cmd_<command> function; out, which
    every command takes, and RunConfig's own members are left out of the
    reads."""
    reads = settings_read(source)
    found = []
    for name in sorted(commands):
        read = reads["cmd_" + name] - {"out"} - set(members)
        listed = set(commands[name])
        if read != listed:
            found.append((name, sorted(listed - read), sorted(read - listed)))
    return found


def test_each_command_reads_exactly_its_settings():
    source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
    commands = {name: entry[2] for name, entry in cli.COMMANDS.items()}
    assert sorted(commands) == sorted(
        name[4:] for name in settings_read(source) if name.startswith("cmd_"))
    assert misread_settings(source, commands,
                            members=set(vars(cli.RunConfig)) | {"settings"}) == []
    # the report tail reads the shared setting for every command
    assert "out" in settings_read(source)["main"]


def test_detector_flags_an_unread_setting():
    source = ("def _path(cfg):\n    return cfg.out\n\n\n"
              "def _rep(cfg):\n    return cfg.rep, _path(cfg)\n\n\n"
              "def cmd_a(cfg):\n    return _rep(cfg), cfg.seed, cfg.echo()\n\n\n"
              "def cmd_b(cfg):\n    return cfg.trials\n")
    assert settings_read(source) == {
        "_path": {"out"}, "_rep": {"out", "rep"},
        "cmd_a": {"out", "rep", "seed", "echo"}, "cmd_b": {"trials"}}
    commands = {"a": ("rep", "seed"), "b": ("trials",)}
    assert misread_settings(source, commands, members=("echo",)) == []
    commands = {"a": ("rep", "seed", "radius"), "b": ()}
    assert misread_settings(source, commands, members=("echo",)) == [
        ("a", ["radius"], []), ("b", [], ["trials"])]


def test_exit_codes(tmp_path):
    empty = tmp_path / "empty.grp"
    empty.write_text("", encoding="utf-8")
    out = str(tmp_path / "o")
    assert cli.main(["orbit", "--group", str(empty), "--out", out]) == 2
    grp = write_modular_group(tmp_path)
    assert cli.main(["orbit", "--rep", "sym99", "--group", grp,
                     "--out", out]) == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"no_such_key": 1}', encoding="utf-8")
    assert cli.main(["orbit", "--group", grp, "--config", str(cfg),
                     "--out", out]) == 2
    tiny = tmp_path / "tiny.json"
    tiny.write_text('{"values": [0.1, 0.2], "complete_to": 0.2}',
                    encoding="utf-8")
    assert cli.main(["critexp", "--values", str(tiny), "--out", out]) == 3


def test_orbit_deterministic_and_resumable(tmp_path):
    grp = write_modular_group(tmp_path)
    out = tmp_path / "run"
    args = ["orbit", "--group", grp, "--rep", "sym3", "--max-len", "5",
            "--out", str(out)]
    assert cli.main(args) == 0
    csv_path = out / "orbit.csv"
    fresh = csv_path.read_bytes()
    lines = fresh.decode().splitlines(keepends=True)
    assert lines[0].startswith("# config: ")
    assert '"max_len": 5' in lines[0]
    assert lines[1].startswith("word,")
    assert cli.main(args) == 0
    assert csv_path.read_bytes() == fresh
    assert sorted(p.name for p in out.iterdir()) == ["orbit.csv", "orbit.jsonl"]
    # a finished file redoes its last length only
    assert read_jsonl(out / "orbit.jsonl")[1]["from_len"] == 5

    # the CSV is its own checkpoint: a run killed anywhere walks on from
    # the last length the file holds and rewrites the rest byte for byte
    head = len(lines[0]) + len(lines[1])
    fours = next(i for i, line in enumerate(lines) if line.split(",")[1:2] == ["4"])
    boundary = sum(len(line) for line in lines[:fours])
    cuts = {"inside a length": (boundary + len(lines[fours]) + 7, 4),
            "inside a row": (boundary + len(lines[fours]) // 2, 3),
            "at a length boundary": (boundary, 3),
            "after the header": (head, 0),
            "inside the header": (head - 3, 0),
            "to empty": (0, 0)}
    for where, (cut, from_len) in cuts.items():
        csv_path.write_bytes(fresh[:cut])
        assert cli.main(args) == 0, where
        assert csv_path.read_bytes() == fresh, where
        row = read_jsonl(out / "orbit.jsonl")[1]
        assert (row["from_len"], row["rows"]) == (from_len, len(lines) - 2), where

    # a row that does not parse ends the rows kept, as a cut does
    csv_path.write_bytes(fresh[:boundary] + b"garbled\n" + fresh[boundary:])
    assert cli.main(args) == 0
    assert csv_path.read_bytes() == fresh
    assert read_jsonl(out / "orbit.jsonl")[1]["from_len"] == 3

    # a file written under other settings starts over
    foreign = lines[0].replace('"max_len": 5', '"max_len": 4')
    csv_path.write_bytes((foreign + "".join(lines[1:fours])).encode())
    assert cli.main(args) == 0
    assert csv_path.read_bytes() == fresh
    assert read_jsonl(out / "orbit.jsonl")[1]["from_len"] == 0


@pytest.mark.parametrize("rep", ["sym3", "sym5"])
def test_orbit_rows_of_zero_displacement_have_unsigned_zeros(tmp_path, rep):
    # the identity and the order-two S fix the origin: their Cartan rows
    # are zero, written without a sign
    out = tmp_path / "run"
    assert cli.main(["orbit", "--group", write_modular_group(tmp_path), "--rep", rep,
                     "--max-len", "1", "--out", str(out)]) == 0
    rows = (out / "orbit.csv").read_text(encoding="utf-8").splitlines()[2:4]
    zeros = ",".join(["0"] * int(rep[3:]))
    assert rows == ["e,0,0," + zeros, "S,1,0," + zeros]


def test_every_command_reports_through_main(tmp_path):
    grp = write_separated_group(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["orbit", "--group", grp, "--max-len", "2",
                     "--out", str(out)]) == 0
    small = {
        "critexp": ["--group", grp, "--max-len", "6"],
        "limitcurve": ["--group", grp, "--depth", "3"],
        "dimension": ["--group", grp, "--depth", "6"],
        "shadows": ["--group", grp, "--max-len", "2"],
        "tp": ["--trials", "3"],
        "double": ["--max-len", "6", "--depth", "6"],
        "conerank": ["--trials", "5"],
        "plot": ["--input", str(out / "orbit.csv"), "--bins", "3"],
    }
    assert sorted(list(small) + ["orbit"]) == sorted(cli.COMMANDS)
    for command, extra in small.items():
        assert cli.main([command] + extra + ["--out", str(out)]) == 0, command
    for command in cli.COMMANDS:
        header, *rows = read_jsonl(out / (command + ".jsonl"))
        assert sorted(header) == ["command", "config", "version", "wall_time_s"]
        assert header["command"] == command
        assert header["config"]["out"] == str(out)
        assert header["version"] and header["wall_time_s"] >= 0.0
        assert rows, command


def test_every_command_succeeds_at_its_defaults(tmp_path):
    # nothing but the group file a command needs: dimension's depth 9
    # and double's depth 7 are its own defaults
    grp = write_schottky_group(tmp_path, standard_schottky(4.0), "schottky.grp")
    out = str(tmp_path / "run")
    group_commands = ("orbit", "critexp", "limitcurve", "dimension", "shadows")
    for command in group_commands + ("double", "tp", "conerank"):
        extra = ["--group", grp] if command in group_commands else []
        assert cli.main([command] + extra + ["--out", out]) == 0, command
    assert read_jsonl(tmp_path / "run" / "dimension.jsonl")[0]["config"]["depth"] == 9
    assert read_jsonl(tmp_path / "run" / "double.jsonl")[0]["config"]["depth"] == 7


@pytest.mark.parametrize("config", ['{"window": 5}', '{"max_len": null}',
                                    '{"functional": 5}', '{"depth": [1]}'])
def test_config_type_errors_exit_2(tmp_path, capsys, config):
    """Each key goes to a command that reads it, so the error is its
    type: critexp reads window, max_len and functional, limitcurve
    depth."""
    command = "limitcurve" if "depth" in config else "critexp"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config, encoding="utf-8")
    assert cli.main([command, "--group", write_modular_group(tmp_path),
                     "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "unknown config key" not in err


def test_window_flag(tmp_path, capsys):
    grp = write_separated_group(tmp_path)
    out = tmp_path / "run"
    args = ["critexp", "--group", grp, "--max-len", "7", "--out", str(out)]
    assert cli.main(args + ["--window", "3:9"]) == 0
    assert read_jsonl(out / "critexp.jsonl")[0]["config"]["window"] == [3.0, 9.0]
    assert cli.main(args + ["--window", "9:3"]) == 2
    assert "window needs lo < hi" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--window", "3"])
    assert exc.value.code == 2
    assert "window format is lo:hi" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["shadows", "--radius", "0"], "radius must be positive"),
    (["orbit", "--max-len", "-1"], "max_len must be nonnegative"),
    (["conerank", "--trials", "0"], "trials must be at least 1"),
], ids=["radius", "max_len", "trials"])
def test_range_checks_exit_2(tmp_path, capsys, args, message):
    args += ["--out", str(tmp_path / "run")]
    if args[0] != "conerank":
        args += ["--group", write_modular_group(tmp_path)]
    assert cli.main(args) == 2
    assert "config error: %s" % message in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("generator=1 0 1", "generator needs 4 numbers"),
    ("colour=blue", "unknown group file key 'colour'"),
], ids=["three-numbers", "unknown-key"])
def test_bad_group_file_lines_exit_2(tmp_path, capsys, line, message):
    path = tmp_path / "bad.grp"
    path.write_text("kind=custom\n%s\n" % line, encoding="utf-8")
    assert cli.main(["orbit", "--group", str(path),
                     "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err


def test_settings_a_command_does_not_read_are_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tp", "--radius", "1.0", "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"radius": 1}', encoding="utf-8")
    assert cli.main(["orbit", "--group", write_modular_group(tmp_path),
                     "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["shadows", "--max-len", "2", "--functional", "a1", "--functional", "a2"],
    ["double", "--max-len", "2", "--functional", "a1", "--functional", "a2"],
    ["critexp", "--values", "VALUES"]], ids=["shadows", "double", "critexp"])
def test_settings_read_in_part_are_errors(tmp_path, capsys, args):
    """shadows and double read one functional, and critexp a values file
    or a group: a second functional or both sources are refused."""
    values = tmp_path / "vals.json"
    values.write_text('{"values": [0.1, 0.2], "complete_to": 0.2}',
                      encoding="utf-8")
    args = [str(values) if a == "VALUES" else a for a in args]
    assert cli.main(args + ["--group", write_modular_group(tmp_path),
                            "--out", str(tmp_path / "run")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("extra, config", [
    (["--functional", "a2", "--max-len", "3"], None),
    ([], {"rep": "sym2"}),
], ids=["flags", "config"])
def test_values_file_refuses_group_route_settings(tmp_path, capsys, extra, config):
    """functional, max_len and rep go with a group, not a values file;
    set by a flag or a config key next to values, they are refused,
    not dropped."""
    values = tmp_path / "vals.json"
    values.write_text(json.dumps({"values": list(synthetic_log_sample(400).values)}),
                      encoding="utf-8")
    args = ["critexp", "--values", str(values), "--out", str(tmp_path / "run")] + extra
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(cfg)]
    assert cli.main(args) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_unusable_out_is_a_config_error(tmp_path, capsys):
    # the output directory is made before the command runs
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert cli.main(["tp", "--trials", "2", "--out", str(blocker / "sub")]) == 2
    out, err = capsys.readouterr()
    assert "config error" in err and "Traceback" not in err
    assert "round-trip" not in out


@pytest.mark.parametrize("command, name", [("orbit", "orbit.csv"), ("tp", "tp.jsonl")])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command, name):
    # a directory where the command writes its CSV or its report
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)
    args = {"orbit": ["--group", write_modular_group(tmp_path), "--max-len", "1"],
            "tp": ["--trials", "2"]}[command]
    assert cli.main([command, "--out", str(out)] + args) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 1 and "Traceback" not in err
    assert "directory" in err


def test_unwritable_report_fails_before_the_command_runs(tmp_path, capsys, monkeypatch):
    def refuse(cfg):
        raise AssertionError("the command ran before its report path was checked")

    monkeypatch.setitem(cli.COMMANDS, "tp", (refuse,) + cli.COMMANDS["tp"][1:])
    out = tmp_path / "run"
    (out / "tp.jsonl").mkdir(parents=True)
    assert cli.main(["tp", "--trials", "2000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 1 and "Traceback" not in err


def test_report_check_truncates_no_report(tmp_path):
    # a run that fails after the check leaves the last report as it was
    out = tmp_path / "run"
    out.mkdir()
    (out / "critexp.jsonl").write_text("{}\n", encoding="utf-8")
    tiny = tmp_path / "tiny.json"
    tiny.write_text('{"values": [0.1, 0.2], "complete_to": 0.2}', encoding="utf-8")
    assert cli.main(["critexp", "--values", str(tiny), "--out", str(out)]) == 3
    assert (out / "critexp.jsonl").read_text(encoding="utf-8") == "{}\n"


def test_config_file_overrides_flags(tmp_path):
    grp = write_modular_group(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_len": 2}', encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["orbit", "--group", grp, "--max-len", "6",
                     "--config", str(cfg), "--out", str(out)]) == 0
    rows = [
        line for line in (out / "orbit.csv").read_text().strip().split("\n")
        if not line.startswith(("#", "word,"))
    ]
    assert max(int(r.split(",")[1]) for r in rows) == 2
    assert '"max_len": 2' in (out / "orbit.csv").read_text().split("\n")[0]


def test_critexp_synthetic_values(tmp_path):
    vs = synthetic_log_sample(4000, c=2.0)
    values = tmp_path / "vals.json"
    values.write_text(json.dumps({
        "values": list(vs.values),
        "complete_to": vs.complete_to,
        "label": "synthetic",
    }), encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["critexp", "--values", str(values),
                     "--out", str(out)]) == 0
    header, row = read_jsonl(out / "critexp.jsonl")
    assert header["command"] == "critexp"
    assert header["version"]
    assert header["wall_time_s"] >= 0.0
    assert header["config"]["values"] == str(values)
    assert abs(row["value"] - 0.5) < 0.01
    assert row["complete_to"] == vs.complete_to
    assert "provenance" not in row


def test_critexp_group_route(tmp_path):
    grp = write_separated_group(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["critexp", "--group", grp, "--rep", "sym3",
                     "--functional", "a1", "--max-len", "6",
                     "--out", str(out)]) == 0
    rows = read_jsonl(out / "critexp.jsonl")[1:]
    assert rows[0]["functional"] == "a1"
    assert rows[0]["complete_to"] > 0.0
    assert rows[0]["stderr"] >= 0.0
    # the certificate's source: complete_to is frontier_min - dip
    prov = rows[0]["provenance"]
    assert sorted(prov) == ["dip", "dip_child", "dip_parent", "frontier_min",
                            "frontier_word"]
    assert prov["frontier_min"] - prov["dip"] == rows[0]["complete_to"]
    assert len(prov["frontier_word"]) == 6
    assert len(prov["dip_child"]) == len(prov["dip_parent"]) + 1


def test_conerank_report(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["conerank", "--dim", "2", "--trials", "400",
                     "--seed", "1", "--out", str(out)]) == 0
    row = read_jsonl(out / "conerank.jsonl")[1]
    assert row["witness_ok"] is True
    assert row["violations"] == 0
    assert row["trials"] == 400


def test_tp_report(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["tp", "--dim", "4", "--trials", "100", "--seed", "3",
                     "--out", str(out)]) == 0
    row = read_jsonl(out / "tp.jsonl")[1]
    assert row["max_roundtrip_error"] < 1e-9


def tp_by_trial(dim, trials, seed):
    """The tp payload's error as the per-trial factorize loop gave it."""
    word = standard_word(dim)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        params = rng.uniform(0.2, 2.0, size=len(word.letters))
        coords = factorize(f_gamma(word, params))
        worst = max(worst, float(np.abs(np.asarray(coords.params) - params).max()))
    return worst


@pytest.mark.parametrize("dim", range(2, 8))
@pytest.mark.parametrize("seed", [0, 3])
def test_tp_stack_matches_the_trial_loop(dim, seed):
    cfg = cli.RunConfig({"dim": dim, "trials": 200, "seed": seed, "out": "unused"})
    payload, _ = cli.cmd_tp(cfg)
    want = tp_by_trial(dim, 200, seed)
    assert payload == [{"dim": dim, "trials": 200, "seed": seed,
                        "max_roundtrip_error": want}]
    assert np.float64(payload[0]["max_roundtrip_error"]).tobytes() == np.float64(want).tobytes()


def test_tp_failing_trial_raises_as_factorize(monkeypatch):
    # the third and fourth trials get a negative parameter: the stacked
    # sweep raises factorize's NotPositive for the third
    built = []

    def planted(word, params):
        params = params.copy()
        if len(built) in (2, 3):
            params[len(built) - 1] = -0.5
        built.append(params)
        return f_gamma(word, params)

    monkeypatch.setattr(cli, "f_gamma", planted)
    cfg = cli.RunConfig({"dim": 4, "trials": 5, "seed": 0, "out": "unused"})
    with pytest.raises(NotPositive) as raised:
        cli.cmd_tp(cfg)
    assert len(built) == 5
    with pytest.raises(NotPositive) as direct:
        factorize(f_gamma(standard_word(4), built[2]))
    assert str(raised.value) == str(direct.value)
    assert (raised.value.stage, raised.value.marginal) == (
        direct.value.stage, direct.value.marginal)


def test_limitcurve_report(tmp_path):
    grp = write_modular_group(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["limitcurve", "--group", grp, "--rep", "sym3",
                     "--depth", "5", "--k", "1", "--out", str(out)]) == 0
    row = read_jsonl(out / "limitcurve.jsonl")[1]
    assert row["polygonal_length"] > 0.0
    assert row["points"] > 10
    assert (out / "limitcurve.csv").exists()


def test_dimension_report(tmp_path):
    grp = write_separated_group(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["dimension", "--group", grp, "--rep", "sym3",
                     "--depth", "6", "--k", "1", "--out", str(out)]) == 0
    row = read_jsonl(out / "dimension.jsonl")[1]
    assert 0.0 < row["value"] < 1.5
    assert len(row["scales"]) == len(row["counts"])


@pytest.mark.parametrize("command, rep, k", [
    ("limitcurve", "sym3", 0), ("limitcurve", "sym3", 3), ("limitcurve", "sym4", 4),
    ("dimension", "sym3", 0), ("dimension", "sym3", 3),
])
def test_plane_index_out_of_range_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                    command, rep, k):
    # refused against the representation's dimension before any walk
    def no_walk(*args):
        raise AssertionError("the limit set was walked")

    monkeypatch.setattr(flags, "_limit_rows", no_walk)
    grp = write_modular_group(tmp_path)
    out = tmp_path / "run"
    assert cli.main([command, "--group", grp, "--rep", rep, "--k", str(k),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: piece index must lie in 1..d-1\n"
    assert not (out / "limitcurve.csv").exists()


def test_shadows_report(tmp_path):
    grp = write_modular_group(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["shadows", "--group", grp, "--rep", "sym3",
                     "--max-len", "4", "--radius", "9.0",
                     "--out", str(out)]) == 0
    row = read_jsonl(out / "shadows.jsonl")[1]
    # no separation constant is given, so there is no violation count
    assert "violations" not in row
    assert row["c0_empirical"] > 0.0


def test_double_report(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["double", "--rep", "sym3", "--max-len", "7",
                     "--depth", "7", "--out", str(out)]) == 0
    rows = read_jsonl(out / "double.jsonl")[1:]
    by_which = {r["which"]: r for r in rows}
    assert set(by_which) == {"base", "doubled"}
    assert "non-exhaustive" in by_which["doubled"]["label"]
    assert by_which["doubled"]["value"] > by_which["base"]["value"]
    assert by_which["base"]["complete_to"] > 0.0
    # the doubled group's words carry reflection letters
    assert by_which["doubled"]["provenance"]["dip"] > 0.0
    assert set(by_which["doubled"]["provenance"]["dip_child"]) & set("xyz")
    assert by_which["base"]["provenance"]["frontier_word"]


def test_double_insufficient_depth(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["double", "--rep", "sym3", "--max-len", "6",
                     "--depth", "4", "--out", str(out)]) == 3


def test_plot(tmp_path, capsys):
    grp = write_modular_group(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["orbit", "--group", grp, "--max-len", "4",
                     "--out", str(out)]) == 0
    svg = tmp_path / "disp.svg"
    assert cli.main(["plot", "--input", str(out / "orbit.csv"),
                     "--column", "disp", "--bins", "6",
                     "--out", str(out), "--svg", str(svg)]) == 0
    captured = capsys.readouterr().out
    assert "histogram" in captured
    text = (out / "plot.txt").read_text()
    assert text.startswith("# config: ")
    assert len([l for l in text.strip().split("\n") if ".." in l]) == 6
    assert svg.read_text().startswith("<svg")
    assert cli.main(["plot", "--input", str(out / "orbit.csv"),
                     "--column", "nope", "--out", str(out)]) == 2
