"""Config plumbing, on-disk record format, and CLI behavior."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from soc_ising import (
    COMMANDS,
    ExperimentConfig,
    build_config,
    chain_rng,
    parse_config_file,
    run,
    wilson_interval,
)
import soc_ising
from soc_ising import cli, experiments
from soc_ising.cli import main as cli_main


def test_per_command_defaults():
    cfg = build_config("fk-sample")
    assert cfg.n == (16,) and cfg.p == 0.6 and cfg.burn_in == 100
    assert build_config("tail-fit").bc == 0
    assert build_config("surgery-demo").a == 1.95
    assert build_config("enumerate").variant == "mu"
    assert build_config("soc-run").out_dir() == "runs/soc-run"
    for command in COMMANDS:
        if command == "fss-freq":
            # p is required for fss-freq, and its defaults leave it unset
            with pytest.raises(ValueError, match="^p: "):
                build_config(command)
        else:
            build_config(command)  # every other default set must validate


def test_merge_precedence_defaults_file_flags():
    cfg = build_config("fk-sample", {"p": "0.5", "samples": "40"},
                       {"p": "0.45"})
    assert cfg.p == 0.45  # flag beats file
    assert cfg.samples == 40  # file beats default
    assert cfg.burn_in == 100  # untouched default survives


def test_value_parsing():
    cfg = build_config("soc-run", overrides={"n": "8, 12", "a": "1.98",
                                             "snapshot_every": "5"})
    assert cfg.n == (8, 12) and cfg.a == 1.98 and cfg.snapshot_every == 5
    # optional keys accept the spelling "none"
    assert build_config("soc-run", overrides={"t": "none"}).t is None
    with pytest.raises(ValueError, match="a: value required"):
        build_config("soc-run", overrides={"a": "none"})
    with pytest.raises(ValueError, match="unknown config key: nonsense"):
        build_config("soc-run", overrides={"nonsense": "1"})
    with pytest.raises(ValueError, match="tau"):
        build_config("soc-run", overrides={"tau": "x"})
    with pytest.raises(ValueError, match="unknown command"):
        build_config("bogus")


@pytest.mark.parametrize(
    "key", [f.name for f in fields(ExperimentConfig) if f.name != "command"])
def test_none_override_matches_spelling_none(key):
    # a None override takes the same path as the spelling "none": unset for
    # the keys annotated `| None`, refused by name for every other key
    outcomes = []
    for raw in (None, "none"):
        try:
            outcomes.append(build_config("soc-run", overrides={key: raw}))
        except ValueError as err:
            outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]
    if key in ("t", "p", "v"):
        assert getattr(outcomes[0], key) is None
    else:
        assert outcomes[0] == f"{key}: value required"


def test_defaults_override_only_differing_values():
    # _DEFAULTS holds only what a command changes from the shared defaults
    shared = {f.name: f.default for f in fields(ExperimentConfig)}
    assert set(experiments._DEFAULTS) <= set(COMMANDS)
    for command, values in experiments._DEFAULTS.items():
        for key, value in values.items():
            assert value != shared[key], (command, key)


def test_validation_messages_name_the_key():
    cases = [
        ("bc", "7"),
        ("method", "bogus"),
        ("thin", "0"),
        ("burn_in", "-2"),
        ("q", "0"),
        ("q", "0.5"),
        ("p", "1.5"),
        ("seed", "-1"),
        ("delta", "0"),
        ("min_hits", "0"),
        ("v", "-3"),
    ]
    for key, bad in cases:
        with pytest.raises(ValueError) as err:
            build_config("fk-sample", overrides={key: bad})
        assert str(err.value).startswith(f"{key}:")
    with pytest.raises(ValueError, match="n:"):
        build_config("fk-sample", overrides={"n": "0"})


def test_as_flat_round_trip():
    cfg = build_config("fss-freq", overrides={"n": "8,10", "p": "0.62",
                                              "seed": "9"})
    flat = cfg.as_flat()
    assert flat["command"] == "fss-freq"
    assert flat["n"] == "8,10" and flat["t"] == "none"
    rebuilt = build_config(
        flat.pop("command"),
        overrides={k: v for k, v in flat.items()},
    )
    assert rebuilt == cfg


def _printed_config(argv, capsys) -> list[str]:
    assert cli_main(argv + ["--print-config"]) == 0
    return capsys.readouterr().out.strip().splitlines()


@pytest.mark.parametrize("argv", [
    [c] for c in COMMANDS if c != "fss-freq"
] + [
    ["fss-freq", "--p", "0.6"],
    ["fk-sample", "--n", "8,12", "--t", "1.5", "--p", "0.55", "--v", "3"],
])
def test_print_config_reads_back_with_config(argv, tmp_path, capsys):
    # --print-config output without its command line is a config file that
    # rebuilds the same config
    lines = _printed_config(argv, capsys)
    assert lines[0] == f"command = {argv[0]}"
    path = tmp_path / "printed.cfg"
    path.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    original = build_config(argv[0], overrides={
        k[2:].replace("-", "_"): v for k, v in zip(argv[1::2], argv[2::2])})
    assert build_config(argv[0], parse_config_file(str(path))) == original
    assert _printed_config([argv[0], "--config", str(path)], capsys) == lines


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "n = 4,6\n"
        "p = 0.55   # trailing comment\n"
        "\n"
        "t = none\n"
        "method = single-bond\n",
        encoding="utf-8",
    )
    values = parse_config_file(str(path))
    assert values == {"n": (4, 6), "p": 0.55, "t": None,
                      "method": "single-bond"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate = 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key: frobnicate"):
        parse_config_file(str(bad))

    bad.write_text("command = soc-run\n", encoding="utf-8")
    with pytest.raises(ValueError, match="command comes from"):
        parse_config_file(str(bad))

    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.cfg:1"):
        parse_config_file(str(bad))


def test_chain_rng_streams():
    a = chain_rng(7, 0).random(5)
    b = chain_rng(7, 0).random(5)
    c = chain_rng(7, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert abs(lo - 0.40383) < 1e-4 and abs(hi - 0.59617) < 1e-4
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0
    # interval shrinks with more data at the same frequency
    assert wilson_interval(500, 1000)[0] > lo


def test_csv_cell_formatting():
    cell = experiments._csv_cell
    assert cell(True) == "1" and cell(False) == "0"
    assert cell(np.bool_(True)) == "1"
    assert cell(7) == "7" and cell(np.int64(-3)) == "-3"
    x = 0.1 + 0.2
    assert cell(x) == repr(x) and float(cell(x)) == x
    assert cell("sw") == "sw"


@pytest.mark.parametrize("x", [True, False, 0, -3, 2 ** 40, 0.1 + 0.2, -0.0,
                               5e-324, 1.7976931348623157e308, math.inf])
def test_csv_cell_spells_python_and_numpy_scalars_alike(x):
    # the exact-type path for built-ins and the isinstance path for numpy
    # scalars write the same bytes
    cell = experiments._csv_cell
    as_numpy = np.asarray([x])[0]
    assert type(as_numpy) is not type(x)
    assert cell(x) == cell(as_numpy)
    assert cell(x) == cell(as_numpy.tolist())


def test_run_enumerate_files_and_metadata(tmp_path):
    # n = 4 has a 2 x 2 interior, so 16 spin configurations
    out = tmp_path / "enum"
    cfg = build_config("enumerate", overrides={"n": "4", "a": "1.9",
                                               "out": str(out)})
    result = run(cfg)
    assert result["n_rows"] == 16
    assert abs(result["prob_total"] - 1.0) < 1e-12
    assert result["z_abs_difference"] < 1e-12

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["version"] and meta["rng"] == "philox"
    assert meta["schema_version"] == 1
    assert meta["command"] == "enumerate"
    assert meta["config"]["a"] == "1.9"
    with open(out / "rows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == meta["columns"]
    assert len(rows) == 1 + 16
    # probabilities in the csv round-trip and sum to one
    probs = [float(r[-1]) for r in rows[1:]]
    assert abs(sum(probs) - 1.0) < 1e-12

    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_configs"] == 16 and summary["variant"] == "mu"


def test_rerun_is_byte_identical(tmp_path):
    base = {"n": "5", "samples": "25", "burn_in": "30", "seed": "3"}
    blobs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        cfg = build_config("fk-sample", overrides=dict(base, out=str(out)))
        run(cfg)
        blobs.append({name: (out / name).read_bytes()
                      for name in ("rows.csv", "summary.json",
                                   "metadata.json")})
    assert blobs[0]["rows.csv"] == blobs[1]["rows.csv"]
    assert blobs[0]["summary.json"] == blobs[1]["summary.json"]
    # metadata differs only in the out path
    metas = [json.loads(b["metadata.json"]) for b in blobs]
    for meta in metas:
        meta["config"].pop("out")
    assert metas[0] == metas[1]


def test_chains_do_not_perturb_each_other(tmp_path):
    # records of the first box side are identical whether or not a second
    # side runs after it
    base = {"tau": "4", "total": "120", "burn_in": "10", "seed": "11"}

    def first_chain_rows(tag, n_spec):
        out = tmp_path / tag
        cfg = build_config("soc-run", overrides=dict(base, n=n_spec,
                                                     out=str(out)))
        run(cfg)
        with open(out / "rows.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        head = rows[0]
        chain_col = head.index("chain")
        return [r for r in rows[1:] if r[chain_col] == "0"]

    alone = first_chain_rows("alone", "6")
    paired = first_chain_rows("paired", "6,4")
    assert alone == paired


def test_summary_recomputable_from_rows(tmp_path):
    out = tmp_path / "fk"
    cfg = build_config("fk-sample", overrides={"n": "5", "samples": "30",
                                               "burn_in": "20",
                                               "out": str(out)})
    result = run(cfg)
    with open(out / "rows.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        head = next(reader)
        rows = list(reader)
    cell = result["per_n"][0]
    for name in ("open_edges", "m_n", "u_n"):
        col = head.index(name)
        mean = sum(float(r[col]) for r in rows) / len(rows)
        assert abs(mean - cell["means"][name]) < 1e-12
    assert result["n_rows"] == 30


def _failing_runner(cfg):
    raise RuntimeError("runner failed")


def test_failure_leaves_no_partial_output(tmp_path, monkeypatch):
    out = tmp_path / "tail"
    cfg = build_config("tail-fit", overrides={"n": "4", "samples": "5",
                                              "out": str(out)})
    monkeypatch.setitem(experiments._RUNNERS, "tail-fit", _failing_runner)
    with pytest.raises(RuntimeError, match="runner failed"):
        run(cfg)
    assert not out.exists()


def test_write_failure_unlinks_written_files(tmp_path, monkeypatch):
    out = tmp_path / "boom"
    cfg = build_config("enumerate", overrides={"n": "2", "out": str(out)})

    def explode(x):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(experiments, "_csv_cell", explode)
    with pytest.raises(RuntimeError):
        run(cfg)
    assert out.exists()  # the directory is made before writing
    assert list(out.iterdir()) == []


def test_write_failure_keeps_previous_run(tmp_path, monkeypatch):
    out = tmp_path / "keep"
    cfg = build_config("enumerate", overrides={"n": "2", "out": str(out)})
    run(cfg)
    names = ["metadata.json", "rows.csv", "summary.json"]
    before = {name: (out / name).read_bytes() for name in names}

    def explode(x):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(experiments, "_csv_cell", explode)
    with pytest.raises(RuntimeError):
        run(cfg)
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == before


def test_fss_frequency_rejects_subcritical_density():
    with pytest.raises(ValueError, match="^p: finite-size scaling"):
        build_config("fss-freq", overrides={"n": "8", "p": "0.3",
                                            "samples": "5"})


def test_coupling_verify_writes_the_checked_bond_density(tmp_path):
    # at T = 10, 1 - exp(-2/T) ends in ...818 and -expm1(-2/T), the
    # density that es_pushforward_check uses, in ...815
    out = tmp_path / "cv"
    run(build_config("coupling-verify", overrides={"n": "1", "t": "10",
                                                   "out": str(out)}))
    with open(out / "rows.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["p"] for r in rows] == ["0.18126924692201815"]


def test_coupling_verify_box_guard():
    with pytest.raises(ValueError, match="^n: coupling-verify takes one box side"):
        build_config("coupling-verify", overrides={"n": "4"})


@pytest.mark.parametrize("argv", [
    ["coupling-verify", "--n", "4"],
    ["coupling-verify", "--n", "2,3"],
    ["duality-verify", "--n", "1"],
    ["duality-verify", "--n", "5"],
    ["enumerate", "--n", "5"],
])
def test_cli_exact_sides_exit_2(argv, capsys):
    assert cli_main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith("n:")


def test_cli_fss_freq_defaults_exit_2(capsys):
    assert cli_main(["fss-freq"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith("p:")


@pytest.mark.parametrize("argv, key", [
    (["fk-sample", "--p", "none"], "p"),
    (["surgery-demo", "--p", "none"], "p"),
    (["tail-fit", "--p", "none"], "p"),
    (["enumerate", "--variant", "foo"], "variant"),
    (["tail-fit", "--n", "4", "--v", "100"], "v"),
    (["fss-freq", "--p", "0.3"], "p"),
    (["fk-sample", "--q", "1.5"], "q"),
    (["tail-fit", "--q", "3"], "q"),
    (["tail-fit", "--n", "8,16"], "n"),
    (["fss-freq", "--p", "0.6", "--q", "3", "--bc", "0"], "q"),
    (["fss-freq", "--p", "0.6", "--bc", "0"], "bc"),
])
def test_cli_command_rules_exit_2(argv, key, tmp_path, capsys):
    out = tmp_path / "never"
    assert cli_main(argv + ["--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith(f"{key}:")
    assert not out.exists()


def test_cli_empty_variant_in_config_file_exit_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("variant =\n", encoding="utf-8")
    assert cli_main(["enumerate", "--config", str(path)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith("variant:")


@pytest.mark.parametrize("argv", [
    ["surgery-demo", "--a", "1.5", "--n", "12"],
    ["surgery-demo", "--a", "2"],
    ["fss-freq", "--a", "1.5", "--n", "16", "--p", "0.6"],
    ["fss-freq", "--a", "1.5"],  # checked before the fixed point of p
])
def test_cli_exponent_outside_range_exit_2(argv, capsys):
    assert cli_main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith("a:")


@pytest.mark.parametrize("command", ["soc-run", "soc-compare", "enumerate"])
@pytest.mark.parametrize("a", ["0", "-1", "nan", "inf"])
def test_cli_exponent_not_finite_and_positive_exit_2(command, a, tmp_path,
                                                     capsys):
    out = tmp_path / "never"
    assert cli_main([command, "--a", a, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith("a:")
    assert not out.exists()


# a command that reads each key, with the other settings it needs; nan
# must fail each check as inf does
_NON_FINITE = [
    ("coupling-verify", "t", {}),
    ("duality-verify", "q", {}),
    ("fk-sample", "q", {"method": "single-bond"}),
    ("surgery-demo", "delta", {}),
    ("fss-freq", "delta", {"p": "0.6"}),
    ("surgery-demo", "k_budget", {}),
]


@pytest.mark.parametrize("command, key, extra", _NON_FINITE)
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_build_config_rejects_non_finite_values(command, key, extra, bad):
    with pytest.raises(ValueError, match=f"^{key}: .*finite"):
        build_config(command, overrides={**extra, key: bad})


@pytest.mark.parametrize("command, key, extra", _NON_FINITE)
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_non_finite_values_exit_2(command, key, extra, bad, tmp_path,
                                      capsys):
    out = tmp_path / "never"
    argv = [command, "--out", str(out)]
    for k, v in {**extra, key: bad}.items():
        argv += [f"--{k.replace('_', '-')}", v]
    assert cli_main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith(f"{key}:")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["soc-run", "--tau", "0"], "tau: must be >= 1"),
    (["soc-run", "--total", "0"], "total: must be >= 1"),
    (["fk-sample", "--thin", "0"], "thin: must be >= 1"),
    (["fk-sample", "--samples", "0"], "samples: must be >= 1"),
    (["surgery-demo", "--delta", "0"], "delta: must be finite and > 0"),
    (["surgery-demo", "--k-budget", "0"], "k_budget: must be finite and > 0"),
    (["coupling-verify", "--t", "-1"], "t: must be finite and >= 0"),
    (["duality-verify", "--q", "0.5"], "q: must be finite and >= 1"),
])
def test_cli_split_messages_name_one_key(argv, message, capsys):
    assert cli_main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith(message)


def test_cli_success_and_json_line(tmp_path, capsys):
    out = tmp_path / "cli"
    code = cli_main(["enumerate", "--n", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["ok"] is True
    assert payload["n_rows"] == 2  # one free interior spin
    assert (out / "rows.csv").exists()


def test_cli_print_config(capsys):
    code = cli_main(["soc-run", "--n", "8,12", "--tau", "16",
                     "--print-config"])
    assert code == 0
    lines = dict(
        line.split(" = ", 1)
        for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["command"] == "soc-run"
    assert lines["n"] == "8,12"
    assert lines["tau"] == "16"
    assert lines["t"] == "none"


def test_cli_config_error_exit_2(capsys):
    code = cli_main(["fk-sample", "--bc", "7"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith("bc")


def test_cli_bad_config_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense = 1\n", encoding="utf-8")
    code = cli_main(["soc-run", "--config", str(path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == "unknown config key: nonsense"


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("samples = 40\np = 0.5\n", encoding="utf-8")
    code = cli_main(["fk-sample", "--config", str(path), "--p", "0.45",
                     "--print-config"])
    assert code == 0
    lines = dict(
        line.split(" = ", 1)
        for line in capsys.readouterr().out.strip().splitlines()
    )
    assert lines["p"] == "0.45" and lines["samples"] == "40"


def test_cli_runtime_error_exit_1(tmp_path, capsys, monkeypatch):
    out = tmp_path / "never"
    monkeypatch.setitem(experiments._RUNNERS, "tail-fit", _failing_runner)
    code = cli_main(["tail-fit", "--n", "4", "--samples", "5",
                     "--out", str(out)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "runtime", "message": "runner failed"}
    assert not out.exists()


def test_cli_flags_mirror_config_fields():
    # one flag per config key, in declaration order, so a new key cannot
    # drift between the parser and ExperimentConfig
    own = {"help", "command", "config", "print_config"}
    actions = [a for a in cli._build_parser()._actions if a.dest not in own]
    keys = [f.name for f in fields(ExperimentConfig) if f.name != "command"]
    assert [a.dest for a in actions] == keys
    # and every key's annotation is a type the config-file parser handles
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    for key in keys:
        assert types[key].removesuffix(" | None") in experiments._PARSERS, key
    for a in actions:
        assert a.option_strings == ["--" + a.dest.replace("_", "-")]


def test_cli_main_calls_in_one_process_match_separate_runs(tmp_path, capsys):
    # the parser is built once per process; flags of one call must not
    # reach the next (the first call's --method and --q would change the
    # second's rows), and a rejected call leaves the parser as it was
    calls = [
        ["fk-sample", "--n", "6", "--q", "1.5", "--p", "0.6", "--method",
         "single-bond", "--samples", "6", "--burn-in", "3", "--seed", "4"],
        ["fk-sample", "--n", "6", "--p", "0.6", "--samples", "6",
         "--burn-in", "3", "--seed", "4"],
        ["soc-run", "--n", "5", "--tau", "4", "--total", "64", "--seed", "1"],
    ]
    outs = [tmp_path / str(i) for i in range(len(calls))]
    src = str(Path(soc_ising.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    separate = []
    for argv, out in zip(calls, outs):
        subprocess.run([sys.executable, "-m", "soc_ising.cli", *argv,
                        "--out", str(out)], check=True, capture_output=True,
                       env=env, timeout=120)
        separate.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert cli_main(["fk-sample", "--bc", "7"]) == 2
    for argv, out in zip(calls, outs):
        assert cli_main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    for out, files in zip(outs, separate):
        assert set(files) == {"metadata.json", "rows.csv", "summary.json"}
        assert {f.name: f.read_bytes() for f in out.iterdir()} == files
    assert separate[0]["rows.csv"] != separate[1]["rows.csv"]


def test_cli_rejects_runs_without_records(capsys):
    code = cli_main(["soc-run", "--tau", "32", "--total", "10"])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config"
    assert err["message"].startswith("total")
    with pytest.raises(ValueError, match="burn_in"):
        build_config("soc-run", overrides={"tau": "32", "total": "64",
                                           "burn_in": "2"})
    with pytest.raises(ValueError, match="burn_in"):
        build_config("soc-compare", overrides={"total": "50",
                                               "burn_in": "50"})


def test_degenerate_summary_is_strict_json(tmp_path, capsys):
    out = tmp_path / "tail"
    code = cli_main(["tail-fit", "--n", "4", "--p", "0.0", "--out", str(out)])
    assert code == 0

    def reject(name):
        raise ValueError(f"non-finite constant {name} in summary.json")

    text = (out / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(text, parse_constant=reject)
    assert summary["degenerate"] is True
    assert summary["psi_hat"] is None


def test_cli_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli_main(["frobnicate"])


def test_run_soc_compare_summary_shape(tmp_path):
    out = tmp_path / "cmp"
    cfg = build_config("soc-compare", overrides={"n": "4", "total": "400",
                                                 "burn_in": "50",
                                                 "out": str(out)})
    result = run(cfg)
    variants = {c["variant"] for c in result["cells"]}
    assert variants == {"mu-prime", "mu-prime-naive"}
    assert result["n_rows"] == 2 * 400
    for c in result["cells"]:
        assert math.isfinite(c["mean_T"]) and c["mean_T"] > 0


# each command at a small size that still takes its main path: the
# surgery succeeds and the tail fit is not degenerate
SMALL_RUNS = [
    ["soc-run", "--n", "8", "--tau", "2", "--total", "40"],
    ["soc-compare", "--n", "6", "--total", "40"],
    ["fk-sample", "--n", "4", "--samples", "5", "--burn-in", "5"],
    ["coupling-verify", "--n", "2"],
    ["duality-verify", "--n", "2"],
    ["surgery-demo", "--n", "12", "--samples", "2", "--burn-in", "5"],
    ["enumerate", "--n", "2"],
    ["fss-freq", "--n", "8", "--p", "0.6", "--samples", "5", "--burn-in", "5"],
    ["tail-fit", "--n", "24", "--samples", "200", "--burn-in", "20"],
]


def test_package_imports_without_scipy(tmp_path):
    # every command runs through cli.main in one fresh interpreter (the
    # test modules themselves import scipy) where `import scipy` fails
    assert sorted(argv[0] for argv in SMALL_RUNS) == sorted(experiments.COMMANDS)
    src = str(Path(soc_ising.__file__).resolve().parents[1])
    code = ("import json, sys; sys.modules['scipy'] = None; "
            "sys.path.insert(0, sys.argv[1]); from soc_ising.cli import main; "
            "print(json.dumps({argv[0]: main(argv + ['--out', sys.argv[3] + '/' + argv[0]]) "
            "for argv in json.loads(sys.argv[2])}))")
    proc = subprocess.run([sys.executable, "-c", code, src, json.dumps(SMALL_RUNS),
                           str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == {argv[0]: 0 for argv in SMALL_RUNS}
    for argv in SMALL_RUNS:
        assert (tmp_path / argv[0] / "summary.json").is_file(), argv[0]


def test_fss_freq_records_p_once(tmp_path):
    out = tmp_path / "fss"
    cfg = build_config("fss-freq", overrides={"n": "12", "p": "0.62",
                                              "samples": "3", "burn_in": "2",
                                              "out": str(out)})
    result = run(cfg)
    with open(out / "rows.csv", newline="", encoding="utf-8") as fh:
        head = next(csv.reader(fh))
    meta = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert "p" not in head and meta["columns"] == head
    assert meta["config"]["p"] == "0.62"
    assert [cell["p"] for cell in result["per_n"]] == [0.62]
