"""The command line's option table: every config key rejects a value of the
wrong type with config_error, non-finite and out-of-range flag values fail
fast, flag and file values merge as documented, and README lists the
table's keys."""

import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from febvp import cli

# A config file per subcommand that runs cleanly on its own.
BASE = {
    "solve": {"catalog": "free_fall", "cauchy": [0, 0, 0], "taus": [1.0]},
    "verify": {"catalog": "free_fall", "laws": "composition", "samples": 5},
    "reconstruct": {"catalog": "free_fall", "points": [[0, 0.2, 0.3]]},
    "geodesic": {"a": [0, 0], "b": [1, 1]},
}
KEYED = [(command, opt.key) for opt in cli._OPTIONS if opt.key
         for command in opt.commands]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_config(command, config, tmp_path, capsys, extra=()):
    path = tmp_path / "run.json"
    # json.dumps writes NaN and Infinity, which json.load reads back
    path.write_text(json.dumps(config))
    return run([command, "--config", str(path), *extra], capsys)


def assert_config_error(result):
    code, out, err = result
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "config_error"


@pytest.mark.parametrize("command", sorted(BASE))
def test_base_config_runs(command, tmp_path, capsys):
    code, out, err = run_config(command, BASE[command], tmp_path, capsys)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("command, key", KEYED,
                         ids=[f"{c}-{k}" for c, k in KEYED])
def test_every_config_key_rejects_a_wrong_type(command, key, tmp_path,
                                               capsys):
    # a list holding a list is no number, string, object, pair or list of
    # numbers, so every key must refuse it
    config = dict(BASE[command], **{key: [[]]})
    assert_config_error(run_config(command, config, tmp_path, capsys))


@pytest.mark.parametrize("command, config", [
    ("solve", {"taus": ["a"]}), ("solve", {"taus": 5}),
    ("solve", {"taus": [math.nan]}), ("solve", {"neumann": 5}),
    ("solve", {"ode": 5}), ("solve", {"params": [1, 2]}),
    ("solve", {"params": {"g": "x"}}), ("solve", {"rel_tol": -1.0}),
    ("solve", {"rel_tol": 10 ** 400}),
    ("geodesic", {"rho": ["x"]}), ("geodesic", {"rho": [math.inf]}),
    ("reconstruct", {"points": [5]}), ("reconstruct", {"fd_step": math.nan}),
    ("verify", {"laws": 5}), ("verify", {"samples": math.inf}),
    # a bool is no number, and a count has no fractional part
    ("verify", {"samples": 2.5}), ("verify", {"samples": True}),
    ("verify", {"seed": 1.9}), ("verify", {"seed": False}),
    ("solve", {"rel_tol": True}), ("solve", {"params": {"g": True}}),
], ids=lambda value: json.dumps(value)[:40] if isinstance(value, dict) else value)
def test_wrong_shape_config_value_is_config_error(command, config, tmp_path,
                                                  capsys):
    config = dict(BASE[command], **config)
    if "neumann" in config:
        del config["cauchy"]
    if "ode" in config:
        del config["catalog"]
    assert_config_error(run_config(command, config, tmp_path, capsys))


def test_integral_float_counts_run_like_integers(tmp_path, capsys):
    # 5.0 and 3.0 have no fractional part, so they count as 5 and 3
    as_float = run_config("verify", dict(BASE["verify"], samples=5.0, seed=3.0),
                          tmp_path, capsys, ["--format", "json"])
    as_int = run_config("verify", dict(BASE["verify"], seed=3), tmp_path,
                        capsys, ["--format", "json"])
    flags = run(["verify", "--catalog", "free_fall", "--laws", "composition",
                 "--samples", "5", "--seed", "3", "--format", "json"], capsys)
    assert as_float[0] == 0
    assert as_float == as_int == flags


SOLVE = ["solve", "--catalog", "free_fall", "--neumann", "0", "1", "0", "0"]
GEODESIC = ["geodesic", "--a", "0", "0", "--b", "1", "1"]
RECONSTRUCT = ["reconstruct", "--catalog", "free_fall", "--point", "0",
               "0.2", "0.3"]


@pytest.mark.parametrize("argv", [
    SOLVE + ["--tau", "nan"], SOLVE + ["--tau", "inf"],
    SOLVE + ["--tau", "-inf"], GEODESIC + ["--rho", "nan"],
    RECONSTRUCT + ["--fd-step", "-1"], RECONSTRUCT + ["--fd-step", "nan"],
    RECONSTRUCT + ["--fd-step", "inf"],
    SOLVE + ["--tau", "1", "--rel-tol", "-1"],
    SOLVE + ["--tau", "1", "--abs-tol", "nan"],
], ids=" ".join)
def test_bad_flag_value_is_config_error(argv, capsys):
    assert_config_error(run(argv, capsys))


def test_flag_and_file_params_merge(tmp_path, capsys):
    argv = ["--param", "g=0", "--neumann", "0", "1", "0", "1", "--tau", "0.5",
            "--format", "json"]
    merged = run_config("solve", {"catalog": "conic", "params": {"k": 2,
                                                                 "g": 5}},
                        tmp_path, capsys, argv)
    flags = run(["solve", "--catalog", "conic", "--param", "k=2", *argv],
                capsys)
    assert merged[0] == 0
    assert merged == flags


def test_zero_error_scale_prints_no_warning(capsys):
    # A zero error scale (0/0), and a scale of 1e-300 whose squared error
    # ratios overflow: both reject every step, with no NumPy warning.
    state = np.geterr()
    for tolerances in (["--abs-tol", "0"],
                       ["--abs-tol", "0", "--rel-tol", "1e-300"]):
        start = ["0,0", "0,0"] if len(tolerances) == 2 else ["1,1", "1,1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["solve", "--ode", "x2", "--ode=-x1",
                                  "--cauchy", "0", *start, "--tau", "1",
                                  *tolerances], capsys)
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["code"] == "step_underflow"
        assert np.geterr() == state


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_readme_lists_every_config_key():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Config keys:")
    listed = re.findall(r"`(\w+)`", text[start:text.index("\n\n", start)])
    keys = [opt.key for opt in cli._OPTIONS if opt.key]
    assert listed == list(dict.fromkeys(keys))
