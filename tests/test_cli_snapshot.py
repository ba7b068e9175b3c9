"""Pins the command line's surface as data.

tests/data/cli_snapshot.json holds every subcommand's argparse actions
(option strings, dest, nargs, type name, choices, metavar, help, default)
and the exit code and stderr JSON of each error path that test_cli.py
exercises.  Actions are compared as data, not as formatted --help text,
so that the pin holds across Python versions.  Regenerate it only when
the command line changes on purpose:

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile

import pytest

from febvp import bvp_shooting, cli

SNAPSHOT = os.path.join(os.path.dirname(__file__), "data",
                        "cli_snapshot.json")

SOLVE_AT_PI = ["solve", "--catalog", "oscillator", "--neumann", "0",
               "3.141592653589793", "0", "0", "--tau", "1"]
VERIFY_BOUNDARY = ["verify", "--catalog", "free_fall", "--laws", "boundary",
                   "--samples", "5"]
RECONSTRUCT = ["reconstruct", "--catalog", "free_fall", "--point", "0",
               "0.2", "0.3"]

# name -> (argv, config file object or None)
CASES = {
    "parse-error": (["solve", "--ode", "x +", "--neumann", "0", "1", "0",
                     "0", "--tau", "0.5"], None),
    "two-conditions": (["solve", "--catalog", "free_fall", "--neumann", "0",
                        "1", "0", "0", "--cauchy", "0", "0", "1", "--tau",
                        "0.5"], None),
    "no-condition": (["solve", "--catalog", "free_fall", "--tau", "0.5"],
                     None),
    "no-ode": (["solve", "--neumann", "0", "1", "0", "0", "--tau", "0.5"],
               None),
    "conjugate-point": (["solve", "--catalog", "oscillator", "--neumann",
                         "0", str(math.pi), "0", "0", "--tau", "1.0"], None),
    "invalid-format": (["solve", "--catalog", "free_fall", "--neumann", "0",
                        "1", "0", "0", "--tau", "0.5", "--format", "yaml"],
                       None),
    "zero-scale-scalar": (["solve", "--catalog", "oscillator", "--cauchy",
                           "0", "0", "0", "--tau", "1", "--abs-tol", "0"],
                          None),
    "zero-scale-vector": (["solve", "--ode", "x2", "--ode=-x1", "--cauchy",
                           "0", "0,0", "0,0", "--tau", "1", "--abs-tol",
                           "0"], None),
    "verify-threshold-fails": (["verify", "--catalog", "free_fall", "--laws",
                                "composition", "--mode", "closed",
                                "--samples", "20", "--seed", "1",
                                "--threshold", "composition=1e-30",
                                "--format", "json"], None),
    "verify-unknown-law": (["verify", "--catalog", "free_fall", "--laws",
                            "associativity"], None),
    "verify-spanning-pi": (["verify", "--catalog", "oscillator", "--laws",
                            "boundary", "--mode", "numeric",
                            "--singular-floor", "0.05",
                            "--alpha-beta-range", "0", "3.45",
                            "--min-separation", "2.99", "--max-interval",
                            "3.45", "--samples", "20", "--seed", "0",
                            "--format", "json"], None),
    "jensen-half-plane": (["verify", "--laws", "jensen", "--connection",
                           "half_plane", "--samples", "5"], None),
    "angelesco-unsatisfiable": (["verify", "--laws", "angelesco",
                                 "--alpha-beta-range", "0", "0.01"], None),
    "reconstruct-tight-threshold": (["reconstruct", "--catalog", "conic",
                                     "--param", "k=1", "--param", "g=0",
                                     "--point", "0", "2", "0",
                                     "--threshold", "1e-15"], None),
    "geodesic-lower-half": (["geodesic", "--connection", "half_plane",
                             "--a", "0", "-1", "--b", "1", "1", "--rho",
                             "0.5"], None),
}
for _value in ("nan", "-1"):
    CASES[f"verify-threshold-flag-{_value}"] = (
        VERIFY_BOUNDARY + ["--threshold", f"boundary={_value}"], None)
    CASES[f"reconstruct-threshold-{_value}"] = (
        RECONSTRUCT + ["--threshold", _value], None)
for _i, _thresholds in enumerate([{"boundary": math.nan}, {"boundary": -1.0},
                                  {"boundary": "-1"}, [1.0, 2.0]]):
    CASES[f"verify-thresholds-config-{_i}"] = (
        VERIFY_BOUNDARY, {"thresholds": _thresholds})
for _command, _key in [
        ("verify", "min_separation"), ("verify", "max_interval"),
        ("verify", "newton_tol"), ("verify", "rel_tol"),
        ("verify", "abs_tol"), ("verify", "singular_floor"),
        ("reconstruct", "fd_step")]:
    CASES[f"non-numeric-{_command}-{_key}"] = (
        VERIFY_BOUNDARY if _command == "verify" else RECONSTRUCT,
        {_key: "abc"})
for _key in ("newton_tol", "singular_floor"):
    for _value in ("nan", "inf", "-1", "0"):
        CASES[f"shooting-flag-{_key}-{_value}"] = (
            SOLVE_AT_PI + ["--" + _key.replace("_", "-"), _value], None)
    for _value in (math.nan, math.inf, -1.0, 0.0):
        CASES[f"shooting-config-{_key}-{_value!r}"] = (
            SOLVE_AT_PI, {_key: _value})


def _plain(value):
    return list(value) if isinstance(value, (tuple, dict)) else value


def action_record(action: argparse.Action) -> dict:
    return {
        "action": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "nargs": action.nargs,
        "type": getattr(action.type, "__name__", action.type),
        "choices": None if action.choices is None else list(action.choices),
        "metavar": _plain(action.metavar),
        "help": action.help,
        "default": action.default,
    }


def parser_actions() -> dict:
    parser = cli.build_parser()
    doc = {"": [action_record(a) for a in parser._actions]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            doc[""].append({"subcommand_help": {
                a.dest: a.help for a in action._choices_actions}})
            for name, sub in action.choices.items():
                doc[name] = [action_record(a) for a in sub._actions]
    return doc


def error_path(case: str) -> dict:
    """Exit code, whether stdout is empty, and the stderr JSON document
    (its last line; None when stderr is empty)."""
    argv, config = CASES[case]
    bvp_shooting.clear_cache()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "run.json")
            with open(path, "w", encoding="utf-8") as fh:
                # json.dumps writes NaN and Infinity, which json.load reads
                json.dump(config, fh)
            argv = argv + ["--config", path]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    lines = err.getvalue().strip().splitlines()
    doc = json.loads(lines[-1]) if lines else None
    if doc and doc["message"].startswith("argument "):
        # argparse's own message: Python versions differ in how they quote
        # the choices, so compare it without quotes
        doc["message"] = doc["message"].replace("'", "")
    return {"exit": code, "stdout_empty": out.getvalue() == "",
            "stderr": doc}


def current() -> dict:
    return {"parsers": parser_actions(),
            "errors": {case: error_path(case) for case in sorted(CASES)}}


@pytest.fixture(scope="module")
def snapshot():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", ["", "solve", "verify", "reconstruct",
                                     "geodesic"])
def test_parser_actions_match_snapshot(command, snapshot):
    assert parser_actions()[command] == snapshot["parsers"][command]


def test_snapshot_covers_every_subcommand(snapshot):
    assert sorted(parser_actions()) == sorted(snapshot["parsers"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_error_path_matches_snapshot(case, snapshot):
    assert error_path(case) == snapshot["errors"][case]


if __name__ == "__main__":
    doc = current()
    os.makedirs(os.path.dirname(SNAPSHOT), exist_ok=True)
    with open(SNAPSHOT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc['parsers'])} parsers and {len(doc['errors'])} "
          f"error paths to {SNAPSHOT}")
