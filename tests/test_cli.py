"""End-to-end command-line checks, run in process through cli.main."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from febvp import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    return code, json.loads(out) if out.strip() else None, err


def stderr_doc(err):
    return json.loads(err.strip().splitlines()[-1])


# --------------------------------------------------------------------- solve

def test_solve_two_point_example(capsys):
    code, doc, _ = run_json(["solve", "--catalog", "free_fall",
                             "--param", "g=-9.8", "--neumann", "0", "1",
                             "0", "0", "--tau", "0.5", "--format", "json"],
                            capsys)
    assert code == 0
    row = doc["rows"][0]
    assert row["tau"] == 0.5
    assert abs(row["x"] - 1.225) <= 1e-9


def test_solve_cauchy_example(capsys):
    code, doc, _ = run_json(["solve", "--catalog", "free_fall",
                             "--param", "g=-9.8", "--cauchy", "0", "0", "1",
                             "--tau", "1", "--format", "json"], capsys)
    assert code == 0
    assert abs(doc["rows"][0]["x"] - (-3.9)) <= 1e-9


def test_solve_expression_constant(capsys):
    code, doc, _ = run_json(["solve", "--ode", "0", "--neumann", "0", "1",
                             "2", "2", "--tau", "0.7", "--format", "json"],
                            capsys)
    assert code == 0
    assert abs(doc["rows"][0]["x"] - 2.0) <= 1e-12


def test_solve_vector_values_may_start_with_a_negative_number(capsys):
    # argparse alone reads "-0.3,0.4" as an unknown option
    code, doc, _ = run_json(["solve", "--ode", "x1", "--ode", "x2",
                             "--neumann", "0", "1", "0,0", "-0.3,0.4",
                             "--tau", "1", "--format", "json"], capsys)
    assert code == 0
    assert doc["rows"][0]["x"] == pytest.approx([-0.3, 0.4], abs=1e-9)


def test_solve_negative_exponent_values_and_leading_minus_expression(capsys):
    # x'' = -x from x(0) = -1e-3, v(0) = -0.5, read back at tau = -0.1
    code, doc, _ = run_json(["solve", "--ode=-x", "--cauchy", "0", "-1e-3",
                             "-.5", "--tau", "-1e-1", "--format", "json"],
                            capsys)
    assert code == 0
    row = doc["rows"][0]
    assert row["tau"] == -0.1
    assert row["x"] == pytest.approx(
        -1e-3 * math.cos(-0.1) - 0.5 * math.sin(-0.1), abs=1e-10)


def test_solve_rows_sorted_by_tau(capsys):
    code, doc, _ = run_json(["solve", "--catalog", "free_fall", "--neumann",
                             "0", "1", "0", "0", "--tau", "0.9", "--tau",
                             "0.1", "--tau", "0.5", "--format", "json"],
                            capsys)
    assert code == 0
    taus = [row["tau"] for row in doc["rows"]]
    assert taus == sorted(taus) == [0.1, 0.5, 0.9]


def test_solve_conjugate_point_exit_two(capsys):
    code, out, err = run(["solve", "--catalog", "oscillator", "--neumann",
                          "0", str(math.pi), "0", "0", "--tau", "1.0"],
                         capsys)
    assert code == 2
    assert stderr_doc(err)["code"] == "conjugate_point"


def test_parse_error_reports_position(capsys):
    code, out, err = run(["solve", "--ode", "x +", "--neumann", "0", "1",
                          "0", "0", "--tau", "0.5"], capsys)
    assert code == 1
    doc = stderr_doc(err)
    assert doc["code"] == "config_error"
    assert doc["context"]["position"] == 3


def test_solve_requires_exactly_one_condition(capsys):
    code, _, err = run(["solve", "--catalog", "free_fall", "--neumann", "0",
                        "1", "0", "0", "--cauchy", "0", "0", "1", "--tau",
                        "0.5"], capsys)
    assert code == 1
    code, _, err = run(["solve", "--catalog", "free_fall", "--tau", "0.5"],
                       capsys)
    assert code == 1


def test_solve_requires_an_ode_source(capsys):
    code, _, err = run(["solve", "--neumann", "0", "1", "0", "0", "--tau",
                        "0.5"], capsys)
    assert code == 1
    assert stderr_doc(err)["code"] == "config_error"


# -------------------------------------------------------------------- verify

def test_verify_composition_closed(capsys):
    code, doc, _ = run_json(["verify", "--catalog", "free_fall", "--laws",
                             "composition", "--mode", "closed", "--samples",
                             "100", "--seed", "42", "--format", "json"],
                            capsys)
    assert code == 0
    assert isinstance(doc, list) and len(doc) == 1
    report = doc[0]
    assert report["law"] == "composition"
    assert report["failures"] == 0
    assert report["max_residual"] <= 1e-12


_EXTENSION_REPORTS = ["extension_offdiag", "extension_diag_1e-2",
                      "extension_diag_1e-3", "extension_diag_1e-4"]


@pytest.mark.parametrize("source, laws, reports", [
    (["--catalog", "free_fall", "--mode", "numeric"], "lemma1",
     ["lemma1_agreement", "lemma1_quadrature"]),
    (["--catalog", "free_fall", "--mode", "closed"], "composition,extension",
     ["composition"] + _EXTENSION_REPORTS),
    (["--ode=-x2", "--ode=-x1", "--mode", "numeric"], "composition,extension,lemma1",
     ["composition"] + _EXTENSION_REPORTS + ["lemma1_agreement", "lemma1_quadrature"]),
])
def test_huge_value_range_fails_its_samples_without_numpy_warnings(source, laws, reports,
                                                                   capsys):
    # a + v (beta - alpha) and the data gaps overflow to inf and NaN here;
    # every sample fails, and no NumPy RuntimeWarning reaches stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, doc, err = run_json(["verify", *source, "--laws", laws, "--ab-range", "-1e308",
                                   "1e308", "--samples", "3", "--format", "json"], capsys)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert (code, err) == (2, "")
    assert [(r["law"], r["failures"], r["worst_case"]) for r in doc] == [
        (name, 3, None) for name in reports]


def test_verify_non_finite_conic_member_fails_every_sample(capsys):
    code, out, err = run(["verify", "--catalog", "conic", "--mode", "closed", "--param",
                          "k=inf", "--samples", "3"], capsys)
    assert (code, err) == (2, "")
    assert out == (
        "law          samples  max_residual  mean_residual  failures  worst_case\n"
        "composition  3        0.0           0.0            3         null\n"
        "boundary     3        0.0           0.0            3         null\n")


def test_verify_threshold_override_can_fail(capsys):
    code, doc, err = run_json(["verify", "--catalog", "free_fall", "--laws",
                               "composition", "--mode", "closed", "--samples",
                               "20", "--seed", "1", "--threshold",
                               "composition=1e-30", "--format", "json"],
                              capsys)
    assert code == 2


VERIFY_COMPOSITION = ["verify", "--catalog", "free_fall", "--laws",
                      "composition", "--samples", "3"]


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_verify_rejects_bad_max_interval(value, tmp_path, capsys):
    # A NaN cap used to be dropped silently (exit 0).
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"max_interval": float(value)}))
    for extra in ([f"--max-interval={value}"], ["--config", str(cfg)]):
        code, out, err = run(VERIFY_COMPOSITION + extra, capsys)
        assert (code, out) == (1, "")
        doc = stderr_doc(err)
        assert doc["code"] == "config_error"
        assert doc["message"] == (f"max_interval must be a number >= 0, "
                                  f"got {float(value)!r}")


@pytest.mark.parametrize("value", ["-inf", "-nan", "-infinity", "-Inf"])
def test_negative_float_names_are_values_not_options(value, capsys):
    # --tau -inf reaches the finite-number check, as --tau inf does, and
    # a range flag takes its two values.
    code, out, err = run(["solve", "--catalog", "free_fall", "--neumann",
                          "0", "1", "0", "0", "--tau", value], capsys)
    assert (code, out) == (1, "")
    doc = stderr_doc(err)
    assert doc["code"] == "config_error"
    assert doc["message"] == f"taus[0] must be a finite number, got {float(value)!r}"
    args = cli.build_parser().parse_args(
        VERIFY_COMPOSITION + ["--tau-range", value, "inf"])
    assert repr(args.tau_range) == repr([float(value), math.inf])


@pytest.mark.parametrize("extra, message", [
    (["--laws", "composition", "--tau-range", "-inf", "inf"],
     "tau range must have finite ends after domain intersection, got (-inf, inf)"),
    (["--laws", "composition", "--ab-range", "0", "inf"],
     "a/b range must have finite ends after domain intersection, got (0.0, inf)"),
    (["--laws", "klapka", "--rho-range", "0", "inf"],
     "rho_range must have finite ends, got (0.0, inf)"),
])
def test_verify_infinite_range_end_is_a_config_error(extra, message, capsys):
    # A draw on an infinite end is inf or NaN: every sample used to fail
    # (exit 2, worst_case null).
    code, out, err = run(["verify", "--catalog", "free_fall", "--samples", "3"]
                         + extra, capsys)
    assert (code, out) == (1, "")
    doc = stderr_doc(err)
    assert doc["code"] == "config_error"
    assert doc["message"] == message


def test_verify_infinite_range_end_bounded_by_the_domain(capsys):
    # conic's domain bounds tau, so an unbounded tau range is that domain.
    base = ["verify", "--catalog", "conic", "--laws", "composition",
            "--samples", "3", "--format", "json"]
    plain = run(base, capsys)
    assert plain[0] == 0
    assert run(base + ["--tau-range", "-inf", "inf"], capsys) == plain


def test_long_ode_chain_is_a_parse_error_not_a_recursion_error(capsys):
    # The evaluators recurse once per operator of a chain like x+x+...+x.
    short = "+".join(["0.001*x"] * 150)
    code, doc, _ = run_json(["solve", "--ode", short, "--cauchy", "0", "1",
                             "0", "--tau", "0.5", "--format", "json"], capsys)
    assert code == 0
    assert doc["rows"][0]["x"] == pytest.approx(math.cosh(0.5 * math.sqrt(0.15)))
    code, out, err = run(["solve", "--ode", "+".join(["x"] * 1000), "--cauchy",
                          "0", "1", "0", "--tau", "0.5"], capsys)
    assert (code, out) == (1, "")
    doc = stderr_doc(err)
    assert doc["code"] == "config_error"
    assert "expression too deeply nested" in doc["message"]


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_verify_rejects_bad_threshold_flag(value, capsys):
    code, out, err = run(["verify", "--catalog", "free_fall", "--laws",
                          "boundary", "--samples", "5", "--threshold",
                          f"boundary={value}"], capsys)
    assert code == 1
    assert out == ""
    assert stderr_doc(err)["code"] == "config_error"


@pytest.mark.parametrize("thresholds", [
    {"boundary": float("nan")}, {"boundary": -1.0}, {"boundary": "-1"},
    [1.0, 2.0]])
def test_verify_rejects_bad_thresholds_in_config(thresholds, tmp_path,
                                                 capsys):
    cfg = tmp_path / "run.json"
    # json.dumps writes NaN, which json.load reads back
    cfg.write_text(json.dumps({"thresholds": thresholds}))
    code, out, err = run(["verify", "--catalog", "free_fall", "--laws",
                          "boundary", "--samples", "5", "--config",
                          str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert stderr_doc(err)["code"] == "config_error"


@pytest.mark.parametrize("command, key", [
    ("verify", "min_separation"), ("verify", "max_interval"),
    ("verify", "newton_tol"), ("verify", "rel_tol"), ("verify", "abs_tol"),
    ("verify", "singular_floor"), ("reconstruct", "fd_step")])
def test_config_rejects_non_numeric_value(command, key, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: "abc"}))
    if command == "verify":
        argv = ["verify", "--catalog", "free_fall", "--laws", "boundary",
                "--samples", "5"]
    else:
        argv = ["reconstruct", "--catalog", "free_fall", "--point", "0",
                "0.2", "0.3"]
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    doc = stderr_doc(err)
    assert doc["code"] == "config_error"
    assert doc["message"] == f"{key} must be a real number, got 'abc'"


SOLVE_AT_PI = ["solve", "--catalog", "oscillator", "--neumann", "0",
               "3.141592653589793", "0", "0", "--tau", "1"]


@pytest.mark.parametrize("flag", ["--newton-tol", "--singular-floor"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_solve_rejects_bad_shooting_flag(flag, value, capsys):
    # A NaN tolerance is never met and a NaN or negative floor turns off
    # the conjugate-point certificate: both used to print x with exit 0.
    code, out, err = run(SOLVE_AT_PI + [flag, value], capsys)
    assert code == 1
    assert out == ""
    doc = stderr_doc(err)
    assert doc["code"] == "config_error"
    key = flag[2:].replace("-", "_")
    assert doc["message"] == (f"{key} must be a finite number > 0, "
                              f"got {float(value)!r}")


@pytest.mark.parametrize("key", ["newton_tol", "singular_floor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0])
def test_solve_rejects_bad_shooting_config(key, value, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    # json.dumps writes NaN and Infinity, which json.load reads back
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(SOLVE_AT_PI + ["--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    doc = stderr_doc(err)
    assert doc["code"] == "config_error"
    assert doc["message"] == f"{key} must be a finite number > 0, got {value!r}"


def test_zero_error_scale_is_step_underflow_in_both_kernels(capsys):
    # --abs-tol 0 on the zero solution: the dim-1 catalog solve used to end
    # in a ZeroDivisionError traceback; it now fails as the 2-d one does.
    scalar = run(["solve", "--catalog", "oscillator", "--cauchy", "0", "0",
                  "0", "--tau", "1", "--abs-tol", "0"], capsys)
    vector = run(["solve", "--ode", "x2", "--ode=-x1", "--cauchy", "0",
                  "0,0", "0,0", "--tau", "1", "--abs-tol", "0"], capsys)
    for code, out, err in (scalar, vector):
        assert code == 2
        assert out == ""
    doc = stderr_doc(scalar[2])
    assert doc["code"] == "step_underflow"
    assert doc == stderr_doc(vector[2])


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_reconstruct_rejects_bad_threshold(value, capsys):
    code, out, err = run(["reconstruct", "--catalog", "free_fall",
                          "--point", "0", "0.2", "0.3", "--threshold",
                          value], capsys)
    assert code == 1
    assert out == ""
    assert stderr_doc(err)["code"] == "config_error"


def _readme_section(title: str) -> str:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index(title)
    return text[start:text.index("\n#", start)]


def _threshold_cell(thresholds: dict) -> str:
    def num(value):
        return f"{value:.0e}".replace("e-0", "e-")

    parts = []
    for key, default in thresholds.items():
        if isinstance(default, dict):
            text = ", ".join(f"{num(v)} ({setting})"
                             for setting, v in default.items())
        else:
            text = num(default)
        parts.append(f"`{key}`: {text}")
    return "; ".join(parts)


def test_readme_threshold_table_matches_the_law_table():
    section = _readme_section("### Verification laws and default thresholds")
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip("|").split(" | ")]
            rows[cells[0].strip("`")] = cells[-1]
    assert tuple(rows) == cli.KNOWN_LAWS
    for name, law in cli._LAWS.items():
        assert rows[name] == _threshold_cell(law.thresholds), name


def test_verify_help_lists_laws_and_threshold_keys(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert ", ".join(cli.KNOWN_LAWS) in text
    keys = [k for law in cli._LAWS.values() for k in law.thresholds]
    assert ", ".join(keys) in text


def test_verify_unknown_law(capsys):
    code, _, err = run(["verify", "--catalog", "free_fall", "--laws",
                        "associativity"], capsys)
    assert code == 1
    assert stderr_doc(err)["code"] == "config_error"


def test_verify_oscillator_spanning_pi(capsys):
    code, doc, _ = run_json(["verify", "--catalog", "oscillator", "--laws",
                             "boundary", "--mode", "numeric",
                             "--singular-floor", "0.05",
                             "--alpha-beta-range", "0", "3.45",
                             "--min-separation", "2.99", "--max-interval",
                             "3.45", "--samples", "20", "--seed", "0",
                             "--format", "json"], capsys)
    assert code == 2
    assert doc[0]["failures"] > 0


def test_verify_flat_klapka(capsys):
    code, doc, _ = run_json(["verify", "--laws", "klapka", "--connection",
                             "flat", "--samples", "30", "--seed", "3",
                             "--format", "json"], capsys)
    assert code == 0
    assert doc[0]["max_residual"] <= 1e-12


def test_verify_jensen_is_flat_only(capsys):
    code, _, err = run(["verify", "--laws", "jensen", "--connection",
                        "half_plane", "--samples", "5"], capsys)
    assert code == 1


def test_verify_angelesco_unsatisfiable_range_fails_fast():
    # No pair in [0, 0.01] is min_separation (0.05) apart.  The draw gives
    # up after 1000 whole-pair attempts instead of spinning forever; run in
    # a child process so that a hang fails the test instead of stalling it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "febvp", "verify", "--laws", "angelesco",
         "--alpha-beta-range", "0", "0.01"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1
    assert stderr_doc(proc.stderr)["code"] == "config_error"


# --------------------------------------------------------------- reconstruct

def test_reconstruct_free_fall(capsys):
    code, doc, _ = run_json(["reconstruct", "--catalog", "free_fall",
                             "--point", "0.3", "-1.0", "0.7", "--format",
                             "json"], capsys)
    assert code == 0
    row = doc["rows"][0]
    assert abs(row["f_reconstructed"] - (-9.8)) <= 1e-6
    assert row["f_true"] == -9.8
    assert row["abs_err"] <= 1e-6


def test_reconstruct_linear_zero(capsys):
    code, doc, _ = run_json(["reconstruct", "--catalog", "linear_zero",
                             "--point", "0", "1", "-1", "--format", "json"],
                            capsys)
    assert code == 0
    assert doc["rows"][0]["abs_err"] <= 1e-8


def test_reconstruct_conic(capsys):
    code, doc, _ = run_json(["reconstruct", "--catalog", "conic", "--param",
                             "k=1", "--param", "g=0", "--point", "0", "2",
                             "0", "--format", "json"], capsys)
    assert code == 0
    row = doc["rows"][0]
    assert abs(row["f_reconstructed"] - 2.0) <= 1e-4
    assert row["abs_err"] <= 1e-4


def test_reconstruct_tight_threshold(capsys):
    code, _, err = run(["reconstruct", "--catalog", "conic", "--param",
                        "k=1", "--param", "g=0", "--point", "0", "2", "0",
                        "--threshold", "1e-15"], capsys)
    assert code == 2
    assert stderr_doc(err)["code"] == "reconstruction_mismatch"


def test_reconstruct_point_may_start_with_a_negative_number(capsys):
    code, doc, _ = run_json(["reconstruct", "--ode", "x1", "--ode", "x2",
                             "--point", "0", "-0.3,0.4", "0,0",
                             "--format", "json"], capsys)
    assert code == 0
    row = doc["rows"][0]
    assert row["x"] == [-0.3, 0.4]
    assert row["f_reconstructed"] == pytest.approx([-0.3, 0.4], abs=1e-8)


# ------------------------------------------------------------------ geodesic

def test_geodesic_flat_affine(capsys):
    code, doc, _ = run_json(["geodesic", "--connection", "flat", "--a", "0",
                             "0", "--b", "1", "2", "--rho", "0.25",
                             "--format", "json"], capsys)
    assert code == 0
    x, y = doc["rows"][0]["point"]
    assert abs(x - 0.25) <= 1e-10
    assert abs(y - 0.5) <= 1e-10


def test_geodesic_half_plane_semicircle(capsys):
    code, doc, _ = run_json(["geodesic", "--connection", "half_plane",
                             "--a", "-0.3", "1", "--b", "0.3", "1", "--rho",
                             "0.5", "--format", "json"], capsys)
    assert code == 0
    x, y = doc["rows"][0]["point"]
    assert abs(x) <= 1e-8
    assert abs(y - math.sqrt(1.09)) <= 1e-8


def test_geodesic_half_plane_rejects_lower_half(capsys):
    code, _, err = run(["geodesic", "--connection", "half_plane", "--a",
                        "0", "-1", "--b", "1", "1", "--rho", "0.5"], capsys)
    assert code == 1


# ------------------------------------------------------- formats & plumbing

def test_csv_output_is_rfc4180(capsys):
    code, out, _ = run(["solve", "--catalog", "free_fall", "--neumann", "0",
                        "1", "0", "0", "--tau", "0.25", "--tau", "0.75",
                        "--format", "csv"], capsys)
    assert code == 0
    assert "\r\n" in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:2] == ["tau", "x"]
    assert len(rows) == 3
    assert float(rows[1][0]) == 0.25


def test_json_runs_byte_identical(capsys):
    argv = ["verify", "--catalog", "free_fall", "--laws",
            "composition,boundary", "--mode", "closed", "--samples", "50",
            "--seed", "42", "--format", "json"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 7, "samples": 25}))
    argv_file = ["verify", "--catalog", "free_fall", "--laws", "composition",
                 "--mode", "closed", "--config", str(cfg), "--format",
                 "json"]
    argv_flags = ["verify", "--catalog", "free_fall", "--laws",
                  "composition", "--mode", "closed", "--seed", "7",
                  "--samples", "25", "--format", "json"]
    _, out_file, _ = run(argv_file, capsys)
    _, out_flags, _ = run(argv_flags, capsys)
    assert out_file == out_flags
    # an explicit flag wins over the file value
    _, out_override, _ = run(argv_file[:-2] + ["--seed", "9", "--format",
                                               "json"], capsys)
    assert out_override != out_file


def test_env_seed_default(monkeypatch, capsys):
    monkeypatch.setenv("FEBVP_SEED", "7")
    argv_env = ["verify", "--catalog", "free_fall", "--laws", "composition",
                "--mode", "closed", "--samples", "25", "--format", "json"]
    _, out_env, _ = run(argv_env, capsys)
    monkeypatch.delenv("FEBVP_SEED")
    _, out_flag, _ = run(argv_env + ["--seed", "7"], capsys)
    assert out_env == out_flag


def test_invalid_format_rejected(capsys):
    code, _, err = run(["solve", "--catalog", "free_fall", "--neumann", "0",
                        "1", "0", "0", "--tau", "0.5", "--format", "yaml"],
                       capsys)
    assert code == 1


def test_table_format_human_readable(capsys):
    code, out, _ = run(["solve", "--catalog", "free_fall", "--neumann", "0",
                        "1", "0", "0", "--tau", "0.5"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert "tau" in header and "x" in header
