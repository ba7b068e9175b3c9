"""Golden pins of every sampled law's report JSON.

tests/data/law_golden.json holds each case's to_json() output as computed
before the laws shared one sample runner; a refactor of the harness must
reproduce it bit for bit.  Regenerate it only when a law's documented draw
order or residual definition changes on purpose:

    PYTHONPATH=src python tests/test_law_golden.py
"""

import json
import math
import os
import subprocess
import sys

import pytest

from febvp import bvp_shooting
from febvp.catalog import (check_angelesco, closed_evaluator, make_ode,
                           numeric_evaluator)
from febvp.closed_forms import free_fall_F, free_fall_S
from febvp.functional_laws import (EvaluatorFailure, SampleSpec,
                                   check_boundary, check_composition,
                                   check_extension, check_lemma1_equivalence,
                                   evaluator_from_scalar)
from febvp.geodesics import (GeodesicMap, check_klapka, flat_connection,
                             half_plane_connection, jensen_midpoint_check)
from febvp.reconstruction import roundtrip_check

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "law_golden.json")

FAMILIES = {"free_fall": {}, "conic": {"k": 2.0, "g": -2.0}}
EVALUATORS = {"closed": closed_evaluator, "numeric": numeric_evaluator}
F_LAWS = {"composition": check_composition, "boundary": check_boundary,
          "extension": check_extension}


def _flaky_f(t, al, be, a, b):
    """Free fall that raises for a > 0.5 and returns inf for b < -1."""
    if a > 0.5:
        raise EvaluatorFailure("synthetic")
    return math.inf if b < -1.0 else free_fall_F(-9.8, t, al, be, a, b)


def _flaky_s(t, al, be, a, v):
    """Free fall's extension that raises on the diagonal for a < -1 and
    at the middle epsilon for v > 1."""
    if (al == be and a < -1.0) or (v > 1.0 and abs(be - al - 1e-3) < 1e-9):
        raise EvaluatorFailure("synthetic")
    return free_fall_S(-9.8, t, al, be, a, v)


def _f_law_case(law, mode, family, count=6, seed=31):
    def run():
        ev = EVALUATORS[mode](family, FAMILIES[family])
        return F_LAWS[law](ev, SampleSpec(count=count, seed=seed))
    return run


CASES = {f"{law}-{mode}-{family}": _f_law_case(law, mode, family)
         for law in F_LAWS for mode in EVALUATORS for family in FAMILIES}
CASES.update({
    "lemma1-free_fall": lambda: check_lemma1_equivalence(
        make_ode("free_fall")[0], SampleSpec(count=6, seed=32)),
    "lemma1-conic": lambda: check_lemma1_equivalence(
        make_ode("conic", FAMILIES["conic"])[0],
        SampleSpec(count=5, seed=33, alpha_beta_range=(-0.75, 0.75),
                   min_separation=0.25)),
    "boundary-closed-flaky": lambda: check_boundary(
        evaluator_from_scalar(_flaky_f), SampleSpec(count=12, seed=40)),
    "extension-closed-flaky": lambda: check_extension(
        evaluator_from_scalar(_flaky_f, _flaky_s),
        SampleSpec(count=12, seed=41)),
    "angelesco-pinned": lambda: check_angelesco(
        SampleSpec(count=8, seed=34), {"k": 1.5, "g": 2.0}),
    "angelesco-drawn": lambda: check_angelesco(SampleSpec(count=8, seed=35)),
    "klapka-flat": lambda: check_klapka(
        GeodesicMap(flat_connection()), SampleSpec(count=6, seed=36)),
    "klapka-half_plane": lambda: check_klapka(
        GeodesicMap(half_plane_connection()), SampleSpec(count=5, seed=37)),
    "jensen-flat": lambda: jensen_midpoint_check(
        GeodesicMap(flat_connection()), SampleSpec(count=6, seed=38)),
    "roundtrip-conic": lambda: roundtrip_check(
        make_ode("conic", FAMILIES["conic"])[0],
        spec=SampleSpec(count=5, seed=39, tau_range=(-1.0, 1.0),
                        ab_range=(-1.0, 1.0))),
})
# Streams of more than two draw blocks (over 1024 draws each), so that a
# sample whose draws straddle a block boundary is pinned too.
LONG_COUNTS = {"composition": 200, "boundary": 300, "extension": 250}
CASES.update({f"{law}-closed-conic-blocks": _f_law_case(law, "closed", "conic", count, 51)
              for law, count in LONG_COUNTS.items()})
CASES.update({
    "klapka-flat-blocks": lambda: check_klapka(
        GeodesicMap(flat_connection()), SampleSpec(count=160, seed=52)),
    "angelesco-drawn-blocks": lambda: check_angelesco(
        SampleSpec(count=200, seed=53)),
})


def report_json(case: str) -> list:
    bvp_shooting.clear_cache()
    reports = CASES[case]()
    if not isinstance(reports, list):
        reports = [reports]
    # a JSON round trip, so that the comparison sees what a reader sees
    return json.loads(json.dumps([r.to_json() for r in reports]))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_json_matches_golden(case, golden):
    assert report_json(case) == golden[case]


# The dim-n cases and a 2-d --ode solve, printed by a child process: one
# JSON document a line.
DIM_N_CASES = ("jensen-flat", "klapka-flat", "klapka-half_plane")
DIM_N_SCRIPT = f"""
import json, sys
sys.path.insert(0, sys.argv[1])
from febvp import cli
from test_law_golden import report_json
for case in {DIM_N_CASES!r}:
    print(json.dumps(report_json(case)))
cli.main(["solve", "--ode", "k^2*x1 + g", "--ode=-x2", "--param", "k=1.5",
          "--param", "g=0.5", "--neumann", "0", "1", "0.2,1", "-0.4,0",
          "--tau", "0.25", "--tau", "0.5", "--format", "json"])
"""
# OpenBLAS kernels of several x86 generations, and the CPU flags each needs.
OPENBLAS_KERNELS = {
    "SkylakeX": {"avx512f", "avx512bw", "avx512dq", "avx512vl"},
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "Sandybridge": {"avx"},
    "Nehalem": {"sse4_2"},
}


def test_dim_n_output_is_the_same_on_every_openblas_kernel(golden):
    # Nothing on the dim-n solve path goes through BLAS or LAPACK, so the
    # OpenBLAS kernel (OPENBLAS_CORETYPE, one per child process) must not
    # move a bit of the geodesic laws or a 2-d solve.
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = {flag for line in fh if line.startswith("flags")
                     for flag in line.split(":", 1)[1].split()}
    except OSError:
        pytest.skip("needs /proc/cpuinfo to tell which kernels the CPU runs")
    kernels = [k for k, needs in OPENBLAS_KERNELS.items() if needs <= flags]
    if len(kernels) < 2:
        pytest.skip(f"the CPU runs {len(kernels)} of the OpenBLAS kernels compared")
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(tests), "src"), env.get("PYTHONPATH")) if p)
    outputs = {}
    for kernel in kernels:
        proc = subprocess.run([sys.executable, "-c", DIM_N_SCRIPT, tests],
                              capture_output=True, text=True, timeout=300,
                              env=dict(env, OPENBLAS_CORETYPE=kernel))
        assert proc.returncode == 0, (kernel, proc.stderr)
        outputs[kernel] = proc.stdout
    first = outputs[kernels[0]]
    assert all(out == first for out in outputs.values()), kernels
    lines = first.splitlines()
    assert [json.loads(line) for line in lines[:len(DIM_N_CASES)]] == [
        golden[case] for case in DIM_N_CASES]


if __name__ == "__main__":
    doc = {case: report_json(case) for case in sorted(CASES)}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
