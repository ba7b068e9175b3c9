"""Self-tests of the benchmark (not part of the package's test suite):

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [p for p in (HERE, SRC) if p not in sys.path]

from febvp import bvp_shooting, catalog  # noqa: E402
from febvp.bvp_shooting import NeumannConditions  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_counters_exact_on_linear_zero_solve():
    # x'' = 0 with x(0) = x(1) = 1: the secant guess u = 0 is the solution,
    # so Newton takes no step and the solve integrates twice, once for the
    # residual and once for the certification Jacobian column.
    ode, _ = catalog.make_ode("linear_zero")
    tracer = Tracer()
    tracer.install()
    try:
        result = bvp_shooting.solve_neumann(
            ode, NeumannConditions(0.0, 1.0, [1.0], [1.0]))
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert result.iterations == 0
    assert m["bvp_shooting.solves"] == 1
    assert m["ode_core.ivp_calls"] == 2
    assert m["bvp_shooting.ivps_per_solve"] == 2
    assert m["bvp_shooting.newton_iters_per_solve"] == 0
    assert m["bvp_shooting.jacobian_ivps_per_solve"] == 1
    assert m["bvp_shooting.line_search_halvings"] == 0
    assert m["bvp_shooting.cache_hit_ratio"] == 0
    # The residual run has a zero error estimate, so each step grows by the
    # controller's cap of 5 from h_init = 1e-3: 1e-3, 5e-3, 0.025, 0.125,
    # 0.625, then the 0.219 that is left.  Six accepted steps, none
    # rejected, 1 + 6 * 6 rhs evaluations.
    first = tracer.info[min(i for i, r in tracer.info.items() if "steps" in r)]
    assert first == {"steps": 6, "rhs": 37}
    assert m["ode_core.rejected_step_ratio"] == 0
    assert bvp_shooting.integrate_ivp.__module__ == "febvp.ode_core"


def _setup_digest(workload: str, seed: int) -> str:
    cmd = [sys.executable, run.__file__, "--child", "setup",
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--t0-ns", str(time.time_ns())]
    env = run.child_env()
    out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["digest"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_input_digest_follows_seed(workload):
    first = _setup_digest(workload, 11)
    assert _setup_digest(workload, 11) == first
    assert _setup_digest(workload, 12) != first


def test_request_check_rejects_a_wrong_row():
    req = next(r for r in workloads.request_pass(3)
               if r["kind"] == "solve_catalog")
    rows = [{"tau": 0.0, "x": want, "v": 0.0}
            for _, want, _ in workloads.expected_rows(req)]
    good = workloads.Outcome()
    workloads.check_request(req, 0, json.dumps({"rows": rows}), "", good)
    good.end_item(req["kind"])
    assert good.failed == 0 and good.margins[0] > 10
    rows[1]["x"] += 1e-6
    bad = workloads.Outcome()
    workloads.check_request(req, 0, json.dumps({"rows": rows}), "", bad)
    assert bad.failed == 1 and bad.codes == {"check_failed": 1}


def test_request_failure_is_counted_by_code():
    out = workloads.Outcome()
    req = workloads.request_pass(3)[0]
    stderr = json.dumps({"code": "config_error", "message": "", "context": {}})
    workloads.check_request(req, 1, "", stderr + "\n", out)
    assert out.failed == 1 and out.codes == {"config_error": 1}


def test_host_scale_follows_a_spell_and_ignores_one_outlier():
    ref = hostspeed.REFERENCE_S
    # a slow spell of 40 items at twice the kernel time, one interrupted
    # kernel run among the fast items
    kernel_s = [ref] * 40 + [2 * ref] * 40
    kernel_s[10] = 50 * ref
    scales = hostspeed.local_scales(kernel_s)
    assert scales[:30] == [1.0] * 30
    assert scales[-30:] == [0.5] * 30
