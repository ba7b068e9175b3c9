"""Expression parser and evaluator tests."""

import math
import struct
import traceback

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from febvp import geodesics, rhs_parser
from febvp.ode_core import CodeCache
from febvp.rhs_parser import (
    FUNCTIONS,
    BinOp,
    Call,
    EvaluationError,
    Neg,
    Num,
    Param,
    ParseError,
    UnboundReference,
    Var,
    bind,
    compile_rhs,
    eval_expr,
    parse,
    pretty,
)


def ev(text, tau=0.0, x=0.0, v=0.0, params=None, dim=1):
    names = tuple(sorted(params)) if params else ()
    return eval_expr(parse(text, dim=dim, params=names), tau, x, v, params)


def test_precedence_and_associativity():
    assert ev("2^3^2") == 512.0
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2^-3") == 0.125
    assert ev("2+3*4") == 14.0
    assert ev("2*3+4") == 10.0
    assert ev("(2+3)*4") == 20.0
    assert ev("2-3-4") == -5.0
    assert ev("12/4/3") == 1.0
    assert ev("-2-3") == -5.0


def test_functions():
    assert ev("sin(0.5)") == math.sin(0.5)
    assert ev("cos(0.5)") == math.cos(0.5)
    assert ev("tan(0.3)") == math.tan(0.3)
    assert ev("sinh(0.4)") == math.sinh(0.4)
    assert ev("cosh(0.4)") == math.cosh(0.4)
    assert ev("exp(1)") == math.e
    assert ev("log(2)") == math.log(2.0)
    assert ev("sqrt(2)") == math.sqrt(2.0)
    assert ev("abs(-3)") == 3.0


def test_variables_scalar():
    assert ev("tau + x*v", tau=1.0, x=2.0, v=3.0) == 7.0
    # dim-1 aliases
    assert ev("x1 + v1", x=2.0, v=3.0) == 5.0


def test_variables_vector():
    e = parse("x1*v2 - x2*v1", dim=2)
    got = eval_expr(e, 0.0, [1.0, 2.0], [3.0, 4.0])
    assert got == 1.0 * 4.0 - 2.0 * 3.0


def test_unknown_variable_is_parse_error():
    with pytest.raises(ParseError):
        parse("x3", dim=2)
    with pytest.raises(ParseError):
        parse("y + 1")


def test_params():
    assert ev("k^2*x + g", x=2.0, params={"k": 3.0, "g": 1.0}) == 19.0


def test_unbound_param_at_eval():
    e = parse("k*x", params=("k",))
    with pytest.raises(UnboundReference):
        eval_expr(e, 0.0, 1.0, 0.0, None)


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as err:
        parse("sin(tau")
    assert err.value.context.get("position") == 7
    assert ")" in (err.value.context.get("expected") or [])
    with pytest.raises(ParseError) as err2:
        parse("2 +")
    assert err2.value.context.get("position") == 3
    with pytest.raises(ParseError):
        parse("@")
    with pytest.raises(ParseError):
        parse("")


def test_function_arity_checked():
    with pytest.raises(ParseError):
        parse("sin(1, 2)")
    with pytest.raises(ParseError):
        parse("sin()")


def test_depth_cap_is_parse_error():
    deep = "(" * 250 + "1" + ")" * 250
    with pytest.raises(ParseError):
        parse(deep)


def test_depth_cap_counts_left_associative_chains():
    # 200 operators in a chain parse; 201 nest the tree too deep, as 201
    # right operands do.
    for op in "+-*/^":
        parse(op.join(["x"] * 201))
        with pytest.raises(ParseError, match="too deeply nested"):
            parse(op.join(["x"] * 202))
    parse("+".join(["(" + "*".join(["x"] * 100) + ")"] * 100))


def test_eval_error_kinds():
    with pytest.raises(EvaluationError) as e1:
        ev("1/x", x=0.0)
    assert e1.value.context.get("kind") == "division_by_zero"
    with pytest.raises(EvaluationError) as e2:
        ev("log(x)", x=-1.0)
    assert e2.value.context.get("kind") == "log_domain"
    with pytest.raises(EvaluationError) as e3:
        ev("sqrt(x)", x=-4.0)
    assert e3.value.context.get("kind") == "sqrt_domain"
    with pytest.raises(EvaluationError) as e4:
        ev("x^0.5", x=-1.0)
    assert e4.value.context.get("kind") == "pow_domain"
    with pytest.raises(EvaluationError) as e5:
        ev("x^-1", x=0.0)
    assert e5.value.context.get("kind") == "division_by_zero"
    with pytest.raises(EvaluationError) as e6:
        ev("exp(1000)")
    assert e6.value.context.get("kind") == "overflow"


def test_pretty_roundtrip_fixpoint():
    samples = [
        "2^3^2", "-2^2", "(-2)^2", "2^-3", "tau + x*v",
        "sin(x)*cos(v) - tan(tau)", "k^2*x + g", "-(x + v)",
        "1/(1 + x^2)", "abs(x - v)", "sqrt(x^2 + 1)",
    ]
    for text in samples:
        e = parse(text, params=("k", "g"))
        printed = pretty(e)
        again = parse(printed, params=("k", "g"))
        assert pretty(again) == printed  # fixpoint
        # same value at a probe point
        args = (0.37, 1.21, -0.64, {"k": 1.5, "g": -9.8})
        assert eval_expr(e, *args) == eval_expr(again, *args)


def test_pretty_minimal_parens():
    # variables canonicalize to their indexed names; what matters here is
    # that parens survive exactly where precedence requires them
    assert pretty(parse("-x^v")) == "-x1^v1"
    assert pretty(parse("(-x)^v")) == "(-x1)^v1"
    assert "(" in pretty(parse("(x + v)*tau"))
    assert "(" not in pretty(parse("x + v*tau"))


def test_bind_scalar_and_vector():
    f = bind(parse("k*x + v", params=("k",)), {"k": 2.0})
    assert f(0.0, 3.0, 1.0) == 7.0
    parts = [parse("x2", dim=2), parse("-x1", dim=2)]
    g = bind(parts, {})
    assert list(g(0.0, [1.0, 2.0], [0.0, 0.0])) == [2.0, -1.0]


def test_catalog_parity_spot():
    # parsed rhs and a hand-written Python lambda must agree to the bit
    e = parse("k^2*x + g", params=("g", "k"))
    rng = np.random.default_rng(3)
    for _ in range(50):
        k, g, x = rng.uniform(-3, 3, size=3)
        got = eval_expr(e, 0.0, float(x), 0.0, {"k": float(k), "g": float(g)})
        want = k ** 2 * x + g
        assert struct.pack("<d", got) == struct.pack("<d", want)


def test_fuzz_parser_never_crashes():
    rng = np.random.default_rng(99)
    alphabet = "0123456789.+-*/^()xv tau sincoqrtlgbe,_"
    for _ in range(1000):
        n = int(rng.integers(0, 30))
        chars = rng.integers(0, len(alphabet), size=n)
        text = "".join(alphabet[c] for c in chars)
        try:
            e = parse(text, dim=2, params=("k",))
            eval_expr(e, 0.5, [1.0, 2.0], [3.0, 4.0], {"k": 2.0})
        except (ParseError, EvaluationError, UnboundReference):
            pass


def test_ast_nodes_are_frozen():
    e = parse("x + 1")
    assert isinstance(e, BinOp)
    with pytest.raises(Exception):
        e.op = "-"
    assert isinstance(parse("-x"), Neg)
    assert isinstance(parse("2"), Num)
    assert isinstance(parse("x"), Var)


# ------------------------------------------- compiled against tree walk
#
# bind compiles the expressions into one function; eval_expr walks the tree
# and is the reference.  Both must give the same bits, or the same error
# class, kind or name, and position, for any tree and any point.

_num_values = (hst.floats()
               | hst.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, -1.0]))
_pos = hst.integers(0, 40)
_leaves = (hst.builds(Num, _num_values, _pos)
           | hst.builds(Var, hst.just("tau"), hst.just(0), _pos)
           | hst.builds(Var, hst.sampled_from(["x", "v"]),
                        hst.integers(1, 3), _pos)
           # "w" is never bound: UnboundReference when called
           | hst.builds(Param, hst.sampled_from(["k", "g", "w"]), _pos))
_exprs = hst.recursive(_leaves, lambda sub: (
    hst.builds(Neg, sub, _pos)
    | hst.builds(BinOp, hst.sampled_from(list("+-*/^")), sub, sub, _pos)
    | hst.builds(Call, hst.sampled_from(sorted(FUNCTIONS)), sub, _pos)),
    max_leaves=12)
_coords = hst.floats(-4.0, 4.0) | hst.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1e308, -1e-320, math.inf, math.nan])
# dim 1 (a float or a list of one), dim 2, and unbound (None)
_points = (_coords | hst.lists(_coords, min_size=1, max_size=2)
           | hst.none())


def outcome(fn, *args):
    try:
        result = fn(*args)
    except (EvaluationError, UnboundReference) as exc:
        return (type(exc), getattr(exc, "kind", None),
                getattr(exc, "name", None), exc.position)
    if isinstance(result, list):
        return [struct.pack("<d", r) for r in result]
    return struct.pack("<d", result)


@settings(max_examples=400, deadline=None)
@given(exprs=hst.lists(_exprs, min_size=1, max_size=3), tau=_coords,
       x=_points, v=_points, k=_coords, g=_coords)
def test_compiled_expressions_match_the_tree_walk(exprs, tau, x, v, k, g):
    params = {"k": k, "g": g}
    # binding never raises; an unbound name fails when called
    scalar = bind(exprs[0], params)
    vector = bind(exprs, params)
    assert (outcome(scalar, tau, x, v)
            == outcome(eval_expr, exprs[0], tau, x, v, params))
    assert outcome(vector, tau, x, v) == outcome(
        lambda: [eval_expr(e, tau, x, v, params) for e in exprs])


def test_compiled_errors_are_raised_when_called():
    f = bind(parse("x1 + w", dim=2, params=("w",)), {})
    with pytest.raises(UnboundReference) as exc:
        f(0.0, [1.0, 2.0], [0.0, 0.0])
    assert (exc.value.name, exc.value.position) == ("w", 5)
    # a constant subexpression that fails is not evaluated by bind
    g = bind(parse("x + 1/(k - 2)", params=("k",)), {"k": 2.0})
    with pytest.raises(EvaluationError) as exc:
        g(0.0, 1.0, 0.0)
    assert (exc.value.kind, exc.value.position) == ("division_by_zero", 5)


# ----------------------------------------------- the generated functions
#
# bind emits one function per expression list and compiles it through a
# bounded code cache.  These pin what the parity test above leaves to
# chance: a function's first calls, the inputs that fall back to the tree
# walk, the cache, and tracebacks through the generated lines.

def test_generated_rhs_gives_the_tree_walks_bits_from_the_first_call(
        monkeypatch):
    # A freshly compiled function runs unspecialised bytecode at first,
    # whose float multiply can give a NaN the other sign bit: (-tau)*tau
    # at tau = nan.  Every call, the first and the 200th too, must give
    # eval_expr's bits.
    monkeypatch.setattr(rhs_parser, "_CODES", CodeCache(8))
    params = {"k": 1.5, "g": -0.5}
    exprs = [parse(text, params=("k", "g"))
             for text in ("(-tau)*tau", "k^2*x + g", "x*v - tau/k", "-x")]
    bound = [(bind(e, params), lambda *p, e=e: eval_expr(e, *p, params))
             for e in exprs]
    bound.append((bind(exprs, params),
                  lambda *p: [eval_expr(e, *p, params) for e in exprs]))
    probes = [0.0, -0.0, 1.5, -2.25, 1e308, math.inf, -math.inf, -math.nan]
    points = ([math.nan] + [probes[i % len(probes)] for i in range(198)]
              + [math.nan])
    for point in points:
        for f, walk in bound:
            args = (point, point, -point)
            assert outcome(f, *args) == outcome(walk, *args), (point, f)


@pytest.mark.parametrize("text, dim, x", [
    ("x*v + tau", 1, None),
    ("x1*v1 + x2", 2, [1.0]),
    ("x*v + tau", 1, np.float64(0.5)),
    ("x*v + tau", 1, 2),
    ("x1*v1 + x2", 2, np.array([0.5, 2.0])),
    # the function reads x before it divides, the tree walk divides first
    ("1/(tau - tau) + x", 1, ["a"]),
    ("1/(tau - tau) + x", 1, [10 ** 400]),
], ids=["none", "short-list", "numpy-scalar", "int", "numpy-array",
        "string-after-a-fault", "huge-int-after-a-fault"])
def test_generated_rhs_falls_back_to_the_tree_walk(text, dim, x):
    e = parse(text, dim=dim)
    v = 0.25 if dim == 1 else [0.25, 0.75]
    assert outcome(bind(e, {}), 0.5, x, v) == outcome(eval_expr, e, 0.5, x, v)
    assert (outcome(bind([e, e], {}), 0.5, x, v)
            == outcome(lambda: [eval_expr(e, 0.5, x, v)] * 2))


def test_binding_the_same_text_again_compiles_once():
    e = parse("k*x + 1/(k - g)", params=("k", "g"))
    f = bind(e, {"k": 2.0, "g": 0.5})
    g = bind(e, {"k": 3.0, "g": 1.0})
    assert f.__code__ is g.__code__
    assert (f(0.0, 1.0, 0.0), g(0.0, 1.0, 0.0)) == (2.0 + 1 / 1.5, 3.5)


def test_evaluation_error_traceback_shows_the_generated_line():
    f = bind(parse("x + 1/(k - 2)", params=("k",)), {"k": 2.0})
    with pytest.raises(EvaluationError) as info:
        f(0.0, 1.0, 0.0)
    frame, = [frame for frame in traceback.extract_tb(info.tb)
              if frame.filename.startswith("<febvp.rhs_parser rhs")]
    assert frame.line.startswith("t0 = _div(")


class _CountingList(list):
    def __init__(self, values):
        super().__init__(values)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_bind_reads_each_variable_once_with_the_tree_walks_bits():
    e = parse("x*x + x")
    f = bind(e, {})
    for value in (0.1, -2.5, 1e200, -0.0, math.inf, 3.0):
        x = _CountingList([value])
        assert outcome(f, 0.0, x, 0.0) == outcome(eval_expr, e, 0.0, value, 0.0)
        assert x.reads == 1


def test_compile_rhs_hands_failed_reads_and_nan_to_its_fallback_only():
    lines, results = ("$t0 = $x1 * $v1",), ("$t0",)
    bare = compile_rhs(lines, results, True)
    walked = compile_rhs(lines, results, True, fallback=lambda *args: "walked")
    assert bare.kernel_source.lines == walked.kernel_source.lines == lines
    for x, error in ((None, TypeError), ([], IndexError), (["a"], ValueError),
                     ([10 ** 400], OverflowError)):
        with pytest.raises(error):
            bare(0.0, x, 1.0)
        assert walked(0.0, x, 1.0) == "walked"
    assert math.isnan(bare(0.0, math.nan, 1.0))
    assert walked(0.0, math.nan, 1.0) == "walked"
    assert bare(0.0, 1.5, 2.0) == walked(0.0, [1.5], [2.0]) == 3.0


def test_half_plane_accel_is_kept_in_the_code_cache_with_its_lines(monkeypatch):
    # The geodesic accel comes from compile_rhs, as bind's functions do: its
    # code is kept in the one cache, and a y = 0 fault shows its line.
    monkeypatch.setattr(rhs_parser, "_CODES", CodeCache(8))
    accel = geodesics.half_plane_connection().accel
    assert [entry[0].__code__ for entry in rhs_parser._CODES._entries.values()] == [accel.__code__]
    with pytest.raises(ZeroDivisionError) as info:
        accel(0.0, [0.2, 0.0], [0.7, 0.4])
    frame = traceback.extract_tb(info.tb)[-1]
    assert frame.filename.startswith("<febvp.rhs_parser rhs")
    assert frame.line == "g = -1.0 / x2"


def test_a_held_function_keeps_its_lines_after_its_entry_is_evicted():
    # The accel outlives its cache entry once more distinct sources than
    # the cache keeps have been bound; a y = 0 fault still shows its line.
    accel = geodesics.half_plane_connection().accel
    for terms in range(2, rhs_parser._CODES.size + 4):
        bind(parse("+".join(["x"] * terms)), {})
    assert accel.__code__ not in [entry[0].__code__ for entry in rhs_parser._CODES._entries.values()]
    with pytest.raises(ZeroDivisionError) as info:
        accel(0.0, [0.2, 0.0], [0.7, 0.4])
    assert traceback.extract_tb(info.tb)[-1].line == "g = -1.0 / x2"


# Trees that parse can produce: its numbers are finite and non-negative
# (a minus sign is a Neg), its variables those of dimension 2.
_parsable = hst.recursive(
    hst.builds(Num, hst.floats(min_value=0.0, allow_infinity=False))
    | hst.builds(Var, hst.just("tau"), hst.just(0))
    | hst.builds(Var, hst.sampled_from(["x", "v"]), hst.integers(1, 2))
    | hst.builds(Param, hst.sampled_from(["k", "g"])),
    lambda sub: (hst.builds(Neg, sub)
                 | hst.builds(BinOp, hst.sampled_from(list("+-*/^")), sub, sub)
                 | hst.builds(Call, hst.sampled_from(sorted(FUNCTIONS)), sub)),
    max_leaves=16)


def unplaced(result):
    """An outcome without the error's position, which parse assigns."""
    return result[:3] if isinstance(result, tuple) else result


@settings(max_examples=300, deadline=None)
@given(e=_parsable, tau=_coords, x=hst.lists(_coords, min_size=2, max_size=2),
       v=hst.lists(_coords, min_size=2, max_size=2), k=_coords, g=_coords)
def test_pretty_parse_round_trip_on_parsable_trees(e, tau, x, v, k, g):
    printed = pretty(e)
    again = parse(printed, dim=2, params=("k", "g"))
    assert pretty(again) == printed
    params = {"k": k, "g": g}
    assert (unplaced(outcome(eval_expr, again, tau, x, v, params))
            == unplaced(outcome(eval_expr, e, tau, x, v, params)))
