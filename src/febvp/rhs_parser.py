"""Expression language for user-defined right-hand sides f(tau, x, v).

A tiny arithmetic grammar parsed by precedence climbing:

    ^  (right-associative, binds tighter than unary minus)
    unary -
    *  /   (left-associative)
    +  -   (left-associative)

with parentheses, one-argument functions (sin, cos, tan, sinh, cosh, exp,
log, sqrt, abs), decimal literals with optional exponent, the variables
tau, x1..xn, v1..vn (plus aliases x, v when the dimension is 1), and named
parameters supplied at parse time.

Errors carry positions: ParseError for syntax and unknown identifiers,
UnboundReference / EvaluationError for runtime faults.  Evaluation is IEEE
double precision; division by zero, domain faults (log, sqrt, fractional
powers of negatives), and range overflow raise EvaluationError rather than
returning non-finite values silently.

eval_expr walks the tree and is the reference; bind emits the expressions
as straight-line lines, with the same results and errors.  compile_rhs is
the one generator of float-level rhs functions, bind's and the half-plane
geodesic accel's: it makes such lines one function, which carries them as
its ode_core.KernelSource for the integrator kernel to run inline.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import FebvpError
from .ode_core import CodeCache, KernelSource

__all__ = [
    "ParseError",
    "UnboundReference",
    "EvaluationError",
    "Expr",
    "Num",
    "Var",
    "Param",
    "Neg",
    "BinOp",
    "Call",
    "FUNCTIONS",
    "parse",
    "eval_expr",
    "pretty",
    "bind",
    "compile_rhs",
]


class ParseError(FebvpError):
    """Syntax or name fault at a known offset of the input string."""

    code = "parse_error"

    def __init__(self, message: str, position: int,
                 expected: tuple[str, ...] = ()):
        super().__init__(message, position=position, expected=list(expected))
        self.message = message
        self.position = position
        self.expected = list(expected)

    def __str__(self):
        base = f"{self.message} (at offset {self.position})"
        if self.expected:
            base += "; expected " + " or ".join(self.expected)
        return base


class UnboundReference(FebvpError):
    code = "unbound_reference"

    def __init__(self, name: str, position: int):
        super().__init__(f"no value bound for '{name}'",
                         name=name, position=position)
        self.name = name
        self.position = position


class EvaluationError(FebvpError):
    """Arithmetic fault during evaluation.  kind is one of
    division_by_zero, log_domain, sqrt_domain, pow_domain, overflow."""

    code = "evaluation_error"

    def __init__(self, kind: str, position: int):
        super().__init__(f"{kind} (at offset {position})",
                         kind=kind, position=position)
        self.kind = kind
        self.position = position


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = 0


@dataclass(frozen=True)
class Var:
    # kind is "tau", "x", or "v"; index is 1-based and 0 for tau.
    kind: str
    index: int
    pos: int = 0


@dataclass(frozen=True)
class Param:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    pos: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    pos: int = 0


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"
    pos: int = 0


Expr = Union[Num, Var, Param, Neg, BinOp, Call]

FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "sinh": math.sinh, "cosh": math.cosh,
    "exp": math.exp, "log": math.log, "sqrt": math.sqrt, "abs": abs,
}

_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_MAX_DEPTH = 200

# Binding powers; ^ is right-associative.
_BP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_NEG_BP = 25


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


_VAR_RE = re.compile(r"^([xv])([1-9][0-9]*)$")


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int, params: frozenset):
        self.tokens = tokens
        self.i = 0
        self.dim = dim
        self.params = params
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _enter(self, pos: int):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError("expression too deeply nested", pos)

    def parse_expr(self, min_bp: int) -> Expr:
        left = self.parse_prefix()
        # Each operator nests the tree one level deeper, on the left in a
        # chain and on the right in a right operand, and the evaluators
        # recurse as deep: every level counts until this call returns.
        entered = 0
        try:
            while True:
                tok = self.peek()
                if tok.kind != "op" or tok.text not in _BP:
                    return left
                bp = _BP[tok.text]
                if bp < min_bp:
                    return left
                self.advance()
                entered += 1
                self._enter(tok.pos)
                # right-assoc ^ reenters at its own level, others one above
                rhs = self.parse_expr(bp if tok.text == "^" else bp + 1)
                left = BinOp(tok.text, left, rhs, pos=tok.pos)
        finally:
            self.depth -= entered

    def parse_prefix(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text), pos=tok.pos)
        if tok.kind == "ident":
            return self.finish_ident(tok)
        if tok.kind == "op" and tok.text == "-":
            self._enter(tok.pos)
            try:
                operand = self.parse_expr(_NEG_BP)
            finally:
                self.depth -= 1
            return Neg(operand, pos=tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self._enter(tok.pos)
            try:
                inner = self.parse_expr(0)
            finally:
                self.depth -= 1
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                raise ParseError("unbalanced parenthesis", closing.pos,
                                 expected=(")",))
            self.advance()
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos,
                             expected=("number", "identifier", "(", "-"))
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos,
                         expected=("number", "identifier", "(", "-"))

    def finish_ident(self, tok: _Token) -> Expr:
        name = tok.text
        if name in FUNCTIONS:
            opening = self.peek()
            if not (opening.kind == "op" and opening.text == "("):
                raise ParseError(
                    f"function '{name}' takes exactly one argument",
                    opening.pos, expected=("(",))
            self.advance()
            closing = self.peek()
            if closing.kind == "op" and closing.text == ")":
                raise ParseError(
                    f"function '{name}' takes exactly one argument",
                    closing.pos, expected=("expression",))
            self._enter(tok.pos)
            try:
                arg = self.parse_expr(0)
            finally:
                self.depth -= 1
            closing = self.peek()
            if closing.kind == "op" and closing.text == ",":
                raise ParseError(
                    f"function '{name}' takes exactly one argument",
                    closing.pos, expected=(")",))
            if not (closing.kind == "op" and closing.text == ")"):
                raise ParseError("unbalanced parenthesis", closing.pos,
                                 expected=(")",))
            self.advance()
            return Call(name, arg, pos=tok.pos)
        if name == "tau":
            return Var("tau", 0, pos=tok.pos)
        if self.dim == 1 and name in ("x", "v"):
            return Var(name, 1, pos=tok.pos)
        m = _VAR_RE.match(name)
        if m and int(m.group(2)) <= self.dim:
            return Var(m.group(1), int(m.group(2)), pos=tok.pos)
        if name in self.params:
            return Param(name, pos=tok.pos)
        raise ParseError(f"unknown identifier '{name}'", tok.pos,
                         expected=("variable", "parameter", "function"))


def parse(text: str, dim: int = 1,
          params: Iterable[str] = ()) -> Expr:
    """Parse text into an Expr over dimension dim with the given parameter
    names.  Raises ParseError (with offset) on any malformed input."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not text or text.isspace():
        raise ParseError("empty expression", 0,
                         expected=("number", "identifier", "(", "-"))
    parser = _Parser(_lex(text), dim, frozenset(params))
    expr = parser.parse_expr(0)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"trailing input {trailing.text!r}", trailing.pos)
    return expr


def _component(values, index: int, name: str, pos: int) -> float:
    if isinstance(values, (int, float)) and index == 1:
        return float(values)
    try:
        return float(values[index - 1])
    except (IndexError, TypeError):
        raise UnboundReference(name, pos)


def _div(a: float, b: float, pos: int) -> float:
    if b == 0.0:
        raise EvaluationError("division_by_zero", pos)
    return a / b


def _pow(a: float, b: float, pos: int) -> float:
    try:
        result = a ** b
    except ZeroDivisionError:
        raise EvaluationError("division_by_zero", pos)
    except OverflowError:
        raise EvaluationError("overflow", pos)
    except ValueError:
        raise EvaluationError("pow_domain", pos)
    if isinstance(result, complex):
        raise EvaluationError("pow_domain", pos)
    return result


def _apply(fn: Callable[[float], float], a: float, pos: int) -> float:
    try:
        return float(fn(a))
    except OverflowError:
        raise EvaluationError("overflow", pos)
    except ValueError:
        kind = {math.log: "log_domain", math.sqrt: "sqrt_domain"}.get(fn, "pow_domain")
        raise EvaluationError(kind, pos)


def _unbound(name: str, pos: int):
    raise UnboundReference(name, pos)


def eval_expr(e: Expr, tau: float,
              x: Union[float, Sequence[float], None] = None,
              v: Union[float, Sequence[float], None] = None,
              params: Mapping[str, float] | None = None) -> float:
    """Evaluate in IEEE double precision.  x and v may be scalars (dim 1)
    or sequences; params maps parameter names to values."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.kind == "tau":
            return float(tau)
        return _component(x if e.kind == "x" else v,
                          e.index, f"{e.kind}{e.index}", e.pos)
    if isinstance(e, Param):
        if params is None or e.name not in params:
            raise UnboundReference(e.name, e.pos)
        return float(params[e.name])
    if isinstance(e, Neg):
        return -eval_expr(e.operand, tau, x, v, params)
    if isinstance(e, BinOp):
        lv = eval_expr(e.left, tau, x, v, params)
        rv = eval_expr(e.right, tau, x, v, params)
        op = e.op
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            return _div(lv, rv, e.pos)
        return _pow(lv, rv, e.pos)
    if isinstance(e, Call):
        return _apply(FUNCTIONS[e.func], eval_expr(e.arg, tau, x, v, params), e.pos)
    raise TypeError(f"not an Expr node: {e!r}")


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _BP[e.op]
    if isinstance(e, Neg):
        return _NEG_BP
    return 100


def pretty(e: Expr) -> str:
    """Render with the fewest parentheses that reparse to the same tree;
    pretty(parse(pretty(e))) == pretty(e)."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return "tau" if e.kind == "tau" else f"{e.kind}{e.index}"
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        inner = pretty(e.operand)
        if _prec(e.operand) < _NEG_BP:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(e, Call):
        return f"{e.func}({pretty(e.arg)})"
    if isinstance(e, BinOp):
        bp = _BP[e.op]
        left = pretty(e.left)
        right = pretty(e.right)
        if e.op == "^":
            # right-assoc: parenthesize an equal-or-looser left child; a bare
            # Neg on the right reparses correctly, anything looser does not
            if _prec(e.left) <= bp:
                left = f"({left})"
            if _prec(e.right) < bp and not isinstance(e.right, Neg):
                right = f"({right})"
        else:
            if _prec(e.left) < bp:
                left = f"({left})"
            if _prec(e.right) <= bp:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an Expr node: {e!r}")


# The globals every function of bind reads, besides its constants and _walk.
_NAMESPACE = {"_div": _div, "_pow": _pow, "_apply": _apply,
              "_unbound": _unbound, **FUNCTIONS}
_CODES = CodeCache(128)
_ARGUMENTS = re.compile(r"\$(tau|[xv][1-9][0-9]*)\b")


def _read(name: str) -> str:
    """The statement that reads the argument of a marked name (tau, x1,
    v2, ...) into a local of that name."""
    if name == "tau":
        return "tau = tau if type(tau) is float else float(tau)"
    kind, index = name[0], int(name[1:])
    form = f"r if type(r := {kind}[{index - 1}]) is float else float(r)"
    return f"{name} = " + (f"{kind} if type({kind}) is float else {form}" if index == 1 else form)


def compile_rhs(lines: Sequence[str], results: Sequence[str], scalar: bool,
                namespace: dict | None = None, fallback: Callable | None = None):
    """The float-level rhs(tau, x, v) that runs the ``$``-marked lines of a
    KernelSource and returns its results, a float if scalar, else a list,
    and carries that source as its ``kernel_source``.

    It reads each argument the source uses once, from floats (x1 or v1
    may be a float itself) or sequences, and strips the marks: a marked
    global is a name of namespace.  With a fallback, a call that raises
    TypeError, IndexError, ValueError or OverflowError (a read that
    fails), and one with a NaN result, return fallback(tau, x, v).  The
    code is compiled once per source into the one bounded CodeCache, and
    tracebacks show its lines for as long as a function runs it."""
    used = dict.fromkeys(_ARGUMENTS.findall(" ".join([*lines, *results])))
    body = [_read(name) for name in used] + [line.replace("$", "") for line in lines]
    values = [r.replace("$", "") for r in results]
    value = values[0] if scalar else "[" + ", ".join(values) + "]"
    if fallback is None:
        text = body
    else:
        nan = " or ".join(f"{r} != {r}" for r in values) or "False"
        text = ["try:", *("    " + line for line in body or ["pass"]),
                "except (TypeError, IndexError, ValueError, OverflowError):",
                "    return _walk(tau, x, v)", f"if {nan}:", "    return _walk(tau, x, v)"]
    source = "def rhs(tau, x, v):\n" + "".join(f"    {line}\n" for line in [*text, f"return {value}"])
    rhs = _CODES.function(source, lambda: (
        f"<febvp.rhs_parser rhs {hashlib.blake2b(source.encode(), digest_size=6).hexdigest()}>",
        source), dict(namespace or {}, _walk=fallback))
    rhs.kernel_source = KernelSource(rhs.__code__, tuple(lines), tuple(results), scalar)
    return rhs


def _emit(e: Expr, params: Mapping[str, float] | None, lines: list,
          consts: dict):
    """e's value when it needs no variable (folded by eval_expr), else the
    marked name that holds it: ``$tau``, ``$x<i>`` or ``$v<i>`` for a
    variable, and for an operation the temporary ``$t<i>`` of the line
    ``$t<i> = form`` it appends to lines: eval_expr(e)'s operations in its
    order, / ^ and functions through its helpers, over marked names.  A
    constant subexpression that faults, and an unbound parameter, raise
    when called."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Param) and params is not None and e.name in params:
        return float(params[e.name])
    if isinstance(e, Var):
        return "$tau" if e.kind == "tau" else f"${e.kind}{e.index}"
    fields = ()
    if isinstance(e, Param):
        form = f"$_unbound({e.name!r}, {e.pos})"
    elif isinstance(e, Neg):
        form, fields = "-{}", ("operand",)
    elif isinstance(e, BinOp):
        helper = {"/": "$_div", "^": "$_pow"}.get(e.op)
        form = f"{helper}({{}}, {{}}, {e.pos})" if helper else f"{{}} {e.op} {{}}"
        fields = ("left", "right")
    elif isinstance(e, Call):
        form, fields = f"$_apply(${e.func}, {{}}, {e.pos})", ("arg",)
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    values = [_emit(getattr(e, f), params, lines, consts) for f in fields]
    if fields and not any(isinstance(a, str) for a in values):
        try:
            return eval_expr(replace(e, **{f: Num(a) for f, a in zip(fields, values)}), None)
        except EvaluationError:
            pass  # raised again each time the function is called
    lines.append(f"$t{len(lines)} = " + form.format(*(_name(a, consts) for a in values)))
    return f"$t{len(lines) - 1}"


def _name(value, consts: dict) -> str:
    """A marked name, or a new global's marked name for a constant."""
    if isinstance(value, str):
        return value
    consts[f"_c{len(consts)}"] = value
    return f"$_c{len(consts) - 1}"


def bind(exprs: Sequence[Expr] | Expr, params: Mapping[str, float]):
    """Close one expression (scalar) or a per-component list (vector) over
    fixed parameter values, yielding rhs(tau, x, v): a float, or a list of
    floats, with the bits and errors of eval_expr.

    The expressions become straight-line lines (_emit), with their
    constants as globals, and compile_rhs makes them one function, whose
    kernel_source an integrator kernel runs inline: a kernel's values are
    floats, and a NaN there ends the run whatever its sign.  eval_expr
    evaluates again a call whose reads fail (None, an int, a NumPy scalar,
    a short list, a string), so faults come in its order, and one with a
    NaN result, whose sign bit a specialised float multiply may flip."""
    scalar = isinstance(exprs, (Num, Var, Param, Neg, BinOp, Call))
    parts = [exprs] if scalar else list(exprs)
    params = None if params is None else dict(params)
    lines, consts = [], {}
    results = [_name(_emit(e, params, lines, consts), consts) for e in parts]

    def walk(tau, x, v):
        values = [eval_expr(e, tau, x, v, params) for e in parts]
        return values[0] if scalar else values

    return compile_rhs(lines, results, scalar, {**_NAMESPACE, **consts}, walk)
