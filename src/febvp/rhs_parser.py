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

eval_expr walks the tree and is the reference; bind compiles each
expression once into nested closures with the same results and errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import FebvpError

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
    if values is None:
        raise UnboundReference(name, pos)
    if isinstance(values, (int, float)):
        if index != 1:
            raise UnboundReference(name, pos)
        return float(values)
    try:
        return float(values[index - 1])
    except (IndexError, TypeError):
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
            if rv == 0.0:
                raise EvaluationError("division_by_zero", e.pos)
            return lv / rv
        # op == "^"
        try:
            result = lv ** rv
        except ZeroDivisionError:
            raise EvaluationError("division_by_zero", e.pos)
        except OverflowError:
            raise EvaluationError("overflow", e.pos)
        except ValueError:
            raise EvaluationError("pow_domain", e.pos)
        if isinstance(result, complex):
            raise EvaluationError("pow_domain", e.pos)
        return result
    if isinstance(e, Call):
        av = eval_expr(e.arg, tau, x, v, params)
        try:
            return float(FUNCTIONS[e.func](av))
        except OverflowError:
            raise EvaluationError("overflow", e.pos)
        except ValueError:
            kind = {"log": "log_domain", "sqrt": "sqrt_domain"}.get(
                e.func, "pow_domain")
            raise EvaluationError(kind, e.pos)
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


def _constant(value) -> Callable:
    """A closure returning value; its ``value`` attribute marks it constant
    for _fold."""
    def f(tau, x, v):
        return value
    f.value = value
    return f


def _fold(f: Callable, *operands: Callable) -> Callable:
    """f, or f's value as a constant when its operands are constants and
    it evaluates without error: the same operation, done once."""
    if all(hasattr(g, "value") for g in operands):
        try:
            return _constant(f(None, None, None))
        except EvaluationError:
            pass  # raised again each time f is called
    return f


def _compile(e: Expr, params: Mapping[str, float] | None) -> Callable:
    """e as nested closures f(tau, x, v) with the results and errors of
    eval_expr(e, tau, x, v, params): the same operations in the same order,
    without the per-node type dispatch (closure compilation, Feeley and
    Lapalme 1987).  Parameter values are read and converted to float here,
    and subexpressions without variables are evaluated here once; an
    unbound name, or a fault in a constant subexpression, raises when f is
    called."""
    if isinstance(e, Num):
        return _constant(e.value)
    if isinstance(e, Var):
        if e.kind == "tau":
            return lambda tau, x, v: float(tau)
        i, index, name, pos = e.index - 1, e.index, f"{e.kind}{e.index}", e.pos
        # float(values[i]) for a sequence; _component for the rest (a
        # scalar, None, too short) and for its errors.
        if e.kind == "x":
            def x_component(tau, x, v):
                try:
                    return float(x[i])
                except (IndexError, TypeError):
                    return _component(x, index, name, pos)
            return x_component

        def v_component(tau, x, v):
            try:
                return float(v[i])
            except (IndexError, TypeError):
                return _component(v, index, name, pos)
        return v_component
    if isinstance(e, Param):
        name, pos = e.name, e.pos
        if params is None or name not in params:
            def unbound(tau, x, v):
                raise UnboundReference(name, pos)
            return unbound
        return _constant(float(params[name]))
    if isinstance(e, Neg):
        operand = _compile(e.operand, params)
        return _fold(lambda tau, x, v: -operand(tau, x, v), operand)
    if isinstance(e, BinOp):
        left = _compile(e.left, params)
        right = _compile(e.right, params)
        op, pos = e.op, e.pos
        if op == "+":
            def f(tau, x, v):
                return left(tau, x, v) + right(tau, x, v)
        elif op == "-":
            def f(tau, x, v):
                return left(tau, x, v) - right(tau, x, v)
        elif op == "*":
            def f(tau, x, v):
                return left(tau, x, v) * right(tau, x, v)
        elif op == "/":
            def f(tau, x, v):
                lv = left(tau, x, v)
                rv = right(tau, x, v)
                if rv == 0.0:
                    raise EvaluationError("division_by_zero", pos)
                return lv / rv
        else:
            def f(tau, x, v):
                lv = left(tau, x, v)
                rv = right(tau, x, v)
                try:
                    result = lv ** rv
                except ZeroDivisionError:
                    raise EvaluationError("division_by_zero", pos)
                except OverflowError:
                    raise EvaluationError("overflow", pos)
                except ValueError:
                    raise EvaluationError("pow_domain", pos)
                if isinstance(result, complex):
                    raise EvaluationError("pow_domain", pos)
                return result
        return _fold(f, left, right)
    if isinstance(e, Call):
        arg = _compile(e.arg, params)
        fn, pos = FUNCTIONS[e.func], e.pos
        domain = {"log": "log_domain", "sqrt": "sqrt_domain"}.get(
            e.func, "pow_domain")

        def call(tau, x, v):
            av = arg(tau, x, v)
            try:
                return float(fn(av))
            except OverflowError:
                raise EvaluationError("overflow", pos)
            except ValueError:
                raise EvaluationError(domain, pos)
        return _fold(call, arg)
    raise TypeError(f"not an Expr node: {e!r}")


def bind(exprs: Sequence[Expr] | Expr, params: Mapping[str, float]):
    """Close one expression (scalar) or a per-component list (vector) over
    fixed parameter values, yielding rhs(tau, x, v): a float, or a list of
    floats.  Each expression is compiled once into closures that give the
    bits and errors of eval_expr."""
    if isinstance(exprs, (Num, Var, Param, Neg, BinOp, Call)):
        return _compile(exprs, params)
    parts = [_compile(p, params) for p in exprs]

    def rhs_vector(tau, x, v):
        return [f(tau, x, v) for f in parts]

    return rhs_vector
