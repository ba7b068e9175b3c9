"""Source-level rules of the package layout: modules share helpers only
through public names, import nothing they do not use, every sampled law
runs through one loop, generated code has one cache, integrate_ivp is
called with positional arguments only, and no module touches a global
random state."""

import ast
import os
import re

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "febvp")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def parse(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


@pytest.mark.parametrize("name", MODULES)
def test_no_private_names_imported_across_modules(name):
    private = [f"line {node.lineno}: from .{node.module} import {a.name}"
               for node in ast.walk(parse(name))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for a in node.names if a.name.startswith("_")]
    assert not private, private


def exported(tree):
    """The names a literal ``__all__`` lists, or None when ``__all__`` is
    computed (the package's ``__init__`` exports every public name)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["__all__"]):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return None
    return set()


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = parse(name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names = exported(tree)
    unused = [f"line {line}: {imp}" for imp, line in imported.items()
              if imp not in used
              and (imp.startswith("_") if names is None else imp not in names)]
    assert not unused, unused


def test_one_sample_loop_over_spec_count():
    loops = [(name, node.lineno) for name in MODULES
             for node in ast.walk(parse(name))
             if isinstance(node, ast.For)
             and isinstance(node.iter, ast.Call)
             and ast.unparse(node.iter) == "range(spec.count)"]
    assert [name for name, _ in loops] == ["functional_laws.py"], loops


def _is_dimension(node):
    # n, len(...), or a .dim, .ndim or .shape attribute
    return ((isinstance(node, ast.Name) and node.id == "n")
            or (isinstance(node, ast.Attribute) and node.attr in ("dim", "ndim", "shape"))
            or (isinstance(node, ast.Call) and ast.unparse(node.func) == "len"))


def _is_literal(node):
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def test_one_newton_path_for_every_dimension():
    # solve_neumann and end_value run the same float operations in every
    # dimension: no comparison of a dimension with a literal (n == 1,
    # cond.dim == 1, a.shape == (1,)) picks a path.  Comparing the
    # conditions' dimension with the ode's is validation, not a fork.
    tree = parse("bvp_shooting.py")
    found = []
    for scope, node in _qualified_nodes(tree):
        if scope.split(".")[0] in ("solve_neumann", "end_value") and isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(_is_dimension, sides)) and any(map(_is_literal, sides)):
                found.append((scope, ast.unparse(node), node.lineno))
    assert not found, found
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"solve_neumann", "end_value"} <= defined


def test_no_cache_decorator_but_on_the_cli_parser():
    # Generated functions have one home, ode_core.CodeCache; only the
    # argument parser, built once per process, is cached by functools.
    cached = [(name, node.name) for name in MODULES
              for node in ast.walk(parse(name))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for decorator in node.decorator_list
              if ast.unparse(getattr(decorator, "func", decorator)).split(".")[-1]
              in ("cache", "lru_cache")]
    assert cached == [("cli.py", "build_parser")], cached


@pytest.mark.parametrize("name", MODULES)
def test_no_global_random_state(name):
    # Every draw comes from a seeded functional_laws.Splitmix64: no module
    # imports random or numpy.random, or reaches numpy.random as np.random.
    names = []
    for node in ast.walk(parse(name)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names += [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(ast.unparse(node))
    found = [n for n in names if n.split(".")[0] == "random"
             or n.split(".")[:2] in (["numpy", "random"], ["np", "random"])]
    assert not found, found


def _qualified_nodes(tree):
    """(qualified name of the enclosing def or class, node) of every node."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from walk(child, inner)
    return walk(tree, "")


@pytest.mark.parametrize("name", ["ode_core.py", "bvp_shooting.py"])
def test_no_blas_or_lapack_on_the_solve_path(name):
    # BLAS and LAPACK round as the CPU's kernel does, so the integrator and
    # the shooting solve compute in floats and NumPy elementwise operations:
    # no dot product, no matrix product and no np.linalg, in the code or in
    # the source it generates.
    found = []
    for scope, node in _qualified_nodes(parse(name)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((scope, "@", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul", "linalg"):
            found.append((scope, node.attr, node.lineno))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in ("dot", "matmul", "linalg"):
            found.append((scope, node.name, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.search(r"\bnp\.(dot|matmul|linalg)\b|\bdot\(", node.value)):
            found.append((scope, "generated source", node.lineno))
    assert not found, found


def test_integrate_ivp_takes_only_positional_arguments():
    # The benchmark's tracer wraps bvp_shooting.integrate_ivp as
    # integrate_ivp(ode, start, tau_end, *rest), so a keyword argument
    # (record=...) would break every traced run.
    calls, keywords = [], []
    for name in MODULES:
        for node in ast.walk(parse(name)):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func).split(".")[-1] == "integrate_ivp"):
                calls.append((name, node.lineno))
                if node.keywords:
                    keywords.append((name, ast.unparse(node), node.lineno))
    assert not keywords, keywords
    assert len(calls) >= 4, calls
