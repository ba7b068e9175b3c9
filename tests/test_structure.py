"""Source-level rules of the package layout: modules share helpers only
through public names, import nothing they do not use, every sampled law
runs through one loop, and generated code has one cache."""

import ast
import os

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
