"""Source hygiene: no module of the package imports a name or takes a parameter it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "helmdual"
# __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """'line N: name' for every imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name "a"
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detector_flags_unused_names():
    source = "import os.path\nfrom json import dumps, loads as parse\nparse('1')\n"
    assert unused_imports(source) == ["line 1: os", "line 2: dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source: str) -> list[str]:
    """'function(name)' for every parameter that its function's body never reads.

    self and cls are exempt, and so are the cmd_* commands: cli.main calls
    each of them with the same arguments.
    """
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("cmd_"):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{node.name}({name})" for name in params
                   if name not in read and name not in ("self", "cls")]
    return unused


def test_detector_flags_unused_parameters():
    source = ("class A:\n    def m(self, a, b=1, *rest, c, **kw):\n        return b + c\n"
              "def f(x, y):\n    def g():\n        return y\n    return g\n"
              "def cmd_run(cfg, record):\n    return cfg\n")
    assert sorted(unused_parameters(source)) == ["f(x)", "m(a)", "m(kw)", "m(rest)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []
