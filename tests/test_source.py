"""Source hygiene: no module of the package imports a name or takes a parameter it never
uses, calls a BLAS reduction or yields inside np.errstate, every public function has a
reader, the README and demos import only names the package has, the quick demos run, the
package namespace holds only names that programs read from it, and the README's config key
tables list exactly the keys the schema accepts and its sweep.csv table the columns the
sweep writes."""

import ast
import importlib
import itertools
import os
import re
import subprocess
import sys
import types
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import helmdual
from helmdual import runio
from helmdual.experiments import SweepRecord

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "helmdual"
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


#: reductions that numpy hands to BLAS, whose bits depend on the thread count
BLAS_REDUCTIONS = {"dot", "vdot", "inner", "einsum", "matmul", "tensordot", "vecdot"}


def blas_reductions(source: str) -> list[str]:
    """'line N: name' for every use of a BLAS reduction, as a name or an attribute, and of @."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_REDUCTIONS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in BLAS_REDUCTIONS:
            found.append((node.lineno, node.id))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detector_flags_blas_reductions():
    source = ("import numpy as np\nfrom numpy import einsum\n"
              "a = np.dot(x, y)\nb = x @ y\nx @= y\nc = x.dot(y)\nd = einsum('i,i', x, y)\n"
              "e = float(np.sum(x * y))\nf = np.linalg.vecdot\n")
    assert blas_reductions(source) == ["line 3: dot", "line 4: @", "line 5: @", "line 6: dot",
                                       "line 7: einsum", "line 9: vecdot"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_reduction_is_a_pairwise_sum(path):
    # np.sum sums pairwise with the same bits on any thread count; the 64^2 delta = 0
    # seeds once collapsed under np.dot's
    assert blas_reductions(path.read_text()) == []


def yields_under_errstate(source: str) -> list[str]:
    """'line N: yield' (or 'yield from') for every yield inside a ``with np.errstate(...)``.

    numpy's errstate is a context variable: a generator paused inside one leaves it set for
    whoever runs next, so their warnings are silenced too.  A function defined in the block
    runs in its own frame and is not searched.
    """
    found = set()

    def search(node):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            found.add((node.lineno, "yield" if isinstance(node, ast.Yield) else "yield from"))
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                search(child)

    for node in ast.walk(ast.parse(source)):
        funcs = [getattr(item.context_expr, "func", None) for item in getattr(node, "items", ())]
        if isinstance(node, ast.With) and any(
                getattr(f, "attr", getattr(f, "id", None)) == "errstate" for f in funcs):
            for stmt in node.body:
                search(stmt)
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_detector_flags_yields_under_errstate():
    source = ("import numpy as np\nfrom numpy import errstate\n"
              "def gen(x):\n"
              "    with np.errstate(over='ignore'):\n        yield x\n"
              "    with open(x), errstate(all='ignore'):\n        y = yield from x\n"
              "    with np.errstate(all='ignore'):\n"
              "        def inner():\n            yield x\n"
              "        f = lambda: (yield)\n        z = x * 2\n"
              "    with open(x):\n        yield z\n"
              "    yield y\n")
    assert yields_under_errstate(source) == ["line 5: yield", "line 7: yield from"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_yield_under_errstate(path):
    # the descent yields once per resolvent application: an errstate around its loop would
    # silence warnings for the scheduler, the partner seed and the caller
    assert yields_under_errstate(path.read_text()) == []


def readme_python() -> str:
    """The README's python block: the library quick start."""
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return block


def missing_helmdual_names(source: str) -> list[str]:
    """'module.name' for every name imported from helmdual that it does not define."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "helmdual":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    return missing


def test_detector_flags_missing_names():
    source = "from helmdual import make_grid, Nowhere\nfrom helmdual.grid import Gone\n"
    assert missing_helmdual_names(source) == ["helmdual.Nowhere", "helmdual.grid.Gone"]


DOCUMENTS = {path.name: path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))}
DOCUMENTS["README.md"] = readme_python()


@pytest.mark.parametrize("name", DOCUMENTS)
def test_documents_import_existing_names(name):
    assert missing_helmdual_names(DOCUMENTS[name]) == []


def names_read(tree: ast.AST) -> Counter:
    """How often each name is read under tree, as a variable or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def public_functions(tree: ast.Module):
    """(qualified name, definition) of each public module-level function and public method."""
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        for f in node.body if is_class else [node]:
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                yield (f"{node.name}.{f.name}" if is_class else f.name), f


def unread_functions(package: list[str], readers: list[str], keyed: list[str]) -> list[str]:
    """Qualified names of the package's public functions that nothing reads.

    A function is read where any package source outside its own body, a reader or a keyed
    source names it as a variable or an attribute, or where a word of a string constant of a
    keyed source spells it (the benchmark's tracer keys its wrappers by strings such as
    "solver.solve_from_seed").  The cmd_* commands are exempt: cli.main looks them up by name.
    """
    trees = [ast.parse(source) for source in package]
    read = sum(map(names_read, trees + [ast.parse(source) for source in readers + keyed]),
               Counter())
    words = {word for source in keyed for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for word in re.findall(r"\w+", node.value)}
    return [qualname for tree in trees for qualname, f in public_functions(tree)
            if not f.name.startswith("cmd_") and f.name not in words
            and read[f.name] <= names_read(f)[f.name]]


def test_detector_flags_unread_functions():
    package = ["def used():\n    return 1\n"
               "def recursive(n):\n    return recursive(n - 1) + used()\n"
               "def by_demo():\n    pass\n"
               "def by_key():\n    pass\n"
               "def cmd_run():\n    pass\n"
               "def _private():\n    pass\n"
               "class A:\n    def read(self):\n        pass\n    def unread(self):\n        pass\n",
               "from m import A\nA().read()\n"]
    readers = ["import m\nm.by_demo()\n"]
    keyed = ["WRAPPED = ('m.by_key',)\n"]
    assert unread_functions(package, readers, keyed) == ["recursive", "A.unread"]


#: public functions that no program reads, each kept as the reference of the tests listed
TEST_REFERENCES = {
    "gradient": ["test_acceptance.py::test_3_gradient_matches_finite_differences"],
    "nehari_t": ["test_acceptance.py::test_4_nehari_contract"],
    "KernelSpec.singular_cell_value": [
        "test_kernels.py::TestKernelSpec::test_corrected_weight_matches_singular_scale"],
}


def test_every_public_function_has_a_reader():
    # programs: the package itself, the demos and the README quick start, and the benchmark
    package = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    perfbench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    unread = unread_functions(package, list(DOCUMENTS.values()), perfbench)
    assert sorted(unread) == sorted(TEST_REFERENCES)
    for qualname, tests in TEST_REFERENCES.items():
        for test in tests:
            path, *_, name = test.split("::")
            [body] = [node for node in ast.walk(ast.parse((ROOT / "tests" / path).read_text()))
                      if isinstance(node, ast.FunctionDef) and node.name == name]
            assert names_read(body)[qualname.split(".")[-1]] > 0, test


def tracer_misses(source: str) -> list[str]:
    """The benchmark tracer's hooks that name nothing it can wrap.

    A (class, method) of its METHODS absent from the class's __dict__ makes entering the
    tracer raise KeyError, so every traced run fails; a key of its ``special`` wrappers that
    names no public function of its module is never installed, so its counter reads 0.
    """
    tree = ast.parse(source)
    assigned = {target.id: node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    missing = []
    for layer, cls_name, names in ast.literal_eval(assigned["METHODS"]):
        cls = vars(importlib.import_module(f"helmdual.{layer}")).get(cls_name)
        missing += [f"{layer}.{cls_name}.{name}" for name in names
                    if cls is None or name not in vars(cls)]
    for key in map(ast.literal_eval, assigned["special"].keys):
        layer, name = key.split(".")
        module = importlib.import_module(f"helmdual.{layer}")
        fn = vars(module).get(name)
        if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                or fn.__module__ != module.__name__):
            missing.append(key)
    return missing


def test_detector_flags_tracer_misses():
    source = ("METHODS = (('kernels', 'KernelSpec', ('evaluate', 'gone')),\n"
              "           ('functional', 'Nowhere', ('q_root',)))\n"
              "def wrapper_for():\n"
              "    special = {'solver.solve_from_seed': 1, 'solver._ground_states': 2,\n"
              "               'experiments.np': 3, 'grid.Field': 4, 'runio.gone': 5}\n")
    assert tracer_misses(source) == ["kernels.KernelSpec.gone", "functional.Nowhere.q_root",
                                     "solver._ground_states", "experiments.np", "grid.Field",
                                     "runio.gone"]


def test_tracer_hooks_name_what_they_wrap():
    # a renamed method or function would break every --trace 1 run of the benchmark
    assert tracer_misses((ROOT / "perfbench" / "tracer.py").read_text()) == []


def package_names_read(source: str) -> set[str]:
    """Every name source reads from the package, as ``from helmdual import X`` or ``helmdual.X``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "helmdual":
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "helmdual"):
            names.add(node.attr)
    return names


def test_detector_reads_package_names():
    source = ("import helmdual\nfrom helmdual import make_grid, solver\n"
              "from helmdual.grid import Grid\nhelmdual.solve_limit(1.0)\n")
    assert package_names_read(source) == {"make_grid", "solver", "solve_limit"}


def test_package_namespace_holds_only_what_programs_read():
    # the README quick start, the demos and the benchmark harness; tests import from modules
    sources = [*DOCUMENTS.values(),
               *(path.read_text() for path in sorted((ROOT / "perfbench").rglob("*.py")))]
    read = set().union(*map(package_names_read, sources))
    extra = [name for name, obj in vars(helmdual).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)
             and not (isinstance(obj, type) and issubclass(obj, Exception)) and name not in read]
    assert sorted(extra) == []


def test_readme_quick_start_runs(monkeypatch):
    # the quick start's own grid, shrunk to 64^2 on [-30, 30)^2
    make_grid = helmdual.make_grid
    monkeypatch.setattr(helmdual, "make_grid", lambda dim, *size: make_grid(dim, 30.0, 64))
    namespace = {}
    exec(compile(readme_python(), "README.md", "exec"), namespace)
    assert namespace["state"].grad_norm <= namespace["cfg"].grad_tol
    assert namespace["u"].grid == make_grid(2, 30.0, 64)


def readme_table(header: str) -> list[list[str]]:
    """The body rows of the README table under ``header``, one list of cells each."""
    body = (ROOT / "README.md").read_text().split(header + "\n", 1)[1].splitlines()[1:]
    rows = itertools.takewhile(lambda line: line.startswith("|"), body)
    return [[cell.strip().strip("`") for cell in row.strip("|").split("|")] for row in rows]


def test_readme_params_table_matches_schema():
    rows = readme_table("| experiment | key | type | required | default |")
    assert {experiment for experiment, *_ in rows} == set(runio._PARAMS)
    assert {(experiment, key) for experiment, key, *_ in rows if key != "—"} == {
        (experiment, key) for experiment, keys in runio._PARAMS.items() for key in keys}


@pytest.mark.parametrize("header, schema", [
    ("| problem key | type | required | default |", runio._PROBLEM),
    ("| coefficient key | type | required | default |", runio._COEFFICIENT),
], ids=["problem", "coefficient"])
def test_readme_problem_tables_match_schema(header, schema):
    rows = readme_table(header)
    assert [key for key, *_ in rows] == list(schema)


def test_readme_solver_table_matches_schema():
    rows = readme_table("| key | type | default |")
    assert [key for key, *_ in rows] == list(runio._SOLVER)


def test_readme_sweep_columns_match_the_record():
    rows = readme_table("| column | meaning |")
    assert [column for column, *_ in rows] == [f.name for f in fields(SweepRecord)]


def package_env() -> dict:
    """The environment with src/ first on PYTHONPATH, for a subprocess that imports helmdual."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))


# interaction_decay.py is left out: its 3D grid makes it take about 4 s
@pytest.mark.parametrize("demo, headline", [
    ("limit_ground_state.py", "ground-state level     c_0 = "),
    ("multiplicity.py", "multistart found 2 distinct state(s):"),
    ("concentration.py", "limit level c_0 = "),
])
def test_quick_demo_runs(demo, headline):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=package_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert headline in done.stdout


def test_import_leaves_hashlib_unloaded():
    # hashlib maps OpenSSL; only RunConfig.config_hash, for a run record, imports it
    probe = "import sys, helmdual, helmdual.cli; print('hashlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=package_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
