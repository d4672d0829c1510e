"""Source hygiene of the horizon package, checked on its syntax trees.

Every module of src/horizon except __init__.py must use each name it
imports, and every private module-level function or class must be
referenced somewhere in the package.  Deleting the last caller of a helper
then fails here instead of leaving dead code behind.  No module imports
scipy, and the package runs in an interpreter that refuses to load it: scipy
is a test dependency only.  Using the package loads none of numpy's lazy
submodules that it never reads (numpy.f2py, numpy.testing and unittest).
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap
from collections import Counter

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "horizon"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}


def _loaded_names(tree):
    """Names read anywhere in the tree, plus the strings listed in __all__."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def _imported_names(tree):
    """(bound name, line) for every import in the tree except __future__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _references(tree):
    """Counts of the names read, attributes taken and names imported by name."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


PACKAGE_REFS = sum((_references(tree) for tree in TREES.values()), Counter())


def test_modules_were_found():
    assert {"steering", "lifting", "cli"} <= set(TREES)


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_used(name):
    tree = TREES[name]
    used = _loaded_names(tree)
    unused = [f"{bound} (line {line})" for bound, line in _imported_names(tree)
              if bound not in used]
    assert unused == [], f"{name}.py imports names it never uses: {unused}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_private_definition_is_referenced(name):
    # a reference from inside the definition itself (recursion) does not count
    dead = [node.name for node in TREES[name].body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and PACKAGE_REFS[node.name] == _references(node)[node.name]]
    assert dead == [], f"{name}.py defines private names nothing references: {dead}"


def test_one_lambdify_site():
    # every compiled field quantity goes through one generator and one printer,
    # so the float and batch evaluations cannot drift apart in rounding
    sites = [f"{name}.py:{node.lineno}" for name, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "lambdify"]
    assert len(sites) == 1, f"sp.lambdify is called at {sites}"


def _handlers(node, where):
    """(qualified name of the enclosing definition, handler) for every except clause."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            yield where, child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _handlers(child, f"{where}.{child.name}" if named else where)


def test_one_arithmetic_error_handler():
    # one evaluation rule, Python floats and then numpy scalars, stated once;
    # the generated state run follows it by retrying the whole run
    sites = [where for name, tree in TREES.items() for where, node in _handlers(tree, name)
             if node.type is not None and "ArithmeticError" in ast.unparse(node.type)]
    assert sites == ["systems._LambdifiedStack.__call__"]


def test_no_module_imports_scipy():
    sites = [f"{p.name}:{node.lineno}" for p in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text()))
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy"
                                                     for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"]
    assert sites == [], f"scipy is imported at {sites}"


_WITHOUT_SCIPY = textwrap.dedent("""
    import importlib.abc
    import sys

    class Refuse(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is refused")

    sys.meta_path.insert(0, Refuse())
    import numpy as np
    from horizon import (TargetPath, catalog_load, cross_section, lift_path, multistart,
                         zero_signal)

    heis = catalog_load("heisenberg")
    report = multistart(heis, [0, 0, 0], [0, 0, 0.5], p=2.0, n_seeds=2, rng_seed=3, m_seed=8)
    assert report.records and report.records[0].diagnostics["gmres"]
    cross_section(heis, np.zeros(3), np.array([0.1, -0.05, 0.02]))
    path = TargetPath.from_function(lambda s: np.array([0.4 * s, 0.0, 0.05 * s]),
                                    np.linspace(0.0, 1.0, 3))
    lift_path(heis, np.zeros(3), zero_signal(2), path)
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""")


def test_the_package_runs_without_scipy():
    # a multistart (with its KKT GMRES solves), one steer and one lift in an
    # interpreter whose imports of scipy fail
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_WITHOUT_NUMPY_EXTRAS = textwrap.dedent("""
    import sys
    import numpy as np
    from horizon import (ControlSignal, TargetPath, catalog_load, catalog_names, cross_section,
                         cross_section_drift, differential, endpoint, lift_path, multistart)

    for name in (n.replace("(k)", "(3)") for n in catalog_names()):
        system = catalog_load(name)
        x = np.full(system.n, 0.1)
        y = x + 0.01 * np.arange(1, system.n + 1) / system.n
        multistart(system, x, y, p=2.0, n_seeds=1, rng_seed=3, m_seed=8)
        if system.is_driftless:
            cross_section(system, x, y)
        else:
            cross_section_drift(system, x, y, p=1.5)
        u0 = ControlSignal(np.array([0.0, 1.0]), np.zeros((1, system.d)))
        x1 = endpoint(system, x, u0)
        path = TargetPath.from_function(lambda s: x1 + 0.02 * s, np.linspace(0.0, 1.0, 3))
        lift_path(system, x, u0, path)
        u = ControlSignal(np.linspace(0.0, 1.0, 5), np.full((4, system.d), 0.3))
        differential(system, x, u, substeps=2).hessian(np.ones(system.n))
    print(sorted(m for m in ("numpy.f2py", "numpy.testing", "unittest") if m in sys.modules))
""")


def test_the_package_loads_no_numpy_module_it_never_reads():
    # a multistart, a steer, a lift and a differential with its Hessian on
    # every catalog system compile every field stack; each compiles against
    # the numpy names it prints, not a star import of numpy, which would
    # load numpy.f2py, numpy.testing and unittest with it
    out = subprocess.run([sys.executable, "-W", "error", "-c", _WITHOUT_NUMPY_EXTRAS],
                         capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
