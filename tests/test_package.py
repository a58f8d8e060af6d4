"""The package namespace: what `import cqesim` exports, loads and documents."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import cqesim
from cqesim import evolution, fock, hamiltonian, models, oracle, residuals, solver

ROOT = Path(__file__).resolve().parents[1]
MODULES = (fock, hamiltonian, oracle, residuals, evolution, models, solver)
PACKAGE = Path(cqesim.__file__).resolve().parent


def test_package_exports_every_module_all_once():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert cqesim.__all__ == expected
    assert len(set(cqesim.__all__)) == len(cqesim.__all__)
    for name in cqesim.__all__:
        getattr(cqesim, name)


def _python(*args):
    """Run a fresh interpreter on the package under test; its completed process."""
    src = str(Path(cqesim.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=ROOT,
    )


def test_set_up_and_runs_import_no_scipy_package():
    # the package loads scipy's sparsetools extension by itself; scipy is
    # imported only by ARPACK's branch of fci_solve, SparseOperator.matrix and
    # the public SparseOperator constructor, and nothing below reaches them
    probe = """
import sys
from cqesim import (
    CqeConfig, EstimatorConfig, PairingModel, build_hamiltonian,
    build_pairing_hamiltonian, cqe_run, fci_solve, list_fixtures, load_fixture,
)
hams = {name: build_hamiltonian(load_fixture(name)) for name in list_fixtures()}
hams["pairing"] = build_pairing_hamiltonian(PairingModel())
for ham in hams.values():
    fci_solve(ham)
for execution in ("exact", "dilated", "sampled"):
    estimator = EstimatorConfig(shots=4000, seed=3) if execution == "sampled" else None
    config = CqeConfig(execution=execution, max_iterations=3, estimator=estimator)
    assert cqe_run(hams["h4_d1.40"], config).iterations
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from scipy.sparse import _sparsetools  # a later scipy.sparse takes the package's module
print(_sparsetools is sys.modules["cqesim.fock"]._sparsetools)
"""
    loaded, shared = _python("-c", probe).stdout.split("\n")[:2]
    # no scipy, scipy.sparse, scipy.sparse.linalg or scipy.linalg: the extension alone
    assert loaded == "['scipy.sparse._sparsetools']"
    assert shared == "True"


def test_cli_run_imports_no_scipy_package():
    # -X importtime lists every module the import system loads; the
    # sparsetools extension is loaded around it, so no scipy line appears
    done = _python("-X", "importtime", "-m", "cqesim", "run", "--fcidump", "h4_d1.40")
    assert json.loads(done.stdout)["status"] == "converged"
    lines = done.stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
    assert "cqesim.solver" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["result"].status == "converged"
    assert capsys.readouterr().out.startswith("converged ")


def _private_definitions(tree):
    """Each module-level private function, class and constant of a module
    (not a dunder name) with the line span of its definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, (node.lineno, node.end_lineno)


def _loads(tree):
    """(name, line) of every name or attribute that a module's code reads;
    import lines bind names and read none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def test_package_runs_every_private_definition():
    # the package ships only code it runs: a private function, class or
    # constant that only tests or its own definition read belongs in tests/
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    loads = {name: list(_loads(tree)) for name, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, (first, last) in _private_definitions(tree):
            used = any(
                loaded == name and not (other == module and first <= line <= last)
                for other, reads in loads.items()
                for loaded, line in reads
            )
            if not used:
                unused.append(f"{module}:{first} {name}")
    assert not unused
