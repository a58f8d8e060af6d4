"""The package namespace: what `import cqesim` exports, loads and documents."""

import os
import re
import subprocess
import sys
from pathlib import Path

import cqesim
from cqesim import evolution, fock, hamiltonian, models, oracle, residuals, solver

ROOT = Path(__file__).resolve().parents[1]
MODULES = (fock, hamiltonian, oracle, residuals, evolution, models, solver)


def test_package_exports_every_module_all_once():
    expected = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert cqesim.__all__ == expected
    assert len(set(cqesim.__all__)) == len(cqesim.__all__)
    for name in cqesim.__all__:
        getattr(cqesim, name)


def test_import_leaves_dense_and_sparse_linalg_unloaded():
    # scipy.linalg serves only the dense test oracle and scipy.sparse.linalg
    # only sectors above the dense cutoff; both are imported where used
    probe = (
        "import sys, cqesim; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))"
    )
    src = str(Path(cqesim.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=ROOT,
    )
    assert out.stdout.strip() == "[]"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(code, namespace)
    assert namespace["result"].status == "converged"
    assert capsys.readouterr().out.startswith("converged ")
