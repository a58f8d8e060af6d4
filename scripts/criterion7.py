"""Print the margin of acceptance criterion 7 for one checkout or two.

Usage:  python scripts/criterion7.py ROOT
        python scripts/criterion7.py ROOT_A ROOT_B

``ROOT`` is a checkout root; ``cqesim`` is imported from ``ROOT/src`` and
nothing is written there.  The script runs criterion 7's own set, every
H4 fixture x cse/hcse in exact execution with the default ``CqeConfig``,
and keeps every iterate with variance > 0 and |R| > 0 as the point
x = 2 ln|R|, y = ln variance.  It reads ``cqe_run`` records only and
checks nothing.  It prints:

* the pooled Pearson correlation of x and y and the iterate count (the
  criterion passes above 0.99);
* the number of iterates that break the criterion's variance bound
  ``variance <= |K| |R|``;
* the correlation within each band of x: [-40, -20), [-20, -10), [-10, 5);
* the correlation without the iterates below x = -25;
* the ten iterates whose removal raises the pooled correlation most.

With two roots, each is run in a fresh process of its own, both reports
are printed, and then the change in the pooled correlation.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

BANDS = ((-40.0, -20.0), (-20.0, -10.0), (-10.0, 5.0))
TAIL = -25.0  # x below which the converged tails sit
HARMFUL = 10


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.corrcoef(x, y)[0, 1])


def main(root: str) -> None:
    root = Path(root).resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    import cqesim as cq

    assert Path(cq.__file__).is_relative_to(root / "src"), cq.__file__
    labels, x, y, violations = [], [], [], 0
    for name in (n for n in cq.list_fixtures() if n.startswith("h4_")):
        integrals = cq.load_fixture(name)
        ham = cq.build_hamiltonian(integrals)
        k_norm = cq.reduced_hamiltonian_K(integrals).norm()
        for variant in ("cse", "hcse"):
            for rec in cq.cqe_run(ham, cq.CqeConfig(variant=variant)).iterations:
                violations += not rec.variance <= k_norm * rec.norm_r * (1.0 + 1e-9) + 1e-30
                if rec.variance > 0.0 and rec.norm_r > 0.0:
                    labels.append(f"{name} {variant} n={rec.n}")
                    x.append(2.0 * np.log(rec.norm_r))
                    y.append(np.log(rec.variance))
    x, y = np.array(x), np.array(y)
    pooled = _pearson(x, y)
    print(f"pooled {pooled:.4f} over {len(x)} iterates; {violations} break the variance bound")
    print("band of x = 2 ln|R|   iterates  pearson")
    for low, high in BANDS:
        inside = (low <= x) & (x < high)
        corr = f"{_pearson(x[inside], y[inside]):.3f}" if inside.sum() > 1 else "-"
        band = f"[{low:g}, {high:g})"
        print(f"{band:<20} {inside.sum():>9}  {corr}")
    kept = x >= TAIL
    print(f"without x < {TAIL:g}: {_pearson(x[kept], y[kept]):.4f} over {kept.sum()} iterates "
          f"({len(x) - kept.sum()} left out)")
    gains = [_pearson(np.delete(x, i), np.delete(y, i)) - pooled for i in range(len(x))]
    print(f"the {HARMFUL} iterates whose removal raises the pooled correlation most:")
    for i in np.argsort(gains, kind="stable")[::-1][:HARMFUL]:
        print(f"  {labels[i]:<22} x = {x[i]:7.2f}  y = {y[i]:7.2f}  {gains[i]:+.5f}")


def compare(root_a: str, root_b: str) -> None:
    """Run each root in a fresh process, print both reports, then the pooled change."""
    pooled = []
    for root in (root_a, root_b):
        command = [sys.executable, __file__, root]
        out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
        print(f"{root}:\n{out}")
        pooled.append(float(out.split()[1]))
    print(f"pooled {pooled[0]:.4f} -> {pooled[1]:.4f} ({pooled[1] - pooled[0]:+.4f})")


if __name__ == "__main__":
    if len(sys.argv) == 2:
        main(sys.argv[1])
    elif len(sys.argv) == 3:
        compare(sys.argv[1], sys.argv[2])
    else:
        raise SystemExit(__doc__)
