"""Cold set-up time of one workload, measured in the fresh process running this file.

    python3 setup_probe.py SRC_DIR FCIDUMP [FCIDUMP ...]

Times importing ``cqesim`` from SRC_DIR plus, for every FCIDUMP, parsing
it, building its sector Hamiltonian (lowering tables included) and solving
FCI.  Then runs the calibration kernel once in the same process and prints
two numbers on one line: the set-up seconds and the kernel seconds.
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> None:
    src, paths = argv[0], [Path(p) for p in argv[1:]]
    texts = [p.read_text() for p in paths]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from cqesim import build_hamiltonian, fci_solve, parse_fcidump

    for text in texts:
        fci_solve(build_hamiltonian(parse_fcidump(text)))
    seconds = time.perf_counter() - start

    import calibrate

    print(f"{seconds!r} {calibrate.kernel_seconds()!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
