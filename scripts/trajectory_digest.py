"""Print one digest per run, residual, 2-RDM, estimate, set of reference matrices and CLI call, to compare two checkouts.

Usage:  python scripts/trajectory_digest.py SRC_DIR
        python scripts/trajectory_digest.py SRC_A SRC_B

With one directory, ``cqesim`` is imported from ``SRC_DIR`` (a checkout's
``src`` directory), and one line per case goes to stdout: the case label
and a SHA-256 of its outcome.  With two, each directory is digested in a
process of its own, the label of every case whose lines differ is printed
(with both sides' status and record count where those differ too), then
the count of differing lines, and last one summary line: the differing
lines counted by kind and setting (``run SETTING``, ``estimate SETTING``,
or the kind of any other line, e.g. ``cli``) and the number of runs whose
status and whose record count changed.  The exit status is 1 on any
difference, 0 when all lines are equal.  A run's line also shows its status and its number of iteration
records before the digest, e.g. ``run h4_d1.00 acse exact converged 92
<sha>``, so a diff of two checkouts shows which runs changed iteration
count.  A run's digest covers the status, every field of every iteration
record as ``float.hex``, the final state's amplitude bytes and the result's
energy, residual norm, variance and success probability.  The digest of a
residual, a 2-RDM or an estimate covers the bytes of the returned tensor.  Every number is hashed
plus 0.0, which maps -0.0 to +0.0 and leaves every other value as it is:
the sign of an exact zero is not part of an outcome.

The cases:

* every bundled fixture x cse/hcse/acse, in exact execution, in dilated
  execution with the default policy, with epsilon = 0.05 "wolfe" and with
  a reset after every slice (``DilationPolicy(reset_mode="every_k",
  max_steps_between_resets=1)``, setting ``dilated-cap1``, where every
  unitary factor and V-step starts from an untouched ancilla), and in
  exact execution with ``LineSearch("fixed", 0.3)``;
* sampled runs with 16 000 shots, 12 iterations and seeds 5 and 9 on
  h2_d0.74, h4_d1.40 and h4_d2.00, each variant, at the default probe
  delta and, with seed 5, at delta = -0.07 and with
  ``LineSearch("fixed", 0.3)``;
* ``estimate_residual_w`` on four fixtures x three states (Hartree-Fock, a
  random real and a random complex one) x three variants x {delta = 1e-3,
  delta = -0.07, 500 shots, 16 000 shots}, and on the same fixtures and
  states the exact ``residual`` of each variant (``residual STEM STATE
  VARIANT <sha>``), ``compute_2rdm`` of each state (``rdm2 STEM STATE
  <sha>``) and the transition ``compute_2rdm(real, complex)`` (``rdm2 STEM
  real,complex <sha>``);
* the complex Hamiltonians ``U H U^+`` of h4_d1.40 and h4_d2.00 under one
  fixed orbital phase a_p -> exp(i phi_p) a_p (stem ``STEM~phased``) x
  cse/hcse/acse, in exact and dilated execution and sampled with 16 000
  shots, 12 iterations and seed 5.  Each is built by the orbital-phase
  oracle of this repository's ``tests/_oracles.py`` through the checkout's
  public ``SparseOperator`` constructor from a complex CSR matrix, which
  every checkout takes as given, so both sides run the same arrays;
* the default ``PairingModel`` (stem ``pairing~START``) from
  ``equator_state(model, 0.3)`` and from ``SpherePoint(0.6, 0.64, 0.48)``
  x cse/hcse/acse, in exact and dilated execution and sampled with 4 000
  shots, 8 iterations and seed 3;
* the reference paths of every bundled fixture and of the default
  ``PairingModel`` (stem ``pairing``), one line each, ``reference STEM
  <sha>``: the bytes of the Hamiltonian's ``dense()`` and ``diagonal``,
  of ``canonical_elements(n)``, and of ``pair_excitation_matrix`` at
  every canonical element (i, j, k, l) and at its swapped orders
  (j, i, k, l) and (i, j, l, k);
* a fixed battery of ``cqesim`` command lines (``CLI_BATTERY``), each run
  in-process through ``cli.main``, one line each, ``cli ARGV... EXIT
  <sha>``: the digest covers the exit code, the stderr text, the stdout
  text and the bytes of the ``--output`` file (or its absence), with the
  temporary directory and the checkout's ``src`` path written as ``<tmp>``
  and ``<src>``.  The battery holds successful ``run`` calls (exact,
  dilated, sampled, pairing, ``--init fci``, unconverged, a file path, a
  fixture name with ``.fcidump``, stdout), ``scan`` and ``residual-study``
  calls, ``--help``, and inputs with one error each: bad flags, a missing
  or malformed input, a bad model, init, setting, line search or variant,
  an FCIDUMP with a four-field record, an impossible sector, a zero first
  index or a non-finite integral (under every command that reads one), a
  probe beyond the Taylor bound, no scan point, and an ``--output`` in a
  missing directory or on a directory.

Digests hash float bits, which depend on the CPU, the BLAS and the
numpy build: compare two checkouts on one machine only, e.g.

    python scripts/trajectory_digest.py a/src b/src
"""

import hashlib
import io
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

SAMPLED_FIXTURES = ("h2_d0.74", "h4_d1.40", "h4_d2.00")
SAMPLED_SETTINGS = (  # (label, EstimatorConfig fields, LineSearch arguments)
    ("sampled-s5", {"seed": 5}, ()),
    ("sampled-s9", {"seed": 9}, ()),
    ("sampled-s5-delta-0.07", {"seed": 5, "delta": -0.07}, ()),
    ("sampled-s5-fixed0.3", {"seed": 5}, ("fixed", 0.3)),
)
ESTIMATOR_FIXTURES = ("h2_d0.74", "h4_d1.00", "h4_d1.40", "h4_d2.00")
ESTIMATOR_SETTINGS = (
    ("delta=1e-3", {"delta": 1e-3}),
    ("delta=-0.07", {"delta": -0.07}),
    ("shots=500", {"shots": 500, "seed": 3}),
    ("shots=16000", {"shots": 16000, "seed": 3}),
)

PHASED_FIXTURES = ("h4_d1.40", "h4_d2.00")
PHASED_SEED = 131  # draws the orbital phases phi_p, uniform on [0, 2 pi)
PAIRING_SPHERE_POINT = (0.6, 0.64, 0.48)

# {tmp} is the battery's temporary directory, {fixtures} the checkout's
# bundled fixture directory; every call but the --output ones and those
# marked "stdout" writes to {tmp}/out.
_RUN = "run --fcidump h2_d0.74"
_SAMPLED = _RUN + " --execution sampled --shots 100 --seed 1"
_PAIRING = "run --model pairing"
_STUDY = "residual-study --fixture h2_d0.74"
CLI_BATTERY = (
    _RUN + " --variant cse",
    "stdout " + _RUN,
    _RUN + " --variant acse --execution dilated",
    _RUN + " --execution sampled --shots 300 --max-iterations 4 --seed 9",
    _RUN + " --shots 100",
    _RUN + " --line-search fixed:0.3 --variant hcse",
    _RUN + ".fcidump",
    "run --fcidump {fixtures}/h2_d0.74.fcidump",
    "run --fcidump {tmp}/copy.fcidump",
    "run --fcidump h4_d1.20 --init fci",
    "run --fcidump h4_d1.20 --max-iterations 3 --tolerance 1e-12",
    _PAIRING + " --variant acse",
    _PAIRING + " --init sphere:1,1,1 --max-iterations 5",
    "scan --fixtures h2_*",
    "stdout scan --fixtures h2_d0.74 h2_d1.00",
    "scan --fixtures {tmp}/copy.fcidump h2_d1.00",
    "scan --fixtures h4_d1.20 --variant hcse --execution dilated",
    "residual-study --fixture h4_d1.20 --max-iterations 40",
    _STUDY + " --variants cse --init fci",
    _STUDY + " --variant acse",
    _STUDY + ".fcidump --variants hcse,cse",
    "stdout --help",
    _RUN + " --variant bogus",
    "frobnicate",
    "run --fcidump does_not_exist",
    "run",
    "run --model ising",
    _PAIRING + " --pairing-constants 1,2,3",
    _PAIRING + " --pairing-constants a,1,2,3",
    _PAIRING + " --pairing-constants nan,1,2,3",
    _PAIRING + " --pairing-constants 0,1,2,inf",
    _PAIRING + " --pairing-constants 0,1,5,0.5",
    _RUN + " --init equator:0.3",
    _RUN + " --init hf:0.3",
    _RUN + " --init fci:1",
    _RUN + " --init hf:",
    _RUN + " --init bogus",
    _PAIRING + " --init sphere:nan,0,0",
    _PAIRING + " --init sphere:1,inf,0",
    _PAIRING + " --init sphere:0,0,0",
    _PAIRING + " --init sphere:1,2",
    _PAIRING + " --init equator:inf",
    _PAIRING + " --init equator:x",
    _RUN + " --execution sampled --shots 100",
    _RUN + " --execution sampled --shots 0 --seed 1",
    _RUN + " --execution sampled --shots 100 --seed -1",
    _SAMPLED + " --delta 0",
    _SAMPLED + " --delta nan",
    _SAMPLED + " --delta 1e9",
    _RUN + " --epsilon 0",
    _RUN + " --execution dilated --epsilon inf",
    _RUN + " --reset-cap 0",
    _RUN + " --max-iterations 0",
    _RUN + " --tolerance nan",
    _RUN + " --line-search fixed:inf",
    _RUN + " --line-search golden",
    "scan --fixtures xe2_*",
    "scan --fixtures h2_d0.74 --tolerance nan",
    "scan --fixtures h2_d0.74 --line-search golden",
    _STUDY + " --variants cse,magic",
    _STUDY + " --variants ,",
    _STUDY + " --max-iterations 0",
    _STUDY + " --tolerance nan",
    _STUDY + " --line-search golden",
    _STUDY + " --init fci:1",
    _STUDY + " --init equator:0.3",
    "residual-study --fixture nope",
    *(
        f"{command} {{tmp}}/{defect}.fcidump"
        for defect in ("four-field", "nelec3", "zero-first-index", "nan-h", "inf-eri", "inf-core")
        for command in ("run --fcidump", "scan --fixtures", "residual-study --fixture")
    ),
    *(
        f"{command} --output {output}"
        for output in ("{tmp}/nodir/x.out", "{tmp}")
        for command in (_RUN, "scan --fixtures h2_d0.74", _STUDY)
    ),
)


def _hex(value) -> bytes:
    return (float(value) + 0.0).hex().encode()


def _array_bytes(array: np.ndarray) -> bytes:
    return (array + 0.0).tobytes()


def _tensor_digest(tensor: np.ndarray) -> str:
    return hashlib.sha256(_array_bytes(tensor)).hexdigest()


def _run_digest(result) -> str:
    h = hashlib.sha256(result.status.encode())
    for rec in result.iterations:
        for value in vars(rec).values():
            h.update(_hex(value))
    h.update(_array_bytes(result.state.amplitudes))
    for value in (result.energy, result.residual_norm, result.variance, result.success_prob):
        h.update(_hex(value))
    return h.hexdigest()


def _run_summary(result) -> str:
    return f"{result.status} {len(result.iterations)} {_run_digest(result)}"


def _reference_digest(cq, ham) -> str:
    """SHA-256 of a Hamiltonian's reference matrices and of its sector's
    pair-excitation matrices, the oracles of the FCI solver and of the
    estimator."""
    basis = ham.basis
    elements = cq.canonical_elements(basis.n_spin_orbitals)
    h = hashlib.sha256(_array_bytes(ham.dense()))
    h.update(_array_bytes(ham.diagonal))
    h.update(np.array(elements, dtype=np.int64).tobytes())
    for i, j, k, l in elements:
        for order in ((i, j, k, l), (j, i, k, l), (i, j, l, k)):
            h.update(_array_bytes(cq.pair_excitation_matrix(basis, *order)))
    return h.hexdigest()


def main(src: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
    import cqesim as cq
    from _oracles import phase_rotated

    variants = cq.RESIDUAL_VARIANTS
    hams = {stem: cq.build_hamiltonian(cq.load_fixture(stem)) for stem in cq.list_fixtures()}
    configs = {
        "exact": {},
        "dilated": {"execution": "dilated"},
        "dilated-eps0.05": {
            "execution": "dilated",
            "dilation": cq.DilationPolicy(epsilon=0.05, reset_mode="wolfe"),
        },
        "dilated-cap1": {
            "execution": "dilated",
            "dilation": cq.DilationPolicy(reset_mode="every_k", max_steps_between_resets=1),
        },
        "fixed0.3": {"line_search": cq.LineSearch("fixed", 0.3)},
    }
    for stem, ham in hams.items():
        for variant in variants:
            for name, kwargs in configs.items():
                result = cq.cqe_run(ham, cq.CqeConfig(variant=variant, **kwargs))
                print(f"run {stem} {variant} {name} {_run_summary(result)}")
    for stem in SAMPLED_FIXTURES:
        for variant in variants:
            for name, kwargs, step in SAMPLED_SETTINGS:
                config = cq.CqeConfig(
                    variant=variant,
                    execution="sampled",
                    max_iterations=12,
                    line_search=cq.LineSearch(*step),
                    estimator=cq.EstimatorConfig(shots=16000, **kwargs),
                )
                result = cq.cqe_run(hams[stem], config)
                print(f"run {stem} {variant} {name} {_run_summary(result)}")
    for stem in ESTIMATOR_FIXTURES:
        ham = hams[stem]
        rng = np.random.default_rng(11)
        dim = len(ham.basis)
        states = {
            "hf": cq.hf_state(ham),
            "real": cq.StateVector(ham.basis, rng.normal(size=dim).astype(complex)),
            "complex": cq.StateVector(ham.basis, rng.normal(size=dim) + 1j * rng.normal(size=dim)),
        }
        for state_name, psi in states.items():
            for variant in variants:
                for name, kwargs in ESTIMATOR_SETTINGS:
                    tensor = cq.estimate_residual_w(ham, psi, variant=variant, **kwargs)
                    print(f"estimate {stem} {state_name} {variant} {name} {_tensor_digest(tensor.coeffs)}")
                tensor = cq.residual(ham, psi, variant)
                print(f"residual {stem} {state_name} {variant} {_tensor_digest(tensor.coeffs)}")
            print(f"rdm2 {stem} {state_name} {_tensor_digest(cq.compute_2rdm(psi).tensor)}")
        transition = cq.compute_2rdm(states["real"], states["complex"]).tensor
        print(f"rdm2 {stem} real,complex {_tensor_digest(transition)}")
    phased = {
        "exact": {},
        "dilated": {"execution": "dilated"},
        "sampled-s5": {
            "execution": "sampled",
            "max_iterations": 12,
            "estimator": cq.EstimatorConfig(shots=16000, seed=5),
        },
    }
    for stem in PHASED_FIXTURES:
        n = hams[stem].basis.n_spin_orbitals
        ham = phase_rotated(hams[stem], np.random.default_rng(PHASED_SEED).uniform(0.0, 2.0 * np.pi, n))[0]
        for variant in variants:
            for name, kwargs in phased.items():
                result = cq.cqe_run(ham, cq.CqeConfig(variant=variant, **kwargs))
                print(f"run {stem}~phased {variant} {name} {_run_summary(result)}")
    model = cq.PairingModel()
    pairing = cq.build_pairing_hamiltonian(model)
    starts = {
        "equator0.3": cq.equator_state(model, 0.3),
        "sphere" + ",".join(map(str, PAIRING_SPHERE_POINT)): cq.sphere_state(
            model, cq.SpherePoint(*PAIRING_SPHERE_POINT)
        ),
    }
    pairing_configs = {
        "exact": {},
        "dilated": {"execution": "dilated"},
        "sampled-s3": {
            "execution": "sampled",
            "max_iterations": 8,
            "estimator": cq.EstimatorConfig(shots=4000, seed=3),
        },
    }
    for start, psi in starts.items():
        for variant in variants:
            for name, kwargs in pairing_configs.items():
                result = cq.cqe_run(pairing, cq.CqeConfig(variant=variant, **kwargs), initial=psi)
                print(f"run pairing~{start} {variant} {name} {_run_summary(result)}")
    for stem, ham in {**hams, "pairing": pairing}.items():
        print(f"reference {stem} {_reference_digest(cq, ham)}")
    for line in _cli_lines(Path(src).resolve()):
        print(line)


def _write_cli_inputs(tmp: Path, fixtures: Path) -> None:
    """The FCIDUMP files of the battery: a copy of h2_d0.74 and six defective ones."""
    text = (fixtures / "h2_d0.74.fcidump").read_text()
    header, records = text.split("&END\n")
    first, rest = records.split("\n", 1)
    inputs = {
        "copy": text,
        "four-field": f"{header}&END\n{first.rsplit(None, 1)[0]}\n{rest}",
        "nelec3": text.replace("NELEC=2", "NELEC=3"),
        "zero-first-index": text + "0.25 0 2 0 0\n",
        "nan-h": text + "nan 1 1 0 0\n",
        "inf-eri": text + "inf 1 1 1 1\n",
        "inf-core": text + "inf 0 0 0 0\n",
    }
    for name, body in inputs.items():
        (tmp / f"{name}.fcidump").write_text(body)


def _cli_lines(src: Path) -> list[str]:
    """One ``cli ARGV... EXIT <sha>`` line per call of ``CLI_BATTERY``."""
    from cqesim import cli

    fixtures = src / "cqesim" / "fixtures"
    lines = []
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _write_cli_inputs(tmp, fixtures)
        out = tmp / "out"

        def normalized(text: str) -> bytes:
            return text.replace(str(tmp), "<tmp>").replace(str(src), "<src>").encode()

        for case in CLI_BATTERY:
            argv = case.format(tmp=tmp, fixtures=fixtures).split()
            if argv[0] == "stdout":
                argv = argv[1:]
            elif "--output" not in argv:
                argv += ["--output", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(argv)
            written = normalized(out.read_text()) if out.exists() else b"(no file)"
            out.unlink(missing_ok=True)
            h = hashlib.sha256(str(code).encode())
            for part in (normalized(stderr.getvalue()), normalized(stdout.getvalue()), written):
                h.update(hashlib.sha256(part).digest())
            label = normalized(shlex.join(argv)).decode()
            lines.append(f"cli {label} {code} {h.hexdigest()}")
    return lines


def _label(line: str) -> str:
    """A line's case label: ``run STEM VARIANT SETTING``, ``estimate STEM
    STATE VARIANT SETTING``, ``residual STEM STATE VARIANT``, ``rdm2 STEM
    STATE``, ``reference STEM`` or ``cli ARGV...`` (every word but the exit
    code and the digest)."""
    words = line.split()
    counts = {"run": 4, "estimate": 5, "residual": 4, "rdm2": 3, "reference": 2, "cli": -2}
    return " ".join(words[: counts[words[0]]])


def _kind(line: str) -> str:
    """The key a differing line is counted under: ``run SETTING``,
    ``estimate SETTING``, or the kind of any other line."""
    words = line.split()
    setting = {"run": 3, "estimate": 4}.get(words[0])
    return words[0] if setting is None else f"{words[0]} {words[setting]}"


def compare(src_a: str, src_b: str) -> int:
    """Digest both checkouts, print the labels of the cases that differ and
    a summary of them, and return 1 if any does, else 0."""
    lines = [
        subprocess.run(
            [sys.executable, __file__, src], check=True, capture_output=True, text=True
        ).stdout.splitlines()
        for src in (src_a, src_b)
    ]
    if [_label(line) for line in lines[0]] != [_label(line) for line in lines[1]]:
        print("the two checkouts digest different cases")
        return 1
    kinds = Counter()
    statuses = records = 0
    for a, b in zip(*lines):
        if a != b:
            kinds[_kind(a)] += 1
            counts = a.split()[4:6], b.split()[4:6]
            moved = a.startswith("run") and counts[0] != counts[1]
            statuses += moved and counts[0][0] != counts[1][0]
            records += moved and counts[0][1] != counts[1][1]
            print(_label(a) + (f": {' '.join(counts[0])} -> {' '.join(counts[1])}" if moved else ""))
    differ = sum(kinds.values())
    print(f"{differ} of {len(lines[0])} lines differ")
    by_kind = ", ".join(f"{kind} {count}" for kind, count in kinds.items()) or "none"
    print(f"differing lines by kind and setting: {by_kind}; {statuses} status changes, {records} record-count changes")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        main(sys.argv[1])
    elif len(sys.argv) == 3:
        raise SystemExit(compare(sys.argv[1], sys.argv[2]))
    else:
        raise SystemExit(__doc__)
