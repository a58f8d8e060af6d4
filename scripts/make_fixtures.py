"""Generate the bundled H2 / H4 FCIDUMP fixtures from first principles.

Everything is computed in-repo for hydrogen chains of s-type STO-3G
functions: closed-form one- and two-electron integrals over contracted
Gaussians (Boys F0 via erf), a small damped RHF to fix the molecular
orbital basis, and a 4-index transform.  Files are written with the
package's canonical FCIDUMP writer so the byte-round-trip property holds
for every bundled fixture.

Geometries
----------
h2_d{L}   two H atoms separated by L angstrom
h4_d{L}   rectangle of four H atoms: two parallel H2 units with a 1.0
          angstrom bond, the units L angstrom apart (L = 1.0 is a square)

Run from the repository root:  python3 scripts/make_fixtures.py
"""

import itertools
import pathlib
import sys

import numpy as np
from scipy.special import erf

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cqesim.hamiltonian import IntegralSet, parse_fcidump, write_fcidump, build_hamiltonian
from cqesim.oracle import fci_solve

ANGSTROM = 1.8897259886  # bohr per angstrom

# STO-3G hydrogen 1s: exponents and contraction coefficients.
STO3G_H_EXP = np.array([3.42525091, 0.62391373, 0.16885540])
STO3G_H_COEF = np.array([0.15432897, 0.53532814, 0.44463454])

H2_BONDS = [0.50, 0.74, 1.00, 1.25, 1.50, 1.75, 2.00, 2.50]
H4_SIDES = [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]

# The index permutations that leave a real two-electron integral (ij|kl) unchanged.
EIGHT_FOLD = ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
              (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0))

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "cqesim" / "fixtures"


def boys_f0(t):
    if t < 1e-12:
        return 1.0 - t / 3.0
    return 0.5 * np.sqrt(np.pi / t) * erf(np.sqrt(t))


def make_basis(centers):
    """One contracted s function per center: list of (exps, coefs, center)."""
    shells = []
    for c in centers:
        norms = (2.0 * STO3G_H_EXP / np.pi) ** 0.75
        shells.append((STO3G_H_EXP, STO3G_H_COEF * norms, np.asarray(c, dtype=float)))
    return shells


def one_electron(shells, centers, charges):
    n = len(shells)
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    for a, (ea, da, A) in enumerate(shells):
        for b, (eb, db, B) in enumerate(shells):
            rab2 = float(np.dot(A - B, A - B))
            for (alpha, ca), (beta, cb) in itertools.product(zip(ea, da), zip(eb, db)):
                p = alpha + beta
                mu = alpha * beta / p
                pref = ca * cb * np.exp(-mu * rab2)
                S[a, b] += pref * (np.pi / p) ** 1.5
                T[a, b] += pref * mu * (3.0 - 2.0 * mu * rab2) * (np.pi / p) ** 1.5
                P = (alpha * A + beta * B) / p
                for Z, C in zip(charges, centers):
                    rpc2 = float(np.dot(P - C, P - C))
                    V[a, b] += -Z * pref * (2.0 * np.pi / p) * boys_f0(p * rpc2)
    return S, T, V


def two_electron(shells):
    n = len(shells)
    eri = np.zeros((n, n, n, n))
    for a, b, c, d in itertools.product(range(n), repeat=4):
        ea, da, A = shells[a]
        eb, db, B = shells[b]
        ec, dc, C = shells[c]
        ed, dd, D = shells[d]
        rab2 = float(np.dot(A - B, A - B))
        rcd2 = float(np.dot(C - D, C - D))
        val = 0.0
        for (alpha, wa), (beta, wb) in itertools.product(zip(ea, da), zip(eb, db)):
            p = alpha + beta
            P = (alpha * A + beta * B) / p
            kab = np.exp(-alpha * beta / p * rab2)
            for (gamma, wc), (delta, wd) in itertools.product(zip(ec, dc), zip(ed, dd)):
                q = gamma + delta
                Q = (gamma * C + delta * D) / q
                kcd = np.exp(-gamma * delta / q * rcd2)
                rpq2 = float(np.dot(P - Q, P - Q))
                val += (
                    wa * wb * wc * wd
                    * 2.0 * np.pi ** 2.5 / (p * q * np.sqrt(p + q))
                    * kab * kcd
                    * boys_f0(p * q / (p + q) * rpq2)
                )
        eri[a, b, c, d] = val
    return eri


def nuclear_repulsion(centers, charges):
    e = 0.0
    for (za, a), (zb, b) in itertools.combinations(zip(charges, centers), 2):
        e += za * zb / np.linalg.norm(np.asarray(a) - np.asarray(b))
    return e


def rhf(S, h, eri, n_elec, e_nuc, max_iter=500):
    """Damped closed-shell SCF; returns (energy, mo_coefficients)."""
    s_val, s_vec = np.linalg.eigh(S)
    X = s_vec @ np.diag(s_val ** -0.5) @ s_vec.T
    n = S.shape[0]
    nocc = n_elec // 2
    D = np.zeros((n, n))
    F = h.copy()
    energy = 0.0
    for iteration in range(max_iter):
        Fp = X.T @ F @ X
        _, Cp = np.linalg.eigh(Fp)
        C = X @ Cp
        D_new = 2.0 * C[:, :nocc] @ C[:, :nocc].T
        D = D_new if iteration == 0 else 0.7 * D_new + 0.3 * D
        G = np.einsum("cd,abcd->ab", D, eri) - 0.5 * np.einsum("cd,adcb->ab", D, eri)
        F = h + G
        e_new = 0.5 * np.sum(D * (h + F)) + e_nuc
        if iteration and abs(e_new - energy) < 1e-13 and np.max(np.abs(D_new - D)) < 1e-11:
            energy = e_new
            break
        energy = e_new
    # Deterministic column signs: largest-|coefficient| entry positive.
    for col in range(n):
        k = int(np.argmax(np.round(np.abs(C[:, col]), 12)))
        if C[k, col] < 0:
            C[:, col] = -C[:, col]
    return energy, C


def mo_integrals(h, eri, C):
    h_mo = C.T @ h @ C
    tmp = np.einsum("abcd,ap->pbcd", eri, C)
    tmp = np.einsum("pbcd,bq->pqcd", tmp, C)
    tmp = np.einsum("pqcd,cr->pqrd", tmp, C)
    eri_mo = np.einsum("pqrd,ds->pqrs", tmp, C)
    # Clean round-off so the strict 8-fold symmetry check passes.
    h_mo = 0.5 * (h_mo + h_mo.T)
    acc = np.zeros_like(eri_mo)
    for perm in EIGHT_FOLD:
        acc += eri_mo.transpose(perm)
    acc /= 8.0
    # The average is 8-fold symmetric only to rounding: its images sum the same
    # eight values in different orders.  Copy each canonical element, the one
    # write_fcidump writes (i >= j, k >= l, ij >= kl), to its 8 images, as
    # parse_fcidump does, so the integrals equal those of their FCIDUMP text.
    sym = np.empty_like(acc)
    n = len(h_mo)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if j <= i and l <= k and k * (k + 1) // 2 + l <= i * (i + 1) // 2 + j:
            for perm in EIGHT_FOLD:
                sym[tuple((i, j, k, l)[p] for p in perm)] = acc[i, j, k, l]
    return h_mo, sym


def build_integral_set(centers, n_elec):
    centers = [np.asarray(c, dtype=float) * ANGSTROM for c in centers]
    charges = [1.0] * len(centers)
    shells = make_basis(centers)
    S, T, V = one_electron(shells, centers, charges)
    eri = two_electron(shells)
    e_nuc = nuclear_repulsion(centers, charges)
    e_hf, C = rhf(S, T + V, eri, n_elec, e_nuc)
    h_mo, eri_mo = mo_integrals(T + V, eri, C)
    return IntegralSet(len(centers), n_elec, 0, e_nuc, h_mo, eri_mo), e_hf


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    jobs = []
    for L in H2_BONDS:
        jobs.append((f"h2_d{L:.2f}", [(0, 0, 0), (0, 0, L)], 2))
    for L in H4_SIDES:
        jobs.append((f"h4_d{L:.2f}", [(0, 0, 0), (0, 1.0, 0), (L, 0, 0), (L, 1.0, 0)], 4))

    print(f"{'fixture':12s} {'E_HF':>14s} {'E_FCI':>14s}")
    for name, centers, n_elec in jobs:
        integrals, e_hf = build_integral_set(centers, n_elec)
        text = write_fcidump(integrals)
        reparsed = parse_fcidump(text)
        assert write_fcidump(reparsed) == text, f"round trip failed for {name}"
        energies, _ = fci_solve(build_hamiltonian(integrals), n_states=1)
        path = OUT_DIR / f"{name}.fcidump"
        path.write_text(text)
        print(f"{name:12s} {e_hf:14.8f} {energies[0]:14.8f}")
        if name == "h2_d0.74":
            # Literature anchor for H2/STO-3G near equilibrium.
            assert abs(energies[0] - (-1.1373)) < 2e-3, energies[0]
    print(f"wrote {len(jobs)} fixtures to {OUT_DIR}")


if __name__ == "__main__":
    main()
