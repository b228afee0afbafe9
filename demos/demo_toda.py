"""Toda lattice in both pictures: canonical coordinates and the Lax matrix.

Integrates the same initial condition through the (x, p) equations of motion
and through the matrix flow, then checks that the Flaschka map carries one
trajectory onto the other and that the conserved hierarchy stays flat.
"""

import numpy as np

from liepoisson import integrators as it
from liepoisson import toda as td
from liepoisson.fixtures import seeded_random_state

N = 8
SEED = 2024
DT = 1e-3
STEPS = 2000


def hierarchy(lax):
    return [float(np.trace(np.linalg.matrix_power(lax, k)).real / k)
            for k in range(1, 5)]


def main():
    state0 = seeded_random_state(SEED, "toda", N)
    pair0 = td.flaschka(state0)
    print(f"Toda lattice, N={N}, weights alpha_k = lambda_k = 2^-k")
    print(f"initial energy h2 = {td.toda_hamiltonian(state0):.6f}")
    print()

    cfg = it.IntegratorConfig(dt=DT, steps=STEPS, stride=200)
    can = it.evolve(td.pack(state0), cfg, rhs=td.canonical_rhs(state0))
    lax = it.evolve(pair0.rho, cfg, rhs=td.lax_rhs(pair0.a))

    pushed = td.flaschka(td.unpack(can.states[-1], state0))
    gap = np.max(np.abs(pushed.rho - lax.states[-1]))
    print(f"Flaschka(canonical end state) vs Lax end state: {gap:.3e}")
    print()

    h_start = hierarchy(pair0.rho + pair0.a)
    h_can = hierarchy(pushed.rho + pushed.a)
    h_lax = hierarchy(lax.states[-1] + pair0.a)
    print("conserved hierarchy h_k = tr(L^k)/k")
    print("  k   t=0            canonical end   Lax end")
    for k in range(4):
        print(f"  {k + 1}   {h_start[k]:+.10f}  {h_can[k]:+.10f}  "
              f"{h_lax[k]:+.10f}")
    print()

    ev0 = np.sort(np.linalg.eigvals(pair0.rho + pair0.a).real)
    ev1 = np.sort(np.linalg.eigvals(lax.states[-1] + pair0.a).real)
    print("Lax spectrum (the action variables), t=0 vs end:")
    print("  " + "  ".join(f"{v:+.6f}" for v in ev0))
    print("  " + "  ".join(f"{v:+.6f}" for v in ev1))
    print(f"  max change {np.max(np.abs(ev1 - ev0)):.3e}")
    print()

    inv = max(td.involution_defect(state0, j, k)
              for j in range(1, 5) for k in range(j + 1, 5))
    print(f"hierarchy involution, worst |{{h_j, h_k}}| for j,k <= 4: {inv:.3e}")


if __name__ == "__main__":
    main()
