"""Walk through the bracket layer on a small matrix state.

Builds a handful of observables, evaluates the Lie-Poisson bracket, and
checks the axioms numerically.  Everything is seeded, so the printed numbers
are reproducible.
"""

import numpy as np

from liepoisson import brackets as br
from liepoisson import operators as op
from liepoisson.fixtures import seeded_random_state

N = 4
SEED = 2024


def unit(m):
    return m / np.linalg.norm(m)


def main():
    rho = seeded_random_state(SEED, "psd", N)
    a = unit(seeded_random_state(SEED + 1, "general", N))
    b = unit(seeded_random_state(SEED + 2, "general", N))
    c = unit(seeded_random_state(SEED + 3, "general", N))

    f = br.Observable.linear_form(a)
    g = br.Observable.linear_form(b)
    h = br.Observable.linear_form(c)

    print("state: seeded density-like matrix, trace",
          f"{np.trace(rho).real:.6f}")
    print()
    print("bracket values at the state")
    print(f"  {{f,g}} = {br.lp_bracket(br.FULL, f, g, rho):.6f}")
    print(f"  {{g,f}} = {br.lp_bracket(br.FULL, g, f, rho):.6f}")
    print()
    print("axioms (defects should sit at roundoff)")
    anti = abs(br.lp_bracket(br.FULL, f, g, rho)
               + br.lp_bracket(br.FULL, g, f, rho))
    print(f"  antisymmetry   {anti:.3e}")
    print(f"  Leibniz        {br.leibniz_defect(br.FULL, f, g, h, rho):.3e}")
    print(f"  Jacobi         {br.jacobi_defect(br.FULL, f, g, h, rho):.3e}")

    q = br.Observable.quadratic_form(a, b)
    print(f"  Jacobi (quadratic, nested fd) "
          f"{br.jacobi_defect(br.FULL, q, g, h, rho):.3e}")
    print()

    c2 = br.casimir(2)
    print("Casimir tr(rho^2)/2 brackets to zero with everything:")
    print(f"  {{f, C2}} = {abs(br.lp_bracket(br.FULL, f, c2, rho)):.3e}")
    field = br.ham_field(br.FULL, c2, rho)
    print(f"  |X_C2|   = {np.max(np.abs(field)):.3e}")
    print()

    print("the Hamiltonian field of h pairs back to the bracket:")
    xh = br.ham_field(br.FULL, h, rho)
    lhs = op.trace_pairing(a, xh)
    rhs = br.lp_bracket(br.FULL, f, h, rho)
    print(f"  <Df, X_h> = {lhs:.6f}")
    print(f"  {{f, h}}    = {rhs:.6f}")


if __name__ == "__main__":
    main()
