"""Coadjoint orbits: the orbit two-form, its rank, and its invariance.

The rank of the form at a state equals the dimension of the orbit through
it, which drops as the spectrum degenerates; conjugating the whole picture
leaves every pairing unchanged.
"""

import numpy as np

from liepoisson import operators as op
from liepoisson import orbits as orb
from liepoisson.fixtures import seeded_random_state

N = 4
SEED = 2024


def main():
    states = {
        "generic Hermitian (distinct spectrum)":
            seeded_random_state(SEED, "hermitian", N),
        "degenerate diag(1, 1, 2, 3)":
            np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex),
        "rank-one projector":
            orb.rank_one_state(np.array([1.0, 1j, -0.5, 2.0])),
        "scalar (orbit is a point)": np.eye(N, dtype=complex),
    }

    print(f"orbit ranks in dimension N={N} (max possible {N * N - N})")
    for label, rho in states.items():
        r = orb.characteristic_rank(rho)
        f = orb.kks_form_rank(rho)
        print(f"  {label:<42} rank {r:2d}  (form rank {f:2d})")
    print()

    rho = states["generic Hermitian (distinct spectrum)"]
    x = seeded_random_state(SEED + 1, "general", N)
    y = seeded_random_state(SEED + 2, "general", N)
    val = orb.kks_eval(rho, x, y)
    print(f"form value omega([x,rho], [y,rho]) = {val:.6f}")
    print(f"antisymmetry defect: "
          f"{abs(val + orb.kks_eval(rho, y, x)):.3e}")

    shift = 0.5 * np.eye(N) + 0.25 * rho  # commutes with rho
    print(f"well-defined under commutant shift of x: "
          f"{orb.kks_welldefined_defect(rho, x, x + shift, y):.3e}")

    g = op.expm(
        0.3 * op.skew_hermitian_part(seeded_random_state(SEED + 3,
                                                         "general", N)))
    moved = orb.coadjoint_act(g, rho)
    ginv = np.linalg.inv(g)
    pushed = orb.kks_eval(moved, g @ x @ ginv, g @ y @ ginv)
    print(f"conjugation invariance defect: {abs(pushed - val):.3e}")
    print()
    print("moving along the orbit never changes the spectrum:")
    before = np.sort(np.linalg.eigvalsh(rho))
    after = np.sort(np.linalg.eigvalsh(moved))
    print(f"  max eigenvalue change {np.max(np.abs(after - before)):.3e}")


if __name__ == "__main__":
    main()
