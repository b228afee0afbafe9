"""The three reduction maps side by side on one density matrix.

Shows the image of each map, the laws they share (closure of the dual image
under products, adjointness, idempotence, the bracket-compatibility
condition) as the rows ``verify`` gates them, and the two they do not, by
the same checks: pinching and group averaging contract the trace norm and
keep the state PSD, while triangular truncation can expand the trace norm
-- visibly, below, on a plain density matrix -- and leaves the Hermitian
cone, so positivity is not asked of it.
"""

import numpy as np

from liepoisson import operators as op
from liepoisson import reduction as red
from liepoisson.fixtures import seeded_random_state
from liepoisson.verification import (_contraction_check, _positivity_check,
                                     _reduction_law_checks)

N = 4
SEED = 2024


def show(label, m):
    print(label)
    for row in np.asarray(m):
        print("   " + "  ".join(f"{v.real:+.3f}{v.imag:+.3f}j" for v in row))


def main():
    rho = seeded_random_state(SEED, "psd", N)
    basis = op.standard_basis_decomposition(N)
    signs = np.diag([(-1.0) ** k for k in range(N)]).astype(complex)
    ops = {
        "measurement (pinching)": red.measurement(basis),
        "triangular truncation": red.lower_triangularize(basis),
        "group average (sign flips)": red.group_average(
            [np.eye(N, dtype=complex), signs]),
    }

    show("state rho (density matrix, trace 1):", rho)
    print()

    x = seeded_random_state(SEED + 1, "general", N)
    y = seeded_random_state(SEED + 2, "general", N)
    for label, rop in ops.items():
        rows, image, _ = _reduction_law_checks(rop, rho, x, y)
        before, after = op.trace_norm(rho), op.trace_norm(image)
        rows.append(_contraction_check(rop.kind, N, [(after, before)]))
        if rop.kind != "lower_triangularize":
            rows.append(_positivity_check([image]))
        print(f"== {label}")
        show("R(rho):", image)
        for row in rows:
            print(f"   {row.name:<42} defect {row.defect:.3e}  "
                  f"(gate {row.tol:.0e})  {'ok' if row.passed else 'FAILS'}")
        print(f"   {'trace norm':<42} {before:.6f} -> {after:.6f}")
        print()

    print("the failed contraction above is not a bug: triangular truncation")
    print("is unbounded in trace norm, and on density-like states it expands")
    print("essentially always; the other two maps are norm-one projections")


if __name__ == "__main__":
    main()
