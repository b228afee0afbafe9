"""Projection operators on states that induce brackets on their images.

Three families are provided, each a pair (R, R*) adjoint under the trace
pairing tr(R*(x) rho) = tr(x R(rho)):

* ``measurement`` -- R(rho) = sum_n p_n rho p_n over a decomposition of unity
  {p_n}; self-dual.  Kills off-block coherences.
* ``lower_triangularize`` -- R(rho) = sum_n p_n rho q_n with the running sums
  q_n = p_1 + ... + p_n of an ordered decomposition; the dual is
  R*(x) = sum_n q_n x p_n.  For the standard basis decomposition R is exactly
  the keep-lower-triangle projection.
* ``group_average`` -- R(rho) = (1/|G|) sum_U U rho U* over a finite group of
  unitaries; the dual averages with the conjugations reversed.  The image of
  R* is the commutant of the group.

``apply`` and ``apply_dual`` are one sandwich sum (``_sandwich``) over the
factors each constructor builds once; R* swaps the lefts and the rights.

All three satisfy the multiplicative closure law
R*(R*(x) R*(y)) = R*(x) R*(y), which is the condition for the image bracket
tr([R* dx, R* dy] mu) to satisfy the Jacobi identity; ``closure_defect``
measures it directly.  Every law and check here holds to one ``TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .operators import (
    DecompositionOfUnity,
    as_matrix,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    trace_norm,
    validate_decomposition,
)

__all__ = [
    "ReductionOp",
    "apply",
    "apply_dual",
    "closure_defect",
    "contraction_check",
    "group_average",
    "lower_triangularize",
    "measurement",
    "positivity_check",
    "reduction_from_json",
    "reduction_to_json",
]

KINDS = ("measurement", "lower_triangularize", "group_average")
TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ReductionOp:
    """A validated projection R(rho) = sum_n l_n rho r_n / scale, with its
    dual R*(x) = sum_n r_n x l_n / scale.

    ``operators`` holds the lefts l_n, the defining family: ordered projectors
    for the decomposition kinds, group elements for the averaging kind.
    ``rights`` holds the projectors, their running sums or the u*, and
    ``scale`` is |G| or 1.  Treat the stored arrays as read-only.  Two ops
    are equal only if they are the same object, and hash by identity: the
    arrays they hold have no single truth value to compare by.
    """

    kind: str
    operators: tuple
    rights: Sequence
    scale: int


def _decomposition(projectors) -> tuple:
    if not isinstance(projectors, DecompositionOfUnity):
        projectors = DecompositionOfUnity(projectors)
    if not validate_decomposition(projectors, TOL):
        raise ValueError("projectors do not form a decomposition of unity")
    return projectors.projectors


def measurement(projectors) -> ReductionOp:
    """Block-diagonal pinching over a decomposition of unity."""
    ps = _decomposition(projectors)
    return ReductionOp("measurement", ps, ps, 1)


def lower_triangularize(projectors) -> ReductionOp:
    """Block lower-triangular truncation; the order of projectors matters."""
    ps = _decomposition(projectors)
    return ReductionOp("lower_triangularize", ps, np.cumsum(ps, axis=0), 1)


def group_average(unitaries: Sequence) -> ReductionOp:
    """Averaging over a finite group of unitaries.

    The family must contain the identity, consist of unitaries, and be closed
    under multiplication (each product must match a listed element to TOL);
    inverses then come for free in a finite set.
    """
    us = tuple(as_matrix(u) for u in unitaries)
    if not us:
        raise ValueError("group_average needs at least one unitary")
    n = us[0].shape[0]
    eye = np.eye(n, dtype=complex)
    for u in us:
        if u.shape[0] != n:
            raise ValueError("group elements must share one dimension")
        if operator_norm(u @ u.conj().T - eye) > TOL:
            raise ValueError("group element is not unitary")
    if not any(operator_norm(u - eye) <= TOL for u in us):
        raise ValueError("group does not contain the identity")
    for u in us:
        for v in us:
            w = u @ v
            if not any(operator_norm(w - x) <= TOL for x in us):
                raise ValueError("unitary family is not closed under products")
    return ReductionOp("group_average", us, tuple(u.conj().T for u in us),
                       len(us))


def _sandwich(lefts, m, rights, scale) -> np.ndarray:
    """sum_n l_n m r_n / scale for a validated m: R(m) over an op's factors,
    R*(m) over the same factors swapped."""
    return sum(l @ m @ r for l, r in zip(lefts, rights)) / scale


def apply(op: ReductionOp, rho) -> np.ndarray:
    """R(rho)."""
    return _sandwich(op.operators, as_matrix(rho), op.rights, op.scale)


def apply_dual(op: ReductionOp, x) -> np.ndarray:
    """R*(x), the trace-pairing adjoint of R."""
    return _sandwich(op.rights, as_matrix(x), op.operators, op.scale)


def closure_defect(op: ReductionOp, x, y) -> float:
    """||R*(R*(x) R*(y)) - R*(x) R*(y)|| in operator norm.

    Zero means the image of R* is closed under products, the hypothesis that
    makes the induced bracket on im R a Poisson bracket.
    """
    return _closure_defect(
        op, _sandwich(op.rights, as_matrix(x), op.operators, op.scale),
        _sandwich(op.rights, as_matrix(y), op.operators, op.scale))


def _closure_defect(op: ReductionOp, dual_x, dual_y) -> float:
    """``closure_defect`` from dual_x = R*(x) and dual_y = R*(y)."""
    a = dual_x @ dual_y
    return operator_norm(_sandwich(op.rights, a, op.operators, op.scale) - a)


def contraction_check(op: ReductionOp, rho) -> bool:
    """Whether ||R(rho)||_1 <= ||rho||_1 (+ TOL) at this rho.

    The bound is a law for ``measurement`` and ``group_average``, which are
    averages of unitary conjugations.  ``lower_triangularize`` is not a
    trace-norm contraction and can increase the trace norm: it takes
    [[.5, .4], [.4, .5]] (norm 1) to [[.5, 0], [.4, .5]] (norm 1.077).
    """
    return trace_norm(apply(op, rho)) <= trace_norm(rho) + TOL


def positivity_check(op: ReductionOp, rho) -> Optional[bool]:
    """Whether R preserves positive semidefiniteness at this rho, to TOL.

    Returns None for lower_triangularize (its image leaves the Hermitian
    cone, so the question does not apply); otherwise rho must be PSD and the
    result says whether R(rho) is.
    """
    if op.kind == "lower_triangularize":
        return None
    rho = as_matrix(rho)
    if operator_norm(rho - rho.conj().T) > TOL:
        raise ValueError("positivity check needs a Hermitian state")
    if float(np.linalg.eigvalsh(rho).min()) < -TOL:
        raise ValueError("positivity check needs a PSD state")
    image = apply(op, rho)
    if operator_norm(image - image.conj().T) > TOL:
        return False
    return float(np.linalg.eigvalsh(image).min()) >= -TOL


def reduction_to_json(op: ReductionOp) -> dict:
    """Kind-discriminated JSON payload; exact float round trip."""
    key = "unitaries" if op.kind == "group_average" else "projectors"
    return {"kind": op.kind, key: [matrix_to_json(m) for m in op.operators]}


def reduction_from_json(payload: dict) -> ReductionOp:
    kind = payload.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown reduction kind {kind!r}")
    key = "unitaries" if kind == "group_average" else "projectors"
    if key not in payload:
        raise ValueError(f"reduction payload missing {key!r}")
    mats = [matrix_from_json(m) for m in payload[key]]
    if kind == "measurement":
        return measurement(mats)
    if kind == "lower_triangularize":
        return lower_triangularize(mats)
    return group_average(mats)
