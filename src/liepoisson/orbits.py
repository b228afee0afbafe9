"""Coadjoint orbits, their tangent spaces, and the orbit two-form.

A state rho is moved by conjugation, rho -> g rho g^(-1); the directions
tangent to that motion are the commutators [x, rho], and on them the orbit
carries the two-form

    omega(rho)([x, rho], [y, rho]) = tr([x, y] rho).

The form does not depend on which x generates a given tangent vector
(``kks_welldefined_defect`` measures this), it is antisymmetric, and it is
weakly nondegenerate on the tangent space: its Gram matrix over the
generators E_ab is the matrix of x -> [x, rho] with row (a, b) moved to
(b, a), so it has exactly the rank of the tangent space.  For the same
reason ``kks_form_rank`` and ``characteristic_rank`` take the SVD of one
matrix up to its row order: their agreement checks the two closed forms
against each other, not the law by an independent route.
"""

from __future__ import annotations

import numpy as np

from .operators import _conjugate, as_matrix, commutator, trace_pairing

__all__ = [
    "characteristic_rank",
    "coadjoint_act",
    "kks_eval",
    "kks_form_rank",
    "kks_welldefined_defect",
    "rank_one_state",
]

# conjugation by g loses roughly cond(g) worth of precision; past this we
# refuse rather than return garbage
COND_LIMIT = 1e12

_RANK_RTOL = 1e-10


def coadjoint_act(g, point) -> np.ndarray:
    """g rho g^(-1), refusing ill-conditioned g (cond > 1e12)."""
    g = as_matrix(g)
    rho = as_matrix(point)
    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ValueError(f"conjugating element too ill-conditioned (cond={cond:.3g})")
    return _conjugate(g, rho)


def kks_eval(point, x, y) -> complex:
    """omega(rho)([x, rho], [y, rho]) = tr([x, y] rho)."""
    rho = as_matrix(point)
    return trace_pairing(commutator(as_matrix(x), as_matrix(y)), rho)


def kks_welldefined_defect(point, x1, x2, y) -> float:
    """|omega computed from generator x1 minus from x2| for one tangent vector.

    x1 and x2 must generate the same tangent vector at rho ([x1 - x2, rho] = 0
    to 1e-10); anything else is a usage error, not a defect, and raises.
    """
    rho = as_matrix(point)
    mismatch = float(np.max(np.abs(commutator(as_matrix(x1) - as_matrix(x2), rho))))
    if mismatch > 1e-10:
        raise ValueError(
            f"generators disagree on the tangent vector (|[x1-x2, rho]| = {mismatch:.3g})")
    return abs(kks_eval(rho, x1, y) - kks_eval(rho, x2, y))


def _svd_rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _RANK_RTOL * s[0]))


def _tangent_matrix(rho: np.ndarray) -> np.ndarray:
    """x -> [x, rho] on row-major vectorized matrices: I (x) rho^T - rho (x) I.

    Column i*n + j is vec([E_ij, rho]).
    """
    eye = np.eye(rho.shape[0])
    return np.kron(eye, rho.T) - np.kron(rho, eye)


def _kks_gram(rho: np.ndarray) -> np.ndarray:
    """G[(ab),(cd)] = omega(rho)([E_ab, rho], [E_cd, rho]) = tr([E_ab, E_cd] rho).

    Since [E_ab, E_cd] = d_bc E_ad - d_da E_cb, the entries are
    d_bc rho_da - d_da rho_bc, that is T - T^T for T[(ab),(cd)] = d_bc rho_da.
    """
    n = rho.shape[0]
    t = np.einsum("bc,da->abcd", np.eye(n), rho).reshape(n * n, n * n)
    return t - t.T


def characteristic_rank(point) -> int:
    """dim { [x, rho] : x arbitrary }, the orbit's tangent dimension at rho.

    Equals n^2 minus the dimension of the commutant of rho.  Computed as the
    SVD rank of x -> [x, rho] over the elementary-matrix basis, singular
    values cut at 1e-10 relative.
    """
    return _svd_rank(_tangent_matrix(as_matrix(point)))


def kks_form_rank(point) -> int:
    """Rank of the Gram matrix G[(ab),(cd)] = omega(rho)([E_ab,rho],[E_cd,rho]).

    G is the matrix of x -> [x, rho] with row (a, b) moved to (b, a),
    G[(ab),(cd)] = [E_cd, rho]_ba, so this equals ``characteristic_rank``
    by construction: comparing the two compares one matrix with its own row
    permutation.
    """
    return _svd_rank(_kks_gram(as_matrix(point)))


def rank_one_state(v) -> np.ndarray:
    """The projector v v* / <v, v> onto the span of a nonzero vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm2 = float(np.real(np.vdot(v, v)))
    if norm2 <= 0.0 or not np.isfinite(norm2):
        raise ValueError("rank-one state needs a nonzero finite vector")
    return np.outer(v, v.conj()) / norm2
