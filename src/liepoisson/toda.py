"""Weighted open Toda lattice: canonical form, Lax form, and their matching.

Canonical side.  The state is (x_1..x_{N-1}, p_1..p_N) with total momentum
zero, weights alpha_k and couplings lambda_k attached to the N-1 bonds, and

    H(x, p) = 1/2 sum_k p_k^2 + sum_k alpha_k lambda_k e^{x_k},
    xdot_k  = p_k - p_{k+1},
    pdot_k  = alpha_{k-1} lambda_{k-1} e^{x_{k-1}} - alpha_k lambda_k e^{x_k}

(with the out-of-range potential terms read as zero; total momentum is
conserved because the pdot telescope).

Lax side.  The map

    rho = diag(p) + sum_k lambda_k e^{x_k} E_{k+1,k},    a = sum_k alpha_k E_{k,k+1}

sends states to lower-triangular matrices; H becomes 1/2 tr((rho + a)^2), one
of the family h_k(rho) = tr((rho + a)^k) / k, the Casimirs T_k of
``brackets.casimir`` at rho + a (``toda_hk``).  Their lower-coinduced flows,
the Lax fields pi_lower([rho, pi+ (rho + a)^{k-1}]), are
``ham_field(LOWER_COINDUCED, toda_hk(k, a))``; ``lax_field`` and ``lax_rhs``
give the h_2 flow with the same kernel ``brackets._coinduced_field``.  The
tangent map of the canonical flow equals the h_2 Lax field exactly (an
algebraic identity, not an approximation; ``intertwining_defect`` is
roundoff), and the h_k Poisson-commute under the lower-coinduced bracket
(``involution_defect``).

Positions above ~700 overflow exp.  Where a state comes from outside,
``toda_hamiltonian``, ``canonical_field``, ``flaschka`` and
``flaschka_tangent`` raise NumericalAbort for them rather than return inf.

The h_2 flow keeps rho lower bidiagonal, rho = diag(p) + sum_i b_i E_{i+1,i},
so it also runs on the real vector y = (p, b) of length 2N - 1:

    pdot_j = alpha_{j-1} b_{j-1} - alpha_j b_j,    bdot_i = b_i (p_i - p_{i+1}),

(out-of-range terms read as zero), the canonical equations again with
b_i = lam_i e^{x_i}.  ``bidiagonal_rhs(alpha)`` integrates that, O(N) per
call, and is checked against the dense ``lax_field``/``lax_rhs``; the Lax
flow of ``toda-run`` runs on it from the y of ``_flaschka_coords``.

The same flow also has a closed form, the QR form of the Adler-Kostant-Symes
solution (Symes, Physica D 4, 1982): J(t) = Q^T J0 Q with exp(-t J0 / 2) = QR,
J0 the Jacobi matrix of y (``_aks_coords``).  verify compares the canonical
flow with it.

``LaxPair``, ``lax_rhs(a)`` and ``bidiagonal_rhs(alpha)`` validate their
inputs when they are built, and ``canonical_rhs(template)`` takes the
weights of a validated ``TodaState``; the fields themselves trust them,
so a stage does no validation (a canonical stage is one unguarded
``np.exp``), and a diverging flow, also one whose positions pass the exp
limit, reaches the integrator's finiteness check instead of failing inside
a stage.

The Lax matrix L = rho + a of y = (p, b) is real and tridiagonal: diagonal
p, subdiagonal b, superdiagonal alpha (``_lax_matrix``).  ``toda-run``
evaluates h_1..h_kmax on the real stack of the L it records, and builds the
complex rho (``_bidiagonal_matrix``) only for the Lax flow's CSV columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brackets import (LOWER_COINDUCED, Observable, _canonical_grad,
                       _coinduced_field, casimir, lp_bracket)
from .integrators import NumericalAbort
from .operators import _json_size, as_matrix

__all__ = [
    "LaxPair",
    "TodaState",
    "bidiagonal_rhs",
    "canonical_field",
    "canonical_rhs",
    "default_weights",
    "flaschka",
    "flaschka_tangent",
    "intertwining_defect",
    "involution_defect",
    "lax_field",
    "lax_rhs",
    "pack",
    "toda_columns",
    "toda_from_json",
    "toda_hamiltonian",
    "toda_hk",
    "toda_to_json",
    "unpack",
]

X_OVERFLOW_LIMIT = 700.0  # np.exp overflows just above 709

MOMENTUM_TOL = 1e-12
# integration scrambles the telescoping cancellation slightly; unpack and
# toda-run's check of each recorded state tolerate that much drift
MOMENTUM_TOL_LOOSE = 1e-9


def _as_float_vector(v, length: int, label: str) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != length:
        raise ValueError(f"{label} must have length {length}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{label} must be finite")
    return v


def _momentum_vanishes(p: np.ndarray, tol: float) -> bool:
    """|sum p| <= tol for finite p, with no overflow on the way.

    The sum runs on p 2^-s with 2^s > N, which keeps every partial sum
    finite, against tol 2^-s: above the subnormal range, scaling by a power
    of two commutes with the rounding, so the decision is that of the plain
    float sum wherever that sum is finite."""
    s = p.size.bit_length()
    return abs(float(np.sum(np.ldexp(p, -s)))) <= math.ldexp(tol, -s)


@dataclass(frozen=True, eq=False)
class TodaState:
    """Canonical data (x, p) plus bond weights (alpha, lam) for N sites."""

    x: np.ndarray
    p: np.ndarray
    alpha: np.ndarray
    lam: np.ndarray

    def __init__(self, x, p, alpha, lam, momentum_tol: float = MOMENTUM_TOL):
        p = np.asarray(p, dtype=float).reshape(-1)
        n = p.size
        if n < 2:
            raise ValueError("Toda lattice needs at least 2 sites")
        object.__setattr__(self, "p", _as_float_vector(p, n, "p"))
        object.__setattr__(self, "x", _as_float_vector(x, n - 1, "x"))
        object.__setattr__(self, "alpha", _as_float_vector(alpha, n - 1, "alpha"))
        object.__setattr__(self, "lam", _as_float_vector(lam, n - 1, "lam"))
        if not _momentum_vanishes(self.p, momentum_tol):
            raise ValueError("total momentum must vanish")
        if np.any(self.lam == 0.0):
            raise ValueError("couplings lam must be nonzero")

    @property
    def n(self) -> int:
        return self.p.size


def default_weights(n: int):
    """(alpha, lam) with alpha_k = lam_k = 2^(-k), k = 0..n-2."""
    if n < 2:
        raise ValueError("Toda lattice needs at least 2 sites")
    w = 0.5 ** np.arange(n - 1, dtype=float)
    return w, w.copy()


def _bond_exponentials(x: np.ndarray) -> np.ndarray:
    if (x > X_OVERFLOW_LIMIT).any():
        raise NumericalAbort("Toda position exceeds the exp overflow limit")
    return np.exp(x)


def toda_hamiltonian(state: TodaState) -> float:
    """H = 1/2 sum p_k^2 + sum alpha_k lam_k e^{x_k}."""
    pot = state.alpha * state.lam * _bond_exponentials(state.x)
    return float(0.5 * np.sum(state.p ** 2) + np.sum(pot))


def _bond_telescope(c, out):
    """out_j = c_{j-1} - c_j for the N sites of N - 1 bond forces c."""
    out[0] = -c[0]
    np.subtract(c[:-1], c[1:], out=out[1:-1])
    out[-1] = c[-1]
    return out


def _canonical_field(bond_exp, p, weight, out):
    """(xdot, pdot) written into out[:N-1] and out[N-1:], from the bond
    exponentials e^{x_k} and weight = alpha lam."""
    m = bond_exp.size
    np.subtract(p[:-1], p[1:], out=out[:m])
    _bond_telescope(weight * bond_exp, out[m:])  # bond forces
    return out


def canonical_field(state: TodaState):
    """(xdot, pdot) of the canonical equations of motion."""
    m = state.x.size
    out = _canonical_field(_bond_exponentials(state.x), state.p,
                           state.alpha * state.lam, np.empty(2 * m + 1))
    return out[:m], out[m:]


def pack(state: TodaState) -> np.ndarray:
    """Flatten to the vector (x, p) of length 2N - 1."""
    return np.concatenate([state.x, state.p])


def unpack(y, template: TodaState) -> TodaState:
    """Rebuild a state from a packed vector, reusing the template's weights;
    its total momentum may drift by ``MOMENTUM_TOL_LOOSE``."""
    y = np.asarray(y, dtype=float).reshape(-1)
    n = template.n
    if y.size != 2 * n - 1:
        raise ValueError(f"packed vector must have length {2 * n - 1}")
    return TodaState(y[:n - 1], y[n - 1:], template.alpha, template.lam,
                     momentum_tol=MOMENTUM_TOL_LOOSE)


def canonical_rhs(template: TodaState):
    """rhs(t, y) on packed vectors, suitable for the rk4 integrator.

    The closure trusts y: positions past the exp limit give inf, and
    ``evolve``'s per-step check aborts the run."""
    weight, m = template.alpha * template.lam, template.n - 1

    def rhs(t, y):
        return _canonical_field(np.exp(y[:m]), y[m:], weight, np.empty_like(y))

    return rhs


def toda_columns(n: int):
    """CSV column names for packed states: x_1..x_{N-1}, p_1..p_N."""
    return [f"x_{k}" for k in range(1, n)] + [f"p_{k}" for k in range(1, n + 1)]


@dataclass(frozen=True, eq=False)
class LaxPair:
    """Lower-triangular state rho and the fixed strictly upper shift a."""

    rho: np.ndarray
    a: np.ndarray

    def __init__(self, rho, a):
        object.__setattr__(self, "rho", as_matrix(rho))
        object.__setattr__(self, "a", as_matrix(a))
        if self.rho.shape != self.a.shape:
            raise ValueError("rho and a must share one dimension")


def _tridiagonal(diag, lower, upper, dtype=float) -> np.ndarray:
    """The matrices with diagonal ``diag``, subdiagonal ``lower`` and
    superdiagonal ``upper``; an (R, N, N) stack for (R, ...) rows."""
    n = diag.shape[-1]
    k = np.arange(n)
    m = np.zeros((*diag.shape[:-1], n, n), dtype=dtype)
    m[..., k, k] = diag
    m[..., k[1:], k[:-1]] = lower
    m[..., k[:-1], k[1:]] = upper
    return m


def _bidiagonal_matrix(y) -> np.ndarray:
    """The complex matrix diag(p) + sum_i b_i E_{i+1,i} of y = (p, b), or
    the (R, N, N) stack of the R rows of an (R, 2N - 1) stack."""
    n = (y.shape[-1] + 1) // 2
    return _tridiagonal(y[..., :n], y[..., n:], 0.0, complex)


def _lax_matrix(y, alpha) -> np.ndarray:
    """The real Lax matrix L = rho + a of y = (p, b): diagonal p,
    subdiagonal b and superdiagonal alpha; row by row for a stack."""
    n = (y.shape[-1] + 1) // 2
    return _tridiagonal(y[..., :n], y[..., n:], alpha)


def _jacobi_matrix(y, alpha) -> np.ndarray:
    """The real symmetric tridiagonal matrix with diagonal p and off-diagonal
    sqrt(alpha_i b_i) of y = (p, b), row by row for an (R, 2N - 1) stack.

    Where every alpha_i b_i >= 0 it has the spectrum of L = rho + a: the
    characteristic polynomial of a tridiagonal matrix depends on its
    off-diagonal entries only through the products alpha_i b_i."""
    n = (y.shape[-1] + 1) // 2
    off = np.sqrt(alpha * y[..., n:])
    return _tridiagonal(y[..., :n], off, off)


def _flaschka_coords(x, p, lam) -> np.ndarray:
    """y = (p, b) of the Flaschka image of (x, p): b_i = lam_i e^{x_i}; row
    by row for (R, N - 1) and (R, N) stacks of x and p."""
    return np.concatenate([p, lam * _bond_exponentials(x)], axis=-1)


def _aks_coords(y, alpha, times) -> np.ndarray:
    """The exact (p, b) of the k = 2 flow from y at each of ``times``, as an
    (R, 2N - 1) stack: J(t) = Q^T J0 Q with exp(-t J0 / 2) = QR.

    Squaring J(t)'s subdiagonal drops the column signs QR leaves free.
    exp(-t J0 / 2) has condition number e^(t (lmax - lmin) / 2), which
    bounds how much of the roundoff reaches J(t)."""
    j0 = _jacobi_matrix(y, alpha)
    w, v = np.linalg.eigh(j0)
    t = np.asarray(times, dtype=float)[:, None, None]
    q, _ = np.linalg.qr((v * np.exp(-0.5 * t * w)) @ v.T)
    jt = np.swapaxes(q, -1, -2) @ j0 @ q
    k = np.arange(j0.shape[-1])
    return np.concatenate([jt[:, k, k], jt[:, k[1:], k[:-1]] ** 2 / alpha],
                          axis=-1)


def flaschka(state: TodaState) -> LaxPair:
    """rho = diag(p) + sum lam_k e^{x_k} E_{k+1,k}, a = sum alpha_k E_{k,k+1}."""
    n = state.n
    k = np.arange(n - 1)
    rho = _bidiagonal_matrix(_flaschka_coords(state.x, state.p, state.lam))
    a = np.zeros((n, n), dtype=complex)
    a[k, k + 1] = state.alpha
    return LaxPair(rho, a)


def flaschka_tangent(state: TodaState, xdot, pdot) -> np.ndarray:
    """Image of a canonical tangent (xdot, pdot) under the Flaschka map.

    d rho = diag(pdot) + sum lam_k e^{x_k} xdot_k E_{k+1,k}.
    """
    n = state.n
    xdot = _as_float_vector(xdot, n - 1, "xdot")
    pdot = _as_float_vector(pdot, n, "pdot")
    return _bidiagonal_matrix(
        np.concatenate([pdot, state.lam * _bond_exponentials(state.x) * xdot]))


def toda_hk(k: int, a) -> Observable:
    """h_k(rho) = tr((rho + a)^k) / k on lower-triangular states: the
    Casimir T_k of ``brackets.casimir`` at rho + a.

    Gradient representative: pi+ ((rho + a)^(k-1)).  h_2 is the image of the
    canonical Hamiltonian under the Flaschka map.
    """
    t_k, a = casimir(k), as_matrix(a)
    return Observable(
        lambda rho: t_k(as_matrix(rho) + a),
        lambda rho: _canonical_grad(LOWER_COINDUCED, t_k.grad(rho + a)))


def lax_field(pair: LaxPair) -> np.ndarray:
    """pi_lower([rho, pi+ (rho + a)]), the h_2 flow of the pair:
    ``lax_rhs(pair.a)`` at ``pair.rho``."""
    return lax_rhs(pair.a)(0.0, pair.rho)


def lax_rhs(a):
    """rhs(t, rho) for integrating the h_2 Lax flow at fixed a.

    a is validated here, once; the returned closure trusts rho to be a
    finite matrix of a's shape (``evolve`` checks each step's state).
    """
    a = as_matrix(a)

    def rhs(t, rho):
        return _coinduced_field(rho + a, rho)

    return rhs


def bidiagonal_rhs(alpha):
    """rhs(t, y) of the k = 2 Lax flow on y = (p, b), O(N) per call.

    With rho = diag(p) + sum_i b_i E_{i+1,i} and a = sum alpha_k E_{k,k+1},
    lax_field gives pdot_j = alpha_{j-1} b_{j-1} - alpha_j b_j and
    bdot_i = b_i (p_i - p_{i+1}), and nothing off the bidiagonal.  alpha is
    validated here, once; the returned closure trusts y to be a finite real
    vector of length 2N - 1 (``evolve`` checks each step's state).
    """
    n = np.size(alpha) + 1
    if n < 2:
        raise ValueError("Toda lattice needs at least 2 sites")
    alpha = _as_float_vector(alpha, n - 1, "alpha")

    def rhs(t, y):
        out = np.empty_like(y)
        p, b = y[:n], y[n:]
        _bond_telescope(alpha * b, out[:n])
        np.multiply(b, p[:-1] - p[1:], out=out[n:])
        return out

    return rhs


def intertwining_defect(state: TodaState) -> float:
    """max-abs gap between the pushed canonical field and the Lax field.

    The two agree identically; values at roundoff scale certify that the
    Flaschka map sends the canonical flow to the k = 2 Lax flow.
    """
    xdot, pdot = canonical_field(state)
    pushed = flaschka_tangent(state, xdot, pdot)
    pair = flaschka(state)
    return float(np.max(np.abs(pushed - lax_field(pair))))


def involution_defect(state: TodaState, j: int, k: int) -> float:
    """|{h_j, h_k}| under the lower-coinduced bracket at the Flaschka image."""
    pair = flaschka(state)
    hj = toda_hk(j, pair.a)
    hk = toda_hk(k, pair.a)
    return abs(lp_bracket(LOWER_COINDUCED, hj, hk, pair.rho))


def toda_to_json(state: TodaState) -> dict:
    return {
        "N": state.n,
        "x": [float(v) for v in state.x],
        "p": [float(v) for v in state.p],
        "alpha": [float(v) for v in state.alpha],
        "lambda": [float(v) for v in state.lam],
    }


def toda_from_json(payload: dict) -> TodaState:
    for key in ("N", "x", "p", "alpha", "lambda"):
        if key not in payload:
            raise ValueError(f"Toda payload missing {key!r}")
    n = _json_size(payload, "N")
    state = TodaState(payload["x"], payload["p"], payload["alpha"], payload["lambda"])
    if state.n != n:
        raise ValueError("declared N disagrees with the p vector")
    return state
