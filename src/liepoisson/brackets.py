"""Lie-Poisson brackets, Hamiltonian fields, Casimirs, and defect calculators.

Four bracket variants are supported, selected by a ``BracketSpec``:

* ``FULL`` -- {f,g}(rho) = tr([Df(rho), Dg(rho)] rho) on all matrices.
* ``LOWER_COINDUCED`` -- tr([pi+ Df, pi+ Dg] rho) on lower-triangular states,
  where pi+ keeps the upper-plus (column >= row) part of a gradient.  Gradient
  representatives live in the upper-plus algebra; a full-matrix gradient is
  projected before use, which is harmless because the pairing against a
  lower-triangular state cannot see the strictly lower part.
* ``HERMITIAN_REAL`` -- Re tr([df, dg] rho) on skew-Hermitian states, with
  gradients projected to their skew-Hermitian part (the representative of a
  real-linear functional under the real pairing Re tr).
* ``product(left, right)`` -- states are pairs, gradients are pairs, and the
  bracket is the sum of the partial brackets.

Sign conventions (fixed, and asserted by tests):

* FULL Hamiltonian field: X_h(rho) = [Dh(rho), rho], so that
  <Dg, X_h> = {g, h}.
* LOWER_COINDUCED Hamiltonian field: X_h(rho) = pi_lower([rho, pi+ Dh(rho)]),
  the opposite composite order.  This is the orientation for which the
  Flaschka image of the canonical Toda flow equals the Lax flow exactly
  (see the toda module); the price is a flipped pairing identity
  <Dg, X_h> = {h, g} on this bracket.

A zero state gives bracket value 0 for every variant (the structures are
linear in the state); that case is ordinary, not an error.

An ``Observable`` is a function with its gradient, all the bracket sees of
it.  Finite differences serve one case, the bracket of two non-linear
observables: ``bracket_observable`` takes ``fd_gradient`` over the spec's
state space, as every other function here takes the spec's space.

``lp_bracket``, ``ham_field`` and ``fd_gradient`` validate the state once,
on entry (see ``_state``); from there the gradients an observable returns
are taken as they come and every formula runs on the trusted kernels of
``operators``.
The coinduced field's kernel ``_coinduced_field`` also serves the Toda Lax
flows, and ``_pullback`` is the one composite f o phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .operators import (
    DEFAULT_TOL,
    ClassTag,
    _commutator,
    _holds,
    _matrix_pair,
    _skew_hermitian_part,
    _trace_pairing,
    as_matrix,
    elementary,
    project_lower,
    project_upper_plus,
    skew_hermitian_part,
    trace_pairing,
)

__all__ = [
    "FULL",
    "HERMITIAN_REAL",
    "LOWER_COINDUCED",
    "BracketSpec",
    "MatrixLinearMap",
    "Observable",
    "bracket_observable",
    "casimir",
    "fd_gradient",
    "ham_field",
    "inclusion_lower_map",
    "jacobi_defect",
    "leibniz_defect",
    "lower_projection_map",
    "lp_bracket",
    "pair_inclusion_map",
    "poisson_map_defect",
    "product",
    "product_observable",
    "reduction_condition_defect",
]

# Central-difference steps: first derivatives, and gradients of quantities
# that are themselves bracket evaluations (one differentiation deep already).
FD_STEP = 1e-5
FD_STEP_NESTED = 1e-4


@dataclass(frozen=True)
class BracketSpec:
    """Which Poisson structure is in force.

    kind is one of "full", "lower_coinduced", "hermitian_real", "product";
    for "product" the two factor specs are carried along.
    """

    kind: str
    left: Optional["BracketSpec"] = None
    right: Optional["BracketSpec"] = None


FULL = BracketSpec("full")
LOWER_COINDUCED = BracketSpec("lower_coinduced")
HERMITIAN_REAL = BracketSpec("hermitian_real")


def product(left: BracketSpec, right: BracketSpec) -> BracketSpec:
    return BracketSpec("product", left, right)


class Observable:
    """Scalar function of a state with its gradient representative.

    The gradient is the matrix G with df(rho).delta = tr(G delta) (for the
    product bracket, a pair of such matrices); every observable carries one.
    ``linear`` marks constant gradients, which lets bracket-of-bracket
    constructions stay exact.
    """

    def __init__(self, evaluate, gradient, *, linear=False):
        self._eval = evaluate
        self.grad = gradient
        self.linear = bool(linear)

    def __call__(self, rho):
        return self._eval(rho)

    @classmethod
    def linear_form(cls, a) -> "Observable":
        """f(rho) = tr(a rho) with constant gradient a."""
        a = as_matrix(a)
        return cls(lambda rho: trace_pairing(a, rho), lambda rho: a, linear=True)

    @classmethod
    def quadratic_form(cls, a, b) -> "Observable":
        """f(rho) = tr(a rho b rho) with gradient b rho a + a rho b."""
        a, b = as_matrix(a), as_matrix(b)
        return cls(lambda rho: complex(np.trace(a @ rho @ b @ rho)),
                   lambda rho: b @ rho @ a + a @ rho @ b)

    @classmethod
    def real_linear_form(cls, a) -> "Observable":
        """f(rho) = Re tr(a rho) with constant skew-sense gradient.

        For skew-Hermitian a the matrix a is already its own representative
        under Re tr restricted to skew-Hermitian states; general a is
        projected first.
        """
        a = skew_hermitian_part(as_matrix(a))
        return cls(lambda rho: float(trace_pairing(a, rho).real),
                   lambda rho: a, linear=True)

    @classmethod
    def pair_linear(cls, a1, a2) -> "Observable":
        """f(r1, r2) = tr(a1 r1) + tr(a2 r2) on product states."""
        a1, a2 = as_matrix(a1), as_matrix(a2)
        return cls(lambda rr: trace_pairing(a1, rr[0]) + trace_pairing(a2, rr[1]),
                   lambda rr: (a1, a2), linear=True)


def _state(spec: BracketSpec, state):
    """The state as validated matrices (a pair of them for a product spec).

    Raises ValueError unless the state lies in the spec's state space, to
    ``DEFAULT_TOL``.
    """
    if spec.kind == "product":
        if not (isinstance(state, tuple) and len(state) == 2):
            raise ValueError("product bracket expects a pair state")
        return _state(spec.left, state[0]), _state(spec.right, state[1])
    if spec.kind not in ("full", "lower_coinduced", "hermitian_real"):
        raise ValueError(f"unknown bracket spec kind {spec.kind!r}")
    rho = as_matrix(state)
    if spec.kind == "lower_coinduced":
        if not _holds(ClassTag.LOWER_TRIANGULAR, rho, DEFAULT_TOL):
            raise ValueError("lower_coinduced bracket needs a lower-triangular state")
    elif spec.kind == "hermitian_real":
        if not _holds(ClassTag.SKEW_HERMITIAN, rho, DEFAULT_TOL):
            raise ValueError("hermitian_real bracket needs a skew-Hermitian state")
    return rho


def _coinduced_field(dh: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """pi_lower([rho, pi+ dh]), the lower-coinduced Hamiltonian field of a
    function with gradient dh at rho (see the module docstring)."""
    return np.tril(_commutator(rho, np.triu(dh)))


def _canonical_grad(spec: BracketSpec, g):
    """Project a gradient onto the representative subspace of the spec."""
    g = np.asarray(g, dtype=complex)
    if spec.kind == "lower_coinduced":
        return np.triu(g)
    if spec.kind == "hermitian_real":
        return _skew_hermitian_part(g)
    return g


def _grad_commutator(spec: BracketSpec, df, dg):
    """[df, dg] of the spec's gradient representatives, pairwise for a
    product spec."""
    if spec.kind == "product":
        return (_grad_commutator(spec.left, df[0], dg[0]),
                _grad_commutator(spec.right, df[1], dg[1]))
    return _commutator(_canonical_grad(spec, df), _canonical_grad(spec, dg))


def _partial_bracket(spec: BracketSpec, df, dg, rho):
    """tr([df, dg] rho), summed over the slots of a product spec."""
    if spec.kind == "product":
        return (_partial_bracket(spec.left, df[0], dg[0], rho[0])
                + _partial_bracket(spec.right, df[1], dg[1], rho[1]))
    value = _trace_pairing(_grad_commutator(spec, df, dg), rho)
    if spec.kind == "hermitian_real":
        return float(value.real)
    return value


def lp_bracket(spec: BracketSpec, f: Observable, g: Observable, state):
    """Evaluate the Lie-Poisson bracket {f, g} at the given state.

    Returns a complex number for full/lower_coinduced/product and a float for
    hermitian_real (a bracket of real functions on a real subspace).
    """
    state = _state(spec, state)
    return _partial_bracket(spec, f.grad(state), g.grad(state), state)


def _partial_field(spec: BracketSpec, dh, rho):
    """The field of gradient dh at rho, slot by slot for a product spec."""
    if spec.kind == "product":
        return (_partial_field(spec.left, dh[0], rho[0]),
                _partial_field(spec.right, dh[1], rho[1]))
    if spec.kind == "lower_coinduced":
        return _coinduced_field(np.asarray(dh, dtype=complex), rho)
    return _commutator(_canonical_grad(spec, dh), rho)


def ham_field(spec: BracketSpec, h: Observable, state):
    """Hamiltonian vector field of h at the state, per the fixed conventions."""
    state = _state(spec, state)
    return _partial_field(spec, h.grad(state), state)


def fd_gradient(spec: BracketSpec, func: Callable, state, step: float = FD_STEP):
    """Central-difference gradient of func over the spec's state space.

    The result is the spec's gradient representative G: df . delta =
    tr(G delta) (Re tr for hermitian_real) for every delta in that space.
    ``full`` probes every entry, ``lower_coinduced`` the entries with row >=
    column (so G is upper-plus), ``hermitian_real`` a real orthogonal basis
    of the skew-Hermitian matrices, and a product each slot over its own
    factor's space, the other slot held fixed.
    """
    return _fd_gradient(spec, func, _state(spec, state), step)


def _fd_gradient(spec: BracketSpec, func: Callable, rho, step: float):
    """``fd_gradient`` at a validated state."""
    if spec.kind == "product":
        left, right = rho
        return (_fd_gradient(spec.left, lambda m: func((m, right)), left, step),
                _fd_gradient(spec.right, lambda m: func((left, m)), right, step))
    n = rho.shape[0]
    g = np.zeros((n, n), dtype=complex)
    if spec.kind == "hermitian_real":
        # a real orthogonal basis of the skew-Hermitian matrices; under the
        # pairing Re tr(XY) it has norm -1, hence the sign below
        basis = [1j * elementary(n, k, k) for k in range(n)]
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        for i, j in zip(*np.triu_indices(n, 1)):
            basis.append((elementary(n, i, j) - elementary(n, j, i)) * inv_sqrt2)
            basis.append(1j * (elementary(n, i, j) + elementary(n, j, i)) * inv_sqrt2)
        for b in basis:
            slope = (func(rho + step * b) - func(rho - step * b)) / (2.0 * step)
            g -= float(np.real(slope)) * b
        return g
    entries = (zip(*np.tril_indices(n)) if spec.kind == "lower_coinduced"
               else np.ndindex(n, n))
    for i, j in entries:
        e = np.zeros((n, n), dtype=complex)
        e[i, j] = step
        d_re = (func(rho + e) - func(rho - e)) / (2.0 * step)
        d_im = (func(rho + 1j * e) - func(rho - 1j * e)) / (2.0 * step)
        # G[j, i] = d f / d rho_ij, the Wirtinger derivative; it equals the
        # complex derivative for holomorphic (polynomial-in-entries) observables.
        g[j, i] = 0.5 * (d_re - 1j * d_im)
    return g


def casimir(k: int) -> Observable:
    """T_k(rho) = tr(rho^k) / k, with analytic gradient rho^(k-1).

    Casimir of the full bracket: its Hamiltonian field [rho^(k-1), rho]
    vanishes identically.
    """
    if k < 1:
        raise ValueError("casimir index must be a positive integer")

    def evaluate(rho):
        rho = as_matrix(rho)
        return complex(np.trace(np.linalg.matrix_power(rho, k))) / k

    def gradient(rho):
        rho = as_matrix(rho)
        return np.linalg.matrix_power(rho, k - 1)

    return Observable(evaluate, gradient, linear=(k == 1))


def bracket_observable(spec: BracketSpec, f: Observable, g: Observable) -> Observable:
    """The function rho -> {f, g}(rho) as an Observable.

    When both arguments are linear the bracket is again linear with the exact
    gradient [df, dg] of projected representatives; otherwise its gradient is
    ``fd_gradient`` over the spec's state space with step
    ``FD_STEP_NESTED``, called by its global name so that a rebound one (a
    tracer, the coverage recorder) sees the call.
    """
    def value(rho):
        return lp_bracket(spec, f, g, rho)

    if f.linear and g.linear:
        return Observable(value,
                          lambda rho: _grad_commutator(spec, f.grad(rho),
                                                       g.grad(rho)),
                          linear=True)
    return Observable(value,
                      lambda rho: fd_gradient(spec, value, rho, FD_STEP_NESTED))


def jacobi_defect(spec: BracketSpec, f: Observable, g: Observable, h: Observable,
                  state) -> float:
    """|{{f,g},h} + {{g,h},f} + {{h,f},g}| at the state."""
    total = 0.0 + 0.0j
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        inner = bracket_observable(spec, a, b)
        total += lp_bracket(spec, inner, c, state)
    return abs(total)


def product_observable(f: Observable, g: Observable) -> Observable:
    """Pointwise product f*g with gradient f(rho) Dg(rho) + g(rho) Df(rho)."""
    def gradient(rho):
        fg, gg = f.grad(rho), g.grad(rho)
        if isinstance(fg, tuple):
            fv, gv = f(rho), g(rho)
            return tuple(fv * b + gv * a for a, b in zip(fg, gg))
        return f(rho) * gg + g(rho) * fg

    return Observable(lambda rho: f(rho) * g(rho), gradient)


def leibniz_defect(spec: BracketSpec, f: Observable, g: Observable, h: Observable,
                   state) -> float:
    """|{f g, h} - f {g, h} - g {f, h}| at the state."""
    fg = product_observable(f, g)
    lhs = lp_bracket(spec, fg, h, state)
    rhs = (f(state) * lp_bracket(spec, g, h, state)
           + g(state) * lp_bracket(spec, f, h, state))
    return abs(lhs - rhs)


class MatrixLinearMap:
    """A linear map between matrix state spaces with its trace-pairing adjoint.

    ``apply`` sends states forward; ``adjoint`` pulls gradient representatives
    back (the chain rule for f o phi reads D(f o phi)(rho) = phi*(Df(phi rho))).
    """

    def __init__(self, apply: Callable, adjoint: Callable):
        self.apply = apply
        self.adjoint = adjoint


def _pullback(f: Observable, phi: MatrixLinearMap) -> Observable:
    """f o phi, with the chain-rule gradient phi*(Df(phi rho))."""
    return Observable(lambda s: f(phi.apply(s)),
                      lambda s: phi.adjoint(f.grad(phi.apply(s))),
                      linear=f.linear)


def lower_projection_map() -> MatrixLinearMap:
    """pi_lower as a map from the full space onto lower-triangular states.

    Its trace-pairing adjoint is pi_upper_plus acting on gradient
    representatives.  This map intertwines the full bracket upstairs with the
    coinduced bracket downstairs.
    """
    return MatrixLinearMap(project_lower, project_upper_plus)


def inclusion_lower_map() -> MatrixLinearMap:
    """The inclusion of lower-triangular states into the full space.

    Not a Poisson map in general: the full bracket sees strictly lower
    gradient content that the coinduced bracket discards.  Used as the
    negative control.
    """
    return MatrixLinearMap(lambda rho: as_matrix(rho), project_upper_plus)


def pair_inclusion_map(slot: int, zero_dim: int) -> MatrixLinearMap:
    """b -> (b, 0) or b -> (0, b) into a product state space.

    The missing component is the zero matrix of the given dimension; the
    adjoint keeps the occupied slot of a pair gradient.
    """
    if slot not in (0, 1):
        raise ValueError("slot must be 0 or 1")
    z = np.zeros((zero_dim, zero_dim), dtype=complex)

    def apply(b):
        b = as_matrix(b)
        return (b, z) if slot == 0 else (z, b)

    return MatrixLinearMap(apply, lambda gg: as_matrix(gg[slot]))


def poisson_map_defect(phi: MatrixLinearMap, src: BracketSpec, dst: BracketSpec,
                       f: Observable, g: Observable, state) -> float:
    """|{f o phi, g o phi}_src(state) - {f, g}_dst(phi(state))|.

    Zero (to roundoff) exactly when phi respects the two structures at the
    given state; f and g are observables on the destination space.
    """
    upstairs = lp_bracket(src, _pullback(f, phi), _pullback(g, phi), state)
    downstairs = lp_bracket(dst, f, g, phi.apply(state))
    return abs(upstairs - downstairs)


def reduction_condition_defect(apply_map: Callable, dual_map: Callable,
                               fbar: Observable, gbar: Observable, rho,
                               realified: bool = False) -> float:
    """Defect of the bracket-compatibility condition for a projection R.

    Functions on the reduced space extend to the ambient space as f = fbar o R
    with gradient R*(Dfbar(R rho)).  The defect compares the ambient bracket
    of two such extensions at rho against the reduced bracket of fbar, gbar at
    R(rho); both sides pair the same commutator of lifted gradients, one
    against rho and one against R(rho).  ``realified`` selects the real
    pairing Re tr with skew-Hermitian lifted gradients, the correct reading
    for real-linear projections such as the skew-Hermitian part.
    """
    # each map output is checked here, square, finite and of rho's shape,
    # and R for idempotence, before the trusted kernel runs
    rho = as_matrix(rho)
    image = _matrix_pair(rho, apply_map(rho))[1]
    again = _matrix_pair(rho, apply_map(image))[1]
    if float(np.max(np.abs(again - image))) > 1e-10:
        raise ValueError("reduction map is not idempotent")
    a, b = (_matrix_pair(rho, dual_map(obs.grad(image)))[1] for obs in (fbar, gbar))
    return _lifted_condition_defect(a, b, rho, image, realified)


def _lifted_condition_defect(a, b, rho, image, realified: bool = False) -> float:
    """``reduction_condition_defect`` from the lifted gradients
    a = R*(Dfbar(R rho)) and b = R*(Dgbar(R rho)), the state and its image
    R(rho): one commutator of their representatives, paired against rho and
    against R(rho), the real part for ``realified``.  Whether R is idempotent
    is the caller's to check."""
    comm = _grad_commutator(HERMITIAN_REAL if realified else FULL, a, b)
    gap = _trace_pairing(comm, rho) - _trace_pairing(comm, image)
    return abs(gap.real if realified else gap)
