"""Toda lattice: canonical flow, Flaschka change of variables, Lax hierarchy."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liepoisson import brackets as br
from liepoisson import integrators as it
from liepoisson import operators as op
from liepoisson import toda as td
from liepoisson.fixtures import seeded_random_state

SEEDS = st.integers(min_value=0, max_value=10**6)


def _two_site_state():
    return td.TodaState([0.0], [1.0, -1.0], [1.0], [1.0])


def test_two_site_worked_example():
    state = _two_site_state()
    pair = td.flaschka(state)
    assert np.array_equal(pair.rho, [[1, 0], [1, -1]])
    assert np.array_equal(pair.a, [[0, 1], [0, 0]])
    assert np.array_equal(pair.rho + pair.a, [[1, 1], [1, -1]])
    h2 = td.toda_hk(2, pair.a)
    assert h2(pair.rho) == 2.0
    assert td.toda_hamiltonian(state) == 2.0
    assert np.array_equal(td.lax_field(pair), [[-1, 0], [2, 1]])
    xdot, pdot = td.canonical_field(state)
    assert np.array_equal(xdot, [2.0])
    assert np.array_equal(pdot, [-1.0, 1.0])
    assert td.intertwining_defect(state) == 0.0


def test_state_validation():
    with pytest.raises(ValueError):
        td.TodaState([], [0.0], [], [])
    with pytest.raises(ValueError):
        td.TodaState([0.0], [1.0, 1.0], [1.0], [1.0])  # momentum not zero
    with pytest.raises(ValueError):
        td.TodaState([0.0], [1.0, -1.0], [1.0], [0.0])  # coupling vanishes
    with pytest.raises(ValueError):
        td.TodaState([0.0, 0.0], [1.0, -1.0], [1.0, 1.0], [1.0, 1.0])


def test_default_weights_are_halving():
    alpha, lam = td.default_weights(4)
    assert np.array_equal(alpha, [1.0, 0.5, 0.25])
    assert np.array_equal(lam, alpha)
    with pytest.raises(ValueError):
        td.default_weights(1)


def test_hamiltonian_factors_through_flaschka():
    state = seeded_random_state(170, "toda", 6)
    pair = td.flaschka(state)
    h2 = td.toda_hk(2, pair.a)
    assert abs(complex(h2(pair.rho)) - td.toda_hamiltonian(state)) < 1e-12


def test_canonical_field_matches_fd_of_hamiltonian():
    # relative coordinates: xdot_k = dH/dp_k - dH/dp_{k+1} and the bond force
    # dH/dx_k enters pdot with the telescoping sign pattern
    state = seeded_random_state(171, "toda", 5)
    n, nb = state.n, state.n - 1
    xdot, pdot = td.canonical_field(state)
    h = 1e-6

    def energy(dx, dp):
        moved = td.TodaState(state.x + dx, state.p + dp, state.alpha,
                             state.lam, momentum_tol=1.0)
        return td.toda_hamiltonian(moved)

    gx = np.zeros(nb)
    for k in range(nb):
        dx = np.zeros(nb)
        dx[k] = h
        gx[k] = (energy(dx, 0.0) - energy(-dx, 0.0)) / (2 * h)
    gp = np.zeros(n)
    for k in range(n):
        dp = np.zeros(n)
        dp[k] = h
        gp[k] = (energy(0.0, dp) - energy(0.0, -dp)) / (2 * h)

    want_pdot = np.concatenate([[-gx[0]], gx[:-1] - gx[1:], [gx[-1]]])
    assert np.max(np.abs(pdot - want_pdot)) < 1e-6
    assert np.max(np.abs(xdot - (gp[:-1] - gp[1:]))) < 1e-6


def test_momentum_is_conserved_by_the_field():
    state = seeded_random_state(172, "toda", 8)
    _, pdot = td.canonical_field(state)
    assert abs(np.sum(pdot)) < 1e-13


def test_pack_unpack_roundtrip_and_rhs_agreement():
    state = seeded_random_state(173, "toda", 6)
    y = td.pack(state)
    back = td.unpack(y, state)
    assert np.array_equal(back.x, state.x)
    assert np.array_equal(back.p, state.p)
    with pytest.raises(ValueError):
        td.unpack(y[:-1], state)

    rhs = td.canonical_rhs(state)
    xdot, pdot = td.canonical_field(state)
    assert np.array_equal(rhs(0.0, y), np.concatenate([xdot, pdot]))


def test_canonical_rhs_gives_the_bits_of_the_field():
    for n in range(2, 65):
        for seed in (n, 1000 + n):
            state = seeded_random_state(seed, "toda", n)
            got = td.canonical_rhs(state)(0.0, td.pack(state))
            field = np.concatenate(td.canonical_field(state))
            assert got.tobytes() == field.tobytes(), n
            # the equations of motion written out, in the kernel's order
            # of operations: forces (alpha lam) e^x, then their telescope
            c = state.alpha * state.lam * np.exp(state.x)
            pdot = np.concatenate([[-c[0]], c[:-1] - c[1:], [c[-1]]])
            want = np.concatenate([state.p[:-1] - state.p[1:], pdot])
            assert got.tobytes() == want.tobytes(), n


def test_flaschka_tangent_is_the_derivative_of_flaschka():
    state = seeded_random_state(174, "toda", 5)
    xdot, pdot = td.canonical_field(state)
    h = 1e-6

    def image(sign):
        moved = td.TodaState(state.x + sign * h * xdot, state.p + sign * h * pdot,
                             state.alpha, state.lam, momentum_tol=1.0)
        return td.flaschka(moved).rho

    fd = (image(+1) - image(-1)) / (2 * h)
    got = td.flaschka_tangent(state, xdot, pdot)
    assert np.max(np.abs(fd - got)) < 1e-7


def test_hk_gradient_matches_fd_on_lower_states():
    state = seeded_random_state(175, "toda", 4)
    pair = td.flaschka(state)
    h3 = td.toda_hk(3, pair.a)
    fd = br.fd_gradient(br.LOWER_COINDUCED, h3, pair.rho)
    assert np.max(np.abs(fd - op.project_upper_plus(h3.grad(pair.rho)))) < 1e-7
    with pytest.raises(ValueError):
        td.toda_hk(0, pair.a)


def test_intertwining_on_random_states():
    for seed in range(30):
        state = seeded_random_state(300 + seed, "toda", 8)
        assert td.intertwining_defect(state) < 1e-12


def test_hierarchy_is_in_involution():
    state = seeded_random_state(176, "toda", 8)
    # the first flow is generated by the trace, which brackets to zero exactly
    assert td.involution_defect(state, 1, 3) == 0.0
    for j, k in ((2, 3), (2, 4), (3, 4), (4, 5)):
        assert td.involution_defect(state, j, k) < 1e-10


def test_canonical_and_lax_flows_agree_through_flaschka():
    state = seeded_random_state(177, "toda", 6)
    pair = td.flaschka(state)
    cfg = it.IntegratorConfig(dt=1e-3, steps=500, stride=100)
    can = it.evolve(td.pack(state), cfg, rhs=td.canonical_rhs(state))
    lax = it.evolve(pair.rho, cfg, rhs=td.lax_rhs(pair.a))
    end_can = td.flaschka(td.unpack(can.states[-1], state)).rho
    assert np.max(np.abs(end_can - lax.states[-1])) < 1e-8


def test_lax_flow_preserves_the_spectrum():
    state = seeded_random_state(178, "toda", 6)
    pair = td.flaschka(state)
    cfg = it.IntegratorConfig(dt=1e-3, steps=500, stride=100)
    traj = it.evolve(pair.rho, cfg, rhs=td.lax_rhs(pair.a))
    full = it.Trajectory(times=traj.times, states=traj.states + pair.a)
    assert it.spectral_drift(full) < 1e-9


def test_overflow_positions_abort():
    # the public entries check the positions of a state from outside
    state = td.TodaState([800.0], [0.0, 0.0], [1.0], [1.0])
    assert state.x[0] > td.X_OVERFLOW_LIMIT
    for entry in (td.toda_hamiltonian, td.flaschka, td.canonical_field,
                  lambda s: td.flaschka_tangent(s, [0.0], [0.0, 0.0])):
        with pytest.raises(it.NumericalAbort, match="exp overflow limit"):
            entry(state)


def test_canonical_flow_past_the_exp_limit_aborts_at_the_step_check():
    # the stages trust their positions.  alpha < 0 makes the bond attract,
    # and lambda = 1e-300 keeps its force negligible below x ~ 690: x gains
    # 200 a step, the stages of step 4 pass the exp limit, e^x turns inf,
    # and evolve's per-step finiteness check ends the run
    state = td.TodaState([0.0], [100.0, -100.0], [-1.0], [1e-300])
    cfg = it.IntegratorConfig(dt=1.0, steps=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(it.NumericalAbort,
                           match="^non-finite state after step 4$"):
            it.evolve(td.pack(state), cfg, rhs=td.canonical_rhs(state))


def test_momentum_check_cannot_overflow():
    huge = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # every float sum of these momenta in this order overflows; their
        # total is 0, or 3.4e308
        state = td.TodaState([0.0] * 3, [huge, huge, -huge, -huge],
                             [1.0] * 3, [1.0] * 3)
        with pytest.raises(ValueError, match="total momentum must vanish"):
            td.TodaState([0.0] * 3, [huge, huge, huge, -huge], [1.0] * 3,
                         [1.0] * 3)
        # under the float boundary of the CLI, unpack takes the same check
        with np.errstate(over="raise", invalid="raise"):
            again = td.unpack(td.pack(state), state)
    assert np.array_equal(again.p, state.p)


@given(SEEDS)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_momentum_check_decides_as_the_float_sum(seed):
    # momenta whose sum cannot overflow decide as np.sum does; the same
    # momenta scaled by 2^e to where a plain sum could overflow decide as
    # they do, since scaling by a power of two commutes with the rounding
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    p = rng.standard_normal(n)
    p[-1] = -np.sum(p[:-1]) + rng.choice([0.0, 1e-13, 1e-12, 1e-11])
    tol = td.MOMENTUM_TOL
    vanishes = abs(float(np.sum(p))) <= tol
    assert td._momentum_vanishes(p, tol) == vanishes
    e = 1023 - int(np.frexp(np.max(np.abs(p)))[1])  # max|p| 2^e >= 2^1022
    huge = np.ldexp(p, e)
    assert np.max(np.abs(huge)) > sys.float_info.max / (2 * n)
    assert td._momentum_vanishes(huge, math.ldexp(tol, e)) == vanishes


def test_columns_for_csv_output():
    assert td.toda_columns(3) == ["x_1", "x_2", "p_1", "p_2", "p_3"]


def test_json_roundtrip_is_exact():
    state = seeded_random_state(179, "toda", 5)
    payload = td.toda_to_json(state)
    assert payload["N"] == 5
    back = td.toda_from_json(payload)
    assert np.array_equal(back.x, state.x)
    assert np.array_equal(back.p, state.p)
    assert np.array_equal(back.lam, state.lam)
    with pytest.raises(ValueError):
        td.toda_from_json({"N": 2, "x": [0.0], "p": [1.0, -1.0], "alpha": [1.0]})
    bad = dict(payload)
    bad["N"] = 7
    with pytest.raises(ValueError):
        td.toda_from_json(bad)


def test_array_records_compare_and_hash_by_identity():
    # equal but distinct arrays have no single truth value to compare by
    def build():
        state = seeded_random_state(179, "toda", 4)
        traj = it.Trajectory(np.arange(2.0), np.zeros((2, 7)))
        return state, td.flaschka(state), traj

    for a, b in zip(build(), build()):
        assert (a == b) is False
        assert (a == a) is True
        assert a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=8))
def test_intertwining_property(seed, n):
    state = seeded_random_state(seed, "toda", n)
    assert td.intertwining_defect(state) < 1e-12


@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_involution_property(seed):
    state = seeded_random_state(seed, "toda", 6)
    assert td.involution_defect(state, 2, 3) < 1e-10


# ------------------------------------------- the k = 2 flow on (p, b)

def test_bidiagonal_coordinates_round_trip():
    state = seeded_random_state(181, "toda", 5)
    rho = td.flaschka(state).rho
    y = td._flaschka_coords(state.x, state.p, state.lam)
    assert np.array_equal(y, np.concatenate([state.p, state.lam * np.exp(state.x)]))
    assert np.array_equal(td._bidiagonal_matrix(y), rho)
    assert y.tobytes() == np.concatenate([rho.diagonal().real,
                                          rho.diagonal(-1).real]).tobytes()


def test_bidiagonal_field_is_the_dense_lax_field():
    # the dense route sums p_j^2 against alpha b terms, so its roundoff
    # scales with |L|^2; the full matrix is compared, off-bidiagonal too
    eps = np.finfo(float).eps
    for n in range(2, 65):
        for seed in (0, 1, 2):
            state = seeded_random_state(1000 * n + seed, "toda", n)
            pair = td.flaschka(state)
            y = td._flaschka_coords(state.x, state.p, state.lam)
            field = td.bidiagonal_rhs(state.alpha)(0.0, y)
            gap = np.max(np.abs(td._bidiagonal_matrix(field) - td.lax_field(pair)))
            lax = pair.rho + pair.a
            assert gap <= 4 * eps * max(1.0, np.max(np.abs(lax))) ** 2, (n, seed)


@pytest.mark.parametrize("n", [2, 3, 8, 16, 33])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lax_field_is_the_coinduced_hamiltonian_field_of_hk(n, k):
    # the h_k flow is ham_field of h_k under the lower-coinduced bracket, with
    # the bits of the public-operator formula; lax_field and lax_rhs are h_2's
    pair = td.flaschka(seeded_random_state(1900 + n, "toda", n))
    rho, a = pair.rho, pair.a
    want = br.ham_field(br.LOWER_COINDUCED, td.toda_hk(k, a), rho)
    m = op.project_upper_plus(np.linalg.matrix_power(rho + a, k - 1))
    assert op.project_lower(op.commutator(rho, m)).tobytes() == want.tobytes()
    if k == 2:
        assert td.lax_field(pair).tobytes() == want.tobytes()
        assert td.lax_rhs(a)(0.0, rho).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_toda_hk_is_the_casimir_at_rho_plus_a(k):
    # h_k is T_k pulled back along rho -> rho + a, its gradient pi+ of T_k's
    pair = td.flaschka(seeded_random_state(1950 + k, "toda", 6))
    lax = pair.rho + pair.a
    hk, t_k = td.toda_hk(k, pair.a), br.casimir(k)
    assert np.array(hk(pair.rho)).tobytes() == np.array(t_k(lax)).tobytes()
    want = op.project_upper_plus(t_k.grad(lax))
    assert hk.grad(pair.rho).tobytes() == want.tobytes()
    # and, by an independent route, sum_i lambda_i^k / k over the spectrum
    exact = np.sum(np.linalg.eigvals(lax) ** k) / k
    assert abs(hk(pair.rho) - exact) <= 1e-12 * max(1.0, abs(exact))


def test_bidiagonal_rhs_validates_alpha_once():
    with pytest.raises(ValueError):
        td.bidiagonal_rhs([])
    with pytest.raises(ValueError):
        td.bidiagonal_rhs([1.0, np.nan])
    rhs = td.bidiagonal_rhs([1.0])
    # two sites, p = (1, -1), b = 1: the worked example's lax_field
    assert np.array_equal(rhs(0.0, np.array([1.0, -1.0, 1.0])), [-1.0, 1.0, 2.0])


def _doolittle(m):
    """m = lower @ upper, lower unit lower-triangular, without pivoting."""
    lower, upper = np.eye(m.shape[0], dtype=m.dtype), m.copy()
    for j in range(m.shape[0] - 1):
        factors = upper[j + 1:, j] / upper[j, j]
        lower[j + 1:, j] = factors
        upper[j + 1:] -= np.outer(factors, upper[j])
    return lower, upper


def _aks_lax(lax0, t):
    """Adler-Kostant-Symes: L(t) = N^-1 L0 N, where exp(-t L0) = N B.

    L' = [L, pi+ L] is the k = 2 flow of L = rho + a.  cond(exp(-t L0)) is
    e^(t spread(spec L0)), and N inherits it as t grows (at N = 32, t = 10
    cond(N) is ~1e11), so the oracle is only used at short times.
    """
    lower, _ = _doolittle(op.expm(-t * lax0))
    return np.linalg.solve(lower, lax0 @ lower), np.linalg.cond(lower)


@pytest.mark.parametrize("n, t", [(8, 2.0), (32, 0.2)])
def test_qr_and_lu_forms_of_the_aks_solution_agree(n, t):
    # two exact routes: Q^T J0 Q with exp(-t J0 / 2) = QR on the Jacobi
    # matrix, and N^-1 L0 N with exp(-t L0) = N B on the Lax matrix
    state = seeded_random_state(180 + n, "toda", n)
    pair = td.flaschka(state)
    exact, cond = _aks_lax(pair.rho + pair.a, t)
    assert cond < 100.0
    qr = td._aks_coords(td._flaschka_coords(state.x, state.p, state.lam),
                        state.alpha, [t])
    assert qr.shape == (1, 2 * n - 1)
    assert np.max(np.abs(td._lax_matrix(qr[0], state.alpha) - exact)) <= 1e-12


# RK4 at dt = 1e-3 is off by 4.8e-14, 1.6e-14 and 1.4e-11 on these states
# (the next test shows that gap is the O(dt^4) step error)
@pytest.mark.parametrize("n, t, tol", [(8, 2.0, 1e-12), (32, 0.2, 1e-12),
                                       (32, 2.0, 1e-10)])
def test_both_lax_flows_match_the_aks_solution(n, t, tol):
    state = seeded_random_state(180 + n, "toda", n)
    pair = td.flaschka(state)
    exact, cond = _aks_lax(pair.rho + pair.a, t)
    assert cond < 100.0
    cfg = it.IntegratorConfig(dt=1e-3, steps=int(round(t / 1e-3)), stride=10**6)
    pb = it.evolve(td._flaschka_coords(state.x, state.p, state.lam), cfg,
                   rhs=td.bidiagonal_rhs(state.alpha))
    dense = it.evolve(pair.rho, cfg, rhs=td.lax_rhs(pair.a))
    assert np.max(np.abs(td._bidiagonal_matrix(pb.states[-1]) + pair.a - exact)) < tol
    assert np.max(np.abs(dense.states[-1] + pair.a - exact)) < tol


def test_bidiagonal_flow_converges_at_fourth_order_to_the_aks_solution():
    state = seeded_random_state(188, "toda", 8)
    pair = td.flaschka(state)
    exact, _ = _aks_lax(pair.rho + pair.a, 2.0)
    errors = []
    for dt in (4e-3, 2e-3):
        cfg = it.IntegratorConfig(dt=dt, steps=int(round(2.0 / dt)), stride=10**6)
        end = it.evolve(td._flaschka_coords(state.x, state.p, state.lam), cfg,
                        rhs=td.bidiagonal_rhs(state.alpha)).states[-1]
        errors.append(np.max(np.abs(td._bidiagonal_matrix(end) + pair.a - exact)))
    assert 12.0 < errors[0] / errors[1] < 20.0
