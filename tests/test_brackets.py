"""Lie-Poisson brackets: defining identities, axioms, and Poisson maps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liepoisson import brackets as br
from liepoisson import operators as op
from liepoisson.fixtures import seeded_random_state

SEEDS = st.integers(min_value=0, max_value=10**6)


def _unit(m):
    return m / np.linalg.norm(m)


def _loop_bracket(a, b, rho):
    # independent route: scalar loops, no matmul anywhere
    n = rho.shape[0]
    total = 0.0 + 0.0j
    for i in range(n):
        for j in range(n):
            cij = sum(a[i, k] * b[k, j] - b[i, k] * a[k, j] for k in range(n))
            total += cij * rho[j, i]
    return total


def test_full_bracket_linear_observables_match_loop_route():
    a = seeded_random_state(21, "general", 4)
    b = seeded_random_state(22, "general", 4)
    rho = seeded_random_state(23, "general", 4)
    f = br.Observable.linear_form(a)
    g = br.Observable.linear_form(b)
    got = br.lp_bracket(br.FULL, f, g, rho)
    assert abs(got - _loop_bracket(a, b, rho)) < 1e-12


def test_full_field_pairs_to_bracket():
    # <Dg, X_h> = {g, h}: the orientation every flow in the package uses
    a = _unit(seeded_random_state(24, "general", 4))
    b = _unit(seeded_random_state(25, "general", 4))
    rho = seeded_random_state(26, "psd", 4)
    g = br.Observable.linear_form(a)
    h = br.Observable.linear_form(b)
    field = br.ham_field(br.FULL, h, rho)
    assert abs(op.trace_pairing(a, field) - br.lp_bracket(br.FULL, g, h, rho)) < 1e-13


def test_lower_field_pairs_to_flipped_bracket():
    # coinduced side: <Dg, X_h> = {h, g}, the opposite composite order
    a = _unit(seeded_random_state(27, "general", 4))
    b = _unit(seeded_random_state(28, "general", 4))
    rho = seeded_random_state(29, "lower", 4)
    g = br.Observable.linear_form(a)
    h = br.Observable.linear_form(b)
    field = br.ham_field(br.LOWER_COINDUCED, h, rho)
    lhs = op.trace_pairing(op.project_upper_plus(a), field)
    assert abs(lhs - br.lp_bracket(br.LOWER_COINDUCED, h, g, rho)) < 1e-13


def test_lower_bracket_ignores_strictly_lower_gradient_parts():
    a = seeded_random_state(30, "general", 4)
    b = seeded_random_state(31, "general", 4)
    rho = seeded_random_state(32, "lower", 4)
    f1 = br.Observable.linear_form(a)
    f2 = br.Observable.linear_form(op.project_upper_plus(a))
    g = br.Observable.linear_form(b)
    v1 = br.lp_bracket(br.LOWER_COINDUCED, f1, g, rho)
    v2 = br.lp_bracket(br.LOWER_COINDUCED, f2, g, rho)
    assert abs(v1 - v2) < 1e-13


def test_state_domain_validation():
    rho = seeded_random_state(33, "general", 3)
    f = br.Observable.linear_form(np.eye(3))
    with pytest.raises(ValueError):
        br.lp_bracket(br.LOWER_COINDUCED, f, f, rho)
    with pytest.raises(ValueError):
        br.lp_bracket(br.HERMITIAN_REAL, f, f, rho)
    with pytest.raises(ValueError):
        br.lp_bracket(br.product(br.FULL, br.FULL), f, f, rho)
    with pytest.raises(ValueError, match="unknown bracket spec kind 'bogus'"):
        br.lp_bracket(br.BracketSpec("bogus"), f, f, rho)


def test_hermitian_real_bracket_is_real_and_unflipped():
    s1 = op.skew_hermitian_part(seeded_random_state(35, "general", 4))
    s2 = op.skew_hermitian_part(seeded_random_state(36, "general", 4))
    rho = op.skew_hermitian_part(seeded_random_state(37, "general", 4))
    f = br.Observable.real_linear_form(s1)
    g = br.Observable.real_linear_form(s2)
    val = br.lp_bracket(br.HERMITIAN_REAL, f, g, rho)
    assert isinstance(val, float)
    field = br.ham_field(br.HERMITIAN_REAL, g, rho)
    assert op.validate(op.ClassTag.SKEW_HERMITIAN, field)
    pair = float(op.trace_pairing(s1, field).real)
    assert abs(pair - val) < 1e-13


def test_fd_gradients_match_analytic_gradients():
    rho = seeded_random_state(38, "psd", 4)
    a = _unit(seeded_random_state(39, "general", 4))
    b = _unit(seeded_random_state(40, "general", 4))
    quad = br.Observable.quadratic_form(a, b)
    fd = br.fd_gradient(quad, rho)
    assert np.max(np.abs(fd - quad.grad(rho))) < 1e-8

    low = op.project_lower(seeded_random_state(41, "general", 4))
    lin = br.Observable.linear_form(_unit(seeded_random_state(42, "general", 4)))
    fd_low = br.fd_gradient_lower(lin, low)
    assert np.max(np.abs(fd_low - op.project_upper_plus(lin.grad(low)))) < 1e-8

    skew = op.skew_hermitian_part(seeded_random_state(43, "general", 4))
    rlin = br.Observable.real_linear_form(
        op.skew_hermitian_part(seeded_random_state(44, "general", 4)))
    fd_skew = br.fd_gradient_skew(rlin, skew)
    assert np.max(np.abs(fd_skew - rlin.grad(skew))) < 1e-8


def test_casimirs_have_commuting_gradients():
    rho = seeded_random_state(45, "psd", 5)
    c3 = br.casimir(3)
    eigs = np.linalg.eigvals(rho)
    assert abs(c3(rho) - np.sum(eigs**3) / 3.0) < 1e-12
    field = br.ham_field(br.FULL, c3, rho)
    assert np.max(np.abs(field)) < 1e-12
    f = br.Observable.linear_form(seeded_random_state(46, "general", 5))
    assert abs(br.lp_bracket(br.FULL, f, c3, rho)) < 1e-12


def test_jacobi_identity_linear_is_roundoff():
    fs = [br.Observable.linear_form(_unit(seeded_random_state(47 + i, "general", 4)))
          for i in range(3)]
    rho = seeded_random_state(50, "psd", 4)
    assert br.jacobi_defect(br.FULL, *fs, rho) < 1e-12


def test_jacobi_identity_quadratic_via_nested_fd():
    mats = [_unit(seeded_random_state(51 + i, "general", 4)) for i in range(6)]
    obs = [br.Observable.quadratic_form(mats[2 * i], mats[2 * i + 1])
           for i in range(3)]
    rho = seeded_random_state(57, "psd", 4)
    assert br.jacobi_defect(br.FULL, *obs, rho) < 1e-6


def test_leibniz_rule():
    fs = [br.Observable.linear_form(_unit(seeded_random_state(58 + i, "general", 4)))
          for i in range(3)]
    rho = seeded_random_state(61, "psd", 4)
    assert br.leibniz_defect(br.FULL, *fs, rho) < 1e-13


def test_bracket_observable_iterates_correctly():
    a = _unit(seeded_random_state(62, "general", 3))
    b = _unit(seeded_random_state(63, "general", 3))
    f = br.Observable.linear_form(a)
    g = br.Observable.linear_form(b)
    h = br.bracket_observable(br.FULL, f, g)
    rho = seeded_random_state(64, "psd", 3)
    assert abs(h(rho) - br.lp_bracket(br.FULL, f, g, rho)) < 1e-13
    # {f, g} of linear forms is again linear with gradient [a, b]
    assert np.max(np.abs(h.grad(rho) - op.commutator(a, b))) < 1e-8


def _nonlinear_pair(seed, n, m):
    """The product of two linear forms on (n x n, m x m) pair states."""
    lin = [br.Observable.pair_linear(
               seeded_random_state(seed + 2 * k, "general", n),
               seeded_random_state(seed + 2 * k + 1, "general", m))
           for k in (0, 1)]
    return br.product_observable(*lin)


@pytest.mark.parametrize("kind", ["full", "lower_coinduced", "hermitian_real",
                                  "product"])
def test_bracket_observable_takes_the_fd_gradient_of_its_spec(kind):
    # a bracket of non-linear observables has the fd gradient over the
    # spec's state space, at the nested step, bit for bit
    quad = [br.Observable.quadratic_form(seeded_random_state(200 + k, "general", 3),
                                         seeded_random_state(210 + k, "general", 3))
            for k in (0, 1)]
    general = seeded_random_state(220, "general", 3)
    spec, f, g, state, fd = {
        "full": (br.FULL, *quad, general, br.fd_gradient),
        "lower_coinduced": (br.LOWER_COINDUCED, *quad,
                            seeded_random_state(221, "lower", 3),
                            br.fd_gradient_lower),
        "hermitian_real": (br.HERMITIAN_REAL, *quad,
                           op.skew_hermitian_part(general), br.fd_gradient_skew),
        "product": (br.product(br.FULL, br.FULL), _nonlinear_pair(230, 3, 2),
                    _nonlinear_pair(240, 3, 2),
                    (general, seeded_random_state(222, "general", 2)),
                    br.fd_gradient),
    }[kind]
    h = br.bracket_observable(spec, f, g)
    assert not h.linear
    got, want = h.grad(state), fd(h, state, br.FD_STEP_NESTED)
    if kind == "product":
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
    else:
        assert got.tobytes() == want.tobytes()


def test_product_bracket_sums_slotwise():
    n = 3
    a1 = seeded_random_state(65, "general", n)
    a2 = seeded_random_state(66, "general", n)
    b1 = seeded_random_state(67, "general", n)
    b2 = seeded_random_state(68, "general", n)
    pair_spec = br.product(br.FULL, br.FULL)
    f = br.Observable.pair_linear(a1, a2)
    g = br.Observable.pair_linear(b1, b2)
    st1 = seeded_random_state(69, "general", n)
    st2 = seeded_random_state(70, "general", n)
    got = br.lp_bracket(pair_spec, f, g, (st1, st2))
    want = (op.trace_pairing(op.commutator(a1, b1), st1)
            + op.trace_pairing(op.commutator(a2, b2), st2))
    assert abs(got - want) < 1e-12


def test_lower_projection_is_a_poisson_map():
    phi = br.lower_projection_map()
    a = _unit(seeded_random_state(71, "general", 4))
    b = _unit(seeded_random_state(72, "general", 4))
    f = br.Observable.linear_form(a)
    g = br.Observable.linear_form(b)
    rho = seeded_random_state(73, "general", 4)
    assert br.poisson_map_defect(phi, br.FULL, br.LOWER_COINDUCED, f, g, rho) < 1e-12


def test_lower_inclusion_poisson_defect_is_exactly_two():
    # frozen counterexample: upstairs the E21 gradient projects away and the
    # bracket vanishes; downstairs tr([E21, E12] diag(1, -1)) = -2
    phi = br.inclusion_lower_map()
    f = br.Observable.linear_form(op.elementary(2, 1, 0))
    g = br.Observable.linear_form(op.elementary(2, 0, 1))
    rho = np.diag([1.0, -1.0]).astype(complex)
    defect = br.poisson_map_defect(phi, br.LOWER_COINDUCED, br.FULL, f, g, rho)
    assert defect == 2.0


def test_pair_inclusion_is_a_poisson_map():
    phi = br.pair_inclusion_map(0, 3)
    a1 = seeded_random_state(74, "general", 3)
    b1 = seeded_random_state(75, "general", 3)
    f = br.Observable.pair_linear(a1, np.zeros((3, 3)))
    g = br.Observable.pair_linear(b1, np.zeros((3, 3)))
    rho = seeded_random_state(76, "general", 3)
    pair_spec = br.product(br.FULL, br.FULL)
    assert br.poisson_map_defect(phi, br.FULL, pair_spec, f, g, rho) < 1e-12


def test_product_field_is_the_two_slot_fields():
    a1 = seeded_random_state(90, "general", 3)
    a2 = seeded_random_state(91, "general", 4)
    rho = seeded_random_state(92, "general", 3)
    lower = op.project_lower(seeded_random_state(93, "general", 4))
    spec = br.product(br.FULL, br.LOWER_COINDUCED)
    field = br.ham_field(spec, br.Observable.pair_linear(a1, a2), (rho, lower))
    want = (br.ham_field(br.FULL, br.Observable.linear_form(a1), rho),
            br.ham_field(br.LOWER_COINDUCED, br.Observable.linear_form(a2), lower))
    assert isinstance(field, tuple) and len(field) == 2
    for got, slot in zip(field, want):
        assert got.tobytes() == slot.tobytes()


def test_fd_gradient_of_a_product_on_a_pair_state():
    f = br.Observable.pair_linear(seeded_random_state(94, "general", 3),
                                  seeded_random_state(95, "general", 2))
    g = br.Observable.pair_linear(seeded_random_state(96, "general", 3),
                                  seeded_random_state(97, "general", 2))
    fg = br.product_observable(f, g)
    state = (seeded_random_state(98, "general", 3),
             seeded_random_state(99, "general", 2))
    numeric, analytic = br.fd_gradient(fg, state), fg.grad(state)
    assert len(numeric) == len(analytic) == 2
    for got, want in zip(numeric, analytic):
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want))) < 1e-6


def test_library_inputs_outside_their_domain_raise():
    with pytest.raises(ValueError, match="positive integer"):
        br.casimir(0)
    with pytest.raises(ValueError, match="slot must be 0 or 1"):
        br.pair_inclusion_map(2, 3)


def test_matrix_linear_map_adjoint_identity():
    phi = br.lower_projection_map()
    x = seeded_random_state(77, "general", 4)
    rho = seeded_random_state(78, "general", 4)
    lhs = op.trace_pairing(x, phi.apply(rho))
    rhs = op.trace_pairing(phi.adjoint(x), rho)
    assert abs(lhs - rhs) < 1e-12


def test_reduction_condition_defect_measurement_is_roundoff():
    from liepoisson import reduction as red
    rop = red.measurement(op.standard_basis_decomposition(4))
    f = br.Observable.linear_form(_unit(seeded_random_state(79, "general", 4)))
    g = br.Observable.linear_form(_unit(seeded_random_state(80, "general", 4)))
    rho = seeded_random_state(81, "general", 4)
    d = br.reduction_condition_defect(
        lambda m: red.apply(rop, m), lambda m: red.apply_dual(rop, m), f, g, rho)
    assert d < 1e-13


def test_reduction_condition_defect_rejects_non_idempotent_maps():
    f = br.Observable.linear_form(np.eye(3))
    rho = seeded_random_state(82, "general", 3)
    with pytest.raises(ValueError):
        br.reduction_condition_defect(
            lambda m: 2.0 * m, lambda m: 2.0 * m, f, f, rho)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=5))
def test_bracket_antisymmetry_property(seed, n):
    a = _unit(seeded_random_state(seed, "general", n))
    b = _unit(seeded_random_state(seed + 1, "general", n))
    rho = seeded_random_state(seed + 2, "psd", n)
    f = br.Observable.linear_form(a)
    g = br.Observable.linear_form(b)
    fg = br.lp_bracket(br.FULL, f, g, rho)
    gf = br.lp_bracket(br.FULL, g, f, rho)
    assert fg == -gf  # commutator negation is entrywise exact in IEEE


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=5))
def test_bracket_bilinearity_property(seed, n):
    a = _unit(seeded_random_state(seed, "general", n))
    b = _unit(seeded_random_state(seed + 1, "general", n))
    c = _unit(seeded_random_state(seed + 2, "general", n))
    rho = seeded_random_state(seed + 3, "psd", n)
    f, g, h = (br.Observable.linear_form(m) for m in (a, b, c))
    combo = br.Observable.linear_form(a + 0.5 * c)
    lhs = br.lp_bracket(br.FULL, combo, g, rho)
    rhs = (br.lp_bracket(br.FULL, f, g, rho)
           + 0.5 * br.lp_bracket(br.FULL, h, g, rho))
    assert abs(lhs - rhs) < 1e-12
