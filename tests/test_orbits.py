"""Coadjoint orbits and the orbit two-form."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from liepoisson import brackets as br
from liepoisson import operators as op
from liepoisson import orbits as orb
from liepoisson.fixtures import seeded_random_state

SEEDS = st.integers(min_value=0, max_value=10**6)


def _commutant_dim_oracle(rho):
    # null space of X -> [X, rho] in vec coordinates, built independently
    n = rho.shape[0]
    m = np.kron(np.eye(n), rho) - np.kron(rho.T, np.eye(n))
    return scipy.linalg.null_space(m).shape[1]


def test_kks_value_is_trace_of_commutator():
    x = seeded_random_state(112, "general", 4)
    y = seeded_random_state(113, "general", 4)
    rho = seeded_random_state(114, "general", 4)
    want = op.trace_pairing(op.commutator(x, y), rho)
    assert abs(orb.kks_eval(rho, x, y) - want) < 1e-13
    assert orb.kks_eval(rho, x, y) == -orb.kks_eval(rho, y, x)


def test_kks_matches_linear_bracket():
    x = seeded_random_state(115, "general", 4)
    y = seeded_random_state(116, "general", 4)
    rho = seeded_random_state(117, "general", 4)
    f = br.Observable.linear_form(x)
    g = br.Observable.linear_form(y)
    assert abs(br.lp_bracket(br.FULL, f, g, rho) - orb.kks_eval(rho, x, y)) < 1e-13


def test_well_definedness_under_commutant_shifts():
    rho = seeded_random_state(118, "hermitian", 4)
    x = seeded_random_state(119, "general", 4)
    y = seeded_random_state(120, "general", 4)
    # anything commuting with rho generates the same tangent vector
    shift = 0.7 * np.eye(4) + 0.3 * rho + 0.1 * rho @ rho
    assert orb.kks_welldefined_defect(rho, x, x + shift, y) < 1e-10


def test_well_definedness_rejects_distinct_tangents():
    rho = np.diag([1.0, 2.0]).astype(complex)
    x = op.elementary(2, 0, 1)
    y = op.elementary(2, 1, 0)
    with pytest.raises(ValueError):
        orb.kks_welldefined_defect(rho, x, x + y, y)


def test_characteristic_rank_on_known_spectra():
    # distinct eigenvalues: commutant is the diagonal, rank n^2 - n
    assert orb.characteristic_rank(np.diag([1.0, 2.0, 3.0]).astype(complex)) == 6
    # scalar state: everything commutes
    assert orb.characteristic_rank(np.eye(4, dtype=complex)) == 0
    # rank-one projector in dimension n: rank 2(n - 1)
    v = np.array([1.0, 2.0, 0.5, -1.0], dtype=complex)
    assert orb.characteristic_rank(orb.rank_one_state(v)) == 6


def test_characteristic_rank_matches_null_space_oracle():
    for seed in range(8):
        rho = seeded_random_state(130 + seed, "hermitian", 5)
        want = 25 - _commutant_dim_oracle(rho)
        assert orb.characteristic_rank(rho) == want


def test_form_rank_agrees_with_characteristic_rank():
    states = [
        seeded_random_state(140, "hermitian", 4),
        np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex),
        orb.rank_one_state(np.array([1.0, 1j, 0.0])),
        np.eye(3, dtype=complex),
    ]
    for rho in states:
        assert orb.kks_form_rank(rho) == orb.characteristic_rank(rho)


def _tangent_matrix_loop(rho):
    # column i*n + j is vec([E_ij, rho]), one commutator per basis element
    n = rho.shape[0]
    cols = np.empty((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            cols[:, i * n + j] = op.commutator(op.elementary(n, i, j), rho).reshape(-1)
    return cols


def _kks_gram_loop(rho):
    n = rho.shape[0]
    basis = [op.elementary(n, i, j) for i in range(n) for j in range(n)]
    gram = np.empty((n * n, n * n), dtype=complex)
    for a, xa in enumerate(basis):
        for b, xb in enumerate(basis):
            gram[a, b] = orb.kks_eval(rho, xa, xb)
    return gram


def _closed_form_states(n):
    seed = 300 + 10 * n
    u, _ = np.linalg.qr(seeded_random_state(seed, "general", n))
    repeated = np.repeat(np.arange(1.0, n // 2 + 2.0), 2)[:n]  # 1, 1, 2, 2, ...
    return {
        "hermitian": seeded_random_state(seed + 1, "hermitian", n),
        "general": seeded_random_state(seed + 2, "general", n),
        "psd": seeded_random_state(seed + 3, "psd", n),
        "rank-one": orb.rank_one_state(seeded_random_state(seed + 4, "general", n)[0]),
        "repeated": u @ np.diag(repeated).astype(complex) @ u.conj().T,
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_form_rank_matrices_match_the_basis_loops(n):
    for kind, rho in _closed_form_states(n).items():
        cols = _tangent_matrix_loop(rho)
        gram = _kks_gram_loop(rho)
        assert np.array_equal(orb._tangent_matrix(rho), cols), kind
        assert np.array_equal(orb._kks_gram(rho), gram), kind
        assert orb.characteristic_rank(rho) == orb._svd_rank(cols), kind
        assert orb.kks_form_rank(rho) == orb._svd_rank(gram), kind
        assert orb.kks_form_rank(rho) == orb.characteristic_rank(rho), kind


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_kks_gram_is_the_tangent_matrix_with_its_rows_swapped(n):
    # G[(ab),(cd)] = d_bc rho_da - d_da rho_bc = [E_cd, rho]_ba: the two
    # ranks take the SVD of one matrix, up to the row order (a, b) -> (b, a)
    swap = np.arange(n * n).reshape(n, n).T.reshape(-1)
    for kind in ("general", "hermitian", "psd", "lower"):
        rho = seeded_random_state(150 + n, kind, n)
        assert np.array_equal(orb._kks_gram(rho),
                              orb._tangent_matrix(rho)[swap]), kind


def test_coadjoint_action_preserves_spectrum_and_form():
    rho = seeded_random_state(141, "hermitian", 4)
    skew = op.skew_hermitian_part(seeded_random_state(142, "general", 4))
    g = scipy.linalg.expm(skew)
    moved = orb.coadjoint_act(g, rho)
    before = np.sort(np.linalg.eigvalsh(rho))
    after = np.sort(np.linalg.eigvalsh(moved))
    assert np.max(np.abs(before - after)) < 1e-12

    x = seeded_random_state(143, "general", 4)
    y = seeded_random_state(144, "general", 4)
    pushed = orb.kks_eval(moved, g @ x @ np.linalg.inv(g),
                          g @ y @ np.linalg.inv(g))
    assert abs(pushed - orb.kks_eval(rho, x, y)) < 1e-10


def test_coadjoint_action_is_a_group_action():
    rho = seeded_random_state(145, "general", 3)
    g = np.eye(3) + 0.3 * seeded_random_state(146, "general", 3)
    h = np.eye(3) + 0.3 * seeded_random_state(147, "general", 3)
    twice = orb.coadjoint_act(g, orb.coadjoint_act(h, rho))
    once = orb.coadjoint_act(g @ h, rho)
    assert np.max(np.abs(twice - once)) < 1e-10


def test_coadjoint_action_rejects_singular_conjugation():
    rho = seeded_random_state(148, "general", 3)
    bad = np.diag([1.0, 1.0, 1e-15]).astype(complex)
    with pytest.raises(ValueError):
        orb.coadjoint_act(bad, rho)


def test_rank_one_state_validation():
    with pytest.raises(ValueError):
        orb.rank_one_state(np.zeros(3))
    s = orb.rank_one_state(np.array([3.0, 4.0]))
    assert abs(np.trace(s) - 1.0) < 1e-14
    assert np.max(np.abs(s @ s - s)) < 1e-14


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=5))
def test_kks_bilinearity_property(seed, n):
    rho = seeded_random_state(seed, "hermitian", n)
    x = seeded_random_state(seed + 1, "general", n)
    y = seeded_random_state(seed + 2, "general", n)
    z = seeded_random_state(seed + 3, "general", n)
    lhs = orb.kks_eval(rho, x + 2.0 * z, y)
    rhs = orb.kks_eval(rho, x, y) + 2.0 * orb.kks_eval(rho, z, y)
    assert abs(lhs - rhs) < 1e-11


@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=SEEDS)
def test_rank_is_even_and_bounded(seed):
    n = 4
    rho = seeded_random_state(seed, "hermitian", n)
    r = orb.characteristic_rank(rho)
    assert r % 2 == 0
    assert 0 <= r <= n * n - n
