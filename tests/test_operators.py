"""Matrix-algebra layer: pairings, splittings, class tags, decompositions."""

from __future__ import annotations

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from liepoisson import operators as op
from liepoisson.fixtures import seeded_random_state

SEEDS = st.integers(min_value=0, max_value=10**6)
DIMS = st.integers(min_value=1, max_value=5)


def _commutator_loops(x, y):
    # independent route: no matmul
    n = x.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = sum(x[i, k] * y[k, j] - y[i, k] * x[k, j]
                            for k in range(n))
    return out


def test_elementary_and_identity():
    e = op.elementary(3, 1, 2)
    assert e[1, 2] == 1.0 and np.count_nonzero(e) == 1
    assert np.array_equal(op.identity(2), np.eye(2))
    with pytest.raises(ValueError):
        op.elementary(2, 2, 0)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        op.as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        op.as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        op.as_matrix(np.zeros((0, 0)))


def test_commutator_against_scalar_loops():
    x = seeded_random_state(11, "general", 4)
    y = seeded_random_state(12, "general", 4)
    assert np.max(np.abs(op.commutator(x, y) - _commutator_loops(x, y))) < 1e-12


def test_trace_pairing_is_trace_of_product():
    x = seeded_random_state(3, "general", 3)
    rho = seeded_random_state(4, "general", 3)
    direct = sum(x[i, k] * rho[k, i] for i in range(3) for k in range(3))
    assert abs(op.trace_pairing(x, rho) - direct) < 1e-12


def test_trace_norm_against_eigenvalue_route():
    a = seeded_random_state(5, "general", 4)
    s = np.sqrt(np.linalg.eigvalsh(a.conj().T @ a))
    assert abs(op.trace_norm(a) - float(np.sum(s))) < 1e-10
    assert op.trace_norm(np.zeros((3, 3))) == 0.0


def test_operator_norm_is_largest_singular_value():
    a = seeded_random_state(6, "general", 4)
    assert abs(op.operator_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) < 1e-12


def test_triangular_projections_on_worked_matrix():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(op.project_lower(m), [[1, 0], [3, 4]])
    assert np.array_equal(op.project_strictly_upper(m), [[0, 2], [0, 0]])
    assert np.array_equal(op.project_upper_plus(m), [[1, 2], [0, 4]])
    assert np.array_equal(op.project_strictly_lower(m), [[0, 0], [3, 0]])


def test_splittings_reassemble():
    m = seeded_random_state(7, "general", 5)
    assert np.array_equal(op.project_lower(m) + op.project_strictly_upper(m), m)
    assert np.array_equal(op.project_upper_plus(m) + op.project_strictly_lower(m), m)
    herm = op.hermitian_part(m) + op.skew_hermitian_part(m)
    assert np.max(np.abs(herm - m)) < 1e-14


def test_triangular_projections_are_trace_adjoint():
    # <pi_plus x, rho> = <x, pi_lower rho>: the split is a dual pair
    x = seeded_random_state(8, "general", 4)
    rho = seeded_random_state(9, "general", 4)
    lhs = op.trace_pairing(op.project_upper_plus(x), rho)
    rhs = op.trace_pairing(x, op.project_lower(rho))
    assert abs(lhs - rhs) < 1e-12


def test_hermitian_split_parts_have_right_symmetry():
    m = seeded_random_state(10, "general", 4)
    h = op.hermitian_part(m)
    s = op.skew_hermitian_part(m)
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    assert np.max(np.abs(s + s.conj().T)) == 0.0


def test_validate_class_tags():
    m = seeded_random_state(13, "general", 3)
    assert op.validate(op.ClassTag.HERMITIAN, op.hermitian_part(m))
    assert op.validate(op.ClassTag.SKEW_HERMITIAN, op.skew_hermitian_part(m))
    assert op.validate(op.ClassTag.LOWER_TRIANGULAR, op.project_lower(m))
    assert op.validate(op.ClassTag.STRICTLY_UPPER, op.project_strictly_upper(m))
    assert not op.validate(op.ClassTag.HERMITIAN, m + 1j * np.eye(3))
    assert not op.validate(op.ClassTag.LOWER_TRIANGULAR, m + np.triu(np.ones(3), 1))


def test_standard_basis_decomposition_is_valid():
    d = op.standard_basis_decomposition(4)
    assert len(d) == 4 and d.dim == 4
    assert op.validate_decomposition(d)
    total = sum(d.projectors)
    assert np.array_equal(total, np.eye(4))


def test_validate_decomposition_rejects_bad_families():
    p = np.diag([1.0, 0.0]).astype(complex)
    # does not sum to the identity
    bad_sum = op.DecompositionOfUnity((p, p))
    assert not op.validate_decomposition(bad_sum)
    # not idempotent
    q = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex) * 1.2
    bad_proj = op.DecompositionOfUnity((q, np.eye(2) - q))
    assert not op.validate_decomposition(bad_proj)
    # not mutually orthogonal
    r = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    bad_orth = op.DecompositionOfUnity((r, r))
    assert not op.validate_decomposition(bad_orth)


def test_spectral_projectors_reconstruct_degenerate_spectrum():
    # eigenvalues (1, 1, 3): the repeated pair must land in one projector
    rng = np.random.Generator(np.random.PCG64(17))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    h = q @ np.diag([1.0, 1.0, 3.0]).astype(complex) @ q.conj().T
    d = op.spectral_projectors(h)
    assert len(d) == 2
    assert op.validate_decomposition(d)
    recon = sum(float(np.real(np.trace(h @ p) / np.trace(p))) * p
                for p in d.projectors)
    assert np.max(np.abs(recon - h)) < 1e-10
    pinched = sum(p @ h @ p for p in d.projectors)
    assert np.max(np.abs(pinched - h)) < 1e-10
    ranks = sorted(int(round(np.trace(p).real)) for p in d.projectors)
    assert ranks == [1, 2]


def test_spectral_projectors_require_hermitian():
    with pytest.raises(ValueError):
        op.spectral_projectors(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_json_roundtrip_is_exact():
    m = seeded_random_state(14, "general", 3)
    payload = op.matrix_to_json(m)
    assert set(payload) == {"dim", "re", "im"}
    assert payload["dim"] == 3
    back = op.matrix_from_json(json.loads(json.dumps(payload)))
    assert np.array_equal(back, m)


def test_matrix_from_json_rejects_malformed():
    with pytest.raises((ValueError, KeyError, TypeError)):
        op.matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})
    with pytest.raises((ValueError, KeyError, TypeError)):
        op.matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})


# 1-norms on both sides of Higham's thresholds theta_3 ~ 0.015,
# theta_5 ~ 0.25, theta_7 ~ 0.95, theta_9 ~ 2.1 and theta_13 ~ 5.4, so every
# Pade degree is used; 20 and 200 take the scaling and squaring branch.
EXPM_NORMS = (1e-3, 1e-2, 0.2, 0.9, 2.0, 5.0, 20.0, 200.0)


def _non_normal(seed, n, norm):
    g = seeded_random_state(seed, "general", n)
    a = g + 3.0 * np.triu(g, 1)
    return a * (norm / np.abs(a).sum(axis=0).max())


def test_expm_matches_scipy_on_non_normal_matrices():
    for n in range(1, 33):
        for k, norm in enumerate(EXPM_NORMS):
            a = _non_normal(100 * n + k, n, norm)
            want = scipy.linalg.expm(a)
            gap = np.linalg.norm(op.expm(a) - want, 1) / np.linalg.norm(want, 1)
            assert gap <= 1e-12, (n, norm, gap)


def test_expm_inverse_and_diagonal_identities():
    # the product's roundoff scales with |e^a| |e^-a|, so norms stay below
    # the scaling branch, where that factor is still of order one
    for n in (1, 2, 4, 8, 16, 32):
        for norm in EXPM_NORMS[:6]:
            a = _non_normal(n, n, norm)
            product = op.expm(a) @ op.expm(-a)
            assert np.max(np.abs(product - np.eye(n))) <= 1e-12, (n, norm)
    d = np.array([0.0, 1e-3, -0.5 + 2j, 3j, 7.0, -40.0 + 1j, 150.0])
    e = op.expm(np.diag(d))
    assert np.all(e[~np.eye(d.size, dtype=bool)] == 0.0)
    assert np.max(np.abs(np.diag(e) / np.exp(d) - 1.0)) <= 1e-13


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=SEEDS, n=DIMS)
def test_projection_pairs_are_complementary(seed, n):
    m = seeded_random_state(seed, "general", n)
    assert np.array_equal(op.project_lower(m) + op.project_strictly_upper(m), m)
    assert np.array_equal(
        op.project_upper_plus(op.project_upper_plus(m)), op.project_upper_plus(m))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=SEEDS, n=DIMS)
def test_trace_norm_dominates_operator_norm(seed, n):
    a = seeded_random_state(seed, "general", n)
    assert op.trace_norm(a) >= op.operator_norm(a) - 1e-10
