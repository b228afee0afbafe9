"""Matrix-algebra layer: pairings, splittings, class tags, decompositions."""

from __future__ import annotations

import json
import tracemalloc

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


def test_trace_norm_reports_a_failed_svd(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(op.np.linalg, "svd", fail)
    with pytest.raises(ValueError, match="SVD did not converge on a 3x3 matrix"):
        op.trace_norm(np.eye(3))


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
    with pytest.raises(ValueError, match="unknown tag 'hermitian'"):
        op.validate("hermitian", m)


def test_standard_basis_decomposition_is_valid():
    d = op.standard_basis_decomposition(4)
    assert isinstance(d, tuple) and len(d) == 4
    assert all(p.shape == (4, 4) for p in d)
    assert op.validate_decomposition(d)
    total = sum(d)
    assert np.array_equal(total, np.eye(4))


def _pairwise_valid(ps, tol=op.DEFAULT_TOL):
    # the k^2 route the one-pass check replaced: every product P_i P_j
    if float(np.max(np.abs(sum(ps) - np.eye(len(ps[0]))))) > tol:
        return False
    for i, p in enumerate(ps):
        if float(np.max(np.abs(p - p.conj().T))) > tol:
            return False
        for j, q in enumerate(ps):
            want = p if i == j else 0.0
            if float(np.max(np.abs(p @ q - want))) > tol:
                return False
    return True


def _exact_families():
    from liepoisson.verification import _reduction_op
    rng = np.random.Generator(np.random.PCG64(19))
    q, _ = np.linalg.qr(rng.standard_normal((5, 5))
                        + 1j * rng.standard_normal((5, 5)))
    h = q @ np.diag([1.0, 1.0, 3.0, 3.0, 3.0]).astype(complex) @ q.conj().T
    yield from (op.standard_basis_decomposition(n) for n in (1, 2, 5, 33))
    yield op.spectral_projectors(h)  # degenerate: ranks 2 and 3
    for kind in ("measurement", "lower_triangularize"):
        for n in (4, 5, 8):
            yield _reduction_op(kind, n).operators


def test_one_pass_and_pairwise_checks_accept_exact_families():
    for d in _exact_families():
        assert op.validate_decomposition(d), d
        assert _pairwise_valid(d), d


def test_validate_decomposition_rejects_bad_families():
    # both checks reject a family that breaks any one law
    p = np.diag([1.0, 0.0]).astype(complex)
    # idempotent, summing to I and mutually orthogonal, but oblique
    oblique = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    q = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex) * 1.2
    r = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    # Hermitian and summing to I, but u and v overlap, so the third is no
    # projector
    u, v = np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])
    pu, pv = np.outer(u, u).astype(complex), np.outer(v, v).astype(complex)
    families = {
        "non-hermitian": (oblique, np.eye(2) - oblique),
        "non-idempotent": (q, np.eye(2) - q),
        "wrong sum": (p, p),
        "overlapping": (r, r),
        "overlapping, summing to I": (pu, pv, np.eye(3) - pu - pv),
    }
    for name, ps in families.items():
        assert not op.validate_decomposition(ps), name
        assert not _pairwise_valid(ps), name


def test_validate_decomposition_forms_k_products_and_no_stack():
    n = 64
    d = op.standard_basis_decomposition(n)
    products = []

    class Counting(np.ndarray):
        def __matmul__(self, other):
            products.append(self.shape)
            return np.ndarray.__matmul__(self, other)

    # the laws kernel itself: as_matrix would drop the subclass
    assert op._decomposition_holds(tuple(p.view(Counting) for p in d),
                                   op.DEFAULT_TOL)
    assert products == [(n, n)] * n  # one P @ P each, not n^2 products
    # one N x N defect at a time: the peak stays far below the 4 MB of a
    # (k, N, N) stack of the 64 projectors
    tracemalloc.start()
    assert op.validate_decomposition(d)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 16 * n * n * 16


def _bound(ps):
    """e + (k + 3) d' of the validate_decomposition docstring."""
    eye = np.eye(ps[0].shape[0])
    e = np.linalg.norm(sum(ps) - eye, 2)
    d = max(np.linalg.norm(p @ p - p, 2) for p in ps)
    assert d <= 0.25
    return e + (len(ps) + 3) * (1 - np.sqrt(1 - 4 * d)) / 2


def _worst_product(ps):
    return max((np.linalg.norm(p @ q, 2) for i, p in enumerate(ps)
                for j, q in enumerate(ps) if i != j), default=0.0)


def test_accepted_perturbed_families_keep_the_docstring_bound():
    # random Hermitian decompositions, each projector moved by Hermitian
    # noise of size eps; the bound is for exact arithmetic, so forming a
    # product may add a roundoff of a few N eps_machine on top
    rng = np.random.Generator(np.random.PCG64(2024))
    accepted = 0
    for n in (2, 4, 8):
        for eps in 10.0 ** np.arange(-14, -5):
            for _ in range(12):
                v, _ = np.linalg.qr(rng.standard_normal((n, n))
                                    + 1j * rng.standard_normal((n, n)))
                cuts = np.sort(rng.choice(np.arange(1, n), rng.integers(0, n),
                                          replace=False))
                ps = []
                for block in np.split(v, cuts, axis=1):
                    noise = (rng.standard_normal((n, n))
                             + 1j * rng.standard_normal((n, n)))
                    p = block @ block.conj().T + eps * noise
                    ps.append((p + p.conj().T) / 2)
                for tol in (eps / 10, 10 * eps * n):
                    holds = op._decomposition_holds(op._matrix_family(ps), tol)
                    if _pairwise_valid(ps, tol):
                        assert holds
                    if holds:
                        accepted += 1
                        roundoff = 8 * n * np.finfo(float).eps
                        assert _worst_product(ps) <= _bound(ps) + roundoff
                        assert _bound(ps) <= (2 * len(ps) + 7) * n * tol + roundoff
    assert accepted >= 250  # the sweep is not vacuous


def test_the_bound_needs_its_factor_k():
    # k - 2 projectors each give up s along x and gain it along y, which
    # hides an overlap c = (k - 2) s between two rank-one projectors; every
    # law holds to about s, and the sum is I
    k, c = 10, 8e-7
    s = c / (k - 2)
    a, b = np.sqrt((1 + c) / 2), np.sqrt((1 - c) / 2)
    eye = np.eye(k, dtype=complex)
    ps = [np.outer(w, w).astype(complex)
          for w in (a * eye[0] + b * eye[1], a * eye[0] - b * eye[1])]
    shift = s * (np.outer(eye[1], eye[1]) - np.outer(eye[0], eye[0]))
    ps += [np.outer(eye[m], eye[m]) + shift for m in range(2, k)]
    assert op._decomposition_holds(op._matrix_family(ps), 2 * s)
    assert not _pairwise_valid(ps, 2 * s)
    worst = _worst_product(ps)
    assert worst == pytest.approx(c, rel=1e-6)
    assert worst <= _bound(ps)
    # a bound without k would not hold: the overlap is (k - 2) times d
    d_max = max(np.linalg.norm(p @ p - p, 2) for p in ps)
    assert worst > (k - 3) * d_max


def test_decomposition_of_unity_rejects_empty_and_mixed_families():
    with pytest.raises(ValueError, match="at least one"):
        op.validate_decomposition([])
    with pytest.raises(ValueError, match="at least one"):
        op.validate_decomposition(iter(()))
    with pytest.raises(ValueError, match="one dimension"):
        op.validate_decomposition([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match="one dimension"):
        op.validate_decomposition((np.eye(3), np.zeros((2, 2))))


def test_spectral_projectors_reconstruct_degenerate_spectrum():
    # eigenvalues (1, 1, 3): the repeated pair must land in one projector
    rng = np.random.Generator(np.random.PCG64(17))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    h = q @ np.diag([1.0, 1.0, 3.0]).astype(complex) @ q.conj().T
    d = op.spectral_projectors(h)
    assert isinstance(d, tuple) and len(d) == 2
    assert op.validate_decomposition(d)
    recon = sum(float(np.real(np.trace(h @ p) / np.trace(p))) * p for p in d)
    assert np.max(np.abs(recon - h)) < 1e-10
    pinched = sum(p @ h @ p for p in d)
    assert np.max(np.abs(pinched - h)) < 1e-10
    ranks = sorted(int(round(np.trace(p).real)) for p in d)
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


def test_expm_past_the_float_limit_is_non_finite_and_never_raises():
    # 4.0 ** s overflowed for 1-norms above about 3.6e154; past the float
    # limit the 1-norm itself overflows
    huge = np.full((4, 4), 1.7e305, dtype=complex)
    cases = [huge, -1e300j * np.diag([1.0, -1.0]), 1e3 * huge]
    with np.errstate(over="ignore", invalid="ignore"):
        results = [op.expm(a) for a in cases]
    assert all(not np.isfinite(r).all() for r in results)
    assert np.isnan(results[2]).all()


def test_expm_of_zero_is_exactly_the_identity():
    # the lowest degree takes a zero 1-norm, with no log2(0) on the way
    for n in (1, 2, 5):
        with np.errstate(all="raise"):
            e = op.expm(np.zeros((n, n), dtype=complex))
        assert np.array_equal(e, np.eye(n))


def _skew_with_norm(seed, n, norm):
    """A skew-Hermitian matrix whose 1-norm is exactly ``norm``: column 0
    holds i norm/2 and norm/2, and each other column sums to at most 3/4 of
    it."""
    g = seeded_random_state(seed, "general", n)
    a = g - g.conj().T
    a *= norm / (4.0 * np.abs(a).sum(axis=0).max())
    a[:, 0] = a[0, :] = 0.0
    a[0, 0], a[1, 0], a[0, 1] = 0.5j * norm, 0.5 * norm, -0.5 * norm
    return a


def test_expm_at_the_degree_13_threshold_times_powers_of_two():
    # 1-norms at theta_13 2^k and one ulp either side: the boundaries where
    # the scaling exponent s steps, for s = 0..9
    theta = op._PADE[-1][1]
    for k in range(9):
        edge = theta * 2.0 ** k
        for i, norm in enumerate((np.nextafter(edge, 0.0), edge,
                                  np.nextafter(edge, np.inf))):
            a = _skew_with_norm(10 * k + i, 6, norm)
            assert np.abs(a).sum(axis=0).max() == norm
            with np.errstate(all="raise"):
                got = op.expm(a)
            want = scipy.linalg.expm(a)
            gap = np.linalg.norm(got - want, 1) / np.linalg.norm(want, 1)
            assert gap <= 1e-12, (k, norm, gap)


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
