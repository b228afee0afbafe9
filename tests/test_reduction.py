"""Quantum reduction maps: pinching, triangular truncation, group averaging."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from liepoisson import operators as op
from liepoisson import reduction as red
from liepoisson import verification as vf
from liepoisson.fixtures import seeded_random_state

SEEDS = st.integers(min_value=0, max_value=10**6)


def _standard_ops(n):
    basis = op.standard_basis_decomposition(n)
    meas = red.measurement(basis)
    lower = red.lower_triangularize(basis)
    signs = np.diag([(-1.0) ** k for k in range(n)]).astype(complex)
    group = red.group_average([np.eye(n, dtype=complex), signs])
    return meas, lower, group


def test_worked_two_by_two_examples():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    meas, lower, group = _standard_ops(2)
    assert np.array_equal(red.apply(meas, m), [[1, 0], [0, 4]])
    assert np.array_equal(red.apply(lower, m), [[1, 0], [3, 4]])
    assert np.max(np.abs(red.apply(group, m) - np.diag([1.0, 4.0]))) < 1e-15
    # duals: pinching is self-dual, truncation flips triangle
    assert np.array_equal(red.apply_dual(meas, m), [[1, 0], [0, 4]])
    assert np.array_equal(red.apply_dual(lower, m), [[1, 2], [0, 4]])


def test_lower_kind_with_standard_basis_is_triangular_truncation():
    rho = seeded_random_state(90, "general", 5)
    _, lower, _ = _standard_ops(5)
    assert np.array_equal(red.apply(lower, rho), op.project_lower(rho))
    assert np.array_equal(red.apply_dual(lower, rho), op.project_upper_plus(rho))


def test_all_kinds_are_idempotent():
    for n in (2, 4):
        rho = seeded_random_state(91 + n, "general", n)
        for rop in _standard_ops(n):
            once = red.apply(rop, rho)
            assert np.max(np.abs(red.apply(rop, once) - once)) < 1e-13


def test_apply_dual_is_the_trace_adjoint_on_a_full_basis():
    n = 3
    for rop in _standard_ops(n):
        for i in range(n):
            for j in range(n):
                x = op.elementary(n, i, j)
                for k in range(n):
                    for l in range(n):
                        rho = op.elementary(n, k, l)
                        lhs = op.trace_pairing(x, red.apply(rop, rho))
                        rhs = op.trace_pairing(red.apply_dual(rop, x), rho)
                        assert abs(lhs - rhs) < 1e-14


def test_dual_images_are_closed_under_commutator():
    n = 4
    x = seeded_random_state(95, "general", n)
    y = seeded_random_state(96, "general", n)
    for rop in _standard_ops(n):
        assert red._closure_defect(rop, red.apply_dual(rop, x),
                                   red.apply_dual(rop, y)) < 1e-12


def test_measurement_output_commutes_with_projectors():
    d = op.spectral_projectors(np.diag([1.0, 1.0, 2.0]).astype(complex))
    rop = red.measurement(d)
    rho = seeded_random_state(97, "general", 3)
    out = red.apply(rop, rho)
    for p in d:
        assert np.max(np.abs(op.commutator(out, p))) < 1e-13


def test_group_average_output_lands_in_commutant():
    _, _, group = _standard_ops(4)
    rho = seeded_random_state(98, "general", 4)
    out = red.apply(group, rho)
    for u in group.operators:
        assert np.max(np.abs(u @ out @ u.conj().T - out)) < 1e-13


def _contracts(rop, rho):
    """The verdict of the shared contraction row at one state."""
    norms = [(op.trace_norm(red.apply(rop, rho)), op.trace_norm(rho))]
    return vf._contraction_check(rop.kind, rho.shape[0], norms).defect == 0.0


def test_pinching_and_averaging_contract_trace_norm():
    meas, _, group = _standard_ops(4)
    for seed in range(40):
        rho = seeded_random_state(200 + seed, "general", 4)
        assert _contracts(meas, rho)
        assert _contracts(group, rho)


def test_triangular_truncation_expands_trace_norm_on_psd_states():
    # not a defect: triangular truncation is unbounded in trace norm, and on
    # PSD inputs it expands essentially always.  Pin one worked counterexample
    # and audit the seeded ensemble so the boundary stays visible.
    _, lower, _ = _standard_ops(2)
    rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    assert abs(op.trace_norm(rho) - 1.0) < 1e-14
    truncated = red.apply(lower, rho)
    assert abs(op.trace_norm(truncated) - 1.0770329614269007) < 1e-12
    assert not _contracts(lower, rho)

    _, lower4, _ = _standard_ops(4)
    violations = sum(
        not _contracts(lower4, seeded_random_state(s, "psd", 4))
        for s in range(50))
    assert violations == 50


def test_all_ones_state_violates_contraction_at_every_size():
    for n in (2, 3, 5, 8):
        _, lower, _ = _standard_ops(n)
        ones = np.ones((n, n), dtype=complex) / n
        assert not _contracts(lower, ones)


def test_contraction_gate_scales_with_the_trace_norm():
    # pinching or averaging s ones(N) / N shows a roundoff excess that grows
    # with s (3.7e-4 at N = 4, s = 1e12) and the gate grows with it, while
    # the expansion of triangular truncation stays an excess at any s
    for n in (4, 16):
        lower = vf._reduction_op("lower_triangularize", n)
        for scale in (1.0, 1e6, 1e9, 1e12):
            ones = np.full((n, n), scale / n, dtype=complex)
            for kind in ("measurement", "group_average"):
                assert _contracts(vf._reduction_op(kind, n), ones)
            excess = vf._trace_norm_excess(
                op.trace_norm(red.apply(lower, ones)), op.trace_norm(ones), n)
            assert excess > 0.2 * scale


def test_positivity_and_trace_preservation():
    meas, lower, group = _standard_ops(4)
    rho = seeded_random_state(99, "psd", 4)
    assert vf._psd_fault(rho) is None
    images = [red.apply(rop, rho) for rop in (meas, group)]
    assert vf._positivity_check(images).defect == 0.0
    # truncation leaves the Hermitian cone, so the law is not its law
    truncated = red.apply(lower, rho)
    assert vf._psd_fault(truncated) == "Hermitian"
    assert vf._positivity_check([*images, truncated]).defect == 1.0
    for out in images:
        assert abs(np.trace(out) - np.trace(rho)) < 1e-13


def test_psd_fault_names_the_failing_test():
    assert vf._psd_fault(seeded_random_state(100, "general", 3)) == "Hermitian"
    herm = seeded_random_state(101, "hermitian", 3)
    herm = herm - 2.0 * np.max(np.linalg.eigvalsh(herm)) * np.eye(3)
    assert vf._psd_fault(herm) == "PSD"
    # the gate scales with the spectral radius: the roundoff eigenvalues of
    # a rank-one density stay inside it at any scale
    for scale in (1.0, 1e6, 1e12):
        assert vf._psd_fault(np.full((8, 8), scale / 8, dtype=complex)) is None


def test_factory_validation():
    p = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        red.measurement([p, p])
    with pytest.raises(ValueError):
        red.lower_triangularize([p, p])
    with pytest.raises(ValueError):
        red.group_average([])
    with pytest.raises(ValueError):
        red.group_average([np.diag([1.0, 2.0]).astype(complex)])
    # closed set without the identity
    u = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(ValueError):
        red.group_average([u])
    # not closed under products
    w = np.diag([1.0, 1j]).astype(complex)
    with pytest.raises(ValueError):
        red.group_average([np.eye(2, dtype=complex), w])
    with pytest.raises(ValueError, match="one dimension"):
        red.group_average([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])


def test_decomposition_kinds_coerce_each_projector_once(monkeypatch):
    calls = []
    coerce = op.as_matrix
    monkeypatch.setattr(op, "as_matrix", lambda m: calls.append(1) or coerce(m))
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    basis = op.standard_basis_decomposition(3)
    # any sequence, or an iterator, is one input format
    for build in (red.measurement, red.lower_triangularize):
        for family in ([p, np.eye(3) - p], basis, iter(basis)):
            calls.clear()
            rop = build(family)
            assert isinstance(rop.operators, tuple)
            assert len(calls) == len(rop.operators), (build, family)


def test_lower_kind_sums_its_running_sums_once(monkeypatch):
    calls = []
    cumsum = np.cumsum
    monkeypatch.setattr(np, "cumsum",
                        lambda *a, **kw: calls.append(1) or cumsum(*a, **kw))
    rop = red.lower_triangularize(op.standard_basis_decomposition(4))
    assert len(calls) == 1
    rho = seeded_random_state(103, "general", 4)
    red.apply(rop, rho)
    red.apply_dual(rop, rho)
    red._closure_defect(rop, rho, rho)
    assert len(calls) == 1


def test_apply_builds_no_stack_of_factors():
    n = 64
    rop = red.lower_triangularize(op.standard_basis_decomposition(n))
    rho = seeded_random_state(104, "general", n)
    # a few N x N products at a time: the peak stays far below the 4 MB of
    # one (k, N, N) stack of the 64 running sums
    tracemalloc.start()
    red.apply(rop, rho)
    red.apply_dual(rop, rho)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 16 * n * n * 16


def test_ops_compare_and_hash_by_identity():
    # equal but distinct arrays have no single truth value to compare by
    a = red.measurement(op.standard_basis_decomposition(2))
    b = red.measurement(op.standard_basis_decomposition(2))
    assert (a == b) is False
    assert (a == a) is True
    assert a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


def test_json_roundtrip_preserves_behavior():
    for rop in _standard_ops(3):
        back = red.reduction_from_json(red.reduction_to_json(rop))
        assert back.kind == rop.kind
        rho = seeded_random_state(102, "general", 3)
        assert np.array_equal(red.apply(back, rho), red.apply(rop, rho))
    with pytest.raises(ValueError):
        red.reduction_from_json({"kind": "nope", "operators": []})
    with pytest.raises(ValueError):
        red.reduction_from_json({"kind": "measurement"})


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=5))
def test_idempotence_property(seed, n):
    rho = seeded_random_state(seed, "general", n)
    for rop in _standard_ops(n):
        once = red.apply(rop, rho)
        assert np.max(np.abs(red.apply(rop, once) - once)) < 1e-12


@settings(derandomize=True, max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(min_value=2, max_value=5))
def test_adjointness_property(seed, n):
    x = seeded_random_state(seed, "general", n)
    rho = seeded_random_state(seed + 1, "general", n)
    for rop in _standard_ops(n):
        lhs = op.trace_pairing(x, red.apply(rop, rho))
        rhs = op.trace_pairing(red.apply_dual(rop, x), rho)
        assert abs(lhs - rhs) < 1e-12


def _per_kind_sums(rop, rho, x):
    """R(rho) and R*(x) as the per-kind sums apply and apply_dual replaced,
    with the running sums q_n = p_1 + ... + p_n of the triangular kind:
    the oracle."""
    ps = rop.operators
    if rop.kind == "measurement":
        return (sum(p @ rho @ p for p in ps), sum(p @ x @ p for p in ps))
    if rop.kind == "lower_triangularize":
        qs, acc = [], np.zeros_like(ps[0])
        for p in ps:
            acc = acc + p
            qs.append(acc)
        return (sum(p @ rho @ q for p, q in zip(ps, qs)),
                sum(q @ x @ p for p, q in zip(ps, qs)))
    return (sum(u @ rho @ u.conj().T for u in ps) / len(ps),
            sum(u.conj().T @ x @ u for u in ps) / len(ps))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8])
def test_apply_and_dual_give_the_bits_of_the_per_kind_sums(n):
    h = seeded_random_state(300 + n, "hermitian", n)
    half = np.diag([1.0] * (n // 2) + [0.0] * (n - n // 2)).astype(complex)
    # a group of order 3, so that dividing by |G| is not exact scaling
    phase = np.diag(np.exp(2j * np.pi / 3 * (np.arange(n) % 3)))
    rops = [*_standard_ops(n), red.measurement(op.spectral_projectors(h)),
            red.group_average([np.eye(n), phase, phase @ phase]),
            red.lower_triangularize(op.spectral_projectors(h)),
            red.measurement([half, np.eye(n) - half]),
            red.lower_triangularize([np.eye(n) - half, half])]
    rho = seeded_random_state(310 + n, "general", n)
    x = seeded_random_state(320 + n, "general", n)
    # signed zeros too: tobytes tells +0 from -0
    rho[0, -1], x[-1, 0] = -0.0, complex(-0.0, -0.0)
    for rop in rops:
        want_r, want_dual = _per_kind_sums(rop, rho, x)
        assert red.apply(rop, rho).tobytes() == want_r.tobytes(), rop
        assert red.apply_dual(rop, x).tobytes() == want_dual.tobytes(), rop
