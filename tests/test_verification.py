"""Self-verification registry: every check green, full operation coverage."""

from __future__ import annotations

import importlib
import inspect
import json

import numpy as np
import pytest

from liepoisson import brackets as bk
from liepoisson import integrators as it
from liepoisson import operators as op
from liepoisson import orbits as orb
from liepoisson import reduction as red
from liepoisson import toda as td
from liepoisson import verification as vf
from liepoisson.cli import PROBE_STREAM
from liepoisson.fixtures import _complex_normal, _stream, seeded_random_state


def test_default_registry_is_all_green():
    results = vf.run_all(seed=2024, dim=4)
    failing = [r.name for r in results if not r.passed]
    assert failing == []


def test_registry_is_green_on_other_seeds_and_dims():
    for seed, dim in ((7, 6), (123, 8)):
        results = vf.run_all(seed=seed, dim=dim)
        assert all(r.passed for r in results), [
            r.name for r in results if not r.passed]


@pytest.mark.parametrize("dim, seed", [(14, 75), (16, 92)])
def test_leibniz_row_scales_with_its_terms_inside_the_verify_cap(dim, seed):
    # an absolute 1e-10 fails these configs on roundoff (2.1e-10 and
    # 2.9e-10); the tolerance follows the size of the compared terms
    results = vf.run_all(seed=seed, dim=dim)
    assert all(r.passed for r in results), [
        r.name for r in results if not r.passed]
    row = next(r for r in results if r.name == "full_bracket_leibniz")
    assert row.defect > 1e-10 and row.tol > row.defect


def test_each_group_reads_the_same_rows_alone_and_in_run_all():
    # every group takes fresh fixtures of (seed, dim), so what the groups
    # before it drew does not move its rows
    rows = vf.run_all(seed=2024, dim=4)
    at = 0
    for group in (vf._operator_checks, vf._bracket_checks,
                  vf._variant_bracket_checks, vf._reduction_checks,
                  vf._orbit_checks, vf._dynamics_checks, vf._toda_checks):
        alone = [(r.name, r.defect, r.tol)
                 for r in group(vf._fixtures(2024, 4))]
        inside = [(r.name, r.defect, r.tol) for r in rows[at:at + len(alone)]]
        assert inside == alone, group.__name__
        at += len(alone)
    assert [r.name for r in rows[at:]] == ["coverage_all_operations"]


def test_leibniz_tolerance_stays_within_1e_10_at_dim_4(monkeypatch):
    # the groups after the bracket axioms draw nothing the row reads
    for group in ("_variant_bracket_checks", "_reduction_checks", "_orbit_checks",
                  "_dynamics_checks", "_toda_checks"):
        monkeypatch.setattr(vf, group, lambda fx: [])
    for seed in range(100):
        row = next(r for r in vf.run_all(seed=seed, dim=4)
                   if r.name == "full_bracket_leibniz")
        assert row.passed and row.tol <= 1e-10, (seed, row)


RECORDED = ("operators", "brackets", "reduction", "orbits", "integrators",
            "toda", "fixtures")


def _public_functions():
    names = set()
    for mod_name in RECORDED:
        mod = importlib.import_module(f"liepoisson.{mod_name}")
        names.update(f"{mod_name}.{attr}" for attr in mod.__all__
                     if inspect.isfunction(getattr(mod, attr)))
    return names


def _coverage_row(results):
    assert results[-1].name == "coverage_all_operations"
    return results[-1]


def test_recorded_ops_cover_every_public_function():
    results = vf.run_all(seed=2024, dim=4)
    covered = set().union(*(r.ops for r in results))
    assert covered == _public_functions()
    row = _coverage_row(results)
    assert row.passed and row.defect == 0.0 and row.ops == ()


def test_intertwining_row_checks_the_bidiagonal_field():
    results = vf.run_all(seed=2024, dim=4)
    row = next(r for r in results if r.name == "toda_intertwining")
    assert {"toda.bidiagonal_rhs", "toda.lax_field",
            "toda.intertwining_defect"} <= set(row.ops)
    assert row.passed


def test_trajectory_row_compares_the_canonical_run_with_the_aks_solution():
    # the Flaschka push of the canonical records against the exact (p, b)
    # of the Lax flow gives the row's defect bit for bit
    results = vf.run_all(seed=2024, dim=4)
    row = next(r for r in results if r.name == "toda_canonical_vs_lax_trajectory")
    assert row.passed and row.tol == 1e-9
    state = seeded_random_state(2024, "toda", 4)
    cfg = it.IntegratorConfig(dt=1e-3, steps=1000, stride=100)
    canonical = it.evolve(td.pack(state), cfg, rhs=td.canonical_rhs(state))
    m = state.n - 1
    pushed = td._flaschka_coords(canonical.states[:, :m], canonical.states[:, m:],
                                 state.lam)
    exact = td._aks_coords(td._flaschka_coords(state.x, state.p, state.lam),
                           state.alpha, canonical.times)
    assert row.defect == np.max(np.abs(pushed - exact))


def test_trajectory_row_turns_red_on_a_wrong_time_scale(monkeypatch):
    # every RK4 step advances dt (1 + 1e-6) while the records are stamped
    # k dt: the flow conserves its energy, and only the exact solution sees
    # it (2.1e-7 or more over seeds 0-99 and 2024, even dims 4-16, where the
    # honest rows reach 7.3e-12)
    step = it.rk4_step
    monkeypatch.setattr(it, "rk4_step",
                        lambda rhs, t, y, dt: step(rhs, t, y, dt * (1.0 + 1e-6)))
    rows = {r.name: r for r in vf._toda_checks(vf._fixtures(2024, 4))}
    row = rows["toda_canonical_vs_lax_trajectory"]
    assert not row.passed and row.defect > 100 * row.tol
    assert rows["toda_energy_drift"].passed


def test_toda_group_takes_one_rk4_run(monkeypatch):
    # the canonical run of 1000 steps; the Lax flow it is compared with is
    # the closed-form AKS solution
    steps = 0
    step = it.rk4_step

    def counting(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(it, "rk4_step", counting)
    vf._toda_checks(vf._fixtures(2024, 4))
    assert steps == 1000


def test_coverage_reports_an_uncalled_public_function(monkeypatch):
    def unused_operation(state):
        return state

    unused_operation.__module__ = "liepoisson.toda"
    monkeypatch.setattr(td, "unused_operation", unused_operation, raising=False)
    monkeypatch.setattr(td, "__all__", [*td.__all__, "unused_operation"])
    row = _coverage_row(vf.run_all(seed=2024, dim=4))
    assert not row.passed and row.defect == 1.0
    assert row.ops == ("toda.unused_operation",)


def test_coverage_fails_without_the_toda_group(monkeypatch):
    monkeypatch.setattr(vf, "_toda_checks", lambda fx: [])
    results = vf.run_all(seed=2024, dim=4)
    row = _coverage_row(results)
    assert not row.passed and row.defect == len(row.ops) > 0
    assert {"toda.toda_columns", "toda.intertwining_defect",
            "toda.canonical_rhs", "toda.lax_rhs"} <= set(row.ops)
    assert all(name.startswith("toda.") for name in row.ops)
    assert "toda_intertwining" not in [r.name for r in results]


def test_overflow_abort_row_fails_when_the_hamiltonian_does_not_abort(
        monkeypatch):
    monkeypatch.setattr(td, "toda_hamiltonian", lambda state: 0.0)
    rows = {r.name: r for r in vf._toda_checks(vf._fixtures(2024, 4))}
    row = rows["toda_overflow_abort"]
    assert not row.passed and row.defect == 1.0


def test_fd_gradients_called_through_observables_are_recorded():
    # bracket_observable calls fd_gradient by its global name, so the
    # recorder that rebinds bk.fd_gradient sees those calls too
    rows = {r.name: r for r in vf.run_all(seed=2024, dim=4)}
    assert "brackets.fd_gradient" in rows["full_bracket_jacobi_fd"].ops


def _bound_objects():
    return op.commutator, bk.lp_bracket, it.rk4_step, orb.commutator


def test_recorders_are_removed_after_the_run(monkeypatch):
    before = _bound_objects()
    vf.run_all(seed=2024, dim=4)
    assert all(a is b for a, b in zip(_bound_objects(), before))

    def failing_group(fx):
        op.commutator(fx["general"], fx["hermitian"])
        raise RuntimeError("check crashed")

    monkeypatch.setattr(vf, "_orbit_checks", failing_group)
    with pytest.raises(RuntimeError, match="check crashed"):
        vf.run_all(seed=2024, dim=4)
    assert all(a is b for a, b in zip(_bound_objects(), before))
    # nothing recorded in the failed run leaks into rows built afterwards
    assert vf._check("after", 0.0, 0.0).ops == ()


def test_negative_controls_record_large_defects():
    results = {r.name: r for r in vf.run_all(seed=2024, dim=4)}
    inclusion = results["lower_inclusion_not_poisson"]
    assert inclusion.passed and inclusion.defect > 1e-3
    contraction = results["lower_contraction_not_universal"]
    assert contraction.passed and contraction.defect > 1e-6


def test_reduction_group_applies_each_distinct_reduction_once(monkeypatch):
    # per kind R(rho), R*(x), R*(y), R(R(rho)) and R*(R*(x) R*(y)); R of the
    # all-ones density for the triangular witness; R of the PSD fixture for
    # pinching and averaging, read by both their contraction row and the
    # positivity row; and the two duals of the commutant row
    inputs = []
    sandwich = red._sandwich
    monkeypatch.setattr(red, "_sandwich", lambda *a: inputs.append(
        (id(a[0]), id(a[2]), a[1].tobytes())) or sandwich(*a))
    rows = vf._reduction_checks(vf._fixtures(2024, 4))
    assert all(r.passed for r in rows)
    assert len(inputs) == 20
    assert len(set(inputs)) == 20


@pytest.mark.parametrize("seed", [*range(12), 2024])
def test_contraction_and_positivity_gates_stay_within_1e_10_at_dim_4(seed):
    # both verdicts gate at c eps N scale; on verify's dim-4 fixtures that is
    # no looser than the absolute 1e-10 it replaced
    fx = vf._fixtures(seed, 4)
    for rho in (fx["general"], fx["psd"]):
        norm = op.trace_norm(rho)
        assert vf._trace_norm_excess(norm + 1e-10, norm, 4) > 0.0
    upper = np.zeros((4, 4), dtype=complex)
    upper[0, 1] = 1e-10  # eigvalsh reads the lower triangle only
    for kind in ("measurement", "group_average"):
        image = red.apply(vf._reduction_op(kind, 4), fx["psd"])
        assert vf._psd_fault(image) is None
        assert vf._psd_fault(image + upper) == "Hermitian"
        shift = np.linalg.eigvalsh(image)[0] + 1e-10
        assert vf._psd_fault(image - shift * np.eye(4)) == "PSD"


def _kks_pairing_row(fx):
    rows = vf._orbit_checks(fx)
    return next(r for r in rows if r.name == "kks_pairing_identity")


@pytest.mark.parametrize("seed", [*range(12), 2024])
def test_kks_pairing_gate_stays_within_1e_12_at_dim_4(monkeypatch, seed):
    # the gate scales with the probe's forward-error scale; on verify's
    # dim-4 fixtures it is no looser than the absolute 1e-12 it replaced,
    # and a second route off by a relative 1e-12 turns the row red
    real = _kks_pairing_row(vf._fixtures(seed, 4))
    assert real.passed and real.tol <= 1e-12
    commutator = op.commutator
    monkeypatch.setattr(op, "commutator",
                        lambda x, rho: (1.0 + 1e-12) * commutator(x, rho))
    assert not _kks_pairing_row(vf._fixtures(seed, 4)).passed


@pytest.mark.parametrize("seed", [8, 9, 23])
def test_kks_pairing_row_is_green_at_the_orbit_kks_cap(seed):
    # orbit-kks's state and probe stream at N = 32 with 1000 samples; seed 8
    # has the largest defect over seeds 0-39 (6.9e-13, against the absolute
    # 1e-12 gate this replaced), 9 and 23 the next
    n = 32
    rho = seeded_random_state(seed, "hermitian", n)
    rng = _stream(seed, PROBE_STREAM)
    probes = [(_complex_normal(rng, n), _complex_normal(rng, n))
              for _ in range(1000)]
    (_, row), _ = vf._kks_checks(rho, probes)
    # the row reports the probe of the largest defect / scale: a slack of
    # 100 or more at the cap, where the absolute gate had 1.45
    assert row.passed and row.defect <= 0.01 * row.tol


def test_dynamics_group_takes_the_steps_its_rows_can_see(monkeypatch):
    # RK4: the mean-field energy flow 500, the order reference 128, the
    # order runs 8 + 16, the collective pair 2 x 20; isospectral: the order
    # runs 16 + 32 (the LvN flow conjugates by one propagator); evolve looks
    # both up in the module at every step
    steps = dict.fromkeys(("rk4_step", "isospectral_step"), 0)

    def counting(name, step):
        def call(*args):
            steps[name] += 1
            return step(*args)
        return call

    for name in steps:
        monkeypatch.setattr(it, name, counting(name, getattr(it, name)))
    vf._dynamics_checks(vf._fixtures(2024, 4))
    assert steps == {"rk4_step": 692, "isospectral_step": 48}


def _low_order_rk4_step(rhs, t, y, dt):
    # the stages of rk4_step with weights (1, 3, 1, 1) / 6: second order,
    # since sum b_i a_ij c_j = 1/8, not 1/6
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 3.0 * k2 + k3 + k4)


def test_energy_row_turns_red_on_a_low_order_step(monkeypatch):
    # the honest drift is O(t dt^4), the mutant's O(t dt^2): 2.7e-8 at
    # dt 0.01, where 6.6e-9 at dt 0.005 passed the gate
    monkeypatch.setattr(it, "rk4_step", _low_order_rk4_step)
    rows = {r.name: r for r in vf._dynamics_checks(vf._fixtures(2024, 4))}
    row = rows["lvn_rk4_energy_drift"]
    assert not row.passed and row.defect >= 2 * row.tol
    assert rows["lvn_noether_drift"].passed


@pytest.mark.parametrize("seed", [*range(12), 2024])
def test_energy_row_grid_keeps_a_slack_of_30(seed):
    # the grid is the coarsest whose honest drift stays well under the gate:
    # worst over seeds 0-99 and 2024 at even dims 4-16 is gate / 94
    rows = vf._dynamics_checks(vf._fixtures(seed, 4))
    row = next(r for r in rows if r.name == "lvn_rk4_energy_drift")
    assert row.tol == 1e-8 and row.defect <= row.tol / 30


def _scaled_adjoint_pullback(f, phi):
    # J*(g) scaled by 1 + 1e-6: J no longer intertwines the two fields
    return bk._pullback(f, bk.MatrixLinearMap(
        phi.apply, lambda g: (1.0 + 1e-6) * phi.adjoint(g)))


@pytest.mark.parametrize("seed", [*range(12), 2024])
def test_collective_row_turns_red_when_j_stops_intertwining(monkeypatch, seed):
    def row():
        rows = vf._dynamics_checks(vf._fixtures(seed, 4))
        return next(r for r in rows if r.name == "collective_flow_matches_reduced")

    real = row()
    assert real.passed and real.tol == 1e-12
    monkeypatch.setattr(it, "_pullback", _scaled_adjoint_pullback)
    mutant = row()
    assert not mutant.passed and mutant.defect > 1e-9


def test_report_payload_schema(tmp_path):
    results = vf.run_all(seed=2024, dim=4)
    path = tmp_path / "report.json"
    assert vf._write_report(str(path), results, "footer") == 0
    payload = json.loads(path.read_text())
    assert set(payload) == {"checks", "pass"}
    assert payload["pass"] is True
    assert len(payload["checks"]) == len(results)
    for row in payload["checks"]:
        assert set(row) == {"name", "defect", "tol", "pass"}
        assert isinstance(row["defect"], float)
        assert isinstance(row["pass"], bool)


def test_run_all_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        vf.run_all(seed=1, dim=3)  # group construction needs an even dim
    with pytest.raises(ValueError):
        vf.run_all(seed=1, dim=2)
    with pytest.raises(ValueError, match="even dim"):
        vf.run_all(seed=1, dim=5)
