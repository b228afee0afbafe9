"""Acceptance gate: every primary behavioral criterion at its stated tolerance.

Each criterion prints exactly one pass/fail line (run with ``pytest -s`` to
see them live; they also appear in captured output).  Random ensembles are
seeded and unit-scaled: observables are Frobenius-normalized and states are
drawn from the package fixture streams, so defects measure algebra, not the
magnitude of gaussian tails.

Criterion 3 contains one clause that fails by design.  Trace-norm contraction
is a theorem for pinching and group averaging but NOT for triangular
truncation: on density-like states the truncated matrix is trace-norm larger
essentially always (the classical triangular-truncation operator is unbounded
on trace class, with norm growing like log N).  The audit below runs the
clause faithfully over all three kinds and reports the violations instead of
narrowing the ensemble to hide them.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

from liepoisson import brackets as br
from liepoisson import integrators as it
from liepoisson import operators as op
from liepoisson import orbits as orb
from liepoisson import reduction as red
from liepoisson import toda as td
from liepoisson import verification as vf
from liepoisson.fixtures import seeded_random_state


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    flag = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"[{flag}] criterion {num} {label}{tail}")


def _unit(m):
    return m / np.linalg.norm(m)


def _draw(seed, kind, n):
    return seeded_random_state(seed, kind, n)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_bracket_axioms():
    t0 = time.monotonic()
    dims = (2, 3, 4, 5, 6)
    worst = {"antisymmetry": 0.0, "leibniz": 0.0, "jacobi_linear": 0.0,
             "jacobi_fd": 0.0}
    for i in range(100):
        n = dims[i % len(dims)]
        a = _unit(_draw(1000 + i, "general", n))
        b = _unit(_draw(2000 + i, "general", n))
        c = _unit(_draw(3000 + i, "general", n))
        rho = _draw(4000 + i, "psd", n)
        f, g, h = (br.Observable.linear_form(m) for m in (a, b, c))

        anti = abs(br.lp_bracket(br.FULL, f, g, rho)
                   + br.lp_bracket(br.FULL, g, f, rho))
        worst["antisymmetry"] = max(worst["antisymmetry"], anti)
        worst["leibniz"] = max(worst["leibniz"],
                               br.leibniz_defect(br.FULL, f, g, h, rho))
        worst["jacobi_linear"] = max(worst["jacobi_linear"],
                                     br.jacobi_defect(br.FULL, f, g, h, rho))

        q1 = br.Observable.quadratic_form(a, b)
        q2 = br.Observable.quadratic_form(b, c)
        q3 = br.Observable.quadratic_form(c, a)
        worst["jacobi_fd"] = max(worst["jacobi_fd"],
                                 br.jacobi_defect(br.FULL, q1, q2, q3, rho))
    elapsed = time.monotonic() - t0

    ok = (worst["antisymmetry"] <= 1e-12 and worst["leibniz"] <= 1e-12
          and worst["jacobi_linear"] <= 1e-12 and worst["jacobi_fd"] <= 1e-5
          and elapsed < 5.0)
    _line(1, "bracket axioms", ok,
          f"antisym {worst['antisymmetry']:.1e}, leibniz {worst['leibniz']:.1e}, "
          f"jacobi lin {worst['jacobi_linear']:.1e}, "
          f"jacobi fd {worst['jacobi_fd']:.1e}, {elapsed:.2f}s")
    assert worst["antisymmetry"] <= 1e-12
    assert worst["leibniz"] <= 1e-12
    assert worst["jacobi_linear"] <= 1e-12
    assert worst["jacobi_fd"] <= 1e-5
    assert elapsed < 5.0


# --------------------------------------------------------------- criterion 2

def test_criterion_2_conservation_under_lvn_flow():
    t0 = time.monotonic()
    n, dt, steps = 6, 1e-3, 10000
    h0 = _draw(5000, "hermitian", n)
    h0 = h0 / op.operator_norm(h0)
    rho0 = _draw(5001, "psd", n)
    monitors = {f"T{k}": (lambda k: lambda r: float(
        np.trace(np.linalg.matrix_power(r, k)).real))(k) for k in range(1, 5)}
    cfg = it.IntegratorConfig(dt=dt, steps=steps, stride=100)

    traj = it.evolve(rho0, cfg, rhs=lambda t, y: op.commutator(-1j * h0, y),
                     monitors=monitors)
    rk4_drift = max(
        float(np.max(np.abs(traj.monitors[k] - traj.monitors[k][0]))
              / abs(traj.monitors[k][0]))
        for k in monitors)

    iso = it.evolve(rho0, cfg, hgrad=lambda r: -1j * h0)
    eig_drift = it.spectral_drift(iso)
    elapsed = time.monotonic() - t0

    ok = rk4_drift <= 1e-8 and eig_drift <= 1e-11 and elapsed < 10.0
    _line(2, "LvN conservation", ok,
          f"rk4 moment drift {rk4_drift:.1e}, isospectral eigenvalue drift "
          f"{eig_drift:.1e}, {elapsed:.2f}s")
    assert rk4_drift <= 1e-8
    assert eig_drift <= 1e-11
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 3

def _reduction_ops(n):
    basis = op.standard_basis_decomposition(n)
    signs = np.diag([(-1.0) ** k for k in range(n)]).astype(complex)
    return {
        "measurement": red.measurement(basis),
        "lower_triangularize": red.lower_triangularize(basis),
        "group_average": red.group_average([np.eye(n, dtype=complex), signs]),
    }


def test_criterion_3_reduction_laws():
    dims = (2, 4, 6, 8)
    draw_kinds = ("general", "hermitian", "psd")
    worst = {"idempotence": 0.0, "closure": 0.0, "condition": 0.0,
             "trace": 0.0}
    contraction_violations = {}
    positivity_ok = True

    for i in range(100):
        n = dims[i % len(dims)]
        kind = draw_kinds[i % len(draw_kinds)]
        rho = _draw(6000 + i, kind, n)
        x = _unit(_draw(7000 + i, "general", n))
        y = _unit(_draw(8000 + i, "general", n))
        for name, rop in _reduction_ops(n).items():
            image = red.apply(rop, rho)
            worst["idempotence"] = max(
                worst["idempotence"],
                float(np.max(np.abs(red.apply(rop, image) - image))))
            worst["closure"] = max(worst["closure"], red._closure_defect(
                rop, red.apply_dual(rop, x), red.apply_dual(rop, y)))
            worst["condition"] = max(
                worst["condition"],
                br.reduction_condition_defect(
                    lambda m: red.apply(rop, m),
                    lambda m: red.apply_dual(rop, m),
                    br.Observable.linear_form(x),
                    br.Observable.linear_form(y), rho))
            if vf._contraction_check(name, n, [(op.trace_norm(image),
                                                op.trace_norm(rho))]).defect:
                contraction_violations[name] = (
                    contraction_violations.get(name, 0) + 1)
            if kind == "psd" and name != "lower_triangularize":
                fault = vf._psd_fault(rho)  # the check reads PSD states only
                if fault:
                    raise ValueError(f"positivity check needs a {fault} state")
                if vf._positivity_check([image]).defect:
                    positivity_ok = False
                worst["trace"] = max(worst["trace"],
                                     abs(np.trace(image) - np.trace(rho)))

    laws_ok = (worst["idempotence"] <= 1e-12 and worst["closure"] <= 1e-12
               and worst["condition"] <= 1e-12 and worst["trace"] <= 1e-12
               and positivity_ok)
    ok = laws_ok and not contraction_violations
    _line(3, "reduction laws", ok,
          f"idempotence {worst['idempotence']:.1e}, closure "
          f"{worst['closure']:.1e}, condition {worst['condition']:.1e}, "
          f"contraction violations {contraction_violations or 'none'}")
    assert worst["idempotence"] <= 1e-12
    assert worst["closure"] <= 1e-12
    assert worst["condition"] <= 1e-12
    assert worst["trace"] <= 1e-12
    assert positivity_ok
    # honest red: triangular truncation is not a trace-norm contraction.
    # The expansion is generic on density-like states (see the module
    # docstring); pinching and averaging never violate.
    assert contraction_violations == {}, (
        "trace-norm contraction fails for triangular truncation on "
        f"{contraction_violations.get('lower_triangularize', 0)} of 100 "
        "states; the bound is not a theorem for that kind and the suite "
        "reports it rather than weakening the audit")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_toda_suite():
    t0 = time.monotonic()
    n, dt, steps = 8, 1e-3, 10000

    inter = max(td.intertwining_defect(_draw(9000 + i, "toda", n))
                for i in range(100))

    invol = 0.0
    pairs = [(j, k) for j in range(1, 6) for k in range(j + 1, 6)]
    for i in range(50):
        state = _draw(9500 + i, "toda", n)
        for j, k in pairs:
            invol = max(invol, td.involution_defect(state, j, k))

    state0 = _draw(9999, "toda", n)
    pair0 = td.flaschka(state0)
    cfg = it.IntegratorConfig(dt=dt, steps=steps, stride=100)

    def h_values(lax_states):
        return {k: np.array([np.trace(np.linalg.matrix_power(m, k)).real / k
                             for m in lax_states]) for k in range(1, 5)}

    can = it.evolve(td.pack(state0), cfg, rhs=td.canonical_rhs(state0))
    can_lax = [td.flaschka(td.unpack(y, state0)).rho + pair0.a
               for y in can.states]
    lax = it.evolve(pair0.rho, cfg, rhs=td.lax_rhs(pair0.a))
    lax_lax = [s + pair0.a for s in lax.states]

    def drift(series):
        # h1 starts at zero by momentum neutrality; floor the denominator
        return float(np.max(np.abs(series - series[0]))
                     / max(abs(series[0]), 1.0))

    h_drift = max(max(drift(v) for v in h_values(ls).values())
                  for ls in (can_lax, lax_lax))

    def eig_drift(lax_states):
        ref = np.sort(np.linalg.eigvals(lax_states[0]).real)
        scale = float(np.max(np.abs(ref)))
        worst = max(float(np.max(np.abs(
            np.sort(np.linalg.eigvals(m).real) - ref)))
            for m in lax_states[1:])
        return worst / scale

    spec_drift = max(eig_drift(can_lax), eig_drift(lax_lax))
    elapsed = time.monotonic() - t0

    ok = (inter <= 1e-12 and invol <= 1e-10 and h_drift <= 1e-8
          and spec_drift <= 1e-8 and elapsed < 10.0)
    _line(4, "Toda suite", ok,
          f"intertwining {inter:.1e}, involution {invol:.1e}, "
          f"h drift {h_drift:.1e}, spectrum drift {spec_drift:.1e}, "
          f"{elapsed:.2f}s")
    assert inter <= 1e-12
    assert invol <= 1e-10
    assert h_drift <= 1e-8
    assert spec_drift <= 1e-8
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 5

def test_criterion_5_flaschka_commutes_with_time():
    n, dt, steps = 8, 1e-3, 1000
    state0 = _draw(10500, "toda", n)
    pair0 = td.flaschka(state0)
    cfg = it.IntegratorConfig(dt=dt, steps=steps, stride=steps)

    can = it.evolve(td.pack(state0), cfg, rhs=td.canonical_rhs(state0))
    lax = it.evolve(pair0.rho, cfg, rhs=td.lax_rhs(pair0.a))
    pushed = td.flaschka(td.unpack(can.states[-1], state0)).rho
    gap = float(np.max(np.abs(pushed - lax.states[-1])))

    ok = gap <= 1e-6
    _line(5, "flow/Flaschka commutation", ok, f"gap at t=1 {gap:.1e}")
    assert gap <= 1e-6


# --------------------------------------------------------------- criterion 6

def _commutant_dim_oracle(rho):
    n = rho.shape[0]
    m = np.kron(np.eye(n), rho) - np.kron(rho.T, np.eye(n))
    return scipy.linalg.null_space(m).shape[1]


def test_criterion_6_kks_form():
    bilin = anti = welldef = conj = consistency = 0.0
    for i, n in enumerate((3, 4, 5, 6)):
        rho = _draw(11000 + i, "hermitian", n)
        x = _unit(_draw(11100 + i, "general", n))
        y = _unit(_draw(11200 + i, "general", n))
        z = _unit(_draw(11300 + i, "general", n))

        bilin = max(bilin, abs(orb.kks_eval(rho, x + 2.0 * z, y)
                               - orb.kks_eval(rho, x, y)
                               - 2.0 * orb.kks_eval(rho, z, y)))
        anti = max(anti, abs(orb.kks_eval(rho, x, y)
                             + orb.kks_eval(rho, y, x)))

        shift = 0.4 * np.eye(n) + 0.2 * rho + 0.1 * rho @ rho
        welldef = max(welldef,
                      orb.kks_welldefined_defect(rho, x, x + shift, y))

        g = scipy.linalg.expm(
            0.3 * op.skew_hermitian_part(_draw(11400 + i, "general", n)))
        ginv = np.linalg.inv(g)
        conj = max(conj, abs(orb.kks_eval(orb.coadjoint_act(g, rho),
                                          g @ x @ ginv, g @ y @ ginv)
                             - orb.kks_eval(rho, x, y)))

        f_obs = br.Observable.linear_form(x)
        g_obs = br.Observable.linear_form(y)
        consistency = max(consistency,
                          abs(br.lp_bracket(br.FULL, f_obs, g_obs, rho)
                              - orb.kks_eval(rho, x, y)))

    rank_ok = True
    rank_states = [
        _draw(11500, "hermitian", 5),
        np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex),
        orb.rank_one_state(np.array([1.0, 1j, -0.5, 2.0])),
        np.eye(4, dtype=complex),
        _draw(11501, "psd", 6),
    ]
    for rho in rank_states:
        n = rho.shape[0]
        if orb.characteristic_rank(rho) != n * n - _commutant_dim_oracle(rho):
            rank_ok = False

    ok = (bilin <= 1e-12 and anti <= 1e-12 and welldef <= 1e-10
          and conj <= 1e-10 and consistency <= 1e-12 and rank_ok)
    _line(6, "KKS orbit form", ok,
          f"bilinearity {bilin:.1e}, antisymmetry {anti:.1e}, well-defined "
          f"{welldef:.1e}, conjugation {conj:.1e}, bracket consistency "
          f"{consistency:.1e}, ranks {'ok' if rank_ok else 'MISMATCH'}")
    assert bilin <= 1e-12
    assert anti <= 1e-12
    assert welldef <= 1e-10
    assert conj <= 1e-10
    assert consistency <= 1e-12
    assert rank_ok


# --------------------------------------------------------------- criterion 7

def test_criterion_7_reduction_condition():
    n = 6
    rop = red.measurement(op.standard_basis_decomposition(n))
    worst_meas = worst_skew = 0.0
    for i in range(20):
        rho = _draw(12000 + i, "general", n)
        fbar = br.Observable.linear_form(_unit(_draw(12100 + i, "general", n)))
        gbar = br.Observable.linear_form(_unit(_draw(12200 + i, "general", n)))
        worst_meas = max(worst_meas, br.reduction_condition_defect(
            lambda m: red.apply(rop, m), lambda m: red.apply_dual(rop, m),
            fbar, gbar, rho))
        worst_skew = max(worst_skew, br.reduction_condition_defect(
            op.skew_hermitian_part, op.skew_hermitian_part,
            fbar, gbar, rho, realified=True))

    ok = worst_meas <= 1e-12 and worst_skew <= 1e-12
    _line(7, "reduction condition", ok,
          f"measurement {worst_meas:.1e}, skew-Hermitian part {worst_skew:.1e}")
    assert worst_meas <= 1e-12
    assert worst_skew <= 1e-12


# --------------------------------------------------------------- criterion 8

def test_criterion_8_integrator_orders():
    n = 6
    a = _draw(13000, "hermitian", n)
    a = a / op.operator_norm(a)
    c = _draw(13001, "hermitian", n)
    c = c / op.operator_norm(c)
    rho0 = _draw(13002, "psd", n)
    horizon = 0.32

    def gen(r):
        return -1j * (a + float(np.trace(c @ r).real) * c)

    def rhs(t, y):
        return op.commutator(gen(y), y)

    def end_state(steps, **field):
        cfg = it.IntegratorConfig(dt=horizon / steps, steps=steps,
                                  stride=steps)
        return it.evolve(rho0, cfg, **field).states[-1]

    ref = end_state(512, rhs=rhs)
    e8 = float(np.max(np.abs(end_state(8, rhs=rhs) - ref)))
    e16 = float(np.max(np.abs(end_state(16, rhs=rhs) - ref)))
    rk4_ratio = e8 / e16

    i16 = float(np.max(np.abs(end_state(16, hgrad=gen) - ref)))
    i32 = float(np.max(np.abs(end_state(32, hgrad=gen) - ref)))
    iso_ratio = i16 / i32

    rk4_ok = 16.0 * 0.8 <= rk4_ratio <= 16.0 * 1.2
    iso_ok = 4.0 * 0.8 <= iso_ratio <= 4.0 * 1.2
    _line(8, "integrator orders", rk4_ok and iso_ok,
          f"rk4 ratio {rk4_ratio:.2f} (want 16 +/- 20%), isospectral ratio "
          f"{iso_ratio:.2f} (want 4 +/- 20%)")
    assert rk4_ok
    assert iso_ok


# --------------------------------------------------------------- criterion 9

def test_criterion_9_negative_control():
    phi = br.inclusion_lower_map()
    f = br.Observable.linear_form(op.elementary(2, 1, 0))
    g = br.Observable.linear_form(op.elementary(2, 0, 1))
    control = np.diag([1.0, -1.0]).astype(complex)
    defect = br.poisson_map_defect(phi, br.LOWER_COINDUCED, br.FULL,
                                   f, g, control)

    ok = defect > 1e-3
    _line(9, "negative control", ok,
          f"inclusion Poisson defect {defect:.3f} > 1e-3")
    assert defect > 1e-3
