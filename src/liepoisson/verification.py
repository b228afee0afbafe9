"""Named verification checks over the whole public surface, and the one
check core that ``verify`` and every CLI summary report through.

``run_all`` executes every check against seeded fixtures and returns a list
of ``CheckResult``; ``report_payload`` renders them as the report JSON

    {"checks": [{"name", "defect", "tol", "pass"}, ...], "pass": bool}

and ``_write_report`` writes that payload (plus any command-specific fields),
prints one line per row and returns the exit code.  Every row, in ``verify``
and in the CLI summaries, is built by ``_check``.

The identities that ``verify`` and a summary both check, the reduction laws
(``_reduction_law_checks``), the contraction and positivity of pinching and
averaging (``_contraction_check``, ``_positivity_check``) and the orbit
two-form and its rank (``_kks_checks``, ``_kks_rank_check``), have one
function each that takes the values the caller holds: ``reduce-demo`` and
``orbit-kks`` report them with verify's names, defect formulas and gates.

A check normally passes when defect <= tol.  Checks whose name contains
``not_`` are negative controls: they pass when the defect *exceeds* tol,
certifying that the machinery can tell a true identity from a false one.

Coverage is recorded, not listed.  While ``run_all`` runs, every plain
function in the ``__all__`` of the seven library modules (``RECORDED``) is
rebound, under each name that holds it in a ``liepoisson.*`` namespace, to a
pass-through that notes its call; the original objects are put back on the
way out, also when a check raises.  Each row's ``ops`` are the public
functions called since the row before it.  The final row,
``coverage_all_operations``, counts the public functions no check called
and lists them in its ``ops`` (defect 0 means full coverage).

Tolerances follow the computation route: identities evaluated with analytic
gradients sit at roundoff and get 1e-10 or tighter (``full_bracket_leibniz``
gets 48 eps times its largest term, since its terms grow with the dim);
routes through finite differences or fixed-step integration get tolerances
matching their truncation order, except where the integration commutes
with the identity: ``collective_flow_matches_reduced`` compares two RK4
flows that a linear J carries one onto the other step by step, so its
defect is roundoff at any dt and its gate is a roundoff gate.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from . import brackets as bk
from . import integrators as it
from . import operators as op
from . import orbits as orb
from . import reduction as red
from . import toda as td
from .fixtures import _complex_normal, _stream, seeded_random_state

__all__ = ["CheckResult", "report_payload", "run_all"]

# the library modules whose public functions the coverage row accounts for
RECORDED = ("operators", "brackets", "reduction", "orbits", "integrators",
            "toda", "fixtures")


@dataclass(frozen=True)
class CheckResult:
    name: str
    defect: float
    tol: float
    passed: bool
    ops: tuple


# "module.function" names of the public functions called since the last row;
# filled only while run_all records
_called: set = set()


def _check(name: str, defect: float, tol: float) -> CheckResult:
    defect, tol = float(defect), float(tol)
    passed = defect > tol if "not_" in name else defect <= tol
    ops = tuple(sorted(_called))
    _called.clear()
    return CheckResult(name, defect, tol, passed, ops)


def _reduction_law_checks(rop: red.ReductionOp, rho, x, y):
    """The rows ``reduction_{closure,adjointness,idempotent,condition}_<kind>``
    of ``rop`` at the state rho and the probes x, y, with R(rho) and R*(x).

    Each of R(rho), R*(x), R*(y), R(R(rho)) and R*(R*(x) R*(y)) is applied
    once.  The linear probes tr(x .), tr(y .) have the gradients x and y
    everywhere, so the condition's lifted gradients are R*(x) and R*(y).
    """
    image = red.apply(rop, rho)
    dual_x, dual_y = red.apply_dual(rop, x), red.apply_dual(rop, y)
    again = red.apply(rop, image)
    adjoint = abs(op.trace_pairing(dual_x, rho) - op.trace_pairing(x, image))
    rows = [
        _check(f"reduction_closure_{rop.kind}",
               red._closure_defect(rop, dual_x, dual_y), 1e-12),
        _check(f"reduction_adjointness_{rop.kind}", adjoint, 1e-10),
        _check(f"reduction_idempotent_{rop.kind}",
               float(np.max(np.abs(again - image))), 1e-12),
        _check(f"reduction_condition_{rop.kind}",
               bk._lifted_condition_defect(dual_x, dual_y, rho, image), 1e-10),
    ]
    return rows, image, dual_x


# c of the gate c eps N scale of the 0/1 contraction and positivity verdicts.
# Over 9e4 states (pinching and sign averaging, N = 2-96, trace norms 1 to
# 1e12, ranks 1 to N, one and two BLAS threads) the worst trace-norm excess
# was 1.22 eps N ||rho||_1 and the worst PSD-test defect 0.76 eps N r.
ROUNDOFF_C = 4.0


def _psd_fault(m) -> Optional[str]:
    """None if m is Hermitian and PSD, else which of the two fails.  Both
    gate at ROUNDOFF_C eps N r, with r the spectral radius of the Hermitian
    matrix ``eigvalsh`` reads off the lower triangle of m."""
    ev = np.linalg.eigvalsh(m)
    gate = ROUNDOFF_C * sys.float_info.epsilon * len(m) * max(-ev[0], ev[-1])
    if op.operator_norm(m - m.conj().T) > gate:
        return "Hermitian"
    if ev[0] < -gate:
        return "PSD"
    return None


def _trace_norm_excess(image_norm: float, norm: float, n: int) -> float:
    """||R(rho)||_1 - ||rho||_1 of an n x n rho where it exceeds the roundoff
    gate ROUNDOFF_C eps n ||rho||_1, else 0.0: zero where R contracts rho."""
    excess = image_norm - norm
    gate = ROUNDOFF_C * sys.float_info.epsilon * n * norm
    return excess if excess > gate else 0.0


def _contraction_check(kind: str, n: int, norms) -> CheckResult:
    """The row ``reduction_contraction_<kind>``: 0 if R contracts the trace
    norm at every pair (||R(rho)||_1, ||rho||_1) of n x n states in norms,
    else 1.  A law for pinching and averaging, not for truncation."""
    broken = any(_trace_norm_excess(*pair, n) for pair in norms)
    return _check(f"reduction_contraction_{kind}", float(broken), 0.0)


def _positivity_check(images) -> CheckResult:
    """The row ``reduction_positivity``: 0 if each image R(rho) of a PSD
    state rho is PSD by ``_psd_fault``, else 1."""
    broken = any(_psd_fault(m) for m in images)
    return _check("reduction_positivity", float(broken), 0.0)


def _kks_checks(rho, probes):
    """The rows ``kks_antisymmetry`` and ``kks_pairing_identity`` of the orbit
    two-form at rho, each the worst over the probe pairs (x, y); returns
    them with the form's value at each pair."""
    values = [orb.kks_eval(rho, x, y) for x, y in probes]
    antisym = np.max([abs(v + orb.kks_eval(rho, y, x))
                      for v, (x, y) in zip(values, probes)])
    pairing = np.max([abs(v + op.trace_pairing(y, op.commutator(x, rho)))
                      for v, (x, y) in zip(values, probes)])
    return [_check("kks_antisymmetry", antisym, 1e-10),
            _check("kks_pairing_identity", pairing, 1e-12)], values


def _kks_rank_check(rho):
    """The row ``kks_rank_matches_tangent_rank`` at rho, with the
    characteristic rank and the form rank it compares."""
    rank = orb.characteristic_rank(rho)
    form_rank = orb.kks_form_rank(rho)
    return (_check("kks_rank_matches_tangent_rank",
                   float(abs(form_rank - rank)), 0.0), rank, form_rank)


def report_payload(results: List[CheckResult]) -> dict:
    """The exact report schema: {"checks": [...], "pass": bool}."""
    return {
        "checks": [
            {"name": r.name, "defect": r.defect, "tol": r.tol, "pass": r.passed}
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }


def _write_report(path: str, results: List[CheckResult], footer: str,
                  **fields) -> int:
    """Write {**fields, "checks", "pass"} to path as sorted JSON, print one
    line per row and then ``footer``; return 0 if every row passes, else 1."""
    payload = {**fields, **report_payload(results)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
              f"defect={r.defect:.3e}  tol={r.tol:.3e}")
    print(footer)
    return 0 if payload["pass"] else 1


def _combine(a: bk.Observable, w_a, f: bk.Observable, w_f) -> bk.Observable:
    """w_a * a + w_f * f as an Observable with the combined gradient."""
    return bk.Observable(
        lambda rho: w_a * a(rho) + w_f * f(rho),
        lambda rho: w_a * a.grad(rho) + w_f * f.grad(rho),
        linear=a.linear and f.linear,
    )


def _unit(m: np.ndarray) -> np.ndarray:
    """Frobenius-normalized copy; keeps finite-difference scales tame."""
    return m / float(np.linalg.norm(m))


# ---------------------------------------------------------------- fixtures

def _fixtures(seed: int, dim: int) -> dict:
    gen = seeded_random_state(seed, "general", dim)
    herm = seeded_random_state(seed, "hermitian", dim)
    psd = seeded_random_state(seed, "psd", dim)
    lower = seeded_random_state(seed, "lower", dim)
    toda = seeded_random_state(seed, "toda", dim)
    rng = _stream(seed, 101)

    def draw():
        return _complex_normal(rng, dim)

    def draw_herm():
        return op.hermitian_part(draw())

    return {
        "dim": dim, "general": gen, "hermitian": herm, "psd": psd,
        "lower": lower, "toda": toda, "draw": draw, "draw_herm": draw_herm,
    }


# ------------------------------------------------------- operator identities

def _operator_checks(fx) -> List[CheckResult]:
    out = []
    m = fx["general"]
    x = fx["draw"]()

    resid = max(
        float(np.max(np.abs(op.project_lower(m) + op.project_strictly_upper(m) - m))),
        float(np.max(np.abs(op.project_upper_plus(m) + op.project_strictly_lower(m) - m))),
        float(np.max(np.abs(op.hermitian_part(m) + op.skew_hermitian_part(m) - m))),
    )
    out.append(_check("splitting_identities", resid, 1e-12))

    adj = abs(op.trace_pairing(op.project_upper_plus(x), m)
              - op.trace_pairing(x, op.project_lower(m)))
    out.append(_check("triangular_projections_adjoint", adj, 1e-12))

    tags_ok = (
        op.validate(op.ClassTag.HERMITIAN, fx["hermitian"])
        and op.validate(op.ClassTag.SKEW_HERMITIAN, op.skew_hermitian_part(m))
        and op.validate(op.ClassTag.LOWER_TRIANGULAR, fx["lower"])
        and op.validate(op.ClassTag.STRICTLY_UPPER, op.project_strictly_upper(m))
        and not op.validate(op.ClassTag.HERMITIAN, m + np.eye(fx["dim"]) * 1j)
    )
    out.append(_check("class_tag_validation", 0.0 if tags_ok else 1.0, 0.0))

    h = fx["hermitian"]
    decomp = op.spectral_projectors(h)
    pinched = sum(p @ h @ p for p in decomp.projectors)
    d = float(np.max(np.abs(pinched - h)))
    ok = op.validate_decomposition(decomp)
    out.append(_check("spectral_projectors_pinch_identity",
                      d if ok else 1.0, 1e-10))

    payload = json.loads(json.dumps(op.matrix_to_json(m)))
    d = float(np.max(np.abs(op.matrix_from_json(payload) - m)))
    out.append(_check("matrix_json_roundtrip", d, 0.0))
    return out


# ------------------------------------------------------------ bracket axioms

def _bracket_checks(fx) -> List[CheckResult]:
    out = []
    rho = fx["general"]
    f = bk.Observable.linear_form(fx["draw"]())
    g = bk.Observable.quadratic_form(fx["draw_herm"](), fx["draw_herm"]())
    h = bk.Observable.linear_form(fx["draw"]())

    d = abs(bk.lp_bracket(bk.FULL, f, g, rho) + bk.lp_bracket(bk.FULL, g, f, rho))
    out.append(_check("full_bracket_antisymmetry", d, 1e-10))

    combo = _combine(f, 2.0, g, 3.0)
    fh = bk.lp_bracket(bk.FULL, f, h, rho)
    gh = bk.lp_bracket(bk.FULL, g, h, rho)
    d = abs(bk.lp_bracket(bk.FULL, combo, h, rho) - 2.0 * fh - 3.0 * gh)
    out.append(_check("full_bracket_bilinearity", d, 1e-10))

    # roundoff relative to the largest of {fg, h}, f {g, h} and g {f, h},
    # which grow with the dim; defect/scale stayed below 33 eps over 20000
    # draws at dims 4-16, and 48 eps keeps dim 4 at or under 1e-10
    scale = max(abs(bk.lp_bracket(bk.FULL, bk.product_observable(f, g), h, rho)),
                abs(f(rho) * gh), abs(g(rho) * fh))
    out.append(_check("full_bracket_leibniz",
                      bk.leibniz_defect(bk.FULL, f, g, h, rho),
                      48 * sys.float_info.epsilon * scale))

    f3 = bk.Observable.linear_form(fx["draw"]())
    out.append(_check("full_bracket_jacobi_linear",
                      bk.jacobi_defect(bk.FULL, f, f3, h, rho), 1e-10))

    # finite-difference route: unit-scale observables on a unit-trace state
    f_s = bk.Observable.linear_form(_unit(fx["draw"]()))
    g_s = bk.Observable.quadratic_form(_unit(fx["draw_herm"]()),
                                       _unit(fx["draw_herm"]()))
    out.append(_check("full_bracket_jacobi_fd",
                      bk.jacobi_defect(bk.FULL, f_s, g_s, bk.casimir(3), fx["psd"]),
                      1e-6))

    field = bk.ham_field(bk.FULL, g, rho)
    d = abs(op.trace_pairing(h.grad(rho), field) - bk.lp_bracket(bk.FULL, h, g, rho))
    out.append(_check("full_defining_identity", d, 1e-10))

    worst_b, worst_f = 0.0, 0.0
    for k in (1, 2, 3):
        tk = bk.casimir(k)
        worst_b = max(worst_b, abs(bk.lp_bracket(bk.FULL, tk, f, rho)),
                      abs(bk.lp_bracket(bk.FULL, tk, g, rho)))
        worst_f = max(worst_f, float(np.max(np.abs(bk.ham_field(bk.FULL, tk, rho)))))
    out.append(_check("full_casimir_brackets_vanish", worst_b, 1e-10))
    out.append(_check("full_casimir_fields_vanish", worst_f, 1e-12))

    d = float(np.max(np.abs(bk.fd_gradient(bk.FULL, g_s, fx["psd"])
                            - g_s.grad(fx["psd"]))))
    pair = td.flaschka(fx["toda"])
    hk = td.toda_hk(2, pair.a)
    d = max(d, float(np.max(np.abs(
        bk.fd_gradient(bk.LOWER_COINDUCED, hk, pair.rho) - hk.grad(pair.rho)))))
    rl = bk.Observable.real_linear_form(fx["draw"]())
    skew = op.skew_hermitian_part(fx["general"])
    d = max(d, float(np.max(np.abs(
        bk.fd_gradient(bk.HERMITIAN_REAL, rl, skew) - rl.grad(skew)))))
    out.append(_check("fd_gradients_match_analytic", d, 1e-6))
    return out


def _variant_bracket_checks(fx) -> List[CheckResult]:
    out = []
    lower = fx["lower"]
    pair = td.flaschka(fx["toda"])
    fL = bk.Observable.linear_form(fx["draw"]())
    gL = bk.Observable.linear_form(fx["draw"]())
    hL = td.toda_hk(2, pair.a)

    d = abs(bk.lp_bracket(bk.LOWER_COINDUCED, fL, hL, lower)
            + bk.lp_bracket(bk.LOWER_COINDUCED, hL, fL, lower))
    out.append(_check("lower_bracket_antisymmetry", d, 1e-10))

    out.append(_check("lower_bracket_jacobi",
                      bk.jacobi_defect(bk.LOWER_COINDUCED, fL, gL,
                                       bk.Observable.linear_form(fx["draw"]()), lower),
                      1e-10))

    field = bk.ham_field(bk.LOWER_COINDUCED, hL, lower)
    d = abs(op.trace_pairing(op.project_upper_plus(gL.grad(lower)), field)
            - bk.lp_bracket(bk.LOWER_COINDUCED, hL, gL, lower))
    out.append(_check("lower_defining_identity_flipped", d, 1e-10))

    skew = op.skew_hermitian_part(fx["general"])
    fS = bk.Observable.real_linear_form(fx["draw"]())
    gS = bk.Observable.real_linear_form(fx["draw"]())
    hS = bk.Observable.real_linear_form(fx["draw"]())
    d = abs(bk.lp_bracket(bk.HERMITIAN_REAL, fS, gS, skew)
            + bk.lp_bracket(bk.HERMITIAN_REAL, gS, fS, skew))
    out.append(_check("hermitian_real_antisymmetry", d, 1e-10))
    out.append(_check("hermitian_real_jacobi",
                      bk.jacobi_defect(bk.HERMITIAN_REAL, fS, gS, hS, skew), 1e-10))

    spec2 = bk.product(bk.FULL, bk.FULL)
    state2 = (fx["general"], fx["draw"]())
    fP = bk.Observable.pair_linear(fx["draw"](), fx["draw"]())
    gP = bk.Observable.pair_linear(fx["draw"](), fx["draw"]())
    hP = bk.Observable.pair_linear(fx["draw"](), fx["draw"]())
    d = abs(bk.lp_bracket(spec2, fP, gP, state2) + bk.lp_bracket(spec2, gP, fP, state2))
    out.append(_check("product_bracket_antisymmetry", d, 1e-10))
    out.append(_check("product_bracket_jacobi",
                      bk.jacobi_defect(spec2, fP, gP, hP, state2), 1e-10))

    d = max(
        bk.poisson_map_defect(bk.pair_inclusion_map(0, fx["dim"]), bk.FULL, spec2,
                              fP, gP, fx["general"]),
        bk.poisson_map_defect(bk.pair_inclusion_map(1, fx["dim"]), bk.FULL, spec2,
                              fP, gP, fx["general"]),
    )
    out.append(_check("product_inclusions_poisson", d, 1e-10))

    d = bk.poisson_map_defect(bk.lower_projection_map(), bk.FULL,
                              bk.LOWER_COINDUCED, fL, hL, fx["general"])
    out.append(_check("lower_projection_poisson", d, 1e-12))

    n = fx["dim"]
    a21 = bk.Observable.linear_form(op.elementary(n, 1, 0))
    a12 = bk.Observable.linear_form(op.elementary(n, 0, 1))
    control = np.zeros((n, n), dtype=complex)
    control[0, 0], control[1, 1] = 1.0, -1.0
    d = bk.poisson_map_defect(bk.inclusion_lower_map(), bk.LOWER_COINDUCED,
                              bk.FULL, a21, a12, control)
    out.append(_check("lower_inclusion_not_poisson", d, 1e-3))
    return out


# ------------------------------------------------------------------ reduction

def _reduction_op(kind: str, n: int) -> red.ReductionOp:
    """The demo reduction of each kind on n x n states: pinching onto two
    diagonal blocks, standard-basis triangular truncation, or averaging over
    the signs (I, d1, d2, d1 d2) of an even n: a four-element group from n = 4,
    and at n = 2, where d1 = d2 = d, (I, d, d, I) lists {I, d} twice."""
    half = n // 2
    if kind == "measurement":
        p1 = np.diag(np.array([1.0] * half + [0.0] * (n - half), dtype=complex))
        return red.measurement([p1, np.eye(n, dtype=complex) - p1])
    if kind == "lower_triangularize":
        return red.lower_triangularize(op.standard_basis_decomposition(n))
    d1 = np.diag(np.array([1, -1] * half, dtype=complex))
    d2 = np.diag(np.array([1] * half + [-1] * (n - half), dtype=complex))
    return red.group_average([np.eye(n, dtype=complex), d1, d2, d1 @ d2])


def _reduction_checks(fx) -> List[CheckResult]:
    out = []
    rops = {kind: _reduction_op(kind, fx["dim"]) for kind in red.KINDS}
    grp = rops["group_average"]
    n, rho, psd = fx["dim"], fx["general"], fx["psd"]
    x, y = fx["draw"](), fx["draw"]()
    norm, psd_norm = op.trace_norm(rho), op.trace_norm(psd)
    psd_images = []

    for tag, rop in rops.items():
        rows, image, _ = _reduction_law_checks(rop, rho, fx["draw"](),
                                               fx["draw"]())
        out.extend(rows)
        if tag == "lower_triangularize":
            # no contraction theorem for triangular truncation: correlated
            # states expand in trace norm, shown here on the all-ones density
            ones = np.ones((n, n), dtype=complex) / n
            excess = _trace_norm_excess(op.trace_norm(red.apply(rop, ones)),
                                        op.trace_norm(ones), n)
            out.append(_check("lower_contraction_not_universal", excess, 1e-6))
        else:
            psd_images.append(red.apply(rop, psd))
            out.append(_contraction_check(tag, n, [
                (op.trace_norm(image), norm),
                (op.trace_norm(psd_images[-1]), psd_norm)]))

    d = bk.reduction_condition_defect(
        op.skew_hermitian_part, op.skew_hermitian_part,
        bk.Observable.real_linear_form(fx["draw"]()),
        bk.Observable.real_linear_form(fx["draw"]()),
        rho, realified=True)
    out.append(_check("reduction_condition_skew_realified", d, 1e-10))
    out.append(_positivity_check(psd_images))

    d = max(float(np.max(np.abs(op.commutator(dual, u))))
            for dual in (red.apply_dual(grp, x), red.apply_dual(grp, y))
            for u in grp.operators)
    out.append(_check("group_average_dual_lands_in_commutant", d, 1e-12))

    worst = 0.0
    for rop in rops.values():
        back = red.reduction_from_json(json.loads(json.dumps(red.reduction_to_json(rop))))
        worst = max(worst, max(float(np.max(np.abs(a - b)))
                               for a, b in zip(rop.operators, back.operators)))
    out.append(_check("reduction_json_roundtrip", worst, 0.0))
    return out


# --------------------------------------------------------------------- orbits

def _orbit_checks(fx) -> List[CheckResult]:
    out = []
    rho = fx["hermitian"]
    n = fx["dim"]
    x, y = fx["draw"](), fx["draw"]()

    rows, (form_xy,) = _kks_checks(rho, [(x, y)])
    out.extend(rows)

    commuting = rho @ rho + 2.0 * rho + np.eye(n)
    d = orb.kks_welldefined_defect(rho, x, x + commuting, y)
    out.append(_check("kks_well_defined", d, 1e-10))

    out.append(_kks_rank_check(rho)[0])

    v = np.arange(1, n + 1, dtype=complex)
    v[0] += 0.5j
    state = orb.rank_one_state(v)
    out.append(_check("rank_one_tangent_dimension",
                      float(abs(orb.characteristic_rank(state) - (2 * n - 2))), 0.0))

    g = op.expm(0.5 * op.skew_hermitian_part(fx["draw"]()) + 0.2 * np.eye(n))
    moved = orb.coadjoint_act(g, rho)
    ev0 = np.sort(np.linalg.eigvals(rho).real)
    ev1 = np.sort(np.linalg.eigvals(moved).real)
    out.append(_check("coadjoint_isospectral", float(np.max(np.abs(ev1 - ev0))),
                      1e-9))

    d = abs(orb.kks_eval(moved, orb.coadjoint_act(g, x), orb.coadjoint_act(g, y))
            - form_xy)
    out.append(_check("kks_coadjoint_invariance", d, 1e-9))
    return out


# ------------------------------------------------------------------- dynamics

def _dynamics_checks(fx) -> List[CheckResult]:
    out = []
    n = fx["dim"]
    h0 = fx["hermitian"]
    rho0 = fx["psd"]

    cfg = it.IntegratorConfig(dt=0.05, steps=200, stride=10, method="isospectral")
    t2 = bk.casimir(2)
    traj = it.evolve(rho0, cfg, hgrad=-1j * h0,
                     monitors={"T2": lambda r: t2(r).real})
    c_drift = it._drift(traj.monitors["T2"])
    out.append(_check("lvn_isospectral_casimir_drift", c_drift, 1e-10))
    out.append(_check("lvn_isospectral_spectral_drift", it.spectral_drift(traj),
                      1e-10))

    # unit-spectral-norm pieces keep the flow in the same dt regime at any dim
    a = h0 / op.operator_norm(h0)
    c = fx["draw_herm"]()
    c = c / op.operator_norm(c)
    ia, ic = -1j * a, -1j * c  # the generator's constant parts

    def mean_field_gen(r):
        return ia + op._trace_pairing(c, r).real * ic

    def mean_field_rhs(t, r):
        return op._commutator(mean_field_gen(r), r)

    def mean_field_energy(r):
        return (op._trace_pairing(a, r).real
                + 0.5 * op._trace_pairing(c, r).real ** 2)

    cfg4 = it.IntegratorConfig(dt=0.005, steps=1000, stride=50)
    traj4 = it.evolve(rho0, cfg4, rhs=mean_field_rhs,
                      monitors={"h": mean_field_energy})
    e_drift = it._drift(traj4.monitors["h"])
    out.append(_check("lvn_rk4_energy_drift", e_drift, 1e-8))

    sym = bk.Observable.linear_form(a)
    d = max(it.noether_drift(sym, traj),
            it.noether_drift(bk.casimir(1), traj4))
    out.append(_check("lvn_noether_drift", d, 1e-10))

    # convergence order against a much finer rk4 reference of the same flow
    horizon = 0.32

    def end_state(method, steps):
        cfg_o = it.IntegratorConfig(dt=horizon / steps, steps=steps, stride=steps,
                                    method=method)
        if method == "rk4":
            return it.evolve(rho0, cfg_o, rhs=mean_field_rhs).states[-1]
        return it.evolve(rho0, cfg_o, hgrad=mean_field_gen).states[-1]

    # the reference's error is (16/128)^4 = 1/4096 of the 16-step run's, so
    # it moves the rk4 ratio by about 2.6e-4 at most, against a 0.2 gate;
    # over seeds 0-99 at even dims 4-16 it moved it by at most 2.4e-4 and
    # the isospectral ratio by 1.8e-5 from a 512-step reference
    ref = end_state("rk4", 128)
    e1 = float(np.max(np.abs(end_state("rk4", 8) - ref)))
    e2 = float(np.max(np.abs(end_state("rk4", 16) - ref)))
    out.append(_check("rk4_order_ratio", abs(e1 / e2 / 16.0 - 1.0), 0.2))

    i1 = float(np.max(np.abs(end_state("isospectral", 16) - ref)))
    i2 = float(np.max(np.abs(end_state("isospectral", 32) - ref)))
    out.append(_check("isospectral_order_ratio", abs(i1 / i2 / 4.0 - 1.0), 0.2))

    half = n // 2

    def corner_adjoint(gsmall):
        full = np.zeros((n, n), dtype=complex)
        full[:half, :half] = gsmall
        return full

    jmap = bk.MatrixLinearMap(lambda r: np.array(r[:half, :half]),
                              corner_adjoint)
    m = fx["draw"]()[:half, :half]
    h_down = bk.Observable.quadratic_form(op.hermitian_part(m),
                                          np.eye(half, dtype=complex))
    # an RK4 step is a fixed linear combination of field values, so a linear
    # J with J F_up = F_down J commutes with every step: the defect is
    # roundoff at any dt, and a J that breaks intertwining shows nearly the
    # same defect at 10, 20 or 200 steps, set by the horizon t = 1, not dt.
    # Worst over seeds 0-99 at even dims 4-16, one and two BLAS threads:
    # 9.5e-16 (dim 4, seed 22).  A J* scaled by 1 + 1e-6 gives 3.6e-9 to
    # 1.3e-5 over the same seeds and dims
    cfg_c = it.IntegratorConfig(dt=0.05, steps=20, stride=2)
    out.append(_check("collective_flow_matches_reduced",
                      it.collective_defect(jmap, h_down, bk.FULL, rho0, cfg_c),
                      1e-12))

    fdown = bk.Observable.linear_form(fx["draw"]()[:half, :half])
    out.append(_check("collective_bracket_commutation",
                      bk.poisson_map_defect(jmap, bk.FULL, bk.FULL, fdown, h_down,
                                            fx["general"]),
                      1e-10))
    return out


# ----------------------------------------------------------------------- toda

def _toda_checks(fx) -> List[CheckResult]:
    out = []
    state = fx["toda"]
    pair = td.flaschka(state)

    # the canonical field pushed through flaschka, and the (p, b) field,
    # each against the dense k = 2 Lax field at the same state
    y = td._flaschka_coords(state.x, state.p, state.lam)
    field = td.bidiagonal_rhs(state.alpha)(0.0, y)
    gap = float(np.max(np.abs(td._bidiagonal_matrix(field) - td.lax_field(pair))))
    out.append(_check("toda_intertwining",
                      max(td.intertwining_defect(state), gap), 1e-12))

    d = max(td.involution_defect(state, j, k)
            for j, k in ((2, 3), (2, 4), (3, 4)))
    out.append(_check("toda_hk_involution", d, 1e-10))

    h2 = td.toda_hk(2, pair.a)
    d = abs(complex(h2(pair.rho)) - td.toda_hamiltonian(state))
    out.append(_check("toda_hamiltonian_matches_h2", d, 1e-12))

    cfg = it.IntegratorConfig(dt=1e-3, steps=1000, stride=100)
    rhs = td.canonical_rhs(state)
    traj = it.evolve(td.pack(state), cfg, rhs=rhs, monitors={
        "H": lambda y: td.toda_hamiltonian(td.unpack(y, state)),
        "P": lambda y: float(np.sum(np.asarray(y)[state.n - 1:].real)),
    })
    out.append(_check("toda_energy_drift", it._drift(traj.monitors["H"]), 1e-10))
    out.append(_check("toda_momentum_drift", it._drift(traj.monitors["P"]),
                      1e-12))

    # the (p, b) Lax run against the pushed canonical records; rho is zero
    # off (p, b) on both sides, so this is the max-abs gap of the two rho
    m = state.n - 1
    lax_traj = it.evolve(y, cfg, rhs=td.bidiagonal_rhs(state.alpha))
    pushed = td._flaschka_coords(traj.states[:, :m], traj.states[:, m:], state.lam)
    out.append(_check("toda_canonical_vs_lax_trajectory",
                      np.max(np.abs(pushed - lax_traj.states)), 1e-6))

    lax_l = td._bidiagonal_matrix(lax_traj.states) + pair.a
    out.append(_check("toda_lax_spectrum_drift",
                      it.spectral_drift(it.Trajectory(lax_traj.times, lax_l)), 1e-8))

    back = td.toda_from_json(json.loads(json.dumps(td.toda_to_json(state))))
    d = max(float(np.max(np.abs(back.x - state.x))),
            float(np.max(np.abs(back.p - state.p))),
            float(np.max(np.abs(back.alpha - state.alpha))),
            float(np.max(np.abs(back.lam - state.lam))))
    out.append(_check("toda_json_roundtrip", d, 0.0))

    try:
        td.toda_hamiltonian(td.TodaState([800.0] + [0.0] * (state.n - 2),
                                         np.zeros(state.n), state.alpha, state.lam))
        aborted = False
    except it.NumericalAbort:
        aborted = True
    out.append(_check("toda_overflow_abort", 0.0 if aborted else 1.0, 0.0))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traj.csv")
        columns = td.toda_columns(state.n)
        traj.to_csv(path, columns)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            body = np.array([line.strip().split(",") for line in fh if line.strip()],
                            dtype=float)
        expect = np.column_stack([traj.times, traj.states, traj.monitors["H"],
                                  traj.monitors["P"]])
        ok = header == ["t", *columns, "H", "P"] and body.shape == expect.shape
        out.append(_check("trajectory_csv_roundtrip",
                          float(np.max(np.abs(body - expect))) if ok else 1.0, 0.0))
    return out


# ------------------------------------------------------------------ assembly

def _recording(name: str, fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        _called.add(name)
        return fn(*args, **kwargs)
    return call


def _record_public_calls():
    """Rebind each plain function in the ``__all__`` of ``RECORDED``, under
    every name that holds it in a package namespace, to a pass-through that
    adds its name to ``_called``.  Returns the set of names and the
    (namespace, attribute, original) triples that undo the rebinding.

    Whatever object is bound at the time is wrapped (a tracing wrapper, say),
    and it is named from its own ``__module__`` and ``__name__``.
    """
    wrappers, names, saved = {}, set(), []
    for mod_name in RECORDED:
        mod = sys.modules[f"{__package__}.{mod_name}"]
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn):
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                wrappers[id(fn)] = _recording(name, fn)
                names.add(name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != __package__ and not mod_name.startswith(f"{__package__}."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
    return names, saved


def run_all(seed: int = 2024, dim: int = 4) -> List[CheckResult]:
    """Run every check; deterministic for fixed (seed, dim)."""
    if dim < 4:
        raise ValueError("checks need dim >= 4")
    if dim % 2:
        raise ValueError("checks need an even dim")
    public, saved = _record_public_calls()
    try:
        fx = _fixtures(seed, dim)
        results: List[CheckResult] = []
        # looked up at call time, so a rebound group runs in its place
        for group in (_operator_checks, _bracket_checks, _variant_bracket_checks,
                      _reduction_checks, _orbit_checks, _dynamics_checks,
                      _toda_checks):
            results.extend(group(fx))
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
        _called.clear()

    missing = sorted(public.difference(*(r.ops for r in results)))
    results.append(replace(
        _check("coverage_all_operations", float(len(missing)), 0.0),
        ops=tuple(missing)))
    return results
