"""Reference checks on the artifacts of one CLI invocation.

Each check recomputes what the artifact must hold by a route of its own,
using numpy only, and compares within a stated tolerance rather than bit for
bit, so that a valid performance change may move roundoff:

* the seeded inputs are redrawn from the documented fixture recipes;
* Toda runs are integrated again with a plain RK4 on the canonical (x, p)
  equations; the Lax run is compared through the Flaschka map, so its
  reference is the canonical flow, not the dense Lax step the program runs;
* the isospectral LvN run is compared with the exact e^{-iHt} rho e^{iHt};
* orbit ranks are compared with n^2 minus the sum of squared eigenvalue
  multiplicities, and KKS samples with tr([x, y] rho);
* reductions are compared with their entrywise masks;
* ``verify`` must report exactly the reference check names, all passing.

``check`` returns a list of problems; an empty list means the invocation is
correct.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

# the fixture kinds in the order whose index is the SeedSequence spawn key
FIXTURE_KINDS = ("general", "hermitian", "psd", "lower", "toda")
AUX_SPAWN_KEY = 1000  # the CLI's demo probe stream

# Tolerances, each stated against the route it compares.
TOL_EXACT = 1e-12       # same arithmetic up to summation order
TOL_CANONICAL = 1e-9    # same RK4 map on (x, p), roundoff over the steps
# RK4 on rho versus RK4 on (x, p): two discretisations of one flow, each off
# by O(t dt^4); their gap reached 3e-8 over 175 seeds at N=32, t=4, while a
# wrong field or a lost step moves the state by 1e-3 or more
TOL_LAX = 1e-6
TOL_LVN = 1e-9          # isospectral steps with a constant generator are exact
TOL_KKS = 1e-9          # relative, tr([x, y] rho) summed in another order

VERIFY_ROWS = (
    "splitting_identities", "triangular_projections_adjoint",
    "class_tag_validation", "spectral_projectors_pinch_identity",
    "matrix_json_roundtrip", "full_bracket_antisymmetry",
    "full_bracket_bilinearity", "full_bracket_leibniz",
    "full_bracket_jacobi_linear", "full_bracket_jacobi_fd",
    "full_defining_identity", "full_casimir_brackets_vanish",
    "full_casimir_fields_vanish", "fd_gradients_match_analytic",
    "lower_bracket_antisymmetry", "lower_bracket_jacobi",
    "lower_defining_identity_flipped", "hermitian_real_antisymmetry",
    "hermitian_real_jacobi", "product_bracket_antisymmetry",
    "product_bracket_jacobi", "product_inclusions_poisson",
    "lower_projection_poisson", "lower_inclusion_not_poisson",
    "reduction_closure_measurement", "reduction_adjointness_measurement",
    "reduction_idempotent_measurement", "reduction_condition_measurement",
    "reduction_contraction_measurement",
    "reduction_closure_lower_triangularize",
    "reduction_adjointness_lower_triangularize",
    "reduction_idempotent_lower_triangularize",
    "reduction_condition_lower_triangularize",
    "lower_contraction_not_universal", "reduction_closure_group_average",
    "reduction_adjointness_group_average",
    "reduction_idempotent_group_average",
    "reduction_condition_group_average",
    "reduction_contraction_group_average",
    "reduction_condition_skew_realified", "reduction_positivity",
    "group_average_dual_lands_in_commutant", "reduction_json_roundtrip",
    "kks_antisymmetry", "kks_pairing_identity", "kks_well_defined",
    "kks_rank_matches_tangent_rank", "rank_one_tangent_dimension",
    "coadjoint_isospectral", "kks_coadjoint_invariance",
    "lvn_isospectral_casimir_drift", "lvn_isospectral_spectral_drift",
    "lvn_rk4_energy_drift", "lvn_noether_drift", "rk4_order_ratio",
    "isospectral_order_ratio", "collective_flow_matches_reduced",
    "collective_bracket_commutation", "toda_intertwining",
    "toda_hk_involution", "toda_hamiltonian_matches_h2", "toda_energy_drift",
    "toda_momentum_drift", "toda_canonical_vs_lax_trajectory",
    "toda_lax_spectrum_drift", "toda_json_roundtrip", "toda_overflow_abort",
    "trajectory_csv_roundtrip", "coverage_all_operations",
)


# ------------------------------------------------------------ seeded inputs

def _rng(seed: int, spawn_key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=int(seed), spawn_key=(spawn_key,))))


def _complex_normal(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def fixture(seed: int, kind: str, n: int):
    """The seeded fixture recipe: a matrix, or (x, p, alpha, lam) for toda."""
    rng = _rng(seed, FIXTURE_KINDS.index(kind))
    if kind == "hermitian":
        m = _complex_normal(rng, n)
        return 0.5 * (m + m.conj().T)
    if kind == "psd":
        m = _complex_normal(rng, n)
        w = m @ m.conj().T
        return w / np.trace(w).real
    if kind == "toda":
        x = rng.uniform(-1.0, 1.0, n - 1)
        p = rng.standard_normal(n)
        p -= p.mean()
        w = 0.5 ** np.arange(n - 1, dtype=float)
        return x, p, w, w.copy()
    raise ValueError(f"no reference recipe for fixture kind {kind!r}")


# ------------------------------------------------------------- references

def toda_canonical(x, p, alpha, lam, dt: float, steps: int):
    """Plain RK4 on the canonical Toda equations; returns the final (x, p)."""
    n = p.size
    coupling = alpha * lam

    def field(y):
        xs, ps = y[:n - 1], y[n - 1:]
        c = coupling * np.exp(xs)
        dp = np.zeros(n)
        dp[:-1] -= c
        dp[1:] += c
        return np.concatenate([ps[:-1] - ps[1:], dp])

    y = np.concatenate([x, p])
    for _ in range(steps):
        k1 = field(y)
        k2 = field(y + 0.5 * dt * k1)
        k3 = field(y + 0.5 * dt * k2)
        k4 = field(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y[:n - 1], y[n - 1:]


def flaschka_rho(x, p, lam) -> np.ndarray:
    """rho = diag(p) + sum_k lam_k e^{x_k} E_{k+1,k}."""
    return np.diag(p.astype(complex)) + np.diag(lam * np.exp(x), -1)


def lvn_exact(h: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    return u @ rho0 @ u.conj().T


def orbit_dimension(rho: np.ndarray) -> int:
    """n^2 - sum of squared multiplicities, for a Hermitian rho."""
    w = np.linalg.eigvalsh(rho)
    scale = max(1.0, float(np.max(np.abs(w))))
    groups, start = [], 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > 1e-8 * scale:
            groups.append(k - start)
            start = k
    return len(w) ** 2 - sum(g * g for g in groups)


def reduction_mask(kind: str, n: int) -> np.ndarray:
    """Entries (i, j) that each demo reduction keeps; the rest become 0."""
    i, j = np.indices((n, n))
    if kind == "measurement":
        return (i < n // 2) == (j < n // 2)
    if kind == "lower":
        return j <= i
    d1 = np.array([1, -1] * (n // 2))
    d2 = np.array([1] * (n // 2) + [-1] * (n - n // 2))
    return (d1[i] == d1[j]) & (d2[i] == d2[j])


# --------------------------------------------------------------- artifacts

def _matrix(payload: dict) -> np.ndarray:
    n = int(payload["dim"])
    return (np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])).reshape(n, n)


def _read_csv(path: str):
    """Header, first row, last row and row count of a trajectory CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        first = last = next(reader)
        count = 1
        for row in reader:
            last = row
            count += 1
    return header, np.array(first, dtype=float), np.array(last, dtype=float), count


def _csv_matrix(header, row, n: int) -> np.ndarray:
    col = {name: k for k, name in enumerate(header)}
    m = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            m[i, j] = row[col[f"re_{i}{j}"]] + 1j * row[col[f"im_{i}{j}"]]
    return m


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _gap(problems: list, label: str, got, want, tol: float) -> None:
    gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not gap <= tol:
        problems.append(f"{label}: gap {gap:.3e} exceeds {tol:.1e}")


def _check_rows(problems: list, payload: dict) -> None:
    failed = [r["name"] for r in payload["checks"] if r["pass"] is not True]
    if failed or payload.get("pass") is not True:
        problems.append(f"failing check rows: {failed}")


def _trajectory(problems, out_dir, cfg, stem):
    payload = _load_json(os.path.join(out_dir, f"{stem}_summary.json"))
    _check_rows(problems, payload)
    header, first, last, count = _read_csv(os.path.join(out_dir, f"{stem}.csv"))
    integ = cfg["integrator"]
    steps, stride = integ["steps"], integ["stride"]
    want_rows = steps // stride + 1 + (1 if steps % stride else 0)
    if count != want_rows:
        problems.append(f"{count} trajectory rows, expected {want_rows}")
    _gap(problems, "final time", last[0], steps * integ["dt"], TOL_EXACT)
    return header, first, last


def check(command: str, cfg: dict, out_dir: str) -> list:
    """Problems found in the artifacts of one invocation."""
    problems: list = []
    p, seed = cfg["params"], cfg["seed"]
    if command == "verify":
        payload = _load_json(os.path.join(out_dir, "report.json"))
        _check_rows(problems, payload)
        names = tuple(r["name"] for r in payload["checks"])
        if names != VERIFY_ROWS:
            problems.append("verify rows differ from the reference list")
    elif command == "toda-run":
        n = p["N"]
        header, first, last = _trajectory(problems, out_dir, cfg,
                                          "toda_trajectory")
        x0, p0, alpha, lam = fixture(seed, "toda", n)
        integ = cfg["integrator"]
        x1, p1 = toda_canonical(x0, p0, alpha, lam, integ["dt"], integ["steps"])
        if p["flow"] == "canonical":
            _gap(problems, "initial state", first[1:2 * n],
                 np.concatenate([x0, p0]), TOL_EXACT)
            _gap(problems, "final state", last[1:2 * n],
                 np.concatenate([x1, p1]), TOL_CANONICAL)
        else:
            _gap(problems, "initial state", _csv_matrix(header, first, n),
                 flaschka_rho(x0, p0, lam), TOL_EXACT)
            _gap(problems, "final state", _csv_matrix(header, last, n),
                 flaschka_rho(x1, p1, lam), TOL_LAX)
    elif command == "lvn-run":
        n = p["N"]
        header, first, last = _trajectory(problems, out_dir, cfg,
                                          "lvn_trajectory")
        h = fixture(seed, "hermitian", n)
        rho0 = fixture(seed, "psd", n)
        _gap(problems, "initial state", _csv_matrix(header, first, n), rho0,
             TOL_EXACT)
        _gap(problems, "final state", _csv_matrix(header, last, n),
             lvn_exact(h, rho0, last[0]), TOL_LVN)
    elif command == "reduce-demo":
        n = p["N"]
        payload = _load_json(os.path.join(out_dir, "reduction_report.json"))
        _check_rows(problems, payload)
        rho = fixture(seed, "psd", n)
        after = np.where(reduction_mask(p["kind"], n), rho, 0.0)
        _gap(problems, "state", _matrix(payload["before"]), rho, TOL_EXACT)
        _gap(problems, "image", _matrix(payload["after"]), after, TOL_EXACT)
        excess = (np.linalg.svd(after, compute_uv=False).sum()
                  - np.linalg.svd(rho, compute_uv=False).sum())
        _gap(problems, "trace_norm_excess", payload["trace_norm_excess"],
             excess, TOL_EXACT)
    elif command == "orbit-kks":
        n = p["N"]
        payload = _load_json(os.path.join(out_dir, "orbit_report.json"))
        _check_rows(problems, payload)
        rho = fixture(seed, "hermitian", n)
        _gap(problems, "state", _matrix(payload["state"]), rho, TOL_EXACT)
        rank = orbit_dimension(rho)
        for key in ("characteristic_rank", "kks_form_rank"):
            if payload[key] != rank:
                problems.append(f"{key} {payload[key]}, expected {rank}")
        rng = _rng(seed, AUX_SPAWN_KEY)
        for sample in payload["samples"]:
            x = _complex_normal(rng, n)
            y = _complex_normal(rng, n)
            want = np.trace((x @ y - y @ x) @ rho)
            got = sample["re"] + 1j * sample["im"]
            _gap(problems, f"kks sample {sample['sample']}", got / max(1.0, abs(want)),
                 want / max(1.0, abs(want)), TOL_KKS)
    else:
        problems.append(f"no reference for command {command!r}")
    return problems
