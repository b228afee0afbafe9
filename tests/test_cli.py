"""Command line driver: exit codes, artifacts, determinism, config rejection."""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import liepoisson
from liepoisson import brackets as br
from liepoisson import cli
from liepoisson import integrators as it
from liepoisson import operators as op
from liepoisson import reduction as red
from liepoisson import toda as td
from liepoisson import verification as vf
from liepoisson.fixtures import _complex_normal, _stream, seeded_random_state


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, command, payload, out="out"):
    cfg = _write_config(tmp_path, payload)
    out_dir = tmp_path / out
    code = cli.main([command, "--config", cfg, "--out", str(out_dir)])
    return code, out_dir


def test_verify_writes_passing_report(tmp_path, capsys):
    code, out_dir = _run(tmp_path, "verify", {"seed": 11, "params": {"dim": 4}})
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["pass"] is True
    rows = [{"name": r.name, "defect": r.defect, "tol": r.tol, "pass": r.passed}
            for r in vf.run_all(seed=11, dim=4)]
    assert report == json.loads(json.dumps({"checks": rows, "pass": True}))
    shown = capsys.readouterr().out
    assert "PASS" in shown and "FAIL" not in shown


def test_verify_is_byte_identical_across_runs(tmp_path):
    _, first = _run(tmp_path, "verify", {"seed": 3}, out="a")
    _, second = _run(tmp_path, "verify", {"seed": 3}, out="b")
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


def test_lvn_run_rk4_and_isospectral(tmp_path):
    base = {
        "seed": 5,
        "params": {"N": 4},
        "integrator": {"dt": 1e-3, "steps": 200, "stride": 50},
    }
    code, out_dir = _run(tmp_path, "lvn-run", base, out="rk4")
    assert code == 0
    lines = (out_dir / "lvn_trajectory.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t" and "re_00" in header and "energy" in header
    assert "T1" in header and "T4" in header
    assert len(lines) == 1 + 5  # header, then t=0 and four stride records
    summary = json.loads((out_dir / "lvn_trajectory_summary.json").read_text())
    assert summary["pass"] is True

    iso = dict(base)
    iso["integrator"] = {"dt": 1e-3, "steps": 200, "stride": 50,
                         "method": "isospectral"}
    code, _ = _run(tmp_path, "lvn-run", iso, out="iso")
    assert code == 0


def test_lvn_run_accepts_explicit_matrices(tmp_path):
    h = op.matrix_to_json(np.diag([1.0, 2.0]).astype(complex))
    rho = op.matrix_to_json(np.diag([0.75, 0.25]).astype(complex))
    payload = {
        "params": {"hamiltonian": h, "initial_state": rho},
        "integrator": {"dt": 1e-2, "steps": 20, "stride": 10},
    }
    code, out_dir = _run(tmp_path, "lvn-run", payload)
    assert code == 0
    # diagonal data commutes with a diagonal generator: nothing moves
    rows = (out_dir / "lvn_trajectory.csv").read_text().strip().split("\n")[1:]
    first, last = rows[0].split(","), rows[-1].split(",")
    assert first[1:] == last[1:]


def test_lvn_run_rejects_non_hermitian_hamiltonian(tmp_path):
    bad = op.matrix_to_json(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    payload = {"params": {"hamiltonian": bad},
               "integrator": {"dt": 1e-2, "steps": 5}}
    code, out_dir = _run(tmp_path, "lvn-run", payload)
    assert code == 2
    assert not (out_dir / "lvn_trajectory.csv").exists()


def test_toda_run_canonical_csv_layout(tmp_path):
    payload = {
        "seed": 9,
        "params": {"N": 4},
        "integrator": {"dt": 1e-3, "steps": 200, "stride": 50},
    }
    code, out_dir = _run(tmp_path, "toda-run", payload)
    assert code == 0
    lines = (out_dir / "toda_trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "t,x_1,x_2,x_3,p_1,p_2,p_3,p_4,h1,h2,h3,h4"
    assert float(lines[-1].split(",")[0]) == pytest.approx(0.2)
    summary = json.loads((out_dir / "toda_trajectory_summary.json").read_text())
    assert summary["pass"] is True


def test_toda_run_lax_flow(tmp_path):
    payload = {
        "seed": 9,
        "params": {"N": 4, "flow": "lax"},
        "integrator": {"dt": 1e-3, "steps": 200, "stride": 50},
    }
    code, out_dir = _run(tmp_path, "toda-run", payload)
    assert code == 0
    header = (out_dir / "toda_trajectory.csv").read_text().split("\n", 1)[0]
    assert header.startswith("t,re_00,im_00")
    assert header.endswith("h1,h2,h3,h4")


def _lax_run(seed, n, steps, stride):
    return {"seed": seed, "params": {"N": n, "flow": "lax"},
            "integrator": {"dt": 1e-3, "steps": steps, "stride": stride}}


@pytest.mark.parametrize("n, steps", [(8, 200), (32, 200), (64, 200),
                                      (32, 10000)])
def test_lax_toda_run_csv_matches_the_dense_lax_flow(tmp_path, n, steps):
    # the CLI integrates (p, b); the reference is RK4 on the dense rho
    seed, stride = 5, steps // 10
    code, out_dir = _run(tmp_path, "toda-run", _lax_run(seed, n, steps, stride))
    assert code == 0
    pair = td.flaschka(seeded_random_state(seed, "toda", n))
    dense = it.evolve(pair.rho, it.IntegratorConfig(1e-3, steps, stride),
                      rhs=td.lax_rhs(pair.a))
    lines = (out_dir / "toda_trajectory.csv").read_text().splitlines()
    width = 2 * n * n
    names = [f"{part}_{i}{j}" for i in range(n) for j in range(n)
             for part in ("re", "im")]
    assert lines[0].split(",")[1:1 + width] == names
    got = np.array([[float(c) for c in line.split(",")[1:1 + width]]
                    for line in lines[1:]])
    values = dense.states.reshape(len(dense), -1).view(float)
    assert got.shape == values.shape
    # relative to each state's largest entry: the entries grow along the run
    gap = (np.max(np.abs(got - values), axis=1)
           / np.max(np.abs(values), axis=1))
    assert np.max(gap) <= 1e-12


def test_lax_toda_run_is_byte_identical_across_runs(tmp_path):
    payload = _lax_run(3, 12, 300, 30)
    _, first = _run(tmp_path, "toda-run", payload, out="a")
    _, second = _run(tmp_path, "toda-run", payload, out="b")
    for name in ("toda_trajectory.csv", "toda_trajectory_summary.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_lax_toda_run_never_evaluates_the_dense_field(tmp_path, monkeypatch):
    calls = {"lax_rhs": 0, "_coinduced_field": 0, "bidiagonal_rhs": 0}

    def counting(name):
        original = getattr(td, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(td, name, call)

    for name in calls:
        counting(name)
    code, _ = _run(tmp_path, "toda-run", _lax_run(1, 6, 50, 10))
    assert code == 0
    assert calls == {"lax_rhs": 0, "_coinduced_field": 0, "bidiagonal_rhs": 1}


def test_canonical_toda_run_builds_lax_matrices_without_states(tmp_path,
                                                                 monkeypatch):
    # the shift a and the recorded Lax matrices come straight from (x, p)
    # and alpha, with no LaxPair or TodaState in between
    calls = {"flaschka": 0, "unpack": 0}

    def counting(name):
        original = getattr(td, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(td, name, call)

    for name in calls:
        counting(name)
    payload = {"seed": 4, "params": {"N": 6, "flow": "canonical"},
               "integrator": {"dt": 1e-3, "steps": 50, "stride": 1}}
    code, _ = _run(tmp_path, "toda-run", payload)
    assert code == 0
    assert calls == {"flaschka": 0, "unpack": 0}


def _csv_table(path, n_complex=0):
    """The monitor columns of a trajectory CSV by name, and its first
    n_complex^2 (re, im) state column pairs as (R, n, n) complex matrices,
    read by position (re_ij names repeat once i or j has two digits)."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    pairs = np.ascontiguousarray(cells[:, 1:1 + 2 * n_complex ** 2])
    matrices = pairs.view(complex).reshape(len(cells), n_complex, n_complex)
    return {name: cells[:, idx] for idx, name in enumerate(header)}, matrices


def _reference_hk(lax, k):
    # the per-matrix formula the stacked evaluation replaced
    return float(np.real(np.trace(np.linalg.matrix_power(lax, k)))) / k


def _reference_jacobi(coords, alpha):
    # diag(p) with sqrt(alpha_i b_i) on both off-diagonals, built per matrix
    n = alpha.size + 1
    off = np.sqrt(alpha * coords[n:])
    return np.diag(coords[:n]) + np.diag(off, -1) + np.diag(off, 1)


@pytest.mark.parametrize("flow", ["canonical", "lax"])
@pytest.mark.parametrize("n", [2, 3, 8, 16, 33])
def test_stacked_invariants_give_the_per_matrix_bits(tmp_path, flow, n):
    seed, hk_max = 40 + n, 8
    payload = {"seed": seed, "params": {"N": n, "flow": flow, "hk_max": hk_max},
               "integrator": {"dt": 1e-2, "steps": 40, "stride": 4}}
    code, out_dir = _run(tmp_path, "toda-run", payload)
    assert code == 0
    state0 = seeded_random_state(seed, "toda", n)
    a = td.flaschka(state0).a
    # 17 significant digits give back each recorded double exactly
    if flow == "canonical":
        table, _ = _csv_table(out_dir / "toda_trajectory.csv")
        ys = np.column_stack([table[c] for c in td.toda_columns(n)])
        laxes = [(td.flaschka(td.unpack(y, state0)).rho + a).real for y in ys]
        coords = np.array([td._flaschka_coords(y[:n - 1], y[n - 1:], state0.lam)
                           for y in ys])
    else:
        table, rhos = _csv_table(out_dir / "toda_trajectory.csv", n)
        laxes = [(rho + a).real for rho in rhos]
        coords = np.array([np.concatenate([rho.diagonal(), rho.diagonal(-1)]).real
                           for rho in rhos])
    want = {f"h{k}": np.array([_reference_hk(lax, k) for lax in laxes])
            for k in range(1, hk_max + 1)}
    for name, column in want.items():
        assert table[name].tobytes() == column.tobytes(), name

    # every alpha_i b_i > 0, so the spectra are eigvalsh of the Jacobi form
    assert (state0.alpha * coords[:, n:] > 0).all()
    spectra = np.array([np.linalg.eigvalsh(_reference_jacobi(y, state0.alpha))
                        for y in coords])
    hk, spectrum = td._lax_invariants(coords, state0.alpha, hk_max)
    assert spectrum.tobytes() == spectra.tobytes()
    # and they are the real spectra of L itself, in ascending order
    dense = np.array([np.sort(np.linalg.eigvals(lax).real) for lax in laxes])
    scale = float(np.max(np.abs(dense)))
    assert float(np.max(np.abs(spectrum - dense))) <= 1e-12 * scale
    # h1..h_kmax all come from the stack, h1 = tr L included
    assert list(hk) == list(want)
    for name, column in hk.items():
        assert column.tobytes() == want[name].tobytes(), name
    summary = json.loads((out_dir / "toda_trajectory_summary.json").read_text())
    drift = {row["name"]: row["defect"] for row in summary["checks"]}
    spread = max(float(np.max(np.abs(spectra[0]))), 1e-30)
    assert (drift["lax_spectrum_relative_drift"]
            == float(np.max(np.abs(spectra - spectra[0]))) / spread)


def _gamma(m):
    # Higham's gamma_m = m u / (1 - m u), u the unit roundoff
    u = np.finfo(float).eps / 2
    return m * u / (1 - m * u)


@pytest.mark.parametrize("signs", ["positive", "negative", "mixed"])
def test_real_h_columns_stay_within_roundoff_of_the_complex_traces(signs):
    # The h-columns come from the real stack of L; the complex dense stack
    # they came from before gives the same values up to roundoff.  Both
    # compute the walk sum tr(L^k) = sum over closed k-walks of products of
    # entries, whose terms sum in absolute value to tr(|L|^k): that is the
    # scale.  A product whose inner sums have at most q nonzero terms errs
    # by at most gamma_q |A||B| entrywise (Higham, Thm 3.5: a zero term adds
    # no rounding, and a complex product of reals rounds as the real one),
    # and errors of factors compose as (1 + gamma_a)(1 + gamma_b) <=
    # 1 + gamma_(a+b).  matrix_power reaches L^k, k <= 8, by at most four
    # products of banded powers (L^8 = L^4 L^4 from L^4 = L^2 L^2 from
    # L^2 = L L), with q <= 3, 5, 9: gamma_31 at worst (L^7: 24).  The
    # trace adds gamma_(N-1) and the division by k one rounding, so each
    # route is within gamma_(N+31) tr(|L|^k)/k of h_k, and the two within
    # twice that.
    rng = np.random.default_rng(2024)
    hk_max = 8
    for n in range(2, 41):
        p = rng.standard_normal((4, n))
        b = np.exp(rng.standard_normal((4, n - 1)))
        alpha = np.exp(rng.standard_normal(n - 1))
        if signs == "negative":
            alpha = -alpha
        elif signs == "mixed":
            alpha *= rng.choice([-1.0, 1.0], n - 1)
        coords = np.concatenate([p, b], axis=1)
        hk, _ = td._lax_invariants(coords, alpha, hk_max)
        lax = td._lax_matrix(coords, alpha)
        for k in range(1, hk_max + 1):
            dense = op._power_traces(lax.astype(complex), k)
            size = op._power_traces(np.abs(lax), k)
            gap = np.abs(hk[f"h{k}"] - dense)
            assert (gap <= 2 * _gamma(n + 31) * size).all(), (n, k)


def _reference_canonical_rhs(template):
    # the canonical stage the CLI ran before, with the exp guard in it
    weight, m = template.alpha * template.lam, template.n - 1

    def rhs(t, y):
        x, p = y[:m], y[m:]
        if (x > td.X_OVERFLOW_LIMIT).any():
            raise it.NumericalAbort("Toda position exceeds the exp limit")
        force = weight * np.exp(x)
        pdot = np.concatenate([[0.0], force]) - np.concatenate([force, [0.0]])
        return np.concatenate([p[:-1] - p[1:], pdot])

    return rhs


@pytest.mark.parametrize("flow", ["canonical", "lax"])
def test_toda_run_state_columns_keep_their_bits(tmp_path, flow):
    # the state columns do not move with the h-columns: the canonical
    # (x, p) are the RK4 states of the guarded stage, and the Lax re_ij,
    # im_ij those of the dense complex rho of each recorded (p, b)
    n, seed = 12, 5
    cfg = it.IntegratorConfig(dt=1e-2, steps=60, stride=3)
    payload = {"seed": seed, "params": {"N": n, "flow": flow},
               "integrator": {"dt": cfg.dt, "steps": cfg.steps,
                              "stride": cfg.stride}}
    code, out_dir = _run(tmp_path, "toda-run", payload)
    assert code == 0
    state0 = seeded_random_state(seed, "toda", n)
    if flow == "canonical":
        table, _ = _csv_table(out_dir / "toda_trajectory.csv")
        got = np.column_stack([table[c] for c in td.toda_columns(n)])
        want = it.evolve(td.pack(state0), cfg,
                         rhs=_reference_canonical_rhs(state0)).states
    else:
        _, got = _csv_table(out_dir / "toda_trajectory.csv", n)
        y0 = np.concatenate([state0.p, state0.lam * np.exp(state0.x)])
        ys = it.evolve(y0, cfg, rhs=td.bidiagonal_rhs(state0.alpha)).states
        want = np.array([np.diag(y[:n]).astype(complex) + np.diag(y[n:], -1)
                         for y in ys])
    assert got.tobytes() == want.tobytes()


def _spectrum_routes(monkeypatch):
    """Count the batched eigvals and eigvalsh calls the CLI makes."""
    calls = {"eigvals": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counting(m, *args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


# alpha_1 b_1 < 0: L has the complex spectrum +-0.1995i
TODA2_COMPLEX = {"N": 2, "x": [-3.0], "p": [0.1, -0.1], "alpha": [-1.0],
                 "lambda": [1.0]}


@pytest.mark.parametrize("flow", ["canonical", "lax"])
def test_toda_run_spectrum_route(tmp_path, monkeypatch, flow):
    calls = _spectrum_routes(monkeypatch)
    payload = {"params": {"N": 4, "flow": flow},
               "integrator": {"dt": 1e-2, "steps": 20, "stride": 5}}
    assert _run(tmp_path, "toda-run", payload, out="real")[0] == 0
    assert calls == {"eigvals": 0, "eigvalsh": 1}

    calls.update(eigvals=0, eigvalsh=0)
    initial = {"N": 3, "x": [0.1, -0.2], "p": [0.5, -0.25, -0.25],
               "alpha": [1.0, -0.5], "lambda": [1.0, 0.5]}
    payload = {"params": {"initial": initial, "flow": flow},
               "integrator": {"dt": 1e-2, "steps": 20, "stride": 5}}
    assert _run(tmp_path, "toda-run", payload, out="complex")[0] == 0
    assert calls == {"eigvals": 1, "eigvalsh": 0}


def test_mixed_sign_real_spectrum_pairs_in_ascending_order():
    # alpha_2 b_2 < 0 sends the spectrum to eigvals, but on well separated
    # diagonals every eigenvalue stays real: eigvals then returns a real
    # stack, which _paired_drift pairs in ascending order, and that drift is
    # the nearest-neighbour one the complex stack gives
    t = np.arange(5.0)[:, None]
    p = np.array([2.0, 0.0, -2.0]) + 0.01 * t * np.array([1.0, 0.0, -1.0])
    coords = np.concatenate([p, np.tile([0.1, 0.2], (5, 1))], axis=1)
    alpha = np.array([1.0, -0.5])
    _, spectrum = td._lax_invariants(coords, alpha, 2)
    assert not np.iscomplexobj(spectrum)
    drift = it._paired_drift(spectrum)
    assert drift == it._paired_drift(spectrum.astype(complex))
    # the outer diagonal entries move by 0.04; the off-diagonal products
    # add a second-order shift of a few percent of that
    assert 0.04 < drift < 0.045


def _two_site_drift(out_dir, flow):
    """The relative drift of the eigenvalues +-i omega of the two-site L,
    omega^2 = -alpha b - ((p1 - p2) / 2)^2 with alpha = -1, from the
    recorded states."""
    table, rhos = _csv_table(out_dir / "toda_trajectory.csv",
                             2 if flow == "lax" else 0)
    if flow == "lax":
        p1, p2, b = rhos[:, 0, 0].real, rhos[:, 1, 1].real, rhos[:, 1, 0].real
    else:
        p1, p2, b = table["p_1"], table["p_2"], np.exp(table["x_1"])
    omega = np.sqrt(b - ((p1 - p2) / 2) ** 2)
    return float(np.max(np.abs(omega - omega[0]))) / omega[0]


@pytest.mark.parametrize("flow", ["canonical", "lax"])
def test_toda_run_pairs_a_complex_spectrum(tmp_path, flow):
    # the eigenvalues +-0.1995i have real parts of roundoff, +-1e-17, whose
    # signs flip from record to record: pairing them by real part swaps the
    # pair, a drift of 2 * 0.1995
    rows = {}
    for dt, steps, want in ((0.05, 40, 0), (0.2, 10, 1)):
        payload = {"params": {"initial": TODA2_COMPLEX, "flow": flow},
                   "integrator": {"dt": dt, "steps": steps}}
        code, out_dir = _run(tmp_path, "toda-run", payload, out=f"dt{dt}")
        assert code == want
        summary = json.loads(
            (out_dir / "toda_trajectory_summary.json").read_text())
        row = {r["name"]: r for r in summary["checks"]}[
            "lax_spectrum_relative_drift"]
        assert row["defect"] == pytest.approx(_two_site_drift(out_dir, flow),
                                              rel=1e-3)
        rows[dt] = row
    assert rows[0.05]["pass"] and rows[0.05]["defect"] < 1e-8
    assert not rows[0.2]["pass"] and 1e-7 < rows[0.2]["defect"] < 1e-6


@pytest.mark.parametrize("method", ["rk4", "isospectral"])
def test_lvn_run_casimirs_give_the_per_matrix_bits(tmp_path, method):
    n = 5
    payload = {"seed": 8, "params": {"N": n},
               "integrator": {"dt": 1e-2, "steps": 30, "stride": 3,
                              "method": method}}
    code, out_dir = _run(tmp_path, "lvn-run", payload)
    assert code == 0
    table, rhos = _csv_table(out_dir / "lvn_trajectory.csv", n)
    for k in (1, 2, 3, 4):
        want = np.array([_reference_hk(rho, k) for rho in rhos])
        assert table[f"T{k}"].tobytes() == want.tobytes(), k


def test_toda_run_is_byte_identical_across_runs(tmp_path):
    payload = {"params": {"N": 3},
               "integrator": {"dt": 1e-3, "steps": 100, "stride": 25}}
    _, first = _run(tmp_path, "toda-run", payload, out="a")
    _, second = _run(tmp_path, "toda-run", payload, out="b")
    assert ((first / "toda_trajectory.csv").read_bytes()
            == (second / "toda_trajectory.csv").read_bytes())


def test_toda_run_rejects_isospectral_method(tmp_path):
    payload = {"params": {"N": 4},
               "integrator": {"dt": 1e-3, "steps": 10, "method": "isospectral"}}
    code, out_dir = _run(tmp_path, "toda-run", payload)
    assert code == 2
    assert not out_dir.exists()


def test_toda_run_aborts_on_overflowing_positions(tmp_path):
    initial = {"N": 2, "x": [800.0], "p": [0.0, 0.0],
               "alpha": [1.0], "lambda": [1.0]}
    payload = {"params": {"initial": initial},
               "integrator": {"dt": 1e-3, "steps": 5}}
    code, out_dir = _run(tmp_path, "toda-run", payload)
    assert code == 3
    assert not (out_dir / "toda_trajectory.csv").exists()


def _cli_process(tmp_path, command, payload, out="out"):
    """Run the CLI in a fresh interpreter, as the console script does."""
    cfg = _write_config(tmp_path, payload)
    src = os.path.dirname(os.path.dirname(os.path.abspath(liepoisson.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out_dir = tmp_path / out
    done = subprocess.run(
        [sys.executable, "-m", "liepoisson.cli", command, "--config", cfg,
         "--out", str(out_dir)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    return done, out_dir


def _assert_numerical_abort(done, out_dir, message):
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr
    assert f"numerical abort: {message}" in done.stderr
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_diverging_lax_toda_run_aborts(tmp_path):
    payload = {"command": "toda-run", "seed": 1,
               "params": {"N": 8, "flow": "lax"},
               "integrator": {"dt": 5.0, "steps": 200, "stride": 1}}
    done, out_dir = _cli_process(tmp_path, "toda-run", payload)
    _assert_numerical_abort(done, out_dir, "non-finite state after step")


def test_diverging_lvn_run_aborts(tmp_path):
    payload = {"command": "lvn-run", "seed": 1, "params": {"N": 8},
               "integrator": {"dt": 50.0, "steps": 200, "stride": 1}}
    done, out_dir = _cli_process(tmp_path, "lvn-run", payload)
    _assert_numerical_abort(done, out_dir, "non-finite state after step")


def test_diverging_canonical_toda_run_aborts(tmp_path):
    # RK4 at this dt scrambles the momentum cancellation long before any
    # entry overflows; losing the invariant is a numerical abort
    payload = {"command": "toda-run", "seed": 1,
               "params": {"N": 8, "flow": "canonical"},
               "integrator": {"dt": 5.0, "steps": 200, "stride": 1}}
    done, out_dir = _cli_process(tmp_path, "toda-run", payload)
    _assert_numerical_abort(done, out_dir, "canonical Toda flow broke an invariant")


def test_canonical_toda_run_that_loses_its_momentum_aborts(tmp_path, capsys):
    # a bond stretched to x_1 = 17 pulls with e^17 ~ 2.4e7: by step 3 the
    # momenta reach 8e10 and their float sum 5.8e-6, past the loose
    # tolerance, while every entry is still finite
    initial = {"N": 3, "x": [17.0, 0.0], "p": [0.0, 0.0, 0.0],
               "alpha": [1.0, 1.0], "lambda": [1.0, 1.0]}
    code, out_dir = _run(tmp_path, "toda-run", {
        "params": {"initial": initial},
        "integrator": {"dt": 1e-3, "steps": 50, "stride": 1}})
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical abort: canonical Toda flow broke an invariant: "
        "total momentum must vanish\n")
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_toda_run_rejects_non_finite_time_spans(tmp_path):
    for k, dt in enumerate((float("inf"), float("nan"))):
        payload = {"integrator": {"dt": dt}}
        code, out_dir = _run(tmp_path, "toda-run", payload, out=f"out{k}")
        assert code == 2, payload
        assert not out_dir.exists()


def test_toda_run_refuses_a_t_end_span(tmp_path, capsys):
    # integrator.steps is a run's one length; a span is an unknown key
    code, out_dir = _run(tmp_path, "toda-run", {"params": {"t_end": 0.25}})
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: unknown toda-run params keys: t_end\n")
    assert not out_dir.exists()


def test_reduce_demo_all_kinds(tmp_path):
    full_kind = {"measurement": "measurement", "lower": "lower_triangularize",
                 "group": "group_average"}
    for kind in ("measurement", "lower", "group"):
        code, out_dir = _run(tmp_path, "reduce-demo",
                             {"params": {"N": 4, "kind": kind}}, out=kind)
        assert code == 0
        report = json.loads((out_dir / "reduction_report.json").read_text())
        assert report["kind"] == full_kind[kind]
        assert report["pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert f"reduction_idempotent_{full_kind[kind]}" in names
        contraction = f"reduction_contraction_{full_kind[kind]}"
        if kind == "lower":
            # truncation has no trace-norm law; the excess is reported as data
            assert contraction not in names
            assert report["trace_norm_excess"] > 0.0
        else:
            assert contraction in names
            assert report["trace_norm_excess"] <= 1e-12


def test_reduce_demo_skips_positivity_on_a_general_state(tmp_path):
    # a "random" state is not Hermitian, so the positivity row does not apply
    for kind in ("measurement", "group"):
        for state, has_row in (("random-psd", True), ("random", False)):
            code, out_dir = _run(tmp_path, "reduce-demo",
                                 {"params": {"kind": kind, "state": state}},
                                 out=f"{kind}-{state}")
            assert code == 0
            report = json.loads((out_dir / "reduction_report.json").read_text())
            names = {c["name"] for c in report["checks"]}
            assert f"reduction_contraction_{cli.REDUCE_KINDS[kind]}" in names
            assert ("reduction_positivity" in names) == has_row


@pytest.mark.parametrize("kind, n, scale", [
    ("measurement", 16, 1e6), ("group", 4, 1e9),
    ("measurement", 8, 1e9), ("group", 10, 1e8)])
def test_reduce_demo_keeps_correct_reductions_green_at_large_scale(
        tmp_path, kind, n, scale):
    # s ones(N) / N is a PSD rank-one density times s.  Pinching and
    # averaging contract it and keep it PSD, and the roundoff of both
    # verdicts grows with s: absolute 1e-10 gates turned the contraction
    # row red in the first two and the positivity row in the last two
    ones = np.full((n, n), scale / n, dtype=complex)
    code, out_dir = _run(tmp_path, "reduce-demo", {"params": {
        "N": n, "kind": kind, "state": op.matrix_to_json(ones)}})
    assert code == 0
    report = json.loads((out_dir / "reduction_report.json").read_text())
    names = [c["name"] for c in report["checks"] if c["pass"]]
    assert names[-3:] == [f"reduction_contraction_{cli.REDUCE_KINDS[kind]}",
                          "trace_preserved", "reduction_positivity"]
    assert report["pass"] is True


def test_reduce_demo_group_needs_even_dimension(tmp_path):
    code, out_dir = _run(tmp_path, "reduce-demo",
                         {"params": {"N": 3, "kind": "group"}})
    assert code == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", sorted(cli.REDUCE_KINDS))
def test_reduce_demo_applies_each_distinct_reduction_once(tmp_path, monkeypatch,
                                                          kind):
    # R(rho), R*(x), R(R(rho)), R*(y) and R*(R*(x) R*(y)), each once: the
    # rows and dual_sample reuse them, the contraction and positivity rows too
    inputs = []
    sandwich = red._sandwich
    monkeypatch.setattr(red, "_sandwich",
                        lambda *a: inputs.append(a[1].copy()) or sandwich(*a))
    code, _ = _run(tmp_path, "reduce-demo", {"params": {"N": 8, "kind": kind}})
    assert code == 0
    assert len(inputs) == 5
    assert len({m.tobytes() for m in inputs}) == 5


@pytest.fixture(scope="module")
def verify_gates():
    return {r.name: r.tol for r in vf.run_all()}


@pytest.mark.parametrize("command, kind", [
    *[("reduce-demo", kind) for kind in sorted(cli.REDUCE_KINDS)],
    ("orbit-kks", None)], ids=[*sorted(cli.REDUCE_KINDS), "orbit-kks"])
def test_summary_rows_of_verify_identities_are_verify_rows(
        tmp_path, verify_gates, command, kind):
    # every summary row with a verify name has verify's gate and the bits of
    # the shared check on the command's state, probes and image; the
    # reduction rows also give the bits of the public closure and condition
    # routes
    for seed in (0, 5):
        if command == "reduce-demo":
            n = 6
            code, out_dir = _run(tmp_path, command, {
                "seed": seed, "params": {"N": n, "kind": kind}}, out=f"{seed}")
            report = json.loads((out_dir / "reduction_report.json").read_text())
            rop = vf._reduction_op(cli.REDUCE_KINDS[kind], n)
            rho = seeded_random_state(seed, "psd", n)
            rng = _stream(seed, cli.PROBE_STREAM)
            x, y = _complex_normal(rng, n), _complex_normal(rng, n)
            shared, image, _ = vf._reduction_law_checks(rop, rho, x, y)
            closure, _, _, condition = shared
            assert closure.defect == red._closure_defect(
                rop, red.apply_dual(rop, x), red.apply_dual(rop, y))
            assert condition.defect == br.reduction_condition_defect(
                lambda m: red.apply(rop, m), lambda m: red.apply_dual(rop, m),
                br.Observable.linear_form(x), br.Observable.linear_form(y),
                rho)
            if kind != "lower":
                norms = [(op.trace_norm(image), op.trace_norm(rho))]
                shared = [*shared, vf._contraction_check(rop.kind, n, norms),
                          vf._positivity_check([image])]
        else:
            n = 4
            code, out_dir = _run(tmp_path, command, {
                "seed": seed, "params": {"N": n}}, out=f"{seed}")
            report = json.loads((out_dir / "orbit_report.json").read_text())
            rho = seeded_random_state(seed, "hermitian", n)
            rng = _stream(seed, cli.PROBE_STREAM)
            probes = [(_complex_normal(rng, n), _complex_normal(rng, n))
                      for _ in report["samples"]]
            shared = [*vf._kks_checks(rho, probes)[0],
                      vf._kks_rank_check(rho)[0]]
        assert code == 0
        rows = {row["name"]: row for row in report["checks"]}
        assert {name for name in rows if name in verify_gates} == {
            r.name for r in shared}
        for r in shared:
            assert rows[r.name]["tol"] == r.tol
            assert rows[r.name]["defect"] == r.defect
            # the one gate that scales with the probes: verify's rule, at
            # the command's state and probes
            if r.name != "kks_pairing_identity":
                assert r.tol == verify_gates[r.name]


def test_reduce_demo_aborts_when_the_trace_norm_overflows(tmp_path, capsys):
    # R(rho) and every row stay finite, but the singular values of rho
    # (sqrt(2) * 1.5e308) leave the floats inside the SVD, which raises no
    # floating point error (seed 8's probes keep the rows finite; other
    # seeds abort on them first)
    state = {"dim": 2, "re": [1.5e308, 1.5e308, 1.5e308, -1.5e308],
             "im": [0.0] * 4}
    code, out_dir = _run(tmp_path, "reduce-demo", {
        "seed": 8, "params": {"N": 2, "kind": "lower", "state": state}})
    assert code == 3
    assert capsys.readouterr().err == "numerical abort: trace norm overflows\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("scale", [1.0, 1e200, 1.7e308])
def test_states_near_the_float_limit_keep_the_exit_code_contract(tmp_path,
                                                                 scale):
    # every entry is finite, so load_config accepts the state; at 1.7e308
    # its products leave the floats, and the run is a numerical abort
    state = {"dim": 4, "re": [scale] * 16, "im": [0.0] * 16}
    runs = [("reduce-demo", {"kind": k}) for k in ("measurement", "lower", "group")]
    runs.append(("orbit-kks", {}))
    for command, extra in runs:
        payload = {"params": {"N": 4, "state": state, **extra}}
        done, out_dir = _cli_process(tmp_path, command, payload,
                                     out=f"{command}-{extra.get('kind')}")
        assert done.returncode in (0, 1, 3), done.stderr
        assert "Traceback" not in done.stderr
        assert "Warning" not in done.stderr
        if done.returncode == 3:
            _assert_numerical_abort(done, out_dir, "")
        for path in out_dir.glob("*.json"):
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text, path
        assert (done.returncode == 3) == (scale == 1.7e308), (command, extra)


def _scaled_lvn_inputs(scale):
    """scale * diag(1, -1) and scale * ones((2, 2)) as matrix objects."""
    return {"hamiltonian": {"dim": 2, "re": [scale, 0.0, 0.0, -scale],
                            "im": [0.0] * 4},
            "initial_state": {"dim": 2, "re": [scale] * 4, "im": [0.0] * 4}}


_TODA3_NEAR_LIMIT = {"N": 3, "x": [0.1, -0.2], "p": [0.5, -0.25, -0.25]}
# explicit inputs whose flows, propagators exp(dt K), Flaschka images or
# weights alpha lambda leave the floats, on every route of both flows
CONTRACT_RUNS = [
    *[(f"lvn-{scale:g}-dt{dt:g}-{method}", "lvn-run",
       {"params": _scaled_lvn_inputs(scale),
        "integrator": {"dt": dt, "steps": 3, "method": method}})
      for scale in (1.0, 1e150, 1e200, 1.7e308) for dt in (1e-3, 1.0, 1e300)
      for method in ("rk4", "isospectral")],
    *[(f"toda-{name}-{flow}", "toda-run",
       {"params": {"initial": dict(_TODA3_NEAR_LIMIT, **weights), "flow": flow},
        "integrator": {"dt": 1e-3, "steps": 3}})
      for name, weights in (
          ("lambda1.7e308", {"alpha": [1.0, 1.0], "lambda": [1.7e308, 1.0]}),
          ("alpha-lambda1e400", {"alpha": [1e200, 1.0], "lambda": [1e200, 1.0]}))
      for flow in ("canonical", "lax")],
]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _assert_strict_json(out_dir):
    """Every JSON written parses without NaN, Infinity or -Infinity."""
    for path in out_dir.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_no_constant)


@pytest.mark.parametrize("command, payload",
                         [run[1:] for run in CONTRACT_RUNS],
                         ids=[run[0] for run in CONTRACT_RUNS])
def test_whole_runs_keep_the_exit_code_contract(tmp_path, capsys, command,
                                                payload):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out_dir = _run(tmp_path, command, payload)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err and "Warning" not in err
    if code in (2, 3):
        assert not out_dir.exists() or not any(out_dir.iterdir())
    if code == 3:
        assert err.startswith("numerical abort: ") and err.count("\n") == 1
    _assert_strict_json(out_dir)


def test_orbit_kks_report(tmp_path):
    code, out_dir = _run(tmp_path, "orbit-kks",
                         {"seed": 21, "params": {"N": 4, "samples": 4}})
    assert code == 0
    report = json.loads((out_dir / "orbit_report.json").read_text())
    assert report["pass"] is True
    assert len(report["samples"]) == 4
    assert report["characteristic_rank"] == report["kks_form_rank"]


def test_orbit_kks_rank_one_state(tmp_path):
    code, out_dir = _run(tmp_path, "orbit-kks",
                         {"params": {"N": 5, "state": "rank-one"}})
    assert code == 0
    report = json.loads((out_dir / "orbit_report.json").read_text())
    assert report["characteristic_rank"] == 8  # 2(N - 1) on a projector orbit


def test_orbit_kks_dimension_is_capped(tmp_path):
    # the rank computations are O(N^6); a config past the cap never runs
    for n in (1, cli.ORBIT_MAX_N + 1, 10**6):
        code, out_dir = _run(tmp_path, "orbit-kks", {"params": {"N": n}},
                             out=f"out{n}")
        assert code == 2
        assert not out_dir.exists()
    path = _write_config(tmp_path, {"params": {"N": cli.ORBIT_MAX_N}})
    rc = cli.load_config(path, "orbit-kks", str(tmp_path / "unused"))
    assert rc.params["N"] == 32


def test_zero_stride_is_a_config_error(tmp_path, capsys):
    for command in ("lvn-run", "toda-run"):
        code, out_dir = _run(tmp_path, command,
                             {"integrator": {"steps": 5, "stride": 0}}, out=command)
        assert code == 2
        assert not out_dir.exists()
        assert "config error: integrator.stride must be >= 1" in capsys.readouterr().err


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    (tmp_path / "afile").write_text("kept")
    cases = [
        ({"seeds": 1}, "out"),
        ({"params": {"dim": 4, "bogus": 1}}, "out"),
        ({"seed": -3}, "out"),
        ({"seed": "many"}, "out"),
        ({"command": "toda-run"}, "out"),
        ({"params": {"dim": 5}}, "out"),
        ({"integrator": {"dt": 1e-3}}, "out"),
        # output locations that cannot be written, or lie outside --out
        ({}, "afile"),
        ({}, "afile/sub"),
        ({"output_path": "sub/x.json"}, "out"),
        ({"output_path": "../escape.json"}, "out"),
        ({"output_path": str(tmp_path / "absolute.json")}, "out"),
        ({"output_path": "nul\0.json"}, "out"),
    ]
    for payload, out in cases:
        code, out_dir = _run(tmp_path, "verify", payload, out=out)
        assert code == 2, (payload, out)
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out_dir.is_dir()
    assert (tmp_path / "afile").read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


@pytest.mark.parametrize("command, key", [
    ("lvn-run", "drift_tol"), ("toda-run", "drift_tol"),
    ("reduce-demo", "tol"), ("orbit-kks", "tol")])
def test_no_config_key_moves_a_gate(tmp_path, capsys, command, key):
    # the summary rows gate at DRIFT_TOL and at verify's gates; a config
    # that names a tolerance, even one that would pass every row, is refused
    code, out_dir = _run(tmp_path, command, {"params": {key: 1e300}})
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: unknown {command} params keys: {key}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command, payload, name", [
    ("verify", {}, "report.json"),
    ("reduce-demo", {}, "reduction_report.json"),
    ("orbit-kks", {}, "orbit_report.json"),
    ("lvn-run", {}, "lvn_trajectory.csv"),
    ("lvn-run", {}, "lvn_trajectory_summary.json"),
    ("toda-run", {}, "toda_trajectory_summary.json"),
    ("toda-run", {"output_path": "run.csv"}, "run_summary.json"),
])
def test_a_directory_where_an_artifact_goes_is_a_config_error(
        tmp_path, capsys, command, payload, name):
    (tmp_path / "out" / name).mkdir(parents=True)
    code, out_dir = _run(tmp_path, command, payload)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert repr(name) in err
    assert list(out_dir.rglob("*")) == [out_dir / name]


def test_malformed_or_missing_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    out_dir = tmp_path / "out"
    # not JSON, not UTF-8, nested past the decoder's recursion limit
    for content in (b"{not json", b"\xff\xfe\x00", b"[" * 100_000):
        bad.write_bytes(content)
        assert cli.main(["verify", "--config", str(bad), "--out", str(out_dir)]) == 2
    missing = str(tmp_path / "nope.json")
    assert cli.main(["verify", "--config", missing, "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_custom_output_path_and_matching_command_tag(tmp_path):
    payload = {"command": "verify", "seed": 2, "params": {"dim": 4},
               "output_path": "self_check.json"}
    code, out_dir = _run(tmp_path, "verify", payload)
    assert code == 0
    assert (out_dir / "self_check.json").exists()


def _python(tmp_path, code):
    """Run code in a fresh interpreter that imports the package under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(liepoisson.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)


def test_cli_runs_without_scipy(tmp_path):
    done = _python(tmp_path, """
        import json, sys
        sys.modules["scipy"] = None  # any scipy import now fails
        import liepoisson.cli as cli
        iso = {"params": {"N": 4}, "integrator":
               {"dt": 1e-3, "steps": 50, "method": "isospectral"}}
        for command, payload in (("verify", {}), ("lvn-run", iso)):
            with open(command + ".json", "w") as fh:
                json.dump(payload, fh)
            code = cli.main([command, "--config", command + ".json",
                             "--out", command])
            assert code == 0, (command, code)
        """)
    assert done.returncode == 0, done.stderr


def test_cli_run_loads_no_modules(tmp_path):
    # every module the runs need is loaded by `import liepoisson.cli`; a lazy
    # import inside cli.run would move start-up cost into the run itself
    done = _python(tmp_path, """
        import contextlib, io, json, sys
        import liepoisson.cli as cli
        iso = {"integrator": {"method": "isospectral"}}
        configs = [(c, {}) for c in cli.COMMANDS] + [("lvn-run", iso)]
        loaded, active = [], [False]
        def hook(event, args):
            if event == "import" and active[0]:
                loaded.append(args[0])
        sys.addaudithook(hook)
        for k, (command, payload) in enumerate(configs):
            with open(f"{k}.json", "w") as fh:
                json.dump(payload, fh)
            rc = cli.load_config(f"{k}.json", command, f"out{k}")
            active[0] = True
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run(rc)
            active[0] = False
            assert code == 0, (command, code)
            assert not loaded, (command, payload, loaded)
        """)
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_loads_every_module_the_benchmark_traces(tmp_path):
    # perfbench/spans.py install() reads sys.modules["liepoisson.<m>"] for
    # each of its MODULES once the CLI is imported; a module loaded lazily
    # would make every traced benchmark run raise KeyError
    perfbench = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    done = _python(tmp_path, f"""
        import sys
        import liepoisson.cli
        sys.path.insert(0, {perfbench!r})
        from spans import MODULES
        print([m for m in MODULES if f"liepoisson.{{m}}" not in sys.modules])
        """)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_each_public_name_has_one_home(tmp_path):
    # a public function or class is listed in the __all__ of the module that
    # defines it and of no other (constants are exempt); the package
    # namespace holds none, so `import liepoisson` loads no submodule
    done = _python(tmp_path, """
        import importlib, inspect, pkgutil, sys
        import liepoisson
        print(sorted(m for m in sys.modules if m.startswith("liepoisson.")))
        mods = [importlib.import_module(f"liepoisson.{m.name}")
                for m in pkgutil.iter_modules(liepoisson.__path__)]
        print(len(mods), sorted(
            f"{mod.__name__}.{attr}" for mod in mods for attr in mod.__all__
            if (inspect.isfunction(getattr(mod, attr))
                or inspect.isclass(getattr(mod, attr)))
            and getattr(mod, attr).__module__ != mod.__name__))
        """)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n9 []\n"


# ------------------------------------------------- the config boundary

def _load(tmp_path, command, payload):
    return cli.load_config(_write_config(tmp_path, payload), command,
                           str(tmp_path / "out"))


H2 = op.matrix_to_json(np.diag([1.0, 2.0]).astype(complex))
RHO2 = op.matrix_to_json(np.diag([0.75, 0.25]).astype(complex))
TODA3 = {"N": 3, "x": [0.1, -0.2], "p": [0.5, -0.25, -0.25],
         "alpha": [1.0, 0.5], "lambda": [1.0, 0.5]}


def test_load_config_resolves_every_param(tmp_path):
    for command in cli.COMMANDS:
        rc = _load(tmp_path, command, {})
        # lvn-run, the one command with a choice of step, carries the method
        method = {"method"} if command == "lvn-run" else set()
        want = cli._COMMANDS[command][0] | method
        assert set(rc.params) == want, command
    assert _load(tmp_path, "lvn-run", {}).params == {
        "N": 6, "hamiltonian": "random", "initial_state": "random-psd",
        "method": "rk4"}
    iso = {"integrator": {"method": "isospectral"}}
    assert _load(tmp_path, "lvn-run", iso).params["method"] == "isospectral"
    rc = _load(tmp_path, "lvn-run", {"params": {"hamiltonian": H2,
                                                "initial_state": RHO2}})
    assert rc.params["N"] == 2
    assert np.array_equal(rc.params["hamiltonian"], op.matrix_from_json(H2))
    rc = _load(tmp_path, "toda-run", {"params": {"initial": TODA3}})
    assert isinstance(rc.params["initial"], cli.td.TodaState)
    assert rc.params["N"] == 3


def test_explicit_inputs_are_parsed_once(tmp_path, monkeypatch, capsys):
    counts = {"matrix": 0, "toda": 0}

    def counting(key, fn):
        def parse(payload):
            counts[key] += 1
            return fn(payload)
        return parse

    monkeypatch.setattr(op, "matrix_from_json",
                        counting("matrix", op.matrix_from_json))
    monkeypatch.setattr(cli.td, "toda_from_json",
                        counting("toda", cli.td.toda_from_json))
    short = {"dt": 1e-3, "steps": 10}
    cases = [
        ("lvn-run", {"params": {"hamiltonian": H2, "initial_state": RHO2},
                     "integrator": short}, {"matrix": 2, "toda": 0}),
        ("toda-run", {"params": {"initial": TODA3}, "integrator": short},
         {"matrix": 0, "toda": 1}),
        ("reduce-demo", {"params": {"N": 2, "state": RHO2}},
         {"matrix": 1, "toda": 0}),
        ("orbit-kks", {"params": {"N": 2, "state": H2}},
         {"matrix": 1, "toda": 0}),
    ]
    for k, (command, payload, want) in enumerate(cases):
        counts.update(matrix=0, toda=0)
        code, _ = _run(tmp_path, command, payload, out=f"out{k}")
        assert code == 0, command
        assert counts == want, command


def test_data_dependent_faults_are_raised_by_load_config(tmp_path):
    non_hermitian = op.matrix_to_json(
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    cases = [
        ("lvn-run", {"params": {"hamiltonian": non_hermitian}},
         "hamiltonian must be Hermitian"),
        ("lvn-run", {"params": {"N": 3, "hamiltonian": H2}},
         "disagree on the dimension"),
        ("lvn-run", {"params": {"hamiltonian": H2,
                                "initial_state": op.matrix_to_json(np.eye(3))}},
         "disagree on the dimension"),
        ("reduce-demo", {"params": {"N": 4, "state": RHO2}},
         "state dimension does not match N"),
        ("orbit-kks", {"params": {"N": 4, "state": H2}},
         "state dimension does not match N"),
        ("toda-run", {"params": {"N": 4, "initial": TODA3}},
         "N does not match the initial state"),
    ]
    for command, payload, message in cases:
        with pytest.raises(cli.ConfigError, match=message):
            _load(tmp_path, command, payload)


INF_MATRIX = '{"dim": 1e999, "re": [1.0], "im": [0.0]}'
INF_TODA = ('{"N": 1e999, "x": [0.1], "p": [0.5, -0.5], "alpha": [1.0], '
            '"lambda": [1.0]}')
# JSON reads 1e999 as inf, which is not an integer size
INFINITE_SIZES = [
    ("lvn-run", f'{{"params": {{"hamiltonian": {INF_MATRIX}}}}}'),
    ("lvn-run", f'{{"params": {{"initial_state": {INF_MATRIX}}}}}'),
    ("reduce-demo", f'{{"params": {{"state": {INF_MATRIX}}}}}'),
    ("orbit-kks", f'{{"params": {{"state": {INF_MATRIX}}}}}'),
    ("toda-run", f'{{"params": {{"initial": {INF_TODA}}}}}'),
]


def test_infinite_sizes_are_config_errors(tmp_path, capsys):
    for k, (command, text) in enumerate(INFINITE_SIZES):
        path = tmp_path / f"config{k}.json"
        path.write_text(text)
        out_dir = tmp_path / f"out{k}"
        code = cli.main([command, "--config", str(path), "--out", str(out_dir)])
        assert code == 2, text
        assert "config error: bad " in capsys.readouterr().err
        assert not out_dir.exists()


def test_sizes_must_be_json_integers(tmp_path, capsys):
    # a float was truncated and a string or bool taken as a size
    for k, size in enumerate((2.9, "2", True)):
        matrix = {"dim": size, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
        toda = dict(TODA3, N=size, x=[0.1], p=[0.5, -0.5], alpha=[1.0],
                    **{"lambda": [1.0]})
        cases = [("lvn-run", {"hamiltonian": matrix}),
                 ("lvn-run", {"initial_state": matrix}),
                 ("reduce-demo", {"N": 2, "state": matrix}),
                 ("orbit-kks", {"N": 2, "state": matrix}),
                 ("toda-run", {"initial": toda})]
        for j, (command, params) in enumerate(cases):
            code, out_dir = _run(tmp_path, command, {"params": params},
                                 out=f"out{k}{j}")
            assert code == 2, (command, params)
            assert "config error: bad " in capsys.readouterr().err
            assert not out_dir.exists()
    with pytest.raises(ValueError, match="must be an integer"):
        op.matrix_from_json({"dim": 2.0, "re": [0.0] * 4, "im": [0.0] * 4})
    with pytest.raises(ValueError, match="must be an integer"):
        td.toda_from_json(dict(TODA3, N=3.0))


# (command, param, limit, step past it); only load_config sees each config
SIZE_LIMITS = [("verify", "dim", cli.VERIFY_MAX_DIM, 2),
               ("lvn-run", "N", cli.LVN_MAX_N, 1),
               ("toda-run", "N", cli.TODA_MAX_N, 1),
               ("reduce-demo", "N", cli.REDUCE_MAX_N, 2),
               ("orbit-kks", "N", cli.ORBIT_MAX_N, 1),
               ("orbit-kks", "samples", cli.ORBIT_MAX_SAMPLES, 1)]


@pytest.mark.parametrize("command, key, limit, step", SIZE_LIMITS)
def test_sizes_are_capped_by_load_config(tmp_path, command, key, limit, step):
    assert _load(tmp_path, command, {"params": {key: limit}}).params[key] == limit
    for size in (limit + step, 10**6, 10**12):
        with pytest.raises(cli.ConfigError, match=str(limit)):
            _load(tmp_path, command, {"params": {key: size}})


def test_recorded_values_are_capped_by_load_config(tmp_path):
    # a record holds 2 N^2 values, 800 at N = 20, so the cap allows 5000
    # records, within MAX_STEPS at stride 1 and 2; the first state is
    # recorded, and so is the last when the stride does not divide the steps
    cap = cli.MAX_RECORDED_VALUES
    for command, params, per_record, stride in (
            ("lvn-run", {"N": 20}, 800, 1), ("lvn-run", {"N": 20}, 800, 2),
            ("toda-run", {"N": 20}, 800, 1),
            ("toda-run", {"N": 20, "flow": "lax"}, 800, 2)):
        assert cap % per_record == 0
        steps = (cap // per_record - 1) * stride
        assert steps + 1 <= cli.MAX_STEPS
        rc = _load(tmp_path, command, {"params": params, "integrator": {
            "dt": 1e-3, "steps": steps, "stride": stride}})
        assert rc.integrator.steps == steps
        with pytest.raises(cli.ConfigError, match=str(cap)):
            _load(tmp_path, command, {"params": params, "integrator": {
                "dt": 1e-3, "steps": steps + 1, "stride": stride}})
    # below N = 15 the step limit keeps a stride-1 run under the cap
    records = cli.MAX_STEPS + 1
    assert records * 2 * 14 ** 2 <= cap < records * 2 * 15 ** 2
    # 10^4 records of the N = 64 states, 82 million values
    with pytest.raises(cli.ConfigError, match=str(cap)):
        _load(tmp_path, "lvn-run", {"params": {"N": 64}, "integrator": {
            "dt": 1e-3, "steps": cli.MAX_STEPS, "stride": 1}})


@pytest.mark.parametrize("command, params", [
    ("lvn-run", {"N": 2}), ("toda-run", {"N": 2}),
    ("toda-run", {"N": 2, "flow": "lax"})])
def test_steps_are_capped_by_load_config(tmp_path, command, params):
    # the default stride keeps the records far below their own cap
    limit = cli.MAX_STEPS
    rc = _load(tmp_path, command, {"params": params,
                                   "integrator": {"steps": limit}})
    assert rc.integrator.steps == limit
    for steps in (limit + 1, 10**12):
        with pytest.raises(cli.ConfigError, match=str(limit)):
            _load(tmp_path, command, {"params": params, "integrator": {
                "steps": steps, "stride": steps}})


def test_explicit_matrices_are_capped_too(tmp_path):
    big = op.matrix_to_json(np.eye(cli.LVN_MAX_N + 1))
    with pytest.raises(cli.ConfigError, match=str(cli.LVN_MAX_N)):
        _load(tmp_path, "lvn-run", {"params": {"hamiltonian": big}})
    alpha = [1.0] * cli.TODA_MAX_N
    initial = {"N": cli.TODA_MAX_N + 1, "x": [0.0] * cli.TODA_MAX_N,
               "p": [0.0] * (cli.TODA_MAX_N + 1), "alpha": alpha,
               "lambda": alpha}
    with pytest.raises(cli.ConfigError, match=str(cli.TODA_MAX_N)):
        _load(tmp_path, "toda-run", {"params": {"initial": initial}})


_TAGS = ["random", "random-psd", "random-hermitian", "rank-one", "lax",
         "canonical", "measurement", "lower", "group", "rk4", "isospectral"]
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 40)
            | st.sampled_from([10**400, -(10**400)]) | st.floats()
            | st.text(max_size=6) | st.sampled_from(_TAGS))
_JSON = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                     max_leaves=8)


def _floats(size):
    return st.lists(st.floats(-2, 2), min_size=size, max_size=size)


def _matrix(n):
    return st.fixed_dictionaries({"dim": st.just(n) | _SCALARS,
                                  "re": _floats(n * n) | _JSON,
                                  "im": _floats(n * n) | _JSON})


def _toda(n):
    momenta = _floats(n).map(lambda p: [v - sum(p) / n for v in p])
    return st.fixed_dictionaries({}, optional={
        "N": st.just(n) | _SCALARS, "x": _floats(n - 1) | _JSON,
        "p": momenta | _JSON, "alpha": _floats(n - 1) | _JSON,
        "lambda": _floats(n - 1) | _JSON})


# mostly well-formed values, so that most configs get past the first check
# (deferred, so that `x | _VALUES` picks x half the time)
_VALUES = st.deferred(
    lambda: st.integers(1, 8) | st.floats(1e-6, 1.0) | _SCALARS | _JSON)
_BY_KEY = {key: st.integers(1, 4).flatmap(_matrix) | _VALUES
           for key in ("hamiltonian", "initial_state", "state")}
_BY_KEY["initial"] = st.integers(2, 4).flatmap(_toda) | _VALUES


def _configs(command):
    optional = {"seed": st.integers(0, 100) | _SCALARS}
    if command in ("lvn-run", "toda-run"):
        optional["integrator"] = st.dictionaries(
            st.sampled_from(["dt", "steps", "stride", "method"]),
            st.integers(1, 20) | st.floats(1e-4, 0.1) | _SCALARS, max_size=4)
    params = st.fixed_dictionaries({}, optional={
        key: _BY_KEY.get(key, _VALUES) for key in cli._COMMANDS[command][0]})
    config = st.fixed_dictionaries({"params": params}, optional=optional)
    # a well-formed top level reaches the params; _JSON covers the rest
    return st.tuples(st.just(command), (config | _JSON).map(json.dumps))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(cli.COMMANDS).flatmap(_configs))
@example(case=INFINITE_SIZES[0])
@example(case=INFINITE_SIZES[1])
@example(case=INFINITE_SIZES[2])
@example(case=INFINITE_SIZES[3])
@example(case=INFINITE_SIZES[4])
def test_load_config_returns_a_run_config_or_raises_config_error(tmp_path, case):
    command, text = case
    path = tmp_path / "config.json"
    path.write_text(text)
    try:
        rc = cli.load_config(str(path), command, str(tmp_path / "out"))
    except cli.ConfigError:
        return
    assert isinstance(rc, cli.RunConfig)


# ------------------------------------------------- the whole-run contract

_SCALES = st.floats(0.0, 308.0).map(lambda e: 10.0 ** e) | st.just(1.7e308)


def _unit(size):
    return st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)


def _explicit_matrix(n, hermitian):
    """An n x n matrix object with entries up to a drawn scale; the scale
    multiplies a Hermitian matrix into an exactly Hermitian one."""
    def build(args):
        re, im, scale = args
        m = np.reshape(re, (n, n)) + 1j * np.reshape(im, (n, n))
        if hermitian:
            m = (m + m.conj().T) / 2
        return op.matrix_to_json(scale * m)
    return st.tuples(_unit(n * n), _unit(n * n), _SCALES).map(build)


def _integrator(method):
    return st.fixed_dictionaries({
        "dt": st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e),
        "steps": st.integers(1, 3), "method": method})


@st.composite
def _whole_runs(draw):
    """An explicit 2..4-dimensional run of one of the four run commands."""
    command = draw(st.sampled_from(["lvn-run", "toda-run", "reduce-demo",
                                    "orbit-kks"]))
    n = draw(st.integers(2, 4))
    if command == "lvn-run":
        params = {"hamiltonian": draw(_explicit_matrix(n, draw(st.booleans()))),
                  "initial_state": draw(_explicit_matrix(n, False))}
        method = st.sampled_from(["rk4", "isospectral"])
        return command, {"params": params, "integrator": draw(_integrator(method))}
    if command == "toda-run":
        # the last momentum cancels the sum of the others exactly
        p = [draw(_SCALES) * v for v in draw(_unit(n - 1))]
        initial = {"N": n, "x": [800.0 * v for v in draw(_unit(n - 1))],
                   "p": p + [-sum(p)],
                   "alpha": [2.0 * v for v in draw(_unit(n - 1))],
                   "lambda": [draw(_SCALES) * v for v in draw(_unit(n - 1))]}
        params = {"initial": initial,
                  "flow": draw(st.sampled_from(["canonical", "lax"]))}
        return command, {"params": params,
                         "integrator": draw(_integrator(st.just("rk4")))}
    params = {"N": n, "state": draw(_explicit_matrix(n, draw(st.booleans())))}
    if command == "reduce-demo":
        params["kind"] = draw(st.sampled_from(sorted(cli.REDUCE_KINDS)))
    else:
        params["samples"] = draw(st.integers(1, 3))
    return command, {"params": params}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_whole_runs())
# the flow stays finite, and only its monitors tr(rho^3), tr(rho^4) overflow
@example(case=("lvn-run", {"params": _scaled_lvn_inputs(1.0) | {
    "initial_state": {"dim": 2, "re": [1e120] * 4, "im": [0.0] * 4}},
    "integrator": {"dt": 1e-3, "steps": 3, "method": "rk4"}}))
def test_fuzzed_whole_runs_keep_the_exit_code_contract(case):
    command, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code, out_dir = _run(tmp, command, payload)
        err = err.getvalue()
        assert code in (0, 1, 2, 3)
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err and "Warning" not in err
        if code in (2, 3):
            assert not out_dir.exists() or not any(out_dir.iterdir())
        _assert_strict_json(out_dir)
