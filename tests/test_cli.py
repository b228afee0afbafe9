"""Command line driver: exit codes, artifacts, determinism, config rejection."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import liepoisson
from liepoisson import cli
from liepoisson import operators as op
from liepoisson import verification as vf


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
    want = vf.report_payload(vf.run_all(seed=11, dim=4))
    assert report == json.loads(json.dumps(want))
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
        "params": {"N": 4, "t_end": 0.2},
        "integrator": {"dt": 1e-3, "stride": 50},
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
        "params": {"N": 4, "flow": "lax", "t_end": 0.2},
        "integrator": {"dt": 1e-3, "stride": 50},
    }
    code, out_dir = _run(tmp_path, "toda-run", payload)
    assert code == 0
    header = (out_dir / "toda_trajectory.csv").read_text().split("\n", 1)[0]
    assert header.startswith("t,re_00,im_00")
    assert header.endswith("h1,h2,h3,h4")


def test_toda_run_is_byte_identical_across_runs(tmp_path):
    payload = {"params": {"N": 3, "t_end": 0.1},
               "integrator": {"dt": 1e-3, "stride": 25}}
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


def test_toda_run_rejects_non_finite_time_spans(tmp_path):
    cases = [
        {"params": {"t_end": float("inf")}},
        {"params": {"t_end": float("nan")}},
        {"params": {"t_end": 10**400}},
        {"params": {"t_end": 1.0}, "integrator": {"dt": float("inf")}},
        # each number is finite, but t_end / dt overflows
        {"params": {"t_end": 1e300}, "integrator": {"dt": 1e-10}},
    ]
    for k, payload in enumerate(cases):
        code, out_dir = _run(tmp_path, "toda-run", payload, out=f"out{k}")
        assert code == 2, payload
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
        assert "idempotence" in names
        if kind == "lower":
            # truncation has no trace-norm law; the excess is reported as data
            assert "trace_norm_contraction" not in names
            assert report["trace_norm_excess"] > 0.0
        else:
            assert "trace_norm_contraction" in names
            assert report["trace_norm_excess"] <= 1e-12


def test_reduce_demo_group_needs_even_dimension(tmp_path):
    code, out_dir = _run(tmp_path, "reduce-demo",
                         {"params": {"N": 3, "kind": "group"}})
    assert code == 2
    assert not out_dir.exists()


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


def test_unknown_config_keys_are_rejected(tmp_path):
    cases = [
        {"seeds": 1},
        {"params": {"dim": 4, "bogus": 1}},
        {"seed": -3},
        {"seed": "many"},
        {"command": "toda-run"},
        {"params": {"dim": 5}},
        {"integrator": {"dt": 1e-3}},
    ]
    for payload in cases:
        code, out_dir = _run(tmp_path, "verify", payload)
        assert code == 2, payload
        assert not out_dir.exists()


def test_malformed_or_missing_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out_dir = tmp_path / "out"
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


def test_seeded_random_state_reexport():
    a = cli.seeded_random_state(1, "general", 3)
    b = cli.seeded_random_state(1, "general", 3)
    assert np.array_equal(a, b)


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
