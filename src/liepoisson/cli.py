"""Configuration-driven command line front end.

Usage:  liepoisson <command> --config <path> [--out <dir>]

Commands
--------
verify       run the named-check registry, write ``report.json``
lvn-run      integrate a Liouville-von Neumann flow, write a trajectory CSV
toda-run     integrate a Toda chain (canonical or Lax flow), write a CSV
reduce-demo  apply a reduction map to a state, write before/after + defects
orbit-kks    sample the orbit two-form at a state, write ranks + table

Every command reads one self-describing JSON config (no environment
variables) and writes its artifacts into --out (default: current
directory); the config's ``output_path`` is a file name there.  Runs are
deterministic: identical config and library versions give byte-identical
output files.

Exit codes: 0 all checks pass; 1 a check failed; 2 config error (nothing is
written); 3 numerical abort (NaN or overflow, in a flow or in the arithmetic
on an explicit state, or a lost invariant during integration).  Every config
fault, also one that needs the parsed data (a non-Hermitian hamiltonian, a
state whose size is not N) or the file system (an --out under a file, a
directory where an artifact goes), is raised by ``load_config``, before
anything runs.  ``run`` is the one float boundary: the first overflow or
NaN of any command ends it with exit 3.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import operators as op
from . import orbits as orb
from . import toda as td
from .fixtures import _complex_normal, _stream, seeded_random_state
from .integrators import (IntegratorConfig, NumericalAbort, Trajectory,
                          _drift, _paired_drift, evolve)
from .verification import (_check, _contraction_check, _kks_checks,
                           _kks_rank_check, _positivity_check, _psd_fault,
                           _reduction_law_checks, _reduction_op,
                           _write_report, run_all)

__all__ = ["ConfigError", "RunConfig", "load_config", "main", "run"]

# reduce-demo kinds, and the reduction kind each one builds
REDUCE_KINDS = {"measurement": "measurement", "lower": "lower_triangularize",
                "group": "group_average"}

# Size limits; each keeps its command's default config to a few seconds at
# the limit (timed in-process on 2 cores with one BLAS thread).
# orbit-kks takes the SVD of N^2 x N^2 matrices, O(N^6) work
ORBIT_MAX_N = 32
# each sample costs O(N^3): 1000 take ~0.25 s at N = 4 and ~2.7 s at N = 32
ORBIT_MAX_SAMPLES = 1000
# verify takes ~1.1 s at dim 16.  The cap also keeps verify inside the dims
# where every gate holds: at dim 32, seed 2024 fails the absolute 1e-10 gate
# of full_casimir_brackets_vanish with 1.11e-10
VERIFY_MAX_DIM = 16
# lvn-run's default 1000 RK4 steps of dense N x N products: ~2.6 s at N = 64
LVN_MAX_N = 64
# toda-run writes 2 N^2 CSV columns per recorded Lax state: ~1.1 s at N = 128
TODA_MAX_N = 128
# the integrator.steps of lvn-run and toda-run: a step costs 38-734 us for
# lvn-run and 47-54 us for toda-run, and a cold lvn-run at N = 64 takes
# 5.6 s for MAX_STEPS RK4 steps, the slowest accepted config
MAX_STEPS = 10_000
# records x 2 N^2 values of the N x N matrix each lvn-run or toda-run record
# keeps (3.3e6 for the default toda-run at TODA_MAX_N); at stride 1 it binds
# from N = 15, below which MAX_STEPS bounds the records
MAX_RECORDED_VALUES = 4_000_000
# reduce-demo "lower" applies R and R* five times, each a sum of N
# sandwiches of N x N products, O(N^4): ~0.25 s at N = 96 (best of 5)
REDUCE_MAX_N = 96

# spawn key of the stream of demo probe draws (see fixtures._stream)
PROBE_STREAM = 1000

# the gate of every lvn-run and toda-run relative drift; no config moves it,
# and the reduction-law and two-form rows of reduce-demo and orbit-kks are
# verify's, with verify's gates
DRIFT_TOL = 1e-8


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A validated run with resolved ``params``: every key set (defaults
    applied), explicit matrices as arrays, an explicit Toda ``initial`` as a
    ``TodaState``, tags left for ``run`` to draw, and lvn-run's
    ``integrator.method``, the one choice of step a command has, as
    ``params["method"]``.  ``integrator`` is the grid as parsed; its
    ``steps`` is a run's one length."""

    command: str
    seed: int
    params: dict
    integrator: Optional[IntegratorConfig]
    output_path: str
    out_dir: str = "."


# ------------------------------------------------------------- validation

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _uint(raw, label: str, default: int) -> int:
    if raw is None:
        return default
    _require(isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0,
             f"{label} must be a non-negative integer")
    return raw


def _positive_number(raw, label: str, default: float) -> float:
    if raw is None:
        return default
    # the upper bound also keeps float(raw) from overflowing on huge integers
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool)
             and 0 < raw <= sys.float_info.max,
             f"{label} must be a positive finite number")
    return float(raw)


def _choice(raw, label: str, allowed, default: str) -> str:
    if raw is None:
        return default
    _require(isinstance(raw, str) and raw in allowed,
             f"{label} must be one of {sorted(allowed)}")
    return raw


def _only_keys(mapping: dict, allowed, label: str) -> None:
    _require(isinstance(mapping, dict), f"{label} must be an object")
    unknown = sorted(set(mapping) - set(allowed))
    _require(not unknown, f"unknown {label} keys: {', '.join(unknown)}")


_INTEGRATOR_KEYS = {"dt", "steps", "stride", "method"}
METHODS = ("rk4", "isospectral")  # integrator.method: evolve's rhs or hgrad


def _build_integrator(raw: Optional[dict], command: str) -> tuple:
    """The grid of the integrator block and the method it names."""
    raw = {} if raw is None else raw
    _only_keys(raw, _INTEGRATOR_KEYS, "integrator")
    dt = _positive_number(raw.get("dt"), "integrator.dt", 1e-3)
    steps = _uint(raw.get("steps"), "integrator.steps", 1000)
    _require(1 <= steps <= MAX_STEPS,
             f"integrator.steps must be in 1..{MAX_STEPS}")
    stride = _uint(raw.get("stride"), "integrator.stride", max(1, steps // 100))
    _require(stride >= 1, "integrator.stride must be >= 1")
    method = _choice(raw.get("method"), "integrator.method", METHODS, "rk4")
    _require(command != "toda-run" or method == "rk4",
             "toda-run integrates with method rk4 only")
    return IntegratorConfig(dt=dt, steps=steps, stride=stride), method


def load_config(path: str, command: str, out_dir: str) -> RunConfig:
    """Parse, validate and resolve a config file; raises ConfigError for
    every config fault, also one that needs the parsed data, and for a run
    past its limits (size, steps, recorded values)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _only_keys(raw, {"command", "seed", "params", "integrator", "output_path"},
               "config")
    cfg_command = raw.get("command")
    if cfg_command is not None:
        _require(cfg_command == command,
                 f"config command {cfg_command!r} does not match {command!r}")
    seed = _uint(raw.get("seed"), "seed", 2024)
    params = raw.get("params", {})
    keys, default_output, _ = _COMMANDS[command]
    _only_keys(params, keys, f"{command} params")
    output_path = raw.get("output_path", default_output)
    _require(isinstance(output_path, str) and output_path,
             "output_path must be a non-empty string")
    _require(output_path not in (".", "..") and "\0" not in output_path
             and os.path.basename(output_path) == output_path,
             f"output_path must be a file name inside --out, not {output_path!r}")
    # --out, or its nearest existing ancestor, must be a directory
    path = out_dir
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    _require(out_dir and os.path.isdir(path or "."),
             f"--out {out_dir!r} cannot be made a directory")
    # and no directory may stand where an artifact is to be written
    trajectory = command in ("lvn-run", "toda-run")
    names = [output_path]
    if trajectory:
        names.append(_summary_name(output_path))
    for name in names:
        _require(not os.path.isdir(os.path.join(out_dir, name)),
                 f"--out {out_dir!r} holds a directory named {name!r}")
    integrator = method = None
    if trajectory:
        integrator, method = _build_integrator(raw.get("integrator"), command)
    else:
        _require("integrator" not in raw,
                 f"{command} takes no integrator block")
    params = _resolve_params(command, params, integrator)
    if command == "lvn-run":
        params["method"] = method
    return RunConfig(command=command, seed=seed, params=params,
                     integrator=integrator, output_path=output_path,
                     out_dir=out_dir)


# tags a matrix param accepts, each with the fixture kind it draws (None:
# the runner draws it); the first tag is the default
_HAMILTONIAN_TAGS = {"random": "hermitian"}
_DENSITY_TAGS = {"random-psd": "psd", "random": "general"}
_ORBIT_TAGS = {"random-hermitian": "hermitian", "rank-one": None}


def _parse(parse, raw: dict, label: str):
    """The one parse of an explicit matrix or Toda state."""
    try:
        return parse(raw)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad {label}: {exc}") from exc


def _matrix_or_tag(p: dict, key: str, tags: dict, n: Optional[int] = None):
    """p[key] as one of ``tags`` or as a parsed matrix, n x n if n is given."""
    raw = p.get(key, next(iter(tags)))
    if isinstance(raw, str):
        _require(raw in tags, f"{key} must be one of {sorted(tags)} "
                              "or a matrix object")
        return raw
    _require(isinstance(raw, dict), f"{key} must be a tag or a matrix object")
    m = _parse(op.matrix_from_json, raw, f"{key} matrix")
    _require(n is None or m.shape[0] == n, f"{key} dimension does not match N")
    return m


def _require_recorded_size(integrator: IntegratorConfig, n: int) -> None:
    """Refuse a run that records more than MAX_RECORDED_VALUES values: every
    stride-th state, the first and the last, each 2 N^2 values."""
    records = integrator.records
    _require(records * 2 * n * n <= MAX_RECORDED_VALUES,
             f"the run records {records} states of {2 * n * n} values, more "
             f"than the {MAX_RECORDED_VALUES} allowed; raise integrator.stride")


def _resolve_params(command: str, p: dict, integrator) -> dict:
    """The params with every default applied and every explicit input parsed
    and checked against the sizes and the integrator grid they allow."""
    if command == "verify":
        dim = _uint(p.get("dim"), "dim", 4)
        _require(4 <= dim <= VERIFY_MAX_DIM and dim % 2 == 0,
                 f"dim must be an even integer in 4..{VERIFY_MAX_DIM}")
        return {"dim": dim}
    if command == "lvn-run":
        h = _matrix_or_tag(p, "hamiltonian", _HAMILTONIAN_TAGS)
        rho = _matrix_or_tag(p, "initial_state", _DENSITY_TAGS)
        dims = [m.shape[0] for m in (h, rho) if not isinstance(m, str)]
        n = p.get("N")
        if n is not None:
            _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
                     "N must be a positive integer")
            dims.append(n)
        _require(len(set(dims)) <= 1,
                 "N, hamiltonian, and initial_state disagree on the dimension")
        n = dims[0] if dims else 6
        _require(n <= LVN_MAX_N, f"N must be at most {LVN_MAX_N}")
        _require_recorded_size(integrator, n)
        _require(isinstance(h, str)
                 or op.validate(op.ClassTag.HERMITIAN, h, tol=1e-10),
                 "hamiltonian must be Hermitian")
        return {"N": n, "hamiltonian": h, "initial_state": rho}
    if command == "toda-run":
        initial = p.get("initial", "random")
        if initial == "random":
            n = _uint(p.get("N"), "N", 8)
            _require(n >= 2, "N must be >= 2")
        else:
            _require(isinstance(initial, dict),
                     "initial must be \"random\" or a state object")
            initial = _parse(td.toda_from_json, initial, "initial state")
            n = _uint(p.get("N"), "N", initial.n)
            _require(n == initial.n, "N does not match the initial state")
        _require(n <= TODA_MAX_N, f"N must be at most {TODA_MAX_N}")
        flow = _choice(p.get("flow"), "flow", ("canonical", "lax"), "canonical")
        hk_max = _uint(p.get("hk_max"), "hk_max", 4)
        _require(1 <= hk_max <= 8, "hk_max must be in 1..8")
        _require_recorded_size(integrator, n)
        return {"N": n, "initial": initial, "flow": flow, "hk_max": hk_max}
    if command == "reduce-demo":
        n = _uint(p.get("N"), "N", 4)
        _require(2 <= n <= REDUCE_MAX_N, f"N must be in 2..{REDUCE_MAX_N}")
        kind = _choice(p.get("kind"), "kind", REDUCE_KINDS, "measurement")
        _require(kind != "group" or n % 2 == 0,
                 "the demo sign group needs an even N")
        state = _matrix_or_tag(p, "state", _DENSITY_TAGS, n)
        return {"N": n, "kind": kind, "state": state}
    n = _uint(p.get("N"), "N", 4)  # orbit-kks
    _require(2 <= n <= ORBIT_MAX_N, f"N must be in 2..{ORBIT_MAX_N}")
    state = _matrix_or_tag(p, "state", _ORBIT_TAGS, n)
    samples = _uint(p.get("samples"), "samples", 6)
    _require(1 <= samples <= ORBIT_MAX_SAMPLES,
             f"samples must be in 1..{ORBIT_MAX_SAMPLES}")
    return {"N": n, "state": state, "samples": samples}


# -------------------------------------------------------------- reporting

def _artifact_path(rc: RunConfig, name: Optional[str] = None) -> str:
    os.makedirs(rc.out_dir, exist_ok=True)
    return os.path.join(rc.out_dir, name if name else rc.output_path)


def _summary_name(output_path: str) -> str:
    stem, _ = os.path.splitext(output_path)
    return f"{stem}_summary.json"


def _relative_drift(series: np.ndarray) -> float:
    # mixed measure: relative for O(1)-or-larger invariants, absolute below.
    # A pure ratio would blow up on invariants that start at zero, e.g. the
    # total Toda momentum tr(L) with centered initial momenta.
    return _drift(series) / max(abs(float(series[0])), 1.0)


def _write_trajectory(rc: RunConfig, traj: Trajectory, rows: list,
                      columns=None) -> int:
    """Write the trajectory CSV and the summary of ``rows``; the rows come
    before either file, so an overflow in them writes nothing."""
    csv_path = _artifact_path(rc)
    traj.to_csv(csv_path, columns)
    summary = _artifact_path(rc, _summary_name(rc.output_path))
    return _write_report(summary, rows, f"trajectory: {csv_path}")


# ---------------------------------------------------------------- commands

def _drawn(rc: RunConfig, key: str, tags: dict):
    """rc.params[key], with a tag replaced by the seeded fixture it names."""
    value = rc.params[key]
    if isinstance(value, str):
        return seeded_random_state(rc.seed, tags[value], rc.params["N"])
    return value


def _run_verify(rc: RunConfig) -> int:
    results = run_all(seed=rc.seed, dim=rc.params["dim"])
    path = _artifact_path(rc)
    return _write_report(path, results, f"report: {path}")


def _run_lvn(rc: RunConfig) -> int:
    h = _drawn(rc, "hamiltonian", _HAMILTONIAN_TAGS)
    rho0 = _drawn(rc, "initial_state", _DENSITY_TAGS)
    gen = -1j * h

    if rc.params["method"] == "isospectral":
        # the constant generator: every step conjugates by exp(-i h dt)
        traj = evolve(rho0, rc.integrator, hgrad=gen)
    else:
        traj = evolve(rho0, rc.integrator,
                      rhs=lambda t, r: op._commutator(gen, r))
    # the energy tr(h rho) and the Casimirs T1..T4 = tr(rho^k)/k of all
    # recorded states at once
    traj.monitors["energy"] = op._trace_pairing(h, traj.states).real
    for k in (1, 2, 3, 4):
        traj.monitors[f"T{k}"] = op._power_traces(traj.states, k)
    rows = [_check(f"{key}_relative_drift", _relative_drift(traj.monitors[key]),
                   DRIFT_TOL)
            for key in ("T1", "T2", "T3", "T4", "energy")]
    return _write_trajectory(rc, traj, rows)


def _run_toda(rc: RunConfig) -> int:
    p = rc.params
    state0 = _drawn(rc, "initial", {"random": "toda"})
    n = state0.n
    # (p, b) of the initial state's Flaschka image, where its overflow aborts
    y0 = td._flaschka_coords(state0.x, state0.p, state0.lam)
    if p["flow"] == "canonical":
        def momentum(y):
            # RK4 keeps the total momentum up to roundoff; a diverging flow
            # loses it, and aborts at the first recorded state that did
            total = float(y[n - 1:].sum())
            if abs(total) > td.MOMENTUM_TOL_LOOSE:
                raise NumericalAbort("canonical Toda flow broke an invariant: "
                                     "total momentum must vanish")
            return total

        traj = evolve(td.pack(state0), rc.integrator,
                      rhs=td.canonical_rhs(state0),
                      monitors={"momentum": momentum})
        states, columns = traj.states, td.toda_columns(n)
        coords = td._flaschka_coords(states[:, :n - 1], states[:, n - 1:],
                                     state0.lam)
    else:
        # the flow runs on y = (p, b); the CSV writes the re_ij/im_ij columns
        # of the dense complex rho of each recorded state
        traj = evolve(y0, rc.integrator, rhs=td.bidiagonal_rhs(state0.alpha))
        coords, columns = traj.states, None
        states = td._bidiagonal_matrix(coords)
    # every column is evaluated once, on the (R, 2N - 1) recorded
    # coordinates (p, b) and the real (R, N, N) stack of L = rho + a they
    # give; the stacked calls give the per-matrix bits
    hk, spectrum = td._lax_invariants(coords, state0.alpha, p["hk_max"])
    rows = [_check(f"{name}_relative_drift", _relative_drift(column), DRIFT_TOL)
            for name, column in hk.items()]
    spread = max(float(np.max(np.abs(spectrum[0]))), 1e-30)
    rows.append(_check("lax_spectrum_relative_drift",
                       _paired_drift(spectrum) / spread, DRIFT_TOL))
    return _write_trajectory(rc, Trajectory(traj.times, states, hk), rows,
                             columns)


def _run_reduce(rc: RunConfig) -> int:
    n, kind = rc.params["N"], rc.params["kind"]
    rho = _drawn(rc, "state", _DENSITY_TAGS)
    rop = _reduction_op(REDUCE_KINDS[kind], n)
    rng = _stream(rc.seed, PROBE_STREAM)
    x = _complex_normal(rng, n)
    y = _complex_normal(rng, n)
    # verify's four law rows, each distinct application of R or R* once;
    # the rows below and the artifact reuse R(rho) and R*(x)
    rows, image, dual_x = _reduction_law_checks(rop, rho, x, y)
    # the trace-norm bound is a law only for pinching and averaging;
    # triangular truncation can expand, so report its excess as data
    image_norm, norm = op.trace_norm(image), op.trace_norm(rho)
    trace_norm_excess = float(image_norm - norm)
    if not math.isfinite(trace_norm_excess):
        # the SVD under trace_norm overflows without a floating point error
        raise NumericalAbort("trace norm overflows")
    if kind != "lower":
        rows.append(_contraction_check(rop.kind, n, [(image_norm, norm)]))
        rows.append(_check("trace_preserved",
                           abs(np.trace(image) - np.trace(rho)), 1e-12))
        if _psd_fault(rho) is None:  # density-like inputs only
            rows.append(_positivity_check([image]))

    path = _artifact_path(rc)
    return _write_report(
        path, rows, f"report: {path}", kind=rop.kind,
        before=op.matrix_to_json(rho), after=op.matrix_to_json(image),
        dual_sample=op.matrix_to_json(dual_x),
        trace_norm_excess=trace_norm_excess)


def _run_orbit(rc: RunConfig) -> int:
    n = rc.params["N"]
    rng = _stream(rc.seed, PROBE_STREAM)
    if isinstance(rc.params["state"], str) and rc.params["state"] == "rank-one":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rho = orb.rank_one_state(v)
    else:
        rho = _drawn(rc, "state", _ORBIT_TAGS)

    probes = [(_complex_normal(rng, n), _complex_normal(rng, n))
              for _ in range(rc.params["samples"])]
    rows, values = _kks_checks(rho, probes)
    rank_row, char_rank, form_rank = _kks_rank_check(rho)
    samples = [{"sample": idx, "re": float(val.real), "im": float(val.imag)}
               for idx, val in enumerate(values)]
    path = _artifact_path(rc)
    return _write_report(
        path, [*rows, rank_row], f"report: {path}", dim=n,
        state=op.matrix_to_json(rho), characteristic_rank=int(char_rank),
        kks_form_rank=int(form_rank), samples=samples)


# each command: its params keys, its default output file and its runner
_COMMANDS = {
    "verify": ({"dim"}, "report.json", _run_verify),
    "lvn-run": ({"N", "hamiltonian", "initial_state"}, "lvn_trajectory.csv",
                _run_lvn),
    "toda-run": ({"N", "initial", "flow", "hk_max"}, "toda_trajectory.csv",
                 _run_toda),
    "reduce-demo": ({"N", "kind", "state"}, "reduction_report.json",
                    _run_reduce),
    "orbit-kks": ({"N", "state", "samples"}, "orbit_report.json", _run_orbit),
}
COMMANDS = tuple(_COMMANDS)


def run(rc: RunConfig) -> int:
    """Execute a config from ``load_config``; returns the process exit code.
    Explicit inputs reach the float limit and their products can leave it:
    the first overflow or NaN of any command is a numerical abort."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[rc.command][2](rc)
    except (NumericalAbort, FloatingPointError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liepoisson",
        description="Lie-Poisson brackets, reductions, orbits, and flows "
                    "on finite operator truncations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"{name} (see module docstring)")
        cmd.add_argument("--config", required=True,
                         help="path to the JSON run configuration")
        cmd.add_argument("--out", default=".",
                         help="directory for output artifacts")
    args = parser.parse_args(argv)
    try:
        rc = load_config(args.config, args.command, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(rc)


if __name__ == "__main__":
    raise SystemExit(main())
