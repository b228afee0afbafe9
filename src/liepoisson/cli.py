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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import brackets as bk
from . import operators as op
from . import orbits as orb
from . import reduction as red
from . import toda as td
from .fixtures import _complex_normal, _stream, seeded_random_state
from .integrators import (METHODS, IntegratorConfig, NumericalAbort,
                          Trajectory, _paired_drift, evolve)
from .verification import _check, _reduction_op, _write_report, run_all

__all__ = ["ConfigError", "RunConfig", "load_config", "main", "run",
           "seeded_random_state"]

COMMANDS = ("verify", "lvn-run", "toda-run", "reduce-demo", "orbit-kks")

DEFAULT_OUTPUT = {
    "verify": "report.json",
    "lvn-run": "lvn_trajectory.csv",
    "toda-run": "toda_trajectory.csv",
    "reduce-demo": "reduction_report.json",
    "orbit-kks": "orbit_report.json",
}

# reduce-demo kinds, and the reduction kind each one builds
REDUCE_KINDS = {"measurement": "measurement", "lower": "lower_triangularize",
                "group": "group_average"}

# Size limits; each keeps its command's default config to a few seconds at
# the limit (timed in-process on 2 cores with one BLAS thread).
# orbit-kks takes the SVD of N^2 x N^2 matrices, O(N^6) work
ORBIT_MAX_N = 32
# each sample costs O(N^3): 1000 take ~0.25 s at N = 4 and ~2.7 s at N = 32
ORBIT_MAX_SAMPLES = 1000
# verify takes ~1.1 s at dim 16.  The cap bounds cost only: full_bracket_leibniz
# scales its tolerance with its terms, and seed 2024 stays green up to dim 32
VERIFY_MAX_DIM = 16
# lvn-run's default 1000 RK4 steps of dense N x N products: ~2.6 s at N = 64
LVN_MAX_N = 64
# toda-run writes 2 N^2 CSV columns per recorded Lax state: ~1.1 s at N = 128
TODA_MAX_N = 128
# records x 2 N^2 values of the N x N matrix each lvn-run or toda-run record
# keeps (3.3e6 for the default toda-run at TODA_MAX_N); at the cap, stride 1:
# 160 MB and 2 s for toda-run at N >= 33, 163-191 MB and 40-45 s at N = 2,
# 235 MB and 92 s for lvn-run at N = 1
MAX_RECORDED_VALUES = 4_000_000
# reduce-demo "lower" applies R and R* five times, each a sum of N
# sandwiches of N x N products, O(N^4): ~0.25 s at N = 96 (best of 5)
REDUCE_MAX_N = 96

# spawn key of the stream of demo probe draws (see fixtures._stream)
PROBE_STREAM = 1000


class ConfigError(ValueError):
    """Raised for any malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A validated run with resolved ``params``: every key set (defaults
    applied), explicit matrices as arrays, an explicit Toda ``initial`` as a
    ``TodaState``, tags left for ``run`` to draw, and ``t_end`` in ``integrator``."""

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


def _positive_number(raw, label: str, default=None) -> float:
    if raw is None:
        _require(default is not None, f"{label} is required")
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


_PARAM_KEYS = {
    "verify": {"dim"},
    "lvn-run": {"N", "hamiltonian", "initial_state", "drift_tol"},
    "toda-run": {"N", "initial", "flow", "hk_max", "drift_tol", "t_end"},
    "reduce-demo": {"N", "kind", "state", "tol"},
    "orbit-kks": {"N", "state", "samples", "tol"},
}

_INTEGRATOR_KEYS = {"dt", "steps", "stride", "method"}


def _build_integrator(raw: Optional[dict], command: str) -> IntegratorConfig:
    raw = {} if raw is None else raw
    _only_keys(raw, _INTEGRATOR_KEYS, "integrator")
    dt = _positive_number(raw.get("dt"), "integrator.dt", 1e-3)
    steps = _uint(raw.get("steps"), "integrator.steps", 1000)
    _require(steps >= 1, "integrator.steps must be >= 1")
    stride = _uint(raw.get("stride"), "integrator.stride", max(1, steps // 100))
    _require(stride >= 1, "integrator.stride must be >= 1")
    method = _choice(raw.get("method"), "integrator.method", METHODS, "rk4")
    _require(command != "toda-run" or method == "rk4",
             "toda-run integrates with method rk4 only")
    return IntegratorConfig(dt=dt, steps=steps, stride=stride, method=method)


def load_config(path: str, command: str, out_dir: str) -> RunConfig:
    """Parse, validate and resolve a config file; raises ConfigError for
    every config fault, also one that needs the parsed data."""
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
    _only_keys(params, _PARAM_KEYS[command], f"{command} params")
    output_path = raw.get("output_path", DEFAULT_OUTPUT[command])
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
    integrator = None
    if trajectory:
        integrator = _build_integrator(raw.get("integrator"), command)
    else:
        _require("integrator" not in raw,
                 f"{command} takes no integrator block")
    params, integrator = _resolve_params(command, params, integrator)
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


def _resolve_params(command: str, p: dict, integrator):
    """The params with every default applied and every explicit input parsed
    and checked, and the integrator with a toda-run ``t_end`` folded in."""
    if command == "verify":
        dim = _uint(p.get("dim"), "dim", 4)
        _require(4 <= dim <= VERIFY_MAX_DIM and dim % 2 == 0,
                 f"dim must be an even integer in 4..{VERIFY_MAX_DIM}")
        return {"dim": dim}, integrator
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
        drift_tol = _positive_number(p.get("drift_tol"), "drift_tol", 1e-8)
        _require(isinstance(h, str)
                 or op.validate(op.ClassTag.HERMITIAN, h, tol=1e-10),
                 "hamiltonian must be Hermitian")
        return {"N": n, "hamiltonian": h,
                "initial_state": rho, "drift_tol": drift_tol}, integrator
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
        drift_tol = _positive_number(p.get("drift_tol"), "drift_tol", 1e-8)
        if "t_end" in p:
            # the span replaces the step count; the stride never exceeds it
            t_end = _positive_number(p["t_end"], "t_end")
            _require(math.isfinite(t_end / integrator.dt),
                     "t_end / integrator.dt must give a finite step count")
            steps = max(1, int(round(t_end / integrator.dt)))
            integrator = replace(integrator, steps=steps,
                                 stride=min(integrator.stride, steps))
        _require_recorded_size(integrator, n)
        return {"N": n, "initial": initial, "flow": flow, "hk_max": hk_max,
                "drift_tol": drift_tol}, integrator
    if command == "reduce-demo":
        n = _uint(p.get("N"), "N", 4)
        _require(2 <= n <= REDUCE_MAX_N, f"N must be in 2..{REDUCE_MAX_N}")
        kind = _choice(p.get("kind"), "kind", REDUCE_KINDS, "measurement")
        _require(kind != "group" or n % 2 == 0,
                 "the demo sign group needs an even N")
        state = _matrix_or_tag(p, "state", _DENSITY_TAGS, n)
        tol = _positive_number(p.get("tol"), "tol", 1e-10)
        return {"N": n, "kind": kind, "state": state, "tol": tol}, integrator
    n = _uint(p.get("N"), "N", 4)  # orbit-kks
    _require(2 <= n <= ORBIT_MAX_N, f"N must be in 2..{ORBIT_MAX_N}")
    state = _matrix_or_tag(p, "state", _ORBIT_TAGS, n)
    samples = _uint(p.get("samples"), "samples", 6)
    _require(1 <= samples <= ORBIT_MAX_SAMPLES,
             f"samples must be in 1..{ORBIT_MAX_SAMPLES}")
    tol = _positive_number(p.get("tol"), "tol", 1e-10)
    return {"N": n, "state": state, "samples": samples, "tol": tol}, integrator


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
    ref = float(series[0])
    return float(np.max(np.abs(series - ref))) / max(abs(ref), 1.0)


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

    if rc.integrator.method == "isospectral":
        # the constant generator: every step conjugates by exp(-i h dt)
        traj = evolve(rho0, rc.integrator, hgrad=gen)
    else:
        traj = evolve(rho0, rc.integrator,
                      rhs=lambda t, r: op._commutator(gen, r))
    # the energy tr(h rho) and the Casimirs T1..T4 = tr(rho^k)/k of all
    # recorded states at once
    traj.monitors["energy"] = np.real(np.trace(h @ traj.states,
                                               axis1=-2, axis2=-1))
    for k in (1, 2, 3, 4):
        traj.monitors[f"T{k}"] = op._power_traces(traj.states, k)
    # the rows come before the CSV, so an overflow in them writes nothing
    rows = [_check(f"{key}_relative_drift", _relative_drift(traj.monitors[key]),
                   rc.params["drift_tol"])
            for key in ("T1", "T2", "T3", "T4", "energy")]
    csv_path = _artifact_path(rc)
    traj.to_csv(csv_path)
    summary = _artifact_path(rc, _summary_name(rc.output_path))
    return _write_report(summary, rows, f"trajectory: {csv_path}")


def _lax_invariants(coords: np.ndarray, alpha, hk_max: int):
    """h1..h_kmax of the Lax matrix L = rho + a of each row of the
    (R, 2N - 1) coordinates (p, b), and the (R, N) stack of their spectra.

    L is real and tridiagonal, and both come from the one real (R, N, N)
    stack ``toda._lax_matrix``: h_k = tr(L^k)/k by ``_power_traces``, in the
    bits of the per-matrix formula.  Where every alpha_i b_i >= 0, L is
    similar to the real symmetric Jacobi matrix of ``toda._jacobi_matrix``
    and the spectra are its ``eigvalsh``, real and ascending; otherwise L
    can have complex eigenvalues, and they are the ``eigvals`` of the real
    L, unordered.  ``eigvals`` returns a real stack when every eigenvalue
    in it is real, and ``integrators._paired_drift`` pairs such a stack in
    ascending order, the optimal pairing of real numbers; a complex stack
    it pairs nearest neighbour to nearest neighbour.
    """
    lax = td._lax_matrix(coords, alpha)
    hk = {f"h{k}": op._power_traces(lax, k) for k in range(1, hk_max + 1)}
    if (alpha * coords[:, lax.shape[-1]:] >= 0).all():
        return hk, np.linalg.eigvalsh(td._jacobi_matrix(coords, alpha))
    return hk, np.linalg.eigvals(lax)


def _run_toda(rc: RunConfig) -> int:
    p = rc.params
    state0 = p["initial"]
    if isinstance(state0, str):
        state0 = seeded_random_state(rc.seed, "toda", p["N"])
    hk_max, tol = p["hk_max"], p["drift_tol"]
    n = state0.n
    # the validated Flaschka image of the initial state, where its overflow
    # aborts
    pair0 = td.flaschka(state0)
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
        traj = evolve(td._bidiagonal_coords(pair0.rho), rc.integrator,
                      rhs=td.bidiagonal_rhs(state0.alpha))
        coords, columns = traj.states, None
        states = td._bidiagonal_matrix(coords)
    # every column is evaluated once, on the (R, 2N - 1) recorded
    # coordinates (p, b) and the real (R, N, N) stack of L = rho + a they
    # give; the stacked calls give the per-matrix bits
    hk, spectrum = _lax_invariants(coords, state0.alpha, hk_max)
    # the rows come before the CSV, so an overflow in them writes nothing
    rows = [_check(f"{name}_relative_drift", _relative_drift(column), tol)
            for name, column in hk.items()]
    spread = max(float(np.max(np.abs(spectrum[0]))), 1e-30)
    rows.append(_check("lax_spectrum_relative_drift",
                       _paired_drift(spectrum) / spread, tol))

    csv_path = _artifact_path(rc)
    Trajectory(traj.times, states, hk).to_csv(csv_path, columns)
    summary = _artifact_path(rc, _summary_name(rc.output_path))
    return _write_report(summary, rows, f"trajectory: {csv_path}")


def _run_reduce(rc: RunConfig) -> int:
    n, kind, tol = rc.params["N"], rc.params["kind"], rc.params["tol"]
    rho = _drawn(rc, "state", _DENSITY_TAGS)
    rop = _reduction_op(REDUCE_KINDS[kind], n)

    image = red.apply(rop, rho)
    rng = _stream(rc.seed, PROBE_STREAM)
    x = _complex_normal(rng, n)
    y = _complex_normal(rng, n)
    # each distinct application once: R(rho), R*(x), R*(y), R(R(rho)) and
    # the closure's R*(R*(x) R*(y)).  The linear probes tr(x .), tr(y .)
    # have the gradients x and y everywhere, so the reduction condition's
    # lifted gradients are R*(x) and R*(y)
    dual_x = red.apply_dual(rop, x)
    dual_y = red.apply_dual(rop, y)
    again = red.apply(rop, image)

    rows = [
        _check("idempotence", float(np.max(np.abs(again - image))), 1e-12),
        _check("closure_defect", red._closure_defect(rop, dual_x, dual_y),
               1e-12),
        _check("adjointness",
               abs(op.trace_pairing(dual_x, rho)
                   - op.trace_pairing(x, image)), tol),
        _check("reduction_condition",
               bk._lifted_condition_defect(dual_x, dual_y, rho, image, again),
               tol),
    ]
    # the trace-norm bound is a law only for pinching and averaging;
    # triangular truncation can expand, so report its excess as data
    trace_norm_excess = float(op.trace_norm(image) - op.trace_norm(rho))
    if not math.isfinite(trace_norm_excess):
        # the SVD under trace_norm overflows without a floating point error
        raise NumericalAbort("trace norm overflows")
    if kind != "lower":
        contracts = red.contraction_check(rop, rho)
        rows.append(_check("trace_norm_contraction", 0.0 if contracts else 1.0, 0.0))
        rows.append(_check("trace_preserved",
                           abs(np.trace(image) - np.trace(rho)), 1e-12))
        try:
            positive = red.positivity_check(rop, rho)
            rows.append(_check("positivity_preserved",
                               0.0 if positive else 1.0, 0.0))
        except ValueError:
            pass  # positivity is only meaningful for density-like inputs

    path = _artifact_path(rc)
    return _write_report(
        path, rows, f"report: {path}", kind=rop.kind,
        before=op.matrix_to_json(rho), after=op.matrix_to_json(image),
        dual_sample=op.matrix_to_json(dual_x),
        trace_norm_excess=trace_norm_excess)


def _run_orbit(rc: RunConfig) -> int:
    n, tol = rc.params["N"], rc.params["tol"]
    rng = _stream(rc.seed, PROBE_STREAM)
    if isinstance(rc.params["state"], str) and rc.params["state"] == "rank-one":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rho = orb.rank_one_state(v)
    else:
        rho = _drawn(rc, "state", _ORBIT_TAGS)

    samples = []
    antisym = 0.0
    pairing = 0.0
    for idx in range(rc.params["samples"]):
        x = _complex_normal(rng, n)
        y = _complex_normal(rng, n)
        val = orb.kks_eval(rho, x, y)
        antisym = max(antisym, abs(val + orb.kks_eval(rho, y, x)))
        pairing = max(pairing, abs(
            val + op.trace_pairing(y, op.commutator(x, rho))))
        samples.append({"sample": idx, "re": float(val.real),
                        "im": float(val.imag)})

    char_rank = orb.characteristic_rank(rho)
    form_rank = orb.kks_form_rank(rho)
    rows = [
        _check("kks_antisymmetry", antisym, tol),
        _check("kks_pairing_identity", pairing, tol),
        _check("rank_consistency", float(abs(form_rank - char_rank)), 0.0),
    ]
    path = _artifact_path(rc)
    return _write_report(
        path, rows, f"report: {path}", dim=n, state=op.matrix_to_json(rho),
        characteristic_rank=int(char_rank), kks_form_rank=int(form_rank),
        samples=samples)


_RUNNERS = {
    "verify": _run_verify,
    "lvn-run": _run_lvn,
    "toda-run": _run_toda,
    "reduce-demo": _run_reduce,
    "orbit-kks": _run_orbit,
}


def run(rc: RunConfig) -> int:
    """Execute a config from ``load_config``; returns the process exit code.
    Explicit inputs reach the float limit and their products can leave it:
    the first overflow or NaN of any command is a numerical abort."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _RUNNERS[rc.command](rc)
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
