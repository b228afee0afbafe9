"""Time integration: fixed-step RK4 and an exactly isospectral conjugation step.

The isospectral step advances rho by similarity,

    rho' = Q rho Q^(-1),    Q = exp(dt * K(rho_mid)),

with rho_mid an explicit midpoint predictor.  Whatever the accuracy in time
(second order), the spectrum of rho is preserved to roundoff at every step,
because conjugation cannot move eigenvalues.  RK4 conserves spectra only to
O(dt^4) per unit time; the contrast between the two is itself a test target.
For a generator K that does not depend on rho, as for the linear
Hamiltonian tr(h rho) with K = -i h, the flow is the coadjoint action
rho -> e^(tK) rho e^(-tK), and every step is the conjugation by the one
propagator Q = exp(dt K); ``evolve`` takes such a K as a matrix and builds
Q once per run.

``evolve`` records every ``stride``-th state plus the final one, checks each
step for non-finite entries (raising ``NumericalAbort``), and evaluates any
requested scalar monitors along the way.  Each record goes into its row of
arrays sized ``IntegratorConfig.records`` before the first step, so a run
holds its recorded values and nothing per record beside them.  It validates
the initial state (and a constant generator) once; from there that
per-step check is the only guard, on every route, and the right-hand sides
and generators it drives may run on trusted kernels.
``Trajectory.to_csv`` alone flattens the recorded states into columns and
writes 17 significant digits, enough to round-trip a double exactly, one
block of rows at a time.  ``spectral_drift`` pairs the eigenvalues of each
state with those of the first by ``_paired_drift``, which never reports
less drift than the best pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from .brackets import (FULL, BracketSpec, MatrixLinearMap, Observable,
                       _partial_field, _pullback, _state)
from .operators import _commutator, _conjugate, as_matrix, expm

__all__ = [
    "IntegratorConfig",
    "NumericalAbort",
    "Trajectory",
    "collective_defect",
    "evolve",
    "isospectral_step",
    "noether_drift",
    "rk4_step",
    "spectral_drift",
]

METHODS = ("rk4", "isospectral")

# values of the CSV table that ``Trajectory.to_csv`` builds at a time (128 KB)
CSV_BLOCK_VALUES = 1 << 14


class NumericalAbort(RuntimeError):
    """The flow produced non-finite values; the run cannot continue."""


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    steps: int
    stride: int = 1
    method: str = "rk4"

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")

    @property
    def records(self) -> int:
        """States ``evolve`` records: step 0, every stride-th and the last."""
        return self.steps // self.stride + 1 + (self.steps % self.stride != 0)


def rk4_step(rhs: Callable, t: float, y, dt: float):
    """One classical fourth-order Runge-Kutta step for y' = rhs(t, y)."""
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def isospectral_step(hgrad: Callable, rho, dt: float):
    """One conjugation step rho -> Q rho Q^(-1), Q = exp(dt K(rho_mid)).

    ``hgrad`` maps a state to the commutator generator K with rho' = [K, rho].
    The midpoint state is predicted by an explicit Euler half step, making the
    scheme second order in dt while keeping the spectrum exactly.  Validates
    rho; the generators ``hgrad`` returns are trusted.
    """
    rho = as_matrix(rho)
    rho_mid = rho + (0.5 * dt) * _commutator(hgrad(rho), rho)
    return _conjugate(expm(dt * hgrad(rho_mid)), rho)


@dataclass(eq=False)
class Trajectory:
    """Recorded flow: times, the (R, ...) stack of states, scalar monitors."""

    times: np.ndarray
    states: np.ndarray
    monitors: Dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    def to_csv(self, path, columns: Optional[List[str]] = None) -> None:
        """Write t,<state columns>,<monitors> rows at 17 significant digits:
        re_ij, im_ij for matrix states, else y0, y1, ... or ``columns``.

        The table is built and written ``CSV_BLOCK_VALUES`` values at a
        time, so the write holds one block beside the recorded values.
        ``columns`` must name every state column; otherwise ValueError, and
        nothing is written."""
        rows, matrix = len(self.times), self.states.ndim == 3
        if matrix:
            n = self.states.shape[1]
            names = [f"{part}_{i}{j}" for i in range(n) for j in range(n)
                     for part in ("re", "im")]
        else:
            names = [f"y{k}" for k in range(math.prod(self.states.shape[1:]))]
        if columns is not None:
            if len(columns) != len(names):
                raise ValueError(f"{len(columns)} column names for "
                                 f"{len(names)} state columns")
            names = list(columns)
        header = ["t", *names, *self.monitors]
        width = 1 + len(names) + len(self.monitors)
        fmt = ",".join(["%.17g"] * width) + "\n"
        block = max(1, CSV_BLOCK_VALUES // width)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for start in range(0, rows, block):
                part = slice(start, start + block)
                states = self.states[part]
                if matrix:
                    # complex entries read as (re, im) float pairs
                    values = np.asarray(states, complex).reshape(
                        len(states), -1).view(float)
                else:
                    values = np.asarray(states, dtype=float).reshape(
                        len(states), -1)
                table = np.column_stack(
                    [self.times[part], values,
                     *(m[part] for m in self.monitors.values())])
                for row in table:
                    fh.write(fmt % tuple(row.tolist()))


def evolve(y0, cfg: IntegratorConfig, rhs: Optional[Callable] = None,
           hgrad: Optional[Union[Callable, np.ndarray]] = None,
           monitors: Optional[Dict[str, Callable]] = None) -> Trajectory:
    """Integrate from y0 and record every cfg.stride-th state plus the last.

    method "rk4" needs ``rhs(t, y)``; "isospectral" needs the commutator
    generator and a matrix state: either ``hgrad(rho)``, or one matrix K
    for a generator that does not depend on the state.  A constant K makes
    every step the same conjugation by Q = exp(dt K), the coadjoint action
    of one propagator, so Q is built once; the states are those of
    ``isospectral_step`` with ``lambda rho: K``, bit for bit.  ``monitors``
    maps names to scalar functions of the state, evaluated at recorded
    times.  A non-finite y0 raises ValueError; non-finite values later in
    the run abort it with ``NumericalAbort``, after every step on either
    route, and so do a non-finite or singular propagator Q.
    """
    if cfg.method == "rk4":
        if rhs is None:
            raise ValueError("rk4 integration needs rhs(t, y)")
    elif hgrad is None:
        raise ValueError("isospectral integration needs hgrad(rho)")

    y = np.array(y0)
    if not np.isfinite(y).all():
        raise ValueError("initial state must have finite entries")
    monitors = monitors or {}

    dt = cfg.dt
    if cfg.method == "rk4":
        def step(k, y):
            # the module's rk4_step, looked up at every step
            return rk4_step(rhs, (k - 1) * dt, y, dt)
    elif callable(hgrad):
        def step(k, y):
            return isospectral_step(hgrad, y, dt)
    else:
        gen = as_matrix(hgrad)
        if as_matrix(y).shape != gen.shape:
            raise ValueError("the generator and the state must have one shape")
        with np.errstate(over="ignore", invalid="ignore"):
            q = expm(dt * gen)
        if not np.isfinite(q).all():  # so is the state after step 1
            raise NumericalAbort("non-finite state after step 1")

        def step(k, y):
            try:
                return _conjugate(q, y)
            except np.linalg.LinAlgError as exc:  # Q underflowed to singular
                raise NumericalAbort("the propagator exp(dt K) is singular") from exc

    times = np.empty(cfg.records)
    states = np.empty((cfg.records, *y.shape), dtype=y.dtype)
    values = {name: np.empty(cfg.records) for name in monitors}

    def record(row, k, state):
        nonlocal states
        if not np.can_cast(state.dtype, states.dtype):
            # a real y0 whose flow turns complex records complex states
            states = states.astype(np.result_type(states, state))
        times[row] = k * dt
        states[row] = state
        for name, fn in monitors.items():
            values[name][row] = float(np.real(fn(state)))

    record(0, 0, y)
    # a diverging flow overflows inside a step; the check below reports it,
    # so numpy's own overflow and invalid-value warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.steps + 1):
            y = step(k, y)
            if not np.isfinite(y).all():
                raise NumericalAbort(f"non-finite state after step {k}")
            if k % cfg.stride == 0 or k == cfg.steps:
                record(-(-k // cfg.stride), k, y)  # the last row if off the grid

    return Trajectory(times=times, states=states, monitors=values)


def _drift(series: np.ndarray) -> float:
    """max_t |m(t) - m(0)| of a recorded series m."""
    return float(np.max(np.abs(series - series[0])))


def noether_drift(obs: Observable, traj: Trajectory) -> float:
    """max_t |obs(state_t) - obs(state_0)| over the recorded states."""
    return _drift(np.array([complex(obs(s)) for s in traj.states]))


def _paired_drift(ev: np.ndarray) -> float:
    """max_t max_k |lambda_k(t) - lambda_s(k)(0)| of an (R, N) stack of
    spectra, each row t paired with row 0 by a bijection s.

    Real spectra pair in ascending order, the optimal pairing of real
    numbers.  A complex row pairs each eigenvalue with its nearest one at
    t = 0 where that map is a bijection; its drift is then the least that
    any pairing can give, as no eigenvalue is closer to another of row 0.
    Otherwise the row falls back to pairing in (real, imag) order, which
    can only overstate the drift, never report less than the best pairing.
    """
    if not np.iscomplexobj(ev):
        ev = np.sort(ev, axis=-1)
        return float(np.max(np.abs(ev - ev[0]), initial=0.0))
    dist = np.abs(ev[:, :, None] - ev[0])
    nearest = dist.argmin(axis=-1)
    bijective = (np.sort(nearest, axis=-1) == np.arange(ev.shape[-1])).all(axis=-1)
    ordered = np.take_along_axis(ev, np.lexsort((ev.imag, ev.real), axis=-1),
                                 axis=-1)
    drift = np.where(bijective, dist.min(axis=-1).max(axis=-1),
                     np.abs(ordered - ordered[0]).max(axis=-1))
    return float(np.max(drift, initial=0.0))


def spectral_drift(traj: Trajectory) -> float:
    """max_t max_k |lambda_k(state_t) - lambda_k(state_0)| over the recorded
    states, with the eigenvalues of each state paired by ``_paired_drift``:
    nearest neighbours where they pair one to one, else (real, imag) order.
    """
    states = np.asarray(traj.states, dtype=complex)
    if (states.ndim != 3 or not 0 < states.shape[1] == states.shape[2]
            or not np.isfinite(states).all()):
        raise ValueError("states must be a stack of finite square matrices")
    return _paired_drift(np.linalg.eigvals(states))


def collective_defect(jmap: MatrixLinearMap, h_down: Observable,
                      down_spec: BracketSpec, rho0, cfg: IntegratorConfig) -> float:
    """How far J fails to carry the lifted flow onto the reduced flow.

    Upstairs, the composite h_down o J generates a full-bracket flow from
    rho0 via the chain-rule gradient J*(Dh(J rho)).  Downstairs, h_down
    generates its own flow from J(rho0) under ``down_spec``.  The defect is
    the worst max-abs difference between J(upstairs state) and the downstairs
    state over the recorded times.  An RK4 step is a fixed linear
    combination of field values, so a linear J with J F_up = F_down J
    commutes with every step: the defect is then roundoff at any dt, not
    integration error.  A J that breaks intertwining gives a defect set by
    the horizon, nearly the same at any fine enough dt.

    Both initial states are validated here, rho0 for the full bracket and
    J(rho0) for ``down_spec``; the flows then step on the trusted fields,
    which keep a state in its spec's space, and ``evolve`` checks each
    step's state for non-finite entries.
    """
    if down_spec.kind == "product":
        raise ValueError("collective_defect integrates matrix states, not pairs")
    rho0 = _state(FULL, rho0)
    down0 = _state(down_spec, jmap.apply(rho0))

    h_up = _pullback(h_down, jmap)
    up = evolve(rho0, cfg,
                rhs=lambda t, y: _partial_field(FULL, h_up.grad(y), y))
    down = evolve(down0, cfg,
                  rhs=lambda t, y: _partial_field(down_spec, h_down.grad(y), y))

    worst = 0.0
    for s_up, s_down in zip(up.states, down.states):
        worst = max(worst, float(np.max(np.abs(jmap.apply(s_up) - s_down))))
    return worst
