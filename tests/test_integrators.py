"""Time integration: RK4, isospectral conjugation, recording, drift monitors."""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from liepoisson import brackets as br
from liepoisson import integrators as it
from liepoisson import operators as op
from liepoisson import orbits as orb
from liepoisson.fixtures import seeded_random_state


def test_rk4_scalar_exponential_step():
    # y' = y, y0 = 1, dt = 0.1: hand value 265241/240000
    y1 = it.rk4_step(lambda t, y: y, 0.0, 1.0, 0.1)
    assert abs(y1 - 265241.0 / 240000.0) < 1e-15


def test_rk4_is_fourth_order_on_the_oscillator():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    y0 = np.array([1.0, 0.0])
    horizon = 1.0

    def end_error(steps):
        y = y0
        dt = horizon / steps
        for k in range(steps):
            y = it.rk4_step(rhs, k * dt, y, dt)
        exact = np.array([np.cos(horizon), -np.sin(horizon)])
        return float(np.max(np.abs(y - exact)))

    ratio = end_error(16) / end_error(32)
    assert 16.0 * 0.8 < ratio < 16.0 * 1.2


_M = seeded_random_state(190, "general", 4)
_Y = seeded_random_state(191, "general", 4)[:, :3]


def test_rk4_step_writes_into_no_array_it_was_given_or_returned():
    seen = []

    def identity(t, y):
        # every stage state, and each k it returns, is the array it was given
        seen.append((y, y.copy()))
        return y

    y0 = _Y.copy()
    out = it.rk4_step(identity, 0.0, y0, 0.1)
    assert len(seen) == 4 and seen[0][0] is y0
    for given, snapshot in seen:
        assert given.tobytes() == snapshot.tobytes()
        assert out is not given

    shared = _M[:, :3].copy()
    out = it.rk4_step(lambda t, y: shared, 0.0, y0, 0.1)
    assert shared.tobytes() == _M[:, :3].tobytes()
    assert y0.tobytes() == _Y.tobytes()
    assert out is not shared and out is not y0


def test_evolve_calls_the_module_rk4_step_once_per_step(monkeypatch):
    # looked up at every step, so a rebound rk4_step sees each one
    times = []
    step = it.rk4_step
    monkeypatch.setattr(it, "rk4_step",
                        lambda rhs, t, y, dt: times.append(t) or step(rhs, t, y, dt))
    cfg = it.IntegratorConfig(dt=0.1, steps=13, stride=4)
    it.evolve(np.array([1.0, 0.5]), cfg, rhs=lambda t, y: -y)
    assert times == [(k - 1) * 0.1 for k in range(1, 14)]


def test_isospectral_step_keeps_spectrum_exactly():
    rho = seeded_random_state(160, "hermitian", 5)
    h0 = seeded_random_state(161, "hermitian", 5)
    out = it.isospectral_step(lambda r: -1j * h0, rho, 0.05)
    before = np.sort(np.linalg.eigvalsh(rho))
    after = np.sort(np.linalg.eigvalsh(out))
    assert np.max(np.abs(before - after)) < 1e-13


def test_conjugations_give_the_bits_of_the_solve_formula():
    # g rho g^(-1) as the solve g^T X^T = (g rho)^T, written out
    def conjugate(g, rho):
        return np.linalg.solve(g.T, (g @ rho).T).T

    rho = seeded_random_state(169, "general", 5)
    g = op.expm(0.3 * seeded_random_state(170, "general", 5))
    assert orb.coadjoint_act(g, rho).tobytes() == conjugate(g, rho).tobytes()

    def hgrad(r):
        return -1j * op.hermitian_part(r)

    mid = rho + 0.025 * op.commutator(hgrad(rho), rho)
    want = conjugate(op.expm(0.05 * hgrad(mid)), rho)
    assert it.isospectral_step(hgrad, rho, 0.05).tobytes() == want.tobytes()


def test_isospectral_step_is_exact_for_constant_generators():
    # constant K: the scheme reproduces e^(tK) rho e^(-tK) with no time error
    rho = seeded_random_state(162, "hermitian", 4)
    h0 = seeded_random_state(163, "hermitian", 4)
    k = -1j * h0
    t = 0.4
    exact = scipy.linalg.expm(t * k) @ rho @ scipy.linalg.expm(-t * k)

    def end_state(steps):
        out = rho
        for _ in range(steps):
            out = it.isospectral_step(lambda r: k, out, t / steps)
        return out

    assert np.max(np.abs(end_state(4) - exact)) < 1e-12
    assert np.max(np.abs(end_state(16) - exact)) < 1e-12


@pytest.mark.parametrize("kind", ["psd", "real"])
def test_constant_generator_evolve_gives_the_bits_of_the_callable(monkeypatch,
                                                                  kind):
    # one matrix K: Q = exp(dt K) is built once, and every step is the
    # conjugation isospectral_step makes with lambda rho: K
    k = -1j * seeded_random_state(164, "hermitian", 5)
    rho = (seeded_random_state(165, "psd", 5) if kind == "psd"
           else np.diag([1.0, 2.0, 4.0, -1.0, 0.5]))
    cfg = it.IntegratorConfig(dt=0.01, steps=60, stride=7)
    monitors = {"T2": lambda r: np.trace(r @ r).real}
    want = it.evolve(rho, cfg, hgrad=lambda r: k, monitors=monitors)

    calls = []
    expm = it.expm
    monkeypatch.setattr(it, "expm", lambda a: calls.append(1) or expm(a))
    monkeypatch.setattr(it, "isospectral_step", None)
    got = it.evolve(rho, cfg, hgrad=k, monitors=monitors)
    assert len(calls) == 1
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.dtype == want.states.dtype == complex
    assert got.states.tobytes() == want.states.tobytes()
    assert got.monitors["T2"].tobytes() == want.monitors["T2"].tobytes()


def test_constant_generator_evolve_validates_and_aborts():
    cfg = it.IntegratorConfig(dt=0.5, steps=3)
    rho = seeded_random_state(166, "psd", 3)
    with pytest.raises(ValueError, match="one shape"):
        it.evolve(rho, cfg, hgrad=np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="finite"):
        it.evolve(rho, cfg, hgrad=np.full((3, 3), np.nan))
    # exp(dt K) past the float limit: the first step's state is not finite
    with pytest.raises(it.NumericalAbort, match="after step 1"):
        it.evolve(rho, cfg, hgrad=np.diag([3000.0, 0.0, -3000.0]))
    # the same where 4^s or the 1-norm of dt K overflows
    for k in (np.diag([1e308, 0.0, -1e308]), np.full((3, 3), 1.7e308)):
        with pytest.raises(it.NumericalAbort, match="after step 1"):
            it.evolve(rho, cfg, hgrad=k)
    # exp(dt K) of K = -i diag(1e147, -1e147) underflows to a finite
    # singular matrix that no solve can conjugate by
    ones = np.ones((2, 2), dtype=complex)
    with pytest.raises(it.NumericalAbort, match="singular"):
        it.evolve(1e150 * ones, it.IntegratorConfig(dt=1e-3, steps=3),
                  hgrad=np.diag([-1e150j, 1e150j]))


def test_isospectral_step_is_second_order_for_state_dependent_generators():
    # mean-field coupling: K depends on the state, exposing the O(dt^2) error
    a = seeded_random_state(180, "hermitian", 4)
    c = seeded_random_state(181, "hermitian", 4)
    rho = seeded_random_state(182, "psd", 4)
    t = 0.4

    def gen(r):
        return -1j * (a + float(np.trace(c @ r).real) * c)

    def rk4_reference():
        y = rho
        steps = 2048
        for k in range(steps):
            y = it.rk4_step(lambda tt, yy: op.commutator(gen(yy), yy),
                            k * t / steps, y, t / steps)
        return y

    def end_state(steps):
        out = rho
        for _ in range(steps):
            out = it.isospectral_step(gen, out, t / steps)
        return out

    ref = rk4_reference()
    e1 = np.max(np.abs(end_state(16) - ref))
    e2 = np.max(np.abs(end_state(32) - ref))
    assert 4.0 * 0.7 < e1 / e2 < 4.0 * 1.3


def test_config_validation():
    with pytest.raises(ValueError):
        it.IntegratorConfig(dt=0.0, steps=10)
    with pytest.raises(ValueError):
        it.IntegratorConfig(dt=0.1, steps=0)
    with pytest.raises(ValueError):
        it.IntegratorConfig(dt=0.1, steps=10, stride=0)
    # the grid is all a config holds: the field evolve is given names the step
    assert [f.name for f in dataclasses.fields(it.IntegratorConfig)] == [
        "dt", "steps", "stride"]


def test_evolve_takes_exactly_one_field():
    cfg = it.IntegratorConfig(dt=0.1, steps=2)
    rho = np.eye(2, dtype=complex)
    with pytest.raises(ValueError, match="exactly one"):
        it.evolve(rho, cfg)
    # a second field is refused, not dropped
    for hgrad in (lambda r: -1j * r, np.zeros((2, 2), dtype=complex)):
        with pytest.raises(ValueError, match="exactly one"):
            it.evolve(rho, cfg, rhs=lambda t, y: 0.0 * y, hgrad=hgrad)


def test_evolve_recording_semantics(tmp_path):
    cfg = it.IntegratorConfig(dt=0.5, steps=5, stride=2)
    traj = it.evolve(np.array([1.0]), cfg, rhs=lambda t, y: 0.0 * y,
                     monitors={"one": lambda y: 1.0})
    # records t=0, every second step, and the final step
    assert np.allclose(traj.times, [0.0, 1.0, 2.0, 2.5])
    assert len(traj) == 4
    traj.to_csv(tmp_path / "flow.csv")
    assert (tmp_path / "flow.csv").read_text().split("\n", 1)[0] == "t,y0,one"
    assert np.allclose(traj.monitors["one"], 1.0)


def _list_route(y0, cfg, rhs=None, hgrad=None, monitors=None):
    """The recording evolve replaced, one list entry per record stacked at
    the end: the oracle for the preallocated stack."""
    monitors = monitors or {}
    y = np.array(y0)
    times, states = [0.0], [y]
    values = {name: [float(np.real(fn(y)))] for name, fn in monitors.items()}
    for k in range(1, cfg.steps + 1):
        if rhs is not None:
            y = it.rk4_step(rhs, (k - 1) * cfg.dt, y, cfg.dt)
        else:
            y = it.isospectral_step(hgrad, y, cfg.dt)
        if k % cfg.stride == 0 or k == cfg.steps:
            times.append(k * cfg.dt)
            states.append(y)
            for name, fn in monitors.items():
                values[name].append(float(np.real(fn(y))))
    return (np.array(times), np.array(states),
            {name: np.array(v) for name, v in values.items()})


def _assert_matches_list_route(traj, expected):
    times, states, monitors = expected
    assert len(traj) == len(times)
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.dtype == states.dtype
    assert traj.states.tobytes() == states.tobytes()
    assert list(traj.monitors) == list(monitors)
    for name, values in monitors.items():
        assert traj.monitors[name].tobytes() == values.tobytes()


@pytest.mark.parametrize("steps, stride", [(5, 9), (6, 6), (7, 3), (10, 5),
                                           (1, 1), (1, 4), (13, 1)])
def test_evolve_records_match_the_list_route(steps, stride):
    cfg = it.IntegratorConfig(dt=0.1, steps=steps, stride=stride)
    monitors = {"sum": lambda y: np.sum(y), "first": lambda y: y[0]}

    def rhs(t, y):
        return np.array([y[1], -y[0] + 0.1 * t])

    traj = it.evolve(np.array([1.0, 0.5]), cfg, rhs=rhs, monitors=monitors)
    _assert_matches_list_route(traj, _list_route(np.array([1.0, 0.5]), cfg,
                                                 rhs=rhs, monitors=monitors))
    assert len(traj) == cfg.records


def test_evolve_records_a_real_state_turned_complex_as_complex():
    # the first state is real; the rhs makes every later one complex
    cfg = it.IntegratorConfig(dt=0.1, steps=7, stride=2)

    def rhs(t, y):
        return 1j * y

    y0 = np.array([1.0, -2.0, 0.25])
    traj = it.evolve(y0, cfg, rhs=rhs, monitors={"im": lambda y: y[0].imag})
    assert traj.states.dtype == complex
    assert np.all(traj.states[1:].imag != 0.0)
    assert traj.monitors["im"][-1] != 0.0
    _assert_matches_list_route(traj, _list_route(
        y0, cfg, rhs=rhs, monitors={"im": lambda y: y[0].imag}))


def test_isospectral_evolve_of_a_real_matrix_records_complex_states():
    h0 = seeded_random_state(167, "hermitian", 3)
    rho = np.diag([1.0, 2.0, 4.0])  # real dtype; every step returns complex
    cfg = it.IntegratorConfig(dt=0.05, steps=9, stride=4)

    def hgrad(r):
        return -1j * h0

    traj = it.evolve(rho, cfg, hgrad=hgrad)
    assert traj.states.dtype == complex
    assert np.abs(traj.states[-1].imag).max() > 1e-3
    _assert_matches_list_route(traj, _list_route(rho, cfg, hgrad=hgrad))


def test_evolve_memory_is_bounded_by_the_recorded_values():
    # a 1-element state and one monitor: 24 B of values per record (the
    # state, its time and the monitor value), and nothing per record beside
    cfg = it.IntegratorConfig(dt=1e-6, steps=5000, stride=1)
    y0 = np.array([1.0])
    tracemalloc.start()
    try:
        traj = it.evolve(y0, cfg, rhs=lambda t, y: -y,
                         monitors={"y": lambda y: y[0]})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj) == cfg.records == 5001
    assert peak / cfg.records < 2 * 24


def test_evolve_aborts_on_blowup():
    cfg = it.IntegratorConfig(dt=0.05, steps=200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(it.NumericalAbort):
            it.evolve(np.array([1.0]), cfg, rhs=lambda t, y: y * y)


def test_matrix_flatten_column_names_and_csv_roundtrip(tmp_path):
    rho = seeded_random_state(164, "general", 2)
    cfg = it.IntegratorConfig(dt=0.1, steps=3, stride=1)
    traj = it.evolve(rho, cfg, rhs=lambda t, y: np.zeros_like(y),
                     monitors={"tr_re": lambda y: float(np.trace(y).real)})
    columns = ["re_00", "im_00", "re_01", "im_01",
               "re_10", "im_10", "re_11", "im_11"]
    path = tmp_path / "flow.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",")[1:5] == ["re_00", "im_00", "re_01", "im_01"]
    assert lines[0] == "t," + ",".join(columns) + ",tr_re"
    assert len(lines) == 1 + len(traj)
    # 17 significant digits survive a float round trip bit for bit
    cells = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert cells[1, 1] == rho[0, 0].real
    assert cells[1, 2] == rho[0, 0].imag


def test_to_csv_refuses_column_names_that_miss_the_state_width(tmp_path):
    traj = it.Trajectory(times=np.array([0.0, 1.0]),
                         states=np.arange(6.0).reshape(2, 3),
                         monitors={"m": np.array([0.5, 1.5])})
    for columns in (["a", "b"], ["a", "b", "c", "d"], []):
        with pytest.raises(ValueError, match="state columns"):
            traj.to_csv(tmp_path / "bad.csv", columns)
        assert not (tmp_path / "bad.csv").exists()
    traj.to_csv(tmp_path / "good.csv", ["a", "b", "c"])
    assert (tmp_path / "good.csv").read_text().splitlines() == [
        "t,a,b,c,m", "0,0,1,2,0.5", "1,3,4,5,1.5"]


def test_real_matrix_states_write_re_and_im_columns(tmp_path):
    states = np.arange(8.0).reshape(2, 2, 2)
    traj = it.Trajectory(times=np.array([0.0, 1.0]), states=states)
    traj.to_csv(tmp_path / "real.csv")
    lines = (tmp_path / "real.csv").read_text().splitlines()
    assert lines == ["t,re_00,im_00,re_01,im_01,re_10,im_10,re_11,im_11",
                     "0,0,0,1,0,2,0,3,0", "1,4,0,5,0,6,0,7,0"]


def _per_cell_csv(traj):
    """The writer to_csv replaced, one f-string per cell: the oracle."""
    columns = [f"y{k}" for k in range(traj.states.shape[1])]
    header = ["t", *columns, *traj.monitors.keys()]
    mon = [np.asarray(traj.monitors[k], dtype=float) for k in traj.monitors]
    lines = [",".join(header) + "\n"]
    for idx, t in enumerate(traj.times):
        cells = [t, *traj.states[idx]]
        cells.extend(m[idx] for m in mon)
        lines.append(",".join(f"{c:.17g}" for c in cells) + "\n")
    return "".join(lines)


# signed zeros, subnormals, the ends of the range, integer-valued floats
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
               -1e308, 1.7976931348623157e308, 1e-300, 3.0, -17.0, 1e15,
               1e16, 2.0 ** 53, 2.0 ** 53 + 2, 0.1, 1 / 3, -2.5e-7]


@pytest.mark.parametrize("width, monitors", [(4, 3), (4, 0), (0, 2), (0, 0)])
def test_to_csv_matches_the_per_cell_formatter(tmp_path, width, monitors):
    rng = np.random.default_rng(width * 10 + monitors)
    rows, cols = 3 * len(EDGE_VALUES), 1 + width + monitors
    table = (rng.standard_normal((rows, cols))
             * 10.0 ** rng.integers(-300, 300, size=(rows, cols)))
    table[:len(EDGE_VALUES)] = np.array(EDGE_VALUES)[:, None]
    table[len(EDGE_VALUES):2 * len(EDGE_VALUES)] = np.array(EDGE_VALUES[::-1])[:, None]
    traj = it.Trajectory(
        times=table[:, 0], states=table[:, 1:1 + width],
        monitors={f"m{k}": table[:, 1 + width + k] for k in range(monitors)})
    path = tmp_path / "table.csv"
    traj.to_csv(path)
    assert path.read_bytes() == _per_cell_csv(traj).encode()


def test_noether_drift_on_conserved_quantity():
    h0 = seeded_random_state(165, "hermitian", 4)
    rho = seeded_random_state(166, "psd", 4)
    energy = br.Observable.linear_form(h0)
    cfg = it.IntegratorConfig(dt=0.01, steps=100, stride=10)
    traj = it.evolve(rho, cfg, hgrad=lambda r: -1j * h0)
    assert it.noether_drift(energy, traj) < 1e-12


@pytest.mark.parametrize("block", [1, 7, 40, 1 << 14])
def test_to_csv_writes_the_same_bytes_in_any_block_size(tmp_path, monkeypatch,
                                                        block):
    # a vector and a complex matrix stack, both with monitors, whose rows
    # split into blocks of 1, 1, 2 and all rows respectively
    rng = np.random.default_rng(170)
    rows = 23
    times = np.arange(rows) * 0.1
    monitors = {"m": rng.standard_normal(rows), "k": rng.standard_normal(rows)}
    vectors = it.Trajectory(times, rng.standard_normal((rows, 5)), monitors)
    matrices = it.Trajectory(times, rng.standard_normal((rows, 2, 2))
                             + 1j * rng.standard_normal((rows, 2, 2)), monitors)
    for name, traj in (("vectors", vectors), ("matrices", matrices)):
        monkeypatch.setattr(it, "CSV_BLOCK_VALUES", 1 << 30)
        traj.to_csv(tmp_path / f"{name}_whole.csv")
        monkeypatch.setattr(it, "CSV_BLOCK_VALUES", block)
        traj.to_csv(tmp_path / f"{name}_blocks.csv")
        whole = (tmp_path / f"{name}_whole.csv").read_bytes()
        assert (tmp_path / f"{name}_blocks.csv").read_bytes() == whole
        assert whole.count(b"\n") == 1 + rows
    assert (tmp_path / "vectors_whole.csv").read_bytes() == _per_cell_csv(
        vectors).encode()


def _to_csv_peak(tmp_path, rows):
    traj = it.Trajectory(np.arange(rows) * 1e-3, np.ones((rows, 3)),
                         {"m": np.zeros(rows)})
    tracemalloc.start()
    try:
        traj.to_csv(tmp_path / f"peak{rows}.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_to_csv_memory_is_flat_in_the_number_of_rows(tmp_path):
    # the whole table of 5 columns would be 400 KB and 4 MB; a block of
    # CSV_BLOCK_VALUES is 128 KB at either size
    small, large = (_to_csv_peak(tmp_path, rows) for rows in (10_000, 100_000))
    assert large < 3 * it.CSV_BLOCK_VALUES * 8
    assert large < small + 64 * 1024


def test_spectral_drift_detects_motion():
    n = 3
    states = [np.diag([1.0, 2.0, 3.0]).astype(complex),
              np.diag([1.0, 2.0, 3.0 + 1e-3]).astype(complex)]
    traj = it.Trajectory(times=np.array([0.0, 1.0]), states=np.array(states))
    assert abs(it.spectral_drift(traj) - 1e-3) < 1e-12
    still = it.Trajectory(times=np.array([0.0, 1.0]),
                          states=np.array([states[0]] * 2))
    assert it.spectral_drift(still) == 0.0


def test_evolve_and_spectral_drift_reject_bad_input():
    cfg = it.IntegratorConfig(dt=0.1, steps=2)
    with pytest.raises(ValueError, match="finite"):
        it.evolve(np.array([1.0, np.nan]), cfg, rhs=lambda t, y: y)
    times = np.array([0.0, 1.0])
    for states in (np.zeros((2, 2, 3)), np.full((2, 2, 2), np.inf)):
        with pytest.raises(ValueError, match="finite square"):
            it.spectral_drift(it.Trajectory(times, states))


def test_paired_drift_pairs_a_conjugate_pair_by_nearest_neighbours():
    # the two-site Lax spectrum +-0.1995i with real parts of roundoff whose
    # signs flip between the records: ordering by real part swaps the pair
    omega, moved = 0.19946696059213, 5.8e-10
    ev = np.array([[-1e-17 + 1j * omega, 1e-17 - 1j * omega],
                   [-1e-17 - 1j * (omega + moved), 1e-17 + 1j * (omega + moved)]])
    swapped = np.sort_complex(ev)
    assert float(np.max(np.abs(swapped - swapped[0]))) > 0.39
    want = max(np.abs(ev[1, 0] - ev[0, 1]), np.abs(ev[1, 1] - ev[0, 0]))
    assert it._paired_drift(ev) == want
    assert abs(want - moved) < 1e-16
    traj = it.Trajectory(np.array([0.0, 1.0]), np.array(
        [np.diag(row) for row in ev]))
    assert it.spectral_drift(traj) == want


def _optimal_drift(ev):
    """The least max |lambda_k(t) - lambda_s(k)(0)| over all bijections s."""
    dist = np.abs(ev[:, :, None] - ev[0])
    k = np.arange(ev.shape[1])
    return float(np.max([min(row[k, list(s)].max()
                             for s in itertools.permutations(k))
                         for row in dist]))


def test_paired_drift_never_reports_less_than_the_best_pairing():
    rng = np.random.default_rng(171)
    exact = 0
    for case in range(300):
        n = 1 + case % 4
        ev0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ev = ev0 + (10.0 ** rng.uniform(-3, 0.5)) * (
            rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n)))
        ev[0] = ev0
        ev = ev[:, rng.permutation(n)]
        best = _optimal_drift(ev)
        got = it._paired_drift(ev)
        assert got >= best
        nearest = np.abs(ev[:, :, None] - ev[0]).argmin(axis=-1)
        if all(len(set(row)) == n for row in nearest):
            assert got == best
            exact += 1
    assert 50 < exact < 300  # both branches ran


def test_paired_drift_falls_back_to_the_sorted_pairing():
    # both eigenvalues are nearest to 0: the (real, imag) order pairs them
    ev = np.array([[0.0, 1.0], [0.45, 0.4]], dtype=complex)
    assert it._paired_drift(ev) == 0.55
    # real spectra pair in ascending order
    assert it._paired_drift(np.array([[0.0, 1.0], [1.25, 0.5]])) == 0.5


def test_collective_defect_for_corner_restriction():
    # corner-block restriction intertwines the two flows; the composite
    # Hamiltonian upstairs drives exactly the reduced flow downstairs
    small, big = 3, 5

    def restrict(m):
        return np.array(np.asarray(m, dtype=complex)[:small, :small])

    def embed(m):
        return np.pad(np.asarray(m, dtype=complex),
                      ((0, big - small), (0, big - small)))

    jmap = br.MatrixLinearMap(restrict, embed)
    a_down = seeded_random_state(167, "hermitian", small)
    h_down = br.Observable.linear_form(a_down)
    rho0 = seeded_random_state(168, "psd", big)
    cfg = it.IntegratorConfig(dt=0.005, steps=100, stride=20)
    defect = it.collective_defect(jmap, h_down, br.FULL, rho0, cfg)
    assert defect <= 1e-14  # roundoff: J commutes with every RK4 step


def _corner_map(small, big):
    def embed(m):
        full = np.zeros((big, big), dtype=complex)
        full[:small, :small] = m
        return full

    return br.MatrixLinearMap(lambda m: np.array(m[:small, :small]), embed)


@pytest.mark.parametrize("down", ["full", "lower"])
def test_collective_defect_gives_the_bits_of_the_ham_field_route(down):
    # the trusted fields are ham_field's, less its per-stage validation
    if down == "full":
        jmap, spec = _corner_map(2, 4), br.FULL
        m = seeded_random_state(172, "hermitian", 2)
        h_down = br.Observable.quadratic_form(m, np.eye(2))
    else:
        jmap, spec = br.lower_projection_map(), br.LOWER_COINDUCED
        h_down = br.Observable.quadratic_form(
            seeded_random_state(172, "general", 4), np.eye(4))
    rho0 = seeded_random_state(173, "psd", 4)
    cfg = it.IntegratorConfig(dt=0.005, steps=30, stride=7)

    h_up = br._pullback(h_down, jmap)
    up = it.evolve(rho0, cfg, rhs=lambda t, y: br.ham_field(br.FULL, h_up, y))
    low = it.evolve(jmap.apply(rho0), cfg,
                    rhs=lambda t, y: br.ham_field(spec, h_down, y))
    want = 0.0
    for s_up, s_down in zip(up.states, low.states):
        want = max(want, float(np.max(np.abs(jmap.apply(s_up) - s_down))))
    assert it.collective_defect(jmap, h_down, spec, rho0, cfg) == want


def test_collective_defect_validates_both_initial_states():
    identity = br.MatrixLinearMap(lambda m: np.array(m), lambda g: g)
    h = br.Observable.linear_form(seeded_random_state(174, "general", 3))
    rho0 = seeded_random_state(175, "general", 3)
    cfg = it.IntegratorConfig(dt=0.01, steps=2)
    with pytest.raises(ValueError, match="lower-triangular"):
        it.collective_defect(identity, h, br.LOWER_COINDUCED, rho0, cfg)
    with pytest.raises(ValueError, match="finite"):
        it.collective_defect(identity, h, br.FULL, np.full((3, 3), np.inf), cfg)
    with pytest.raises(ValueError, match="pairs"):
        it.collective_defect(br.pair_inclusion_map(0, 3), h,
                             br.product(br.FULL, br.FULL), rho0, cfg)


# (dt, steps, stride) over the horizon t = 1, each recording at t = 0, 0.1, ...
_COLLECTIVE_GRIDS = ((0.005, 200, 20), (0.05, 20, 2), (0.1, 10, 1))


def _collective_defects(jmap, h_down, rho0):
    return [it.collective_defect(jmap, h_down, br.FULL, rho0,
                                 it.IntegratorConfig(dt=dt, steps=steps,
                                                     stride=stride))
            for dt, steps, stride in _COLLECTIVE_GRIDS]


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_collective_defect_is_roundoff_at_any_dt_and_a_fault_is_not(seed):
    # J commutes with every RK4 step when it intertwines the two fields, so
    # the defect of verify's corner map is roundoff at any of the grids; a J
    # that breaks intertwining gives a defect that the horizon sets, not dt
    jmap = _corner_map(2, 4)
    m = seeded_random_state(seed, "general", 2)
    h_down = br.Observable.quadratic_form(op.hermitian_part(m), np.eye(2))
    rho0 = seeded_random_state(seed, "psd", 4)
    assert max(_collective_defects(jmap, h_down, rho0)) <= 1e-14

    for adjoint in (lambda g: jmap.adjoint(g).T,
                    lambda g: (1.0 + 1e-6) * jmap.adjoint(g)):
        faulty = br.MatrixLinearMap(jmap.apply, adjoint)
        defects = _collective_defects(faulty, h_down, rho0)
        assert min(defects) > 1e-9
        np.testing.assert_allclose(defects, defects[0], rtol=1e-3)
