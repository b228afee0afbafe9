"""Validation at the boundary: public entries check their input, kernels trust it."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from liepoisson import brackets as br
from liepoisson import cli
from liepoisson import integrators as it
from liepoisson import operators as op
from liepoisson import toda as td
from liepoisson.fixtures import seeded_random_state

GOOD = np.eye(2, dtype=complex)

BAD = {
    "non-square": np.zeros((2, 3)),
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": np.array([[1.0, 0.0], [np.inf, 1.0]]),
}

PUBLIC = {
    "commutator(bad, good)": lambda m: op.commutator(m, GOOD),
    "commutator(good, bad)": lambda m: op.commutator(GOOD, m),
    "project_lower": op.project_lower,
    "project_strictly_upper": op.project_strictly_upper,
    "project_upper_plus": op.project_upper_plus,
    "project_strictly_lower": op.project_strictly_lower,
    "trace_pairing(bad, good)": lambda m: op.trace_pairing(m, GOOD),
    "trace_pairing(good, bad)": lambda m: op.trace_pairing(GOOD, m),
    "LaxPair(bad, a)": lambda m: td.LaxPair(m, GOOD),
    "LaxPair(rho, bad)": lambda m: td.LaxPair(GOOD, m),
    "lax_field": lambda m: td.lax_field(td.LaxPair(m, GOOD)),
    "lax_rhs": td.lax_rhs,
}


@pytest.mark.parametrize("entry", sorted(PUBLIC))
def test_public_entries_reject_bad_matrices(entry):
    for label, bad in BAD.items():
        with pytest.raises(ValueError):
            PUBLIC[entry](bad)
            pytest.fail(f"{entry} accepted a {label} matrix")


def test_public_entries_reject_mismatched_dimensions():
    for entry in (op.commutator, op.trace_pairing, td.LaxPair):
        with pytest.raises(ValueError):
            entry(GOOD, np.eye(3))


def test_lax_flows_need_a_positive_index():
    # h_k exists for k >= 1 only; k = 0 would silently invert rho + a
    pair = td.flaschka(seeded_random_state(60, "toda", 3))
    for k in (0, -1):
        with pytest.raises(ValueError):
            td.toda_hk(k, pair.a)


@pytest.mark.parametrize("k", [2, 3])
def test_lax_rhs_is_bit_identical_to_the_validated_route(k):
    pair = td.flaschka(seeded_random_state(61, "toda", 6))
    a = pair.a
    cfg = it.IntegratorConfig(dt=1e-2, steps=60, stride=7)

    def public_operators(t, r):
        m = op.project_upper_plus(np.linalg.matrix_power(r + a, k - 1))
        return op.project_lower(op.commutator(r, m))

    # the h_k flow: lax_rhs is h_2's, ham_field of toda_hk serves every k
    hk = td.toda_hk(k, a)

    def ham_field(t, r):
        return br.ham_field(br.LOWER_COINDUCED, hk, r)

    routes = [public_operators]
    if k == 2:
        rhs_fast = td.lax_rhs(a)
        routes += [ham_field, lambda t, r: td.lax_field(td.LaxPair(r, a))]
    else:
        rhs_fast = ham_field
    fast = it.evolve(pair.rho, cfg, rhs=rhs_fast)
    for rhs in routes:
        slow = it.evolve(pair.rho, cfg, rhs=rhs)
        # tobytes also tells +0 from -0, which reach the CSV as "0" and "-0"
        assert fast.states.tobytes() == slow.states.tobytes()
        for s_fast, s_slow in zip(fast.states, slow.states):
            assert s_fast.tobytes() == s_slow.tobytes()
            assert rhs_fast(0.0, s_slow).tobytes() == rhs(0.0, s_slow).tobytes()


def test_lax_toda_run_validates_a_fixed_number_of_matrices(tmp_path, monkeypatch):
    real = op.as_matrix
    calls = [0]

    def counting(m):
        calls[0] += 1
        return real(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "liepoisson" and getattr(module, "as_matrix", None) is real:
            monkeypatch.setattr(module, "as_matrix", counting)

    def count(steps):
        path = tmp_path / f"steps{steps}.json"
        path.write_text(json.dumps({
            "seed": 4, "params": {"N": 6, "flow": "lax"},
            "integrator": {"dt": 1e-3, "steps": steps, "stride": 5}}))
        calls[0] = 0
        code = cli.main(["toda-run", "--config", str(path),
                         "--out", str(tmp_path / f"out{steps}")])
        assert code == 0
        return calls[0]

    # the run starts from the (p, b) of _flaschka_coords and validates no
    # matrix at all; the counter is live in the namespaces the run uses
    assert count(10) == 0
    assert count(50) == 0
    td.flaschka(seeded_random_state(4, "toda", 6))
    assert calls[0] == 2
