"""sha256 digests of what the CLI prints and writes, over a fixed config list.

    python3 tools/artifact_digests.py > digests.txt
    python3 tools/artifact_digests.py <git revision>

Runs each config below in a fresh ``python -m liepoisson.cli`` process,
one at a time, against the ``src/`` next to this file, and prints

    <label> exit <code>
    <label> stdout <sha256>
    <label> stderr <sha256>
    <label> <artifact> <sha256>      one line per file written, sorted

with the output directory replaced by ``OUT`` in stdout and stderr.  A few
labels find empty directories in the output directory (``PREMADE_DIRS``).  Two
trees that behave the same print the same lines.  Given a git revision, the
script extracts that revision's ``src/`` with ``git archive`` into a
temporary directory, runs every config against both trees, and prints only
the lines that differ: ``- <line>`` from the revision, ``+ <line>`` from
this tree.  It exits 1 if any line differs, so it is the one-command check
that a refactor left every exit code, message and artifact unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

INF = float("inf")  # written as Infinity; json reads it as 1e999 would be


def _matrix(re, im=None):
    n = len(re)
    im = im if im is not None else [[0.0] * n for _ in range(n)]
    return {"dim": n, "re": [v for row in re for v in row],
            "im": [v for row in im for v in row]}


H3 = _matrix([[1.0, 0.5, 0.0], [0.5, -1.0, 0.25], [0.0, 0.25, 0.5]],
             [[0.0, 0.1, -0.2], [-0.1, 0.0, 0.3], [0.2, -0.3, 0.0]])
RHO3 = _matrix([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05], [0.0, 0.05, 0.2]])
NON_HERMITIAN = _matrix([[0.0, 1.0], [0.0, 0.0]])
INF_DIM = {"dim": INF, "re": [1.0], "im": [0.0]}
# finite, but past the float limit once multiplied or summed
HUGE4 = _matrix([[1.7e308] * 4] * 4)
HUGE2 = _matrix([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])
TODA4 = {"N": 4, "x": [0.1, -0.2, 0.3], "p": [0.5, -0.25, 0.0, -0.25],
         "alpha": [1.0, 0.5, 0.25], "lambda": [1.0, 0.5, 0.25]}
TODA_INF = dict(TODA4, N=INF)
DIAG2 = _matrix([[1.0, 0.0], [0.0, -1.0]])
ONES2 = _matrix([[1.0, 1.0], [1.0, 1.0]])
# exp(dt K) of this hamiltonian underflows to a finite singular matrix
DIAG2_1E150 = _matrix([[1e150, 0.0], [0.0, -1e150]])
ONES2_1E150 = _matrix([[1e150, 1e150], [1e150, 1e150]])
ONES2_1E120 = _matrix([[1e120, 1e120], [1e120, 1e120]])
# b_1 = lambda_1 e^{x_1} overflows in the Flaschka image
TODA3_HUGE_LAMBDA = {"N": 3, "x": [0.1, -0.2], "p": [0.5, -0.25, -0.25],
                     "alpha": [1.0, 1.0], "lambda": [1.7e308, 1.0]}
# alpha b < 0: the Lax matrix has the complex spectrum +-0.1995i
TODA2_COMPLEX = {"N": 2, "x": [-3.0], "p": [0.1, -0.1], "alpha": [-1.0],
                 "lambda": [1.0]}
# alpha < 0 makes the bond attract: x'' = 2 e^x blows up at t = pi / 2, and
# x passes the exp limit in the middle of the canonical flow
TODA2_BLOW_UP = {"N": 2, "x": [0.0], "p": [0.0, 0.0], "alpha": [-1.0],
                 "lambda": [1.0]}
# a bond stretched to x_1 = 17: RK4 loses the zero total momentum in finite
# states, and the canonical flow's momentum check aborts
TODA3_STRETCHED = {"N": 3, "x": [17.0, 0.0], "p": [0.0, 0.0, 0.0],
                   "alpha": [1.0, 1.0], "lambda": [1.0, 1.0]}
# the total momentum vanishes, but a float sum of the momenta overflows
TODA4_HUGE_P = {"N": 4, "x": [0.0] * 3, "p": [1.7e308, 1.7e308, -1.7e308,
                                              -1.7e308],
                "alpha": [1.0] * 3, "lambda": [1.0] * 3}

LAX = {"dt": 1e-3, "steps": 300, "stride": 30}
BENCH_SEED = 2024 * 16  # perfbench gives its n-th invocation seed * 16 + n

# (label, command, config)
CONFIGS = [
    *[(f"{c}-default", c, {}) for c in
      ("verify", "lvn-run", "toda-run", "reduce-demo", "orbit-kks")],
    *[(f"verify-dim{d}", "verify", {"params": {"dim": d}}) for d in (4, 6, 8, 16)],
    *[(f"verify-seed{s}-dim{d}", "verify", {"seed": s, "params": {"dim": d}})
      for s, d in ((11, 4), (7, 6), (123, 8))],
    *[(f"reduce-{k}", "reduce-demo", {"params": {"kind": k}})
      for k in ("measurement", "lower", "group")],
    *[(f"reduce-{k}-n5", "reduce-demo", {"params": {"N": 5, "kind": k}})
      for k in ("measurement", "lower")],
    *[(f"reduce-{k}-n96", "reduce-demo", {"params": {"N": 96, "kind": k}})
      for k in ("measurement", "lower", "group")],
    ("lvn-isospectral", "lvn-run",
     {"params": {"N": 4}, "integrator": {"dt": 1e-3, "steps": 200, "stride": 50,
                                         "method": "isospectral"}}),
    # the default step, rk4, named in the config
    ("lvn-rk4-explicit-method", "lvn-run",
     {"params": {"N": 4}, "integrator": {"dt": 1e-3, "steps": 200, "stride": 50,
                                         "method": "rk4"}}),
    ("toda-lax", "toda-run", {"params": {"N": 6, "flow": "lax"}, "integrator": LAX}),
    ("toda-lax-hk6", "toda-run",
     {"params": {"N": 6, "flow": "lax", "hk_max": 6}, "integrator": LAX}),
    ("toda-canonical-hk6", "toda-run",
     {"params": {"N": 6, "hk_max": 6}, "integrator": LAX}),
    # every h_k column, on the smallest chain and on one recorded every step
    ("toda-canonical-hk8-n2", "toda-run",
     {"params": {"N": 2, "hk_max": 8}, "integrator": LAX}),
    ("toda-canonical-hk8-n33-stride1", "toda-run",
     {"params": {"N": 33, "hk_max": 8},
      "integrator": {"dt": 1e-3, "steps": 200, "stride": 1}}),
    ("toda-lax-hk8", "toda-run",
     {"params": {"N": 9, "flow": "lax", "hk_max": 8}, "integrator": LAX}),
    ("toda-lax-hk8-n33-stride1", "toda-run",
     {"params": {"N": 33, "flow": "lax", "hk_max": 8},
      "integrator": {"dt": 1e-3, "steps": 200, "stride": 1}}),
    # a last record off the stride grid
    ("toda-lax-n8-steps250-stride40", "toda-run",
     {"params": {"N": 8, "flow": "lax"},
      "integrator": {"dt": 1e-3, "steps": 250, "stride": 40}}),
    ("lvn-rk4-stride1", "lvn-run",
     {"params": {"N": 5}, "integrator": {"dt": 1e-3, "steps": 200, "stride": 1}}),
    ("lvn-isospectral-stride7", "lvn-run",
     {"params": {"N": 4}, "integrator": {"dt": 1e-3, "steps": 200, "stride": 7,
                                         "method": "isospectral"}}),
    # only the first and the last state are recorded
    ("lvn-stride-over-steps", "lvn-run",
     {"params": {"N": 3}, "integrator": {"dt": 1e-2, "steps": 5, "stride": 9}}),
    ("orbit-rank-one", "orbit-kks", {"params": {"N": 5, "state": "rank-one"}}),
    # the two-form rows at the size and sample caps, against verify's gates
    ("orbit-n32", "orbit-kks", {"params": {"N": 32, "samples": 1000}}),
    # the largest kks_pairing_identity defect over seeds 0-39 at the caps
    ("orbit-n32-seed8", "orbit-kks",
     {"seed": 8, "params": {"N": 32, "samples": 1000}}),
    # the benchmark's configs at seed 2024 (perfbench/run.py WORKLOADS)
    ("bench-toda-lax", "toda-run",
     {"seed": BENCH_SEED, "params": {"N": 32, "flow": "lax"},
      "integrator": {"dt": 1e-3, "steps": 200, "stride": 100}}),
    ("bench-toda-record", "toda-run",
     {"seed": BENCH_SEED, "params": {"N": 16, "flow": "canonical"},
      "integrator": {"dt": 1e-3, "steps": 200, "stride": 1}}),
    ("bench-verify", "verify", {"seed": BENCH_SEED, "params": {"dim": 4}}),
    ("bench-orbit-kks", "orbit-kks", {"seed": BENCH_SEED + 1, "params": {"N": 8}}),
    *[(f"bench-reduce-{k}", "reduce-demo",
       {"seed": BENCH_SEED + idx, "params": {"N": 8, "kind": k}})
      for idx, k in ((2, "measurement"), (3, "lower"), (4, "group"))],
    ("bench-lvn-isospectral", "lvn-run",
     {"seed": BENCH_SEED + 5, "params": {"N": 8},
      "integrator": {"dt": 1e-2, "steps": 200, "stride": 10,
                     "method": "isospectral"}}),
    # explicit matrices and states, and a t_end span
    ("lvn-explicit", "lvn-run",
     {"params": {"hamiltonian": H3, "initial_state": RHO3},
      "integrator": {"dt": 1e-2, "steps": 100, "stride": 20}}),
    ("lvn-explicit-state-with-N", "lvn-run",
     {"params": {"N": 3, "initial_state": RHO3},
      "integrator": {"dt": 1e-2, "steps": 100, "stride": 20,
                     "method": "isospectral"}}),
    ("reduce-explicit", "reduce-demo",
     {"params": {"N": 3, "kind": "lower", "state": RHO3}}),
    # states that are not PSD: no reduction_positivity row
    ("reduce-measurement-indefinite", "reduce-demo",
     {"params": {"N": 3, "kind": "measurement", "state": H3}}),
    ("reduce-group-non-hermitian", "reduce-demo",
     {"params": {"N": 2, "kind": "group", "state": NON_HERMITIAN}}),
    # s ones(N) / N, a PSD rank-one density scaled by s: pinching and
    # averaging keep every row green at any scale
    *[(f"reduce-{k}-n{n}-ones-s{s:.0e}", "reduce-demo",
       {"params": {"N": n, "kind": k, "state": _matrix([[s / n] * n] * n)}})
      for k, n, s in (("measurement", 16, 1e6), ("group", 4, 1e9),
                      ("measurement", 8, 1e9), ("group", 10, 1e8))],
    ("orbit-explicit", "orbit-kks", {"params": {"N": 3, "state": H3}}),
    ("toda-explicit", "toda-run",
     {"params": {"initial": TODA4}, "integrator": {"dt": 1e-3, "steps": 200}}),
    *[(f"toda-complex-{flow}", "toda-run",
       {"params": {"initial": TODA2_COMPLEX, "flow": flow},
        "integrator": {"dt": 0.05, "steps": 40}})
      for flow in ("canonical", "lax")],
    # the same state at a coarse dt: the h2 and spectrum rows fail, exit 1
    ("toda-complex-lax-dt0.2", "toda-run",
     {"params": {"initial": TODA2_COMPLEX, "flow": "lax"},
      "integrator": {"dt": 0.2, "steps": 10}}),
    # a config names no tolerance: this one exits 2 and writes nothing
    ("toda-complex-lax-dt0.2-drift-tol", "toda-run",
     {"params": {"initial": TODA2_COMPLEX, "flow": "lax", "drift_tol": 1e300},
      "integrator": {"dt": 0.2, "steps": 10}}),
    ("toda-t-end", "toda-run",
     {"params": {"N": 4, "t_end": 0.25}, "integrator": {"dt": 1e-3, "stride": 40}}),
    ("toda-t-end-clamps-stride", "toda-run",
     {"params": {"N": 4, "flow": "lax", "t_end": 0.005},
      "integrator": {"dt": 1e-3}}),
    # numerical aborts: exit 3, nothing written
    *[(f"toda-diverging-{flow}", "toda-run",
       {"seed": 1, "params": {"N": 8, "flow": flow},
        "integrator": {"dt": 5.0, "steps": 200, "stride": 1}})
      for flow in ("canonical", "lax")],
    ("toda-overflow", "toda-run",
     {"params": {"initial": {"N": 2, "x": [800.0], "p": [0.0, 0.0],
                             "alpha": [1.0], "lambda": [1.0]}},
      "integrator": {"dt": 1e-3, "steps": 5}}),
    *[(f"reduce-{k}-overflow", "reduce-demo",
       {"params": {"N": 4, "kind": k, "state": HUGE4}})
      for k in ("measurement", "lower", "group")],
    ("orbit-overflow", "orbit-kks", {"params": {"N": 4, "state": HUGE4}}),
    # every row finite, and only the singular values, inside the SVD, overflow
    ("reduce-lower-trace-norm-overflow", "reduce-demo",
     {"seed": 8, "params": {"N": 2, "kind": "lower", "state": HUGE2}}),
    # exp(dt K) past the float limit, on the isospectral lvn-run's one
    # propagator: 4^s, the 1-norm of dt K, and a singular propagator
    *[(f"lvn-isospectral-overflow-{name}", "lvn-run",
       {"params": params,
        "integrator": {"dt": dt, "steps": 3, "method": "isospectral"}})
      for name, params, dt in (
          ("huge4", {"hamiltonian": HUGE4}, 1e-3),
          ("dt1e300", {"hamiltonian": DIAG2, "initial_state": ONES2}, 1e300),
          ("huge4-dt1", {"hamiltonian": HUGE4}, 1.0),
          ("singular", {"hamiltonian": DIAG2_1E150,
                        "initial_state": ONES2_1E150}, 1e-3))],
    # exp(dt K) of K = 0: expm's lowest degree at a zero 1-norm
    ("lvn-isospectral-zero-hamiltonian", "lvn-run",
     {"params": {"N": 2, "hamiltonian": _matrix([[0.0, 0.0], [0.0, 0.0]])},
      "integrator": {"steps": 20, "method": "isospectral"}}),
    # the flow stays finite, and only the monitors tr(rho^3), tr(rho^4)
    # overflow
    ("lvn-monitor-overflow", "lvn-run",
     {"params": {"hamiltonian": DIAG2, "initial_state": ONES2_1E120},
      "integrator": {"dt": 1e-3, "steps": 3}}),
    *[(f"toda-flaschka-overflow-{flow}", "toda-run",
       {"params": {"initial": TODA3_HUGE_LAMBDA, "flow": flow},
        "integrator": {"dt": 1e-3, "steps": 3}})
      for flow in ("canonical", "lax")],
    ("toda-canonical-exp-limit-mid-flow", "toda-run",
     {"params": {"initial": TODA2_BLOW_UP},
      "integrator": {"dt": 1e-3, "steps": 3000, "stride": 100}}),
    ("toda-canonical-momentum-abort", "toda-run",
     {"params": {"initial": TODA3_STRETCHED},
      "integrator": {"dt": 1e-3, "steps": 50, "stride": 1}}),
    ("toda-momentum-sum-overflow", "toda-run",
     {"params": {"initial": TODA4_HUGE_P}, "integrator": {"steps": 5}}),
    # config faults: exit 2, nothing written
    ("lvn-non-hermitian", "lvn-run",
     {"params": {"hamiltonian": NON_HERMITIAN}, "integrator": {"steps": 5}}),
    ("lvn-dims-disagree", "lvn-run",
     {"params": {"N": 2, "hamiltonian": H3}, "integrator": {"steps": 5}}),
    ("reduce-state-dim", "reduce-demo", {"params": {"N": 4, "state": RHO3}}),
    ("orbit-state-dim", "orbit-kks", {"params": {"N": 4, "state": H3}}),
    ("toda-initial-N", "toda-run",
     {"params": {"N": 5, "initial": TODA4}, "integrator": {"steps": 5}}),
    # toda-run steps by RK4 only
    ("toda-isospectral-refused", "toda-run",
     {"integrator": {"steps": 5, "method": "isospectral"}}),
    ("output-path-subdir", "reduce-demo", {"output_path": "sub/x.json"}),
    # --out holds a directory named like an artifact (see PREMADE_DIRS)
    ("reduce-report-is-directory", "reduce-demo", {}),
    ("toda-summary-is-directory", "toda-run", {"integrator": {"steps": 5}}),
    ("toda-t-end-overflow", "toda-run",
     {"params": {"t_end": 1e300}, "integrator": {"dt": 1e-10}}),
    ("lvn-hamiltonian-dim-inf", "lvn-run",
     {"params": {"hamiltonian": INF_DIM}, "integrator": {"steps": 5}}),
    ("lvn-initial-state-dim-inf", "lvn-run",
     {"params": {"initial_state": INF_DIM}, "integrator": {"steps": 5}}),
    ("reduce-state-dim-inf", "reduce-demo", {"params": {"state": INF_DIM}}),
    ("orbit-state-dim-inf", "orbit-kks", {"params": {"state": INF_DIM}}),
    ("toda-initial-N-inf", "toda-run",
     {"params": {"initial": TODA_INF}, "integrator": {"steps": 5}}),
]


# empty directories made in --out before the run of a label
PREMADE_DIRS = {
    "reduce-report-is-directory": ["reduction_report.json"],
    "toda-summary-is-directory": ["toda_trajectory_summary.json"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(label: str, command: str, config: dict, env: dict) -> list:
    """The output lines for one config."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "config.json")
        out_dir = os.path.join(tmp, "out")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        for name in PREMADE_DIRS.get(label, ()):
            os.makedirs(os.path.join(out_dir, name))
        done = subprocess.run(
            [sys.executable, "-m", "liepoisson.cli", command, "--config",
             cfg_path, "--out", out_dir],
            cwd=tmp, env=env, capture_output=True, timeout=600)
        lines = [f"{label} exit {done.returncode}"]
        for name, stream in (("stdout", done.stdout), ("stderr", done.stderr)):
            lines.append(f"{label} {name} "
                         f"{_sha(stream.replace(out_dir.encode(), b'OUT'))}")
        written = []
        for root, _, files in os.walk(out_dir):
            written += [os.path.join(root, f) for f in files]
        for path in sorted(written):
            with open(path, "rb") as fh:
                lines.append(f"{label} {os.path.relpath(path, out_dir)} "
                             f"{_sha(fh.read())}")
    return lines


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _extract_src(revision: str, dest: str) -> str:
    """The ``src/`` of a git revision, written under dest by ``git archive``."""
    root = os.path.dirname(SRC)
    archive = subprocess.run(["git", "-C", root, "archive", "--format=tar",
                              revision, "src"], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   capture_output=True, check=True)
    return os.path.join(dest, "src")


def compare(revision: str) -> int:
    """Print the lines that differ between the revision and this tree."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            old_env = _env(_extract_src(revision, tmp))
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract src/ of {revision!r}: "
                  f"{exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        new_env = _env(SRC)
        differ = False
        for label, command, config in CONFIGS:
            old = digest(label, command, config, old_env)
            new = digest(label, command, config, new_env)
            for mark, lines, other in (("-", old, new), ("+", new, old)):
                for line in lines:
                    if line not in other:
                        differ = True
                        print(f"{mark} {line}", flush=True)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="sha256 digests of every CLI output over fixed configs")
    parser.add_argument("revision", nargs="?",
                        help="a git revision to compare against; prints only "
                             "the lines that differ and exits 1 if any do")
    args = parser.parse_args(argv)
    if args.revision is not None:
        return compare(args.revision)
    env = _env(SRC)
    for label, command, config in CONFIGS:
        for line in digest(label, command, config, env):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
