"""Benchmark of the ``liepoisson`` CLI in cold processes.

    python3 perfbench/run.py --workload {toda-lax,toda-record,checks}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  One parent process runs one CLI child at a
time (a closed loop with one client).  A *pass* is the workload's fixed list
of invocations; whole passes repeat while another one fits in ``--seconds``.
Each child reports the phases of its life (see child.py), and each timing
sums the lowest time of every phase over the passes (see ``best``).  The
configs are generated from ``--seed`` into a scratch directory under
``.perfbench-tmp/``, and the children receive only those files.

Every invocation is checked (see ``reference.py``): exit code 0, all check
rows passing, artifacts within tolerance of an independent reference, and
artifacts byte-identical to those of the first pass.  An invocation that
fails any of these counts in ``failed``.

With ``--trace 0`` the end-to-end metrics are reported, all untraced.  With
``--trace 1`` untraced and traced passes alternate; the per-module metrics
come from the traced passes (see ``spans.py``) and the tracing overhead is
traced minus untraced ``run_s``.  The last line of standard output is the
JSON result; the lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

import reference
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench-tmp")
CHILD = os.path.join(HERE, "child.py")

BLAS_THREADS = 1
CHILD_TIMEOUT_S = 120  # keeps a run with one hung child under 180 s

# (label, command, params, integrator block or None)
WORKLOADS = {
    # dense O(N^3) Lax steps; records ~1% of its steps
    "toda-lax": [
        ("toda-lax", "toda-run", {"N": 32, "flow": "lax"},
         {"dt": 1e-3, "steps": 200, "stride": 100}),
    ],
    # cheap vector RHS; every step recorded, monitored and written
    "toda-record": [
        ("toda-record", "toda-run", {"N": 16, "flow": "canonical"},
         {"dt": 1e-3, "steps": 200, "stride": 1}),
    ],
    # verify, orbit ranks, reductions, a short isospectral flow; many imports
    "checks": [
        ("verify", "verify", {"dim": 4}, None),
        ("orbit-kks", "orbit-kks", {"N": 8}, None),
        ("reduce-measurement", "reduce-demo", {"N": 8, "kind": "measurement"}, None),
        ("reduce-lower", "reduce-demo", {"N": 8, "kind": "lower"}, None),
        ("reduce-group", "reduce-demo", {"N": 8, "kind": "group"}, None),
        ("lvn-isospectral", "lvn-run", {"N": 8},
         {"dt": 1e-2, "steps": 200, "stride": 10, "method": "isospectral"}),
    ],
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# (span name, statistic) pairs reported besides the per-module totals
FUNCTION_METRICS = [
    ("operators.as_matrix", "calls"), ("operators.as_matrix", "self_s"),
    ("operators.commutator", "self_s"), ("operators.project_lower", "self_s"),
    ("operators.project_upper_plus", "self_s"),
    ("toda.lax_field", "calls"), ("toda.lax_field", "self_s"),
    ("integrators.rk4_step", "calls"), ("integrators.rk4_step", "self_s"),
    ("toda.flaschka", "calls"), ("toda.flaschka", "self_s"),
    ("toda.unpack", "calls"), ("toda.unpack", "self_s"),
    ("integrators.monitor", "self_s"), ("integrators.to_csv", "self_s"),
    ("integrators.evolve", "self_s"), ("integrators.isospectral_step", "self_s"),
    ("orbits.kks_form_rank", "self_s"), ("orbits.characteristic_rank", "self_s"),
    ("orbits.kks_eval", "calls"),
    ("brackets.fd_gradient", "calls"), ("brackets.fd_gradient", "self_s"),
    ("brackets.lp_bracket", "calls"), ("reduction.apply", "calls"),
    *[(f"verification.{group}", stat) for group in spans.VERIFY_GROUPS
      for stat in ("self_s", "total_s")],
    ("cli.load_config", "self_s"), ("fixtures.seeded_random_state", "self_s"),
]

UNIT = {"calls": "count", "self_s": "s", "total_s": "s"}
STAT_INDEX = {"calls": 0, "self_s": 1, "total_s": 2}  # columns of self_times

PER_LAYER = {
    **{f"{m}.{stat}": UNIT[stat] for m in spans.MODULES
       for stat in ("calls", "self_s")},
    **{f"{name}.{stat}": UNIT[stat] for name, stat in FUNCTION_METRICS},
    "integrators.states_recorded": "count",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout in every child
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def make_configs(invocations, seed: int, directory: str) -> list:
    """Write one config per invocation; the CLI seed derives from ``seed``."""
    out = []
    for idx, (label, command, params, integrator) in enumerate(invocations):
        cfg = {"command": command, "seed": seed * 16 + idx, "params": params}
        if integrator is not None:
            cfg["integrator"] = integrator
        path = os.path.join(directory, f"{label}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        out.append((label, command, cfg, path))
    return out


def spawn(args, env, log_prefix):
    """Run one child to completion.

    Returns (exit code, max RSS in KiB, spawn time, exit time).  The RSS is
    the child's own, read with wait4.  The times are ``time.monotonic``, the
    clock the child stamps its phases with.
    """
    with open(log_prefix + ".out", "w") as out, open(log_prefix + ".err", "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, start, end


def phase_durations(phases, spawned: float, exited: float) -> list:
    """[name, seconds] for each phase of a child, from spawn to exit.

    ``phases`` are the child's [name, end] pairs (see child.py); the time
    from its last mark until the parent saw it exit is the phase ``exit``.
    """
    out, last = [], spawned
    for name, end in [*phases, ["exit", exited]]:
        out.append([name, end - last])
        last = end
    return out


def artifact_digest(out_dir: str) -> dict:
    digest = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest


class Run:
    """One benchmark run of one workload: passes, checks and samples."""

    def __init__(self, invocations, seed: int, workdir: str):
        self.configs = make_configs(invocations, seed, workdir)
        self.workdir = workdir
        self.env = child_env()
        self.digests: dict = {}  # label -> (first digest, its problems)
        self.attempted = 0
        self.failed = 0
        self.passes: list = []

    def warm_up(self) -> None:
        code, _, _, _ = spawn([sys.executable, "-c", "import liepoisson.cli"],
                              self.env, os.path.join(self.workdir, "warmup"))
        if code != 0:
            raise SetupError("importing liepoisson.cli from src/ failed")


    def run_pass(self, traced: bool) -> dict:
        index = len(self.passes)
        pass_dir = os.path.join(self.workdir, f"pass{index}")
        os.makedirs(pass_dir)
        children = []
        start = time.monotonic()
        for label, command, _, cfg_path in self.configs:
            prefix = os.path.join(pass_dir, label)
            args = [sys.executable, CHILD, command, cfg_path, prefix,
                    prefix + ".timing.json"]
            if traced:
                args.append(prefix + ".spans.json")
            children.append(spawn(args, self.env, prefix))
        wall = time.monotonic() - start

        # per invocation label: {"phases": [[name, seconds], ...], "rss_kib"}
        record = {"traced": traced, "wall_s": wall, "samples": {},
                  "layers": {}, "states": 0}
        for (label, command, cfg, _), (code, rss, spawned, exited) in zip(
                self.configs, children):
            prefix = os.path.join(pass_dir, label)
            self.attempted += 1
            problems = self._check(label, command, cfg, prefix, code)
            if problems:
                self.failed += 1
                print(f"FAILED {label} (pass {index}): {'; '.join(problems)}",
                      file=sys.stderr)
                continue
            with open(prefix + ".timing.json") as fh:
                timing = json.load(fh)
            record["samples"][label] = {
                "phases": phase_durations(timing["phases"], spawned, exited),
                "rss_kib": rss}
            if traced:
                with open(prefix + ".spans.json") as fh:
                    payload = json.load(fh)
                record["states"] += payload["states_recorded"]
                for name, stats in spans.self_times(payload).items():
                    entry = record["layers"].setdefault(name, [0, 0.0, 0.0])
                    for k, value in enumerate(stats):
                        entry[k] += value
        shutil.rmtree(pass_dir)
        self.passes.append(record)
        return record

    def _check(self, label, command, cfg, prefix, code) -> list:
        if code != 0:
            with open(prefix + ".err") as fh:
                tail = fh.read()[-400:].strip()
            return [f"exit code {code}: {tail}"]
        digest = artifact_digest(prefix)
        if label in self.digests:
            first, problems = self.digests[label]
            if digest != first:
                return ["artifacts differ from the first pass"]
            return problems
        try:
            problems = reference.check(command, cfg, prefix)
        except (OSError, ValueError, KeyError, TypeError, StopIteration) as exc:
            problems = [f"unreadable artifacts: {exc!r}"]
        self.digests[label] = (digest, problems)
        return problems

    def steps_per_pass(self) -> int:
        return sum(cfg["integrator"]["steps"] for _, _, cfg, _ in self.configs
                   if "integrator" in cfg)


def is_run(phase: str) -> bool:
    return phase == "run" or phase.startswith("run.")


def is_setup(phase: str) -> bool:
    return phase in ("import", "load_config")


# phases that do the same work in every child of a run, whatever its command
SHARED_PHASES = ("start", "import")


def best(passes, keep=lambda phase: True) -> float:
    """Sum over the phases of a pass of each phase's lowest time across passes.

    A phase is one entry of an invocation's ``phases``, matched across passes
    by invocation and position; a phase in ``SHARED_PHASES`` is matched
    across the invocations too.  ``keep`` picks the phases to sum.

    Contention from other tenants of a shared machine only ever adds time.
    It comes in spells that last minutes, and a median moves with them.
    Inside a slow spell there are still quiet moments, and a short phase
    repeated many times meets some of them, so its lowest time moves far
    less (as with timeit).  Hence the split of each child into short phases.
    """
    def key(label, k, name):
        return (None if name in SHARED_PHASES else label, k, name)

    lowest: dict = {}
    layout: dict = {}  # (label, position, name) of every phase of a pass
    for p in passes:
        for label, sample in p["samples"].items():
            for k, (name, seconds) in enumerate(sample["phases"]):
                kk = key(label, k, name)
                lowest[kk] = min(lowest.get(kk, math.inf), seconds)
                layout[label, k, name] = kk
    if not layout:
        return math.nan
    return sum(lowest[kk] for (_, _, name), kk in layout.items() if keep(name))


def end_to_end(passes, steps: int) -> dict:
    samples = [s for p in passes for s in p["samples"].values()]
    invocations = len({label for p in passes for label in p["samples"]})
    run_s = best(passes, is_run)
    return {
        "wall_s": best(passes),
        # per child; the import is the same in all of them
        "setup_s": best(passes, is_setup) / max(invocations, 1),
        "run_s": run_s,
        "steps_per_s": steps / run_s,
        "peak_rss_mb": max((s["rss_kib"] for s in samples), default=0) / 1024.0,
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def stat(layers, name, which):
        if "." in name:
            return layers.get(name, [0, 0.0, 0.0])[which]
        return sum(v[which] for k, v in layers.items()
                   if k.split(".", 1)[0] == name)

    out = {}
    for metric in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if kind in STAT_INDEX:
            values = [stat(p["layers"], name, STAT_INDEX[kind]) for p in traced]
            out[metric] = (statistics.median_low(values) if kind == "calls"
                           else min(values))
    out["integrators.states_recorded"] = statistics.median_low(
        [p["states"] for p in traced])
    out["trace.overhead_s"] = best(traced, is_run) - best(plain, is_run)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workloads=WORKLOADS) -> dict:
    """Run one workload; returns the result object and prints the metrics."""
    if not os.path.isfile(os.path.join(SRC, "liepoisson", "cli.py")):
        raise SetupError(f"no liepoisson package under {SRC}")
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    try:
        run = Run(workloads[workload], seed, workdir)
        run.warm_up()
        start = now = time.monotonic()
        # whole passes (or traced/untraced pairs) only, ending by the deadline
        while True:
            run.run_pass(traced=False)
            if trace:
                run.run_pass(traced=True)
            last, now = now, time.monotonic()
            if now + (now - last) - start > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values, units = per_layer(run.passes), PER_LAYER
    else:
        values = end_to_end(run.passes, run.steps_per_pass())
        units = END_TO_END
    print("environment: " + json.dumps(environment(seed), sort_keys=True))
    print(f"workload {workload}: {len(run.passes)} passes, "
          f"{run.attempted} invocations, {run.failed} failed")
    for k, p in enumerate(run.passes):
        children = [s["phases"] for s in p["samples"].values()]
        run_s = sum(t for c in children for name, t in c if is_run(name))
        print(f"  pass {k}{' traced' if p['traced'] else ''}: "
              f"wall_s {p['wall_s']:.4f}  run_s {run_s:.4f}  import_s "
              + " ".join(f"{sum(t for name, t in c if name == 'import'):.4f}"
                         for c in children))
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # a terminated run still kills and reaps its current child (see spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
