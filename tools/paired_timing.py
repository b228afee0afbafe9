"""Paired in-process timing of this tree against a git revision.

    python3 tools/paired_timing.py [<git revision>] [--workload checks]
                                   [--pairs 40] [--seed 2024]

Extracts the revision's ``src/`` (default ``HEAD``) with the ``git archive``
of ``tools/artifact_digests.py``, and imports it and the ``src/`` next to
this file into one process, under the package names ``lp_base`` and
``lp_this``.  The invocations of the chosen workload and their configs
come from ``WORKLOADS`` and ``make_configs`` of ``perfbench/run.py``, which
is imported, so both follow any change to the benchmark.  Each pair runs
every invocation once on each tree, the tree that goes first alternating
from pair to pair, and times ``cli.run`` alone, as the benchmark's ``run_s`` does; config
loading and the import are left out.  BLAS runs with one thread.

For each invocation and for the whole pass it prints the median time of
each tree, and the median and quartiles of the paired ratio this / base.
When the workload runs ``verify``, it does the same for each verify check
group (``verify:<group>``): every ``verification._<group>_checks`` of both
trees is wrapped in a timer, and ``run_all`` looks the groups up at call
time, so it runs the wrappers.  A ratio below 1 means this tree is faster.
Two runs of a pass in the same process, one right after the other, see
nearly the same host load, so the paired ratio is steady on a shared host
where the times of separate cold runs are not.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time

from artifact_digests import SRC, _extract_src

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported, by perfbench

sys.dont_write_bytecode = True  # leaves no cache in perfbench/ or src/
sys.path.insert(0, os.path.join(os.path.dirname(SRC), "perfbench"))
import run as perfbench  # noqa: E402  (after the BLAS settings)


def load_cli(name: str, src: str):
    """Import ``src/liepoisson`` as the package ``name``; return its cli."""
    pkg_dir = os.path.join(src, "liepoisson")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def time_run(cli, command: str, path: str, out_dir: str) -> float:
    """Seconds in ``cli.run`` for one config; its output is discarded."""
    rc = cli.load_config(path, command, out_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.run(rc)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{cli.__name__} {command} {path} exited {code}")
    return elapsed


def time_verify_groups(cli) -> dict:
    """Wrap each ``verification._<group>_checks(fx)`` of the tree of ``cli``
    in a timer; returns the dict the wrappers add their seconds to, by
    group, in the order ``run_all`` calls them.  The shared identity checks
    (``_reduction_law_checks``, ``_kks_checks``) take a state and probes,
    not the fixtures, and are timed inside the groups that call them."""
    verification = importlib.import_module(f"{cli.__package__}.verification")
    spent = {}

    def timed(group, fn):
        def call(fx):
            start = time.perf_counter()
            try:
                return fn(fx)
            finally:
                spent[group] = spent.get(group, 0.0) + time.perf_counter() - start
        return call

    for attr, fn in list(vars(verification).items()):
        if (attr.startswith("_") and attr.endswith("_checks") and callable(fn)
                and list(inspect.signature(fn).parameters) == ["fx"]):
            setattr(verification, attr, timed(attr[1:-len("_checks")], fn))
    return spent


def quartiles(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None) -> int:
    table = perfbench.WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revision", nargs="?", default="HEAD",
                        help="the git revision to time against (default HEAD)")
    parser.add_argument("--workload", choices=sorted(table), default="checks")
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with tempfile.TemporaryDirectory() as tmp:
        try:
            base_src = _extract_src(args.revision, tmp)
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract src/ of {args.revision!r}: "
                  f"{exc.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        trees = {"base": load_cli("lp_base", base_src),
                 "this": load_cli("lp_this", SRC)}
        configs = [(label, command, path) for label, command, _, path
                   in perfbench.make_configs(table[args.workload], args.seed, tmp)]
        out_dir = os.path.join(tmp, "out")
        times = {(tree, label): [] for tree in trees for label, _, _ in configs}
        spent = ({tree: time_verify_groups(cli) for tree, cli in trees.items()}
                 if any(command == "verify" for _, command, _ in configs) else {})
        group_times = {}

        for pair in range(args.pairs + 1):  # pair 0 warms both trees up
            order = ("base", "this") if pair % 2 else ("this", "base")
            for groups in spent.values():
                groups.clear()
            for label, command, path in configs:
                for tree in order:
                    elapsed = time_run(trees[tree], command, path, out_dir)
                    if pair:
                        times[tree, label].append(elapsed)
            if pair:
                for tree, groups in spent.items():
                    for group, seconds in groups.items():
                        group_times.setdefault((tree, group), []).append(seconds)

    print(f"{args.workload}: {args.pairs} pairs, this tree against "
          f"{args.revision}, seconds in cli.run")
    labels = [label for label, _, _ in configs]
    rows = [(label, times["base", label], times["this", label])
            for label in labels]
    rows.append(("pass", [sum(times["base", lb][k] for lb in labels)
                          for k in range(args.pairs)],
                 [sum(times["this", lb][k] for lb in labels)
                  for k in range(args.pairs)]))
    rows.extend((f"verify:{group}", group_times["base", group], seconds)
                for (tree, group), seconds in group_times.items()
                if tree == "this" and ("base", group) in group_times)
    width = max(len(label) for label, _, _ in rows)
    for label, base, this in rows:
        median, q1, q3 = quartiles([t / b for b, t in zip(base, this)])
        print(f"  {label:<{width}}  base {statistics.median(base):.5f}  "
              f"this {statistics.median(this):.5f}  ratio {median:.3f} "
              f"[{q1:.3f}, {q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
