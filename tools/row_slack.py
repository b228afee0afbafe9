"""Each verify row's worst defect as a share of its gate, over a sweep.

    python3 tools/row_slack.py [--seeds 0-99,2024] [--dims 4-16] [--src DIR]

Runs ``verification.run_all`` at every (seed, dim) of the sweep, the dims
even ones only (``4-16`` means 4, 6, ..., 16), against the ``src/`` next to
this file or the one ``--src`` names (a scratch copy with a mutant, say),
and prints one line per row, in ``run_all``'s order:

    <row> <gate> <worst defect> <worst defect / gate> seed <s> dim <d>

"Worst" is the largest defect / gate over the sweep, and where it
occurred; for a negative control (a ``not_`` row, which passes above its
gate) it is the smallest.  A gate of 0 reads 0 where the defect is 0 and
inf otherwise.  A share below 1 is a green row (above 1 for a ``not_``
row), and its inverse is the row's slack.  Then come the number of runs,
and the (seed, dim, row) of every red row.  The script exits 1 if any row
is red anywhere or if two runs list different rows.

BLAS runs with one thread unless the environment sets it.  The default
sweep, seeds 0-99 and 2024 at even dims 4-16, is 707 runs and takes about
two minutes on one core.  The script is a diagnostic, not part of tier-1.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is first imported

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def parse_ints(text: str, step: int = 1) -> list:
    """``0-99,2024`` as [0, 1, ..., 99, 2024]; a range a-b takes every
    ``step``-th integer from a to b."""
    values = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        values.extend(range(int(lo), int(hi or lo) + 1, step))
    return values


def share(name: str, defect: float, tol: float) -> float:
    """defect / tol, ordered so that a larger value is closer to red."""
    if tol == 0.0:
        value = 0.0 if defect == 0.0 else float("inf")
    else:
        value = defect / tol
    return -value if "not_" in name else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-99,2024")
    parser.add_argument("--dims", default="4-16")
    parser.add_argument("--src", default=SRC)
    args = parser.parse_args(argv)
    dims = parse_ints(args.dims, step=2)
    if not dims or any(d < 4 or d % 2 for d in dims):
        parser.error("--dims takes even dims of 4 or more")
    sys.path.insert(0, os.path.abspath(args.src))
    from liepoisson import verification as vf
    grid = [(s, d) for d in dims for s in parse_ints(args.seeds)]

    worst, names, red = {}, None, []
    for seed, dim in grid:
        rows = vf.run_all(seed=seed, dim=dim)
        listed = [r.name for r in rows]
        if names is None:
            names = listed
        elif listed != names:
            red.append((seed, dim, "row list differs"))
        for r in rows:
            key = share(r.name, r.defect, r.tol)
            if r.name not in worst or key > worst[r.name][0]:
                worst[r.name] = (key, r.defect, r.tol, seed, dim)
            if not r.passed:
                red.append((seed, dim, r.name))

    for name in names:
        key, defect, tol, seed, dim = worst[name]
        print(f"{name:40s} {tol:8.2g} {defect:10.3g} {abs(key):10.3g}"
              f"  seed {seed} dim {dim}")
    print(f"{len(grid)} runs, {len(names)} rows, {len(red)} red")
    for seed, dim, name in red:
        print(f"red: seed {seed} dim {dim} {name}")
    return 1 if red else 0


if __name__ == "__main__":
    sys.exit(main())
