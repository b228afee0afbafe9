"""One cold ``liepoisson`` CLI invocation, timed from inside the process.

    python3 child.py <command> <config> <out dir> <timing json> [<spans json>]

Goes through ``liepoisson.cli.main`` exactly as the console script does.
Writes to the timing file the phases of the process as ``[name, end]``
pairs, in order, each ``end`` read from ``time.monotonic`` (the system-wide
monotonic clock, so the parent can place them against the moment it spawned
the child).  Each phase starts where the one before it ends, and is named
after the innermost call it is in:

    start        interpreter start-up, until ``main`` is entered
    import       ``import liepoisson.cli``
    cli          the rest of ``cli.main``
    load_config  ``cli.load_config``
    run          ``cli.run``, except the parts below
    run.<group>  each check group that ``verification.run_all`` calls
    run.evolve   each call of ``integrators.evolve``

So the ``run`` of ``toda-run`` is the phases ``run``, ``run.evolve``,
``run``.  Loading a module, every 16th RK4 or isospectral step and every
256th ``kks_eval`` call also end the phase they are in and start another
of the same name; so ``import`` is a few hundred pieces, one per module.
Short phases are what make the parent's statistic steady (see ``best`` in
run.py).

With a fifth argument the package's public functions are traced (see
spans.py) and the spans are written there.  Exits with the CLI's exit code.
"""

import json
import sys
import time

import spans

# module, function, n: every n-th call of the function starts a new piece of
# the phase it runs in, so that long loops become short phases
TICKS = (("integrators", "rk4_step", 16), ("integrators", "isospectral_step", 16),
         ("orbits", "kks_eval", 256))


def main(argv) -> int:
    phases = [["start", time.monotonic()]]
    command, config, out_dir, timing_path = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    open_phases = ["import"]  # innermost last

    def mark():
        phases.append([open_phases[-1], time.monotonic()])

    def on_audit(event, args):
        if event == "import":  # a module is about to be loaded
            mark()

    sys.addaudithook(on_audit)
    import liepoisson.cli as cli
    mark()
    open_phases[-1] = "cli"

    tracer = None
    if spans_path:
        tracer = spans.Tracer(out_dir)
        spans.install(tracer)

    def timed(name, fn):
        def call(*args, **kwargs):
            mark()
            open_phases.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                mark()
                open_phases.pop()
        return call

    def ticking(fn, every):
        calls = 0

        def call(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls % every == 0:
                mark()
            return fn(*args, **kwargs)
        return call

    def function(module, name):
        return getattr(sys.modules.get(f"liepoisson.{module}"), name, None)

    # the package looks these up in its namespaces when it calls them
    cli.load_config = timed("load_config", cli.load_config)
    cli.run = timed("run", cli.run)
    wrapped = {}
    for group in spans.VERIFY_GROUPS:
        fn = function("verification", f"_{group}")
        if fn is not None:
            wrapped[id(fn)] = timed(f"run.{group}", fn)
    evolve = function("integrators", "evolve")
    if evolve is not None:
        wrapped[id(evolve)] = timed("run.evolve", evolve)
    for module, name, every in TICKS:
        fn = function(module, name)
        if fn is not None:
            wrapped[id(fn)] = ticking(fn, every)
    spans.rebind(wrapped)

    code = cli.main([command, "--config", config, "--out", out_dir])
    mark()
    with open(timing_path, "w") as fh:
        json.dump({"phases": phases, "exit_code": code}, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
