"""The repository benchmark: one command, three workloads.

Run from the checkout root::

    python3 perfbench/run.py --workload serve_warm --seed 1 \\
        --seconds 10 --trace 0

Inputs are generated from ``--seed`` under ``.perfbench/`` in the
checkout and removed afterwards. Every answer is checked against a
reference computed during set-up. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Lines before it give the same
numbers for people, plus the inputs' sizes and the machine.

A traced run splits ``--seconds`` into an untraced and a traced half
over one set-up; the per-layer numbers come from the traced half and
``tracing.overhead_s`` is the difference of the halves' medians.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
import time

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

WORKLOADS = ("serve_warm", "sweep_kv", "stream_large")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name, ctx):
    if name == "serve_warm":
        from serve_warm import ServeWarm
        return ServeWarm(ctx)
    if name == "sweep_kv":
        from sweep import SweepKV
        return SweepKV(ctx)
    from stream import StreamLarge
    return StreamLarge(ctx)


def run(workload, ctx):
    """Set up ``SETUPS`` times, measure, tear down; returns the phases
    (untraced first) and the set-up times."""
    setups = []
    try:
        for _ in range(SETUPS):
            workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        if not ctx.trace:
            return [workload.measure(ctx.seconds, traced=False)], setups
        half = ctx.seconds / 2
        return [workload.measure(half, traced=False),
                workload.measure(half, traced=True)], setups
    finally:
        workload.teardown()


def report(workload, ctx, phases, setups):
    """Human-readable lines, then the JSON result line."""
    from statistics import median

    from harness import machine
    from layers import END_TO_END, PER_LAYER, ZERO_WORK

    timed = phases[0]
    metrics = dict(timed.end_to_end(), setup_s=median(setups),
                   recovery_precision=workload.precision)
    failed = sum(phase.failed for phase in phases)
    attempted = sum(phase.attempted for phase in phases)
    print(f"workload {workload.name}  seed {ctx.seed}  "
          f"trace {int(ctx.trace)}")
    print("inputs  " + json.dumps(workload.record(), sort_keys=True))
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"requests {timed.attempted} (failed {timed.failed}, "
          f"error_rate {timed.failed / timed.attempted:.4f}); "
          f"set-ups {len(setups)}: "
          + ", ".join(f"{s:.3f}" for s in setups))
    for name, (unit, _) in END_TO_END.items():
        print(f"  {name:<28} {metrics[name]:.6g} {unit}")
    for name, value in dict(timed.tail(), **timed.halves).items():
        print(f"  {name:<28} {value:.6g} s  (median, not gated)")

    if not ctx.trace:
        out = {name: {"value": metrics[name], "unit": unit}
               for name, (unit, _) in END_TO_END.items()}
    else:
        traced = phases[1]
        # A layer the workload never enters reads 0.
        layers = {name: traced.layers.get(name, 0.0)
                  for name, _, _, _ in PER_LAYER}
        layers["tracing.overhead_s"] = (traced.end_to_end()["request_p50_s"]
                                        - metrics["request_p50_s"])
        broken = [name for name in ZERO_WORK.get(workload.name, ())
                  if traced.zero_work[name] != 0]
        layers["predictions.failed"] = float(len(broken))
        print("per-layer (traced half; counts and busy times per request)")
        for name, unit, _, moves in PER_LAYER:
            print(f"  {name:<28} {layers[name]:.6g} {unit}  -> {moves}")
        for name in ZERO_WORK.get(workload.name, ()):
            verdict = "FAILED" if name in broken else "holds"
            print(f"  prediction {name} == 0 on {workload.name}: "
                  f"{verdict}")
        out = {name: {"value": layers[name], "unit": unit}
               for name, unit, _, _ in PER_LAYER}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": out}
    print(json.dumps(result))
    return failed == 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no repro sources under {src}; run from the "
              "checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness

    workdir = os.path.join(root, ".perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "tmp"))
    tempfile.tempdir = os.path.join(workdir, "tmp")
    ctx = harness.Context(root=root, workdir=workdir, seed=args.seed,
                          seconds=args.seconds, trace=bool(args.trace))
    try:
        workload = make_workload(args.workload, ctx)
        phases, setups = run(workload, ctx)
        ok = report(workload, ctx, phases, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # The parent goes once no other run is using it.
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
