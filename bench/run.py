"""desknum benchmark: one closed-loop client calling the library in-process.

    python3 bench/run.py --workload dense-linalg --seed 1 --seconds 20 --trace 0

Run from the repository root. Inputs come only from --seed. After set-up
the workload's operations run in passes, in order, until --seconds have
passed; every output is checked. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from passes that alternate tracing on and off, plus one probe call
of every kernel this workload does not run itself. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

import harness
import ops_dense
import ops_small
import ops_spectral
import ops_touch
from harness import LAYERS, Context, SpeedGauge, Tally, Tracer, run_pass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens.json")

WORKLOADS = {
    "dense-linalg": ops_dense.build,
    "spectral-image": ops_spectral.build,
    "small-ops": ops_small.build,
}
# set-up is repeated and its median reported, so a slow first import
# (bytecode compilation) does not decide setup_s
SETUP_REPS = 5


def build_ops(workload: str, ctx: Context) -> list[harness.Op]:
    return WORKLOADS[workload](ctx) + ops_touch.build(ctx)


def set_up(workload: str, seed: int, tmp: str, goldens: dict, gauge: SpeedGauge):
    """Import desknum, make the seeded inputs and warm every layer once.

    Returns the set-up time scaled to reference speed, and what it made.
    """
    before = gauge.measure()
    start = time.perf_counter()
    dk = harness.import_desknum(os.path.join(ROOT, "src"))
    ctx = Context(dk, seed, tmp, goldens)
    ops = build_ops(workload, ctx)
    tracer = Tracer()
    for op in ops:
        if op.name.startswith("touch_"):
            op.run(tracer)
    seconds = time.perf_counter() - start
    return seconds * gauge.scale(before, gauge.measure()), ctx, ops


def timed_passes(ops, seconds: float, traced: bool, tally: Tally, gauge: SpeedGauge):
    """Closed loop over passes; with tracing, odd passes are traced."""
    tracer = Tracer()
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        on = traced and len(passes) % 2 == 1
        gc.collect()
        result = run_pass(ops, tracer, on, tally, gauge)
        passes.append((on, result))
        if on:
            spans.append(tracer.spans)
        if time.perf_counter() - start >= seconds and len(passes) >= (2 if traced else 1):
            return passes, spans


def probe(workload: str, ctx: Context, have: set, tally: Tally, gauge: SpeedGauge) -> dict:
    """One untraced call of each kernel metric this workload does not produce,
    taken from the first other workload that does."""
    found: dict = {}
    for other in WORKLOADS:
        if other == workload:
            continue
        wanted = [
            op for op in WORKLOADS[other](ctx)
            if any(m not in have and m not in found for m in op.produces)
        ]
        if wanted:
            result = run_pass(wanted, Tracer(), False, tally, gauge)
            for name, value in harness.kernel_values(wanted, result.op_seconds, tally).items():
                if name not in have:
                    found.setdefault(name, value)
        have = have | set(found)
    return found


def end_to_end(setups, passes, tally, units) -> dict:
    return with_units({
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([r.wall_s for _, r in passes]),
        "peak_rss_mb": harness.peak_rss_mb(),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "min_digits": tally.min_digits,
    }, units)


def per_layer(workload, ctx, ops, passes, tally, gauge, units) -> dict:
    plain = [r for on, r in passes if not on]
    traced = [r for on, r in passes if on]
    values: dict = {}
    for layer in LAYERS:
        values[f"{layer}.busy_s"] = statistics.median([r.busy[layer] for r in traced])
        values[f"{layer}.calls"] = statistics.median([r.calls[layer] for r in traced])
    kernels = harness.kernel_values(ops, harness.median_seconds(ops, plain), tally)
    kernels.update(probe(workload, ctx, set(kernels), tally, gauge))
    values.update(kernels)
    values["trace.wall_s"] = statistics.median([r.wall_s for r in traced])
    values["trace.unattributed_s"] = statistics.median([r.wall_s - sum(r.busy.values()) for r in traced])
    values["trace.overhead_frac"] = values["trace.wall_s"] / statistics.median([r.wall_s for r in plain]) - 1.0
    return with_units(values, units)


def with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def load_benchmark_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = load_benchmark_units("per_layer" if args.trace else "end_to_end")
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cli-", dir=OUT_DIR)
    try:
        gauge = SpeedGauge()
        setups = []
        for _ in range(SETUP_REPS):
            seconds, ctx, ops = set_up(args.workload, args.seed, tmp, goldens, gauge)
            setups.append(seconds)
        tally = Tally()
        passes, spans = timed_passes(ops, args.seconds, bool(args.trace), tally, gauge)
        if args.trace:
            metrics = per_layer(args.workload, ctx, ops, passes, tally, gauge, units)
        else:
            metrics = end_to_end(setups, passes, tally, units)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outputs = sorted({r.outputs for _, r in passes})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": harness.fingerprint(),
        "setup_s": setups,
        "gauge_s": gauge.samples,
        "passes": [
            {"traced": on, "wall_s": r.wall_s, "raw_wall_s": r.raw_wall_s, "ops_s": r.op_seconds}
            for on, r in passes
        ],
        "outputs_sha256": outputs,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(OUT_DIR, f"spans-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "function", "start_ns", "end_ns", "parent"], "passes": spans}, fh)
    print("machine: " + json.dumps(record["machine"]))
    print("outputs_sha256: " + " ".join(outputs))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
