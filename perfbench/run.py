"""conecond benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload closed_sweep --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; ``conecond`` is imported from its
``src/``.  A run repeats whole passes over the workload's operations (one
caller, each operation after the previous one ends) until the next pass
would end after ``--seconds``, and always runs at least one pass.  Untraced,
the pass and set-up times are scaled to a reference host speed by a
calibration kernel timed every 0.4 s through the pass (``pace.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.  See README.md in this directory.
"""

import os

# BLAS threads are pinned before numpy is first imported, in this process and
# in the set-up probes it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pace
import spans
from workloads import BUILDERS, DEFAULT_SEED, is_expected, run_operation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _import_conecond():
    """conecond.cli from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "conecond" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'conecond'} not found; run from a conecond checkout")
    sys.path.insert(0, str(SRC))
    import conecond.cli

    if Path(conecond.cli.__file__).resolve().parent != SRC / "conecond":
        sys.exit(f"error: imported conecond from {conecond.cli.__file__}, not {SRC}")
    return conecond.cli


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import conecond, build the inputs, print 'ready' and exit")
    return p.parse_args(argv)


def _probe_setup(args, pacer) -> float:
    """Seconds from starting a fresh interpreter on this script to its
    'ready' line (interpreter start, import conecond, building the inputs),
    scaled to the reference host speed by calibration samples taken just
    before and just after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    pacer.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        end = time.perf_counter()
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"error: set-up probe failed (exit {code}, output {line!r})")
    pacer.sample()
    return pacer.reference_seconds(start, end)[1]


def main(argv=None) -> int:
    args = _parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = _import_conecond()

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        ops = BUILDERS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        pacer = None if args.trace else pace.Pacer()
        setup = [_probe_setup(args, pacer) for _ in range(SETUP_PROBES)] if pacer else []
        units = {m["name"]: m["unit"]
                 for m in declared["per_layer" if args.trace else "end_to_end"]}
        return _measure(args, cli, ops, setup, pacer, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, cli, ops, setup, pacer, units) -> int:
    tracer = spans.Tracer() if args.trace else None
    pass_s, raw_pass_s, walls, deviations, failures = [], [], [], [], []
    attempted = failed = 0
    correct = True
    per_pass_layers = []
    start = time.perf_counter()
    with spans.instrument(tracer) if tracer else contextlib.nullcontext():
        while True:
            lo = len(tracer.spans) if tracer else 0
            if pacer:
                pacer.sample()
            t0 = time.perf_counter()
            with pacer.ticking() if pacer else contextlib.nullcontext():
                for op in ops:
                    with tracer.operation(f"op:{op.name}") if tracer else contextlib.nullcontext():
                        outcome = run_operation(op, cli.main)
                    attempted += 1
                    deviations.extend(outcome.deviations)
                    if not outcome.ok:
                        failed += 1
                        failures.append(f"{op.name}: {outcome.reason}")
                    correct = correct and is_expected(op, outcome)
            t1 = time.perf_counter()
            walls.append(t1 - t0)
            if pacer:
                pacer.sample()
                raw, scaled = pacer.reference_seconds(t0, t1)
                raw_pass_s.append(raw)
                pass_s.append(scaled)
            else:
                pass_s.append(t1 - t0)
            if tracer:
                per_pass_layers.append(spans.layer_metrics(tracer.spans, lo))
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break

    wall = statistics.median(pass_s)
    if tracer:
        values = spans.median_metrics(per_pass_layers)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            # a run in which no operation produced a sigma reads 1 (100 %)
            "sigma_max_rel_dev": max(deviations, default=1.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(units) != set(values):
        sys.exit(f"error: BENCHMARK.json declares {sorted(units)}, run measured {sorted(values)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  passes=len(pass_s), pass_s=pass_s, raw_pass_s=raw_pass_s, setup_s=setup,
                  kernel_s=pacer.kernel_times() if pacer else [],
                  failures=sorted(set(failures)))
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".result.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        _write_spans(tracer.spans, stem.with_suffix(".spans.json"))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(pass_s)} passes, "
          f"median pass {wall:.4f} s; failures: {sorted(set(failures)) or 'none'}")
    print(json.dumps(result))
    return 0


def _write_spans(span_list, path: Path) -> None:
    """Spans as [name, start, end, parent, count, book], times relative to
    the first span's start."""
    t0 = span_list[0][spans.START] if span_list else 0.0
    rows = [[s[spans.NAME], round(s[spans.START] - t0, 7), round(s[spans.END] - t0, 7),
             s[spans.PARENT], s[spans.COUNT], round(s[spans.BOOK], 7)] for s in span_list]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "count", "book_s"],
                   "spans": rows}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
