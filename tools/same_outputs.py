"""Compare what two conecond checkouts print on the benchmark's operations.

    python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two source checkouts.  The command lines
are those of one pass of every benchmark workload, built by this checkout's
``perfbench/workloads.py`` (imported, never written): ``closed_sweep`` at the
seeds 20261018, 7 and 3, ``kubo_cones`` and ``verify_critical``, 54 in all.
The model files they name are written once, so both checkouts read the same
paths.  Each checkout runs every command in-process through
``conecond.cli.main`` in a child interpreter of its own, importing conecond
from its ``src/``, with one BLAS thread as the benchmark runs it.  An
exception that escapes ``main`` is recorded by its type and message.

Prints each operation whose exit code, standard output or standard error
differ, with the first differing line, and exits 1 if any does, else 0.
Where both standard outputs are JSON reports of the same layout, it also
prints the largest relative difference between their numbers, so a change
that moves last bits states how far they moved.
"""

from __future__ import annotations

import os

# one BLAS thread, as perfbench/run.py pins it: the thread count can change
# the rounding of a product
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = {"closed_sweep": (20261018, 7, 3), "kubo_cones": (20261018,),
         "verify_critical": (20261018,)}


def operations(workdir: str) -> list:
    """[(label, argv)] of one pass of every workload at its seeds; model
    files go to ``workdir``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import BUILDERS

    ops = []
    for workload, seeds in SEEDS.items():
        for seed in seeds:
            ops += [(f"{workload}[seed={seed}]/{op.name}", op.argv)
                    for op in BUILDERS[workload](seed, workdir)]
    return ops


def run_all(src: Path, argvs: list) -> list:
    """Every command line of ``argvs`` through the ``conecond.cli.main`` of
    ``src``: [[exit code or escaped exception, stdout, stderr]]."""
    sys.path.insert(0, str(src))
    import conecond.cli

    if Path(conecond.cli.__file__).resolve().parent != (src / "conecond").resolve():
        sys.exit(f"error: imported conecond from {conecond.cli.__file__}, not {src}")
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = conecond.cli.main(argv)
        except Exception as exc:  # recorded, as the benchmark records it
            code = f"{type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def _collect(checkout: str, argvs: list) -> list:
    """run_all in a child interpreter on the checkout's src/."""
    src = Path(checkout).resolve() / "src"
    if not (src / "conecond" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'conecond'} not found")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run", str(src)],
                          input=json.dumps(argvs), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: the run on {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _first_difference(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {i}: {x!r} != {y!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def _leaves(report, path="") -> list:
    """The leaves of a parsed JSON report in document order, as (path,
    value) pairs, the path naming its keys and indices."""
    if isinstance(report, dict):
        return [x for k, v in report.items() for x in _leaves(v, f"{path}.{k}")]
    if isinstance(report, list):
        return [x for i, v in enumerate(report) for x in _leaves(v, f"{path}[{i}]")]
    return [(path, report)]


def _largest_relative_difference(a: str, b: str) -> str:
    """How far the numbers of two JSON reports moved: the largest
    |x - y| / max(|x|, |y|) over their numbers and where it is, or why it
    is not defined."""
    try:
        x, y = _leaves(json.loads(a)), _leaves(json.loads(b))
    except ValueError:
        return "not JSON"

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if [p for p, _ in x] != [p for p, _ in y] or any(
            not (number(u) and number(v)) and u != v for (_, u), (_, v) in zip(x, y)):
        return "the reports' layouts or non-numeric values differ"
    rel, where = max(((abs(u - v) / max(abs(u), abs(v)), p) for (p, u), (_, v) in zip(x, y)
                      if number(u) and u != v), default=(0.0, "nowhere"))
    return f"{rel:.3e} at {where}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", nargs="?")
    p.add_argument("change", nargs="?")
    p.add_argument("--run", metavar="SRC", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run:
        json.dump(run_all(Path(args.run), json.load(sys.stdin)), sys.stdout)
        return 0
    if not (args.parent and args.change):
        p.error("give the PARENT and CHANGE checkouts")
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as workdir:
        ops = operations(workdir)
        argvs = [a for _, a in ops]
        before, after = (_collect(c, argvs) for c in (args.parent, args.change))
    differ = 0
    for (label, _), old, new in zip(ops, before, after):
        fields = [name for name, x, y in zip(("exit", "stdout", "stderr"), old, new) if x != y]
        if not fields:
            continue
        differ += 1
        print(f"DIFFERS {label}: {', '.join(fields)}")
        if old[0] != new[0]:
            print(f"  exit: {old[0]!r} != {new[0]!r}")
        for name, x, y in zip(("stdout", "stderr"), old[1:], new[1:]):
            if x != y:
                print(f"  {name} {_first_difference(x, y)}")
        if old[1] != new[1]:
            print("  stdout largest relative difference of the numbers: "
                  f"{_largest_relative_difference(old[1], new[1])}")
    print(f"{len(ops) - differ} of {len(ops)} operations print the same exit code, "
          "stdout and stderr")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
