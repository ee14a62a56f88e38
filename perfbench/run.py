"""Benchmark of copytag: tagging, sweeps and training on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, one process each
    python3 perfbench/run.py --workload ner-k100 --seed 3 --seconds 10 --trace 0

A single workload prints each metric with its unit and, as its last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; end-to-end times are at the reference speed of
calibrate.py. The full record, with raw times, output digests and
environment, is written to perfbench/out/, and a traced run also writes
its spans there.
The program is imported from src/ of the same checkout.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads: small matrix
# products on a shared machine are steadier single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _import_program() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import copytag

    if Path(copytag.__file__).resolve().parent != src / "copytag":
        raise ImportError(f"copytag was imported from {copytag.__file__}, not {src}")


def _parser(names: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="copytag benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *names])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser


def print_result(result: dict) -> None:
    name = result["workload"]
    env = result["environment"]
    print(
        f"# {name} seed={result['seed']} trace={result['trace']} "
        f"rounds={result['rounds']} samples={result['samples']} "
        f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']}"
    )
    kernel = result["kernel_s"]
    if kernel["min"] is not None:
        print(f"# reference kernel: fastest {1000 * kernel['min']:.3f} ms against "
              f"{1000 * kernel['reference']:.3f} ms; raw times: "
              + " ".join(f"{k}={v:.6g}" for k, v in result["raw_times"].items()
                         if v is not None))
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{name} {metric} {shown} {entry['unit']}")
    print(
        f"{name} fail_ratio {result['fail_ratio']:.6g} "
        f"({result['failed']}/{result['attempted']} operations)"
    )
    for problem in result["problems"]:
        print(f"{name} problem: {problem}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line, sort_keys=False))


def write_record(result: dict, tracer) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if result["trace"]:
        with open(OUT / f"{stem}-spans.json", "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, handle)


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    code = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        code = code or child.returncode
    return code


def main(argv=None) -> int:
    _import_program()
    from workloads import WORKLOADS

    args = _parser(list(WORKLOADS)).parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))

    from harness import run

    result, tracer = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    write_record(result, tracer)
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
