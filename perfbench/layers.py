"""Traced run of every workload, printed as one per-layer table.

Usage, from the root of a checkout::

    python3 perfbench/layers.py [--seconds N] [--seed 1]

Runs ``run.py --trace 1`` once per workload (an untraced half-window,
then a traced one) and prints each per-layer metric of ``BENCHMARK.json``
as a row with one column per workload.  Below the table it checks the
books: ``front.unattributed_us_per_msg`` (the traced front's CPU per
message minus the layers' self times) must not be negative, since
self times that exceed the process's CPU mean the wrappers counted some
time twice.  Beside it go the tracing overhead and the spans the tracer
dropped once it held its cap (the books count every span; only the spans
file misses them).  Spans go to ``perfbench/out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import SELF_TIME  # noqa: E402


def traced_run(workload: str, seed: int, seconds: int) -> tuple[dict, int]:
    """The result line of one traced run, and the spans its tracer dropped."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} failed:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines() if line.startswith("{")]
    dropped = sum(line["session"].get("spans_dropped", 0) for line in lines if "session" in line)
    return lines[-1], dropped


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {w: traced_run(w, args.seed, args.seconds) for w in workloads}
    results = {w: result for w, (result, _) in runs.items()}
    width = 14
    print(f"{'per-layer metric':34s} {'unit':7s}" + "".join(w.rjust(width) for w in workloads))
    for metric in bench["per_layer"]:
        name = metric["name"]
        cells = "".join(
            f"{results[w]['metrics'][name]['value']:.4g}".rjust(width) for w in workloads
        )
        print(f"{name:34s} {metric['unit']:7s}{cells}")
    print()
    ok = True
    for w in workloads:
        m = {k: v["value"] for k, v in results[w]["metrics"].items()}
        attributed = sum(m[k] for k in SELF_TIME)
        unattributed = m["front.unattributed_us_per_msg"]
        books = "ok" if unattributed >= 0 else "SELF TIMES EXCEED THE FRONT'S CPU"
        print(
            f"{w:12s} layer self times {attributed:8.1f} us + unattributed "
            f"{unattributed:8.1f} us = traced front CPU "
            f"{m['front.cpu_us_per_msg_traced']:8.1f} us/msg ({books}); tracing overhead "
            f"{m['trace.overhead_us_per_msg']:8.1f} us/msg; spans dropped {runs[w][1]}; "
            f"correct={results[w]['correct']} "
            f"failed={results[w]['failed']}/{results[w]['attempted']}"
        )
        ok = ok and results[w]["correct"] and unattributed >= 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
