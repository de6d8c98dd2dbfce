"""Steadiness check: two sets of runs of the same code, compared.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--runs 10] [--seconds N] [--workloads a,b] [--sets 2]

Runs ``run.py --trace 0`` ``--runs`` times per workload in each set, each
run with its own seed (set A takes seeds 1..runs, set B runs+1..2*runs).
Runs are interleaved: round i runs one run of every workload for set A
and one for set B, alternating which set goes first and reversing the
workload order every other round, so a slow spell of the host falls on
both sets alike.  Each run's line carries the host-speed probe of
``run.py`` (CPU seconds of a fixed pure-Python loop).

At the end it prints, per (workload, end-to-end metric), each set's
median and quartiles, the spread (quartile distance over median), and
whether set B's median is worse than set A's by more than the metric's
bound in ``BENCHMARK.json``.  The figures of the runs' info line
(throughput, latency, host steal, overtakings per 1,000 one-way
messages) are summarised the same way but carry no bound; their shift is
the plain relative change of the median.  The raw runs are saved to
``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["host"] = json.loads(lines[0])["host"]
    result["sessions"] = [json.loads(line)["session"] for line in lines[1:-1] if '"session"' in line]
    result["info"] = next(json.loads(line)["info"] for line in lines if line.startswith('{"info"'))
    result["wall_s"] = time.perf_counter() - t0
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    sets = "AB"[: args.sets]
    runs: dict[tuple[str, str], list[dict]] = {(s, w): [] for s in sets for w in workloads}
    for i in range(args.runs):
        order = sets if i % 2 == 0 else sets[::-1]
        for s in order:
            for w in workloads if i % 2 == 0 else workloads[::-1]:
                seed = i + 1 + (args.runs if s == "B" else 0)
                result = one_run(w, seed, args.seconds)
                runs[(s, w)].append(result)
                figures = " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in {**result["metrics"], **result["info"]}.items()
                )
                print(
                    f"set {s} {w:12s} seed {seed:3d} wall_s={result['wall_s']:.1f} "
                    f"probe_s={result['host']['probe_s']:.3f} "
                    f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                    f"{figures}",
                    flush=True,
                )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(
        json.dumps({f"{s}/{w}": v for (s, w), v in runs.items()}, indent=1)
    )
    ok = True
    print()
    print(f"{'workload':12s} {'metric':18s} " + " ".join(
        f"{s}:q1/median/q3 (spread)".rjust(40) for s in sets
    ) + "  shift  bound  verdict")
    for w in workloads:
        ungated = [
            {"name": name, "bound": float("nan")} for name in runs[(sets[0], w)][0]["info"]
        ]
        for metric in bench["end_to_end"] + ungated:
            name, bound = metric["name"], metric["bound"]
            gated = bound == bound  # the info-line figures carry no bound
            cells, medians = [], []
            for s in sets:
                values = [
                    (r["metrics"] if gated else r["info"])[name]["value"] for r in runs[(s, w)]
                ]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                cells.append(f"{q1:.4g}/{med:.4g}/{q3:.4g} ({spread:.3f})".rjust(40))
                if gated and name != "setup_s" and spread > bound:
                    ok = False
            verdict, shift = ("", 0.0) if gated else ("not gated", 0.0)
            if len(medians) == 2 and medians[0]:
                sign = -1 if metric.get("better") == "higher" else 1
                shift = sign * (medians[1] - medians[0]) / medians[0]
                if gated:
                    verdict = "ok" if shift <= bound else "WORSE"
                    ok = ok and shift <= bound
            print(f"{w:12s} {name:18s} " + " ".join(cells) + f"  {shift:+.3f}  {bound:.3f}  {verdict}")
        shares = {
            s: sum(r["failed"] for r in runs[(s, w)]) / sum(r["attempted"] for r in runs[(s, w)])
            for s in sets
        }
        print(f"{w:12s} failed share " + " ".join(f"{s}={v:.6f}" for s, v in shares.items()))
        ok = ok and len(set(shares.values())) == 1
        ok = ok and all(r["correct"] for s in sets for r in runs[(s, w)])
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
