"""End-to-end benchmark of the WS-Dispatcher front over loopback TCP.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oneway-0k5 --seed 1 --seconds 20 --trace 0

One run: start the load process's sinks and stubs, then three times:
launch the front process (``front.py``) and time its set-up, warm up,
drive the closed loop for a third of ``--seconds``, check every output
with the oracles, stop the front.  The metrics are medians over the
1-s slices and latency chunks of the three windows.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

With ``--trace 1`` the window is split in two halves on two fronts: an
untraced one, then one with the layer wrappers of ``tracer.py``; the
difference of their CPU per message is the tracing overhead.  The spans
of the traced half are written to ``perfbench/out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import platform
import select
import socket
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from load import WORKLOADS  # noqa: E402

FRONTS = 3
WARMUP_S = 1.5
SLICE_S = 1.0
#: latency samples per chunk; each chunk leaves at least 10 beyond its p99
LATENCY_CHUNK = 1000
LAUNCH_TIMEOUT = 60.0
CLK_TCK = os.sysconf("SC_CLK_TCK")

#: the metrics of the result line, by name and unit, as ``BENCHMARK.json`` lists them
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
#: end-to-end figures printed on the ``info`` line only: on a host whose
#: hypervisor steals up to 89% of a CPU, no estimator tried kept their
#: run-to-run spread inside the largest allowed bound (see README)
WALL_CLOCK = {"msgs_per_s": "msg/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms"}


# -- host ---------------------------------------------------------------------
def host_probe() -> float:
    """CPU seconds of a fixed pure-Python loop: a slow host reads high."""
    t0 = time.process_time()
    acc = 0
    for i in range(1_500_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.process_time() - t0


def host_stamp() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "probe_s": round(host_probe(), 4),
    }


# -- the front process, read from outside ------------------------------------
def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def host_steal_s() -> float:
    """CPU time the hypervisor took from this machine's CPUs, summed."""
    with open("/proc/stat", encoding="ascii") as f:
        return int(f.readline().split()[8]) / CLK_TCK


def proc_status(pid: int, key: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def proc_threads(pid: int) -> list[str]:
    return os.listdir(f"/proc/{pid}/task")


def proc_ctx_switches(pid: int) -> int:
    total = 0
    for tid in proc_threads(pid):
        try:
            with open(f"/proc/{pid}/task/{tid}/status", encoding="ascii") as f:
                for line in f:
                    if line.endswith("ctxt_switches:", 0, line.find(":") + 1):
                        total += int(line.split()[1])
        except FileNotFoundError:
            pass  # the thread ended while we looked
    return total


def http_get(port: int, path: str, timeout: float = 30.0) -> tuple[int, bytes]:
    """A blocking GET on a fresh connection (control plane, outside the window)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(b"GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" % path.encode())
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


class Front:
    """One front process: launched, timed to its first answer, stopped."""

    def __init__(self, runtime: str, services: dict, trace: bool) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "front.py"), "--runtime", runtime,
             "--services", json.dumps(services), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT),
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], LAUNCH_TIMEOUT)
            line = self.proc.stdout.readline() if ready else b""
            if not line.startswith(b"PORT "):
                raise RuntimeError(f"front did not start (said {line!r})")
            self.port = int(line.split()[1])
            status, _ = http_get(self.port, "/health")
            if status != 200:
                raise RuntimeError(f"front answered its first request with {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        self.pid = self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- /metrics scrape -----------------------------------------------------------
def scrape(port: int) -> dict[tuple, float]:
    """Prometheus text from ``/metrics`` as {(name, sorted labels): value}."""
    status, body = http_get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out: dict[tuple, float] = {}
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        pairs = tuple(sorted(
            tuple(p.split("=", 1)) for p in labels.rstrip("}").replace('"', "").split(",") if p
        ))
        out[(name, pairs)] = float(value)
    return out


def counter_delta(before: dict, after: dict, name: str, **labels: str) -> float:
    """Sum of a family's series matching ``labels``, after minus before."""
    want = set(labels.items())
    total = 0.0
    for (series, pairs), value in after.items():
        if series == name and want <= set(pairs):
            total += value - before.get((series, pairs), 0.0)
    return total


def histogram_mean_ms(before: dict, after: dict, name: str, **labels: str) -> float:
    """Mean of a histogram family over the window, from its ``_sum`` and
    ``_count`` deltas (exact, unlike a quantile read off wide buckets);
    0 when nothing was observed."""
    count = counter_delta(before, after, name + "_count", **labels)
    return counter_delta(before, after, name + "_sum", **labels) / count * 1000 if count else 0.0


# -- one window -------------------------------------------------------------------
def percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, max(0, round(q * len(sorted_values)) - 1))
    return sorted_values[index]


async def window(workload, front: Front, seconds: float) -> dict:
    """Drive the closed loop for ``seconds`` and read the front around it."""
    slices: list[tuple[float, int, float, float]] = []

    async def ticker() -> None:
        while True:
            slices.append(
                (time.perf_counter(), workload.stats.done, proc_cpu_s(front.pid), host_steal_s())
            )
            await asyncio.sleep(SLICE_S)

    ctx0, cpu0 = proc_ctx_switches(front.pid), proc_cpu_s(front.pid)
    t0 = time.perf_counter()
    task = asyncio.ensure_future(ticker())
    await asyncio.sleep(0)
    stats = await workload.phase(seconds)
    task.cancel()
    t1 = time.perf_counter()
    cpu1, ctx1 = proc_cpu_s(front.pid), proc_ctx_switches(front.pid)
    done = stats.done
    rates, costs, steal = [], [], []
    for (ta, na, ca, sa), (tb, nb, cb, sb) in zip(slices, slices[1:]):
        if nb > na:
            rates.append((nb - na) / (tb - ta))
            costs.append((cb - ca) / (nb - na) * 1e6)
            steal.append((sb - sa) / (tb - ta))
    chunks = [
        sorted(stats.latencies[i:i + LATENCY_CHUNK])
        for i in range(0, len(stats.latencies) - LATENCY_CHUNK + 1, LATENCY_CHUNK)
    ] or [sorted(stats.latencies)]
    return {
        "done": done,
        "started": stats.started,
        "seconds": t1 - t0,
        "slice_rates": rates,
        "slice_cpu_us_per_msg": costs,
        "slice_steal": steal,
        "cpu_us_per_msg_total": (cpu1 - cpu0) / max(done, 1) * 1e6,
        "chunk_p50_ms": [percentile(c, 0.50) * 1000 for c in chunks],
        "chunk_p99_ms": [percentile(c, 0.99) * 1000 for c in chunks],
        "samples": len(stats.latencies),
        "ctx_switches": ctx1 - ctx0,
    }


def end_to_end(sessions: list[dict], setup_s: float) -> dict[str, float]:
    """Medians over the 1-s slices and latency chunks of all sessions."""

    def pooled(key: str) -> float:
        return statistics.median(x for s in sessions for x in s[key])

    return {
        "setup_s": setup_s,
        "msgs_per_s": pooled("slice_rates"),
        "latency_p50_ms": pooled("chunk_p50_ms"),
        "latency_p99_ms": pooled("chunk_p99_ms"),
        "cpu_us_per_msg": pooled("slice_cpu_us_per_msg"),
        "front_rss_mb": max(s["rss_mb"] for s in sessions),
        "host_steal": statistics.median(x for s in sessions for x in s["slice_steal"]),
    }


async def session(workload, front: Front, seconds: float, tracer_books: bool = False) -> dict:
    """Warm up, then one measured window on ``front``; checks its outputs."""
    attempted_before = workload.serial
    await workload.connect(front.port)
    await workload.phase(WARMUP_S)
    before = scrape(front.port)
    if tracer_books:
        http_get(front.port, "/perfbench/trace?op=reset")
    result = await window(workload, front, seconds)
    after = scrape(front.port)
    if tracer_books:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload.name}.jsonl"
        _, body = http_get(front.port, f"/perfbench/trace?op=dump&spans={spans}")
        result["trace"] = json.loads(body)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans_dropped"] = result["trace"]["dropped"]
    result["threads"] = len(proc_threads(front.pid))
    result["rss_mb"] = proc_status(front.pid, "VmHWM") / 1024
    result["scraped"] = scraped_layers(before, after, result["done"])
    await workload.disconnect()
    workload.oracle.finish()
    result["failed"] = workload.oracle.failed
    result["violations"] = list(workload.oracle.violations)
    result["attempted"] = workload.serial - attempted_before
    result["reordered"] = len(getattr(workload.oracle, "reordered", ()))
    return result


def scraped_layers(before: dict, after: dict, done: int) -> dict[str, float]:
    """Per-layer figures from counts the front exports on ``/metrics``."""
    n = max(done, 1)

    def share(name: str, good: str) -> float:
        total = counter_delta(before, after, name)
        return counter_delta(before, after, name, outcome=good) / total if total else 0.0

    return {
        "rt.conn_opened_per_kmsg":
            counter_delta(before, after, "rt_client_conn_reuse_total", outcome="fresh") * 1000 / n,
        "soap.fastpath_share": share("soap_fastpath_total", "fast"),
        "core.registry_hit_share": share("registry_cache_total", "hit"),
        "core.accept_wait_ms_mean":
            histogram_mean_ms(before, after, "msgd_stage_seconds", stage="queue_accept"),
        "core.dest_wait_ms_mean":
            histogram_mean_ms(before, after, "msgd_stage_seconds", stage="queue_destination"),
        "core.deliver_ms_mean":
            histogram_mean_ms(before, after, "msgd_stage_seconds", stage="deliver"),
        "core.rpc_forward_ms_mean": histogram_mean_ms(before, after, "rpcd_forward_seconds"),
        "msgbox.takes_per_reply": counter_delta(before, after, "msgbox_takes_total") / n,
    }


# -- per-layer table -------------------------------------------------------------
#: per-layer metric -> span names whose self time it sums (µs per msg)
SELF_TIME = {
    "transport.self_us_per_msg": ["transport.send", "transport.recv"],
    "http.parse_us_per_msg": ["http.parse"],
    "http.serialize_us_per_msg": ["http.serialize"],
    "rt.client_us_per_msg": ["rt.client", "rt.pipeline"],
    "rt.server_us_per_msg": ["rt.server"],
    "aio.client_us_per_msg": ["aio.client", "aio.pipeline"],
    "aio.server_us_per_msg": ["aio.server"],
    "xmlmini.scan_us_per_msg": ["xmlmini.scan"],
    "xmlmini.fragment_us_per_msg": ["xmlmini.fragment"],
    "xmlmini.parse_us_per_msg": ["xmlmini.parse"],
    "xmlmini.write_us_per_msg": ["xmlmini.write"],
    "soap.parse_us_per_msg": ["soap.parse"],
    "soap.serialize_us_per_msg": ["soap.serialize"],
    "soap.rpc_us_per_msg": ["soap.rpc"],
    "wsa.headers_us_per_msg": ["wsa.headers"],
    "wsa.rewrite_us_per_msg": ["wsa.rewrite"],
    "core.resolve_us_per_msg": ["core.resolve"],
    "core.admit_us_per_msg": ["core.admit"],
    "core.route_us_per_msg": ["core.route"],
    "core.drain_us_per_msg": ["core.drain"],
    "core.rpc_us_per_msg": ["core.rpc"],
    "msgbox.deposit_us_per_msg": ["msgbox.deposit"],
    "msgbox.take_us_per_msg": ["msgbox.take"],
    "msgbox.service_us_per_msg": ["msgbox.service"],
    "obs.self_us_per_msg": ["obs.metric", "obs.trace"],
    "util.self_us_per_msg": ["util.queue", "util.counter"],
}


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    books = traced["trace"]["books"]
    n = max(traced["done"], 1)

    def book(name: str, field: str) -> float:
        return books.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    attributed = 0.0
    for metric, names in SELF_TIME.items():
        value = sum(book(name, "self_ns") for name in names) / 1000 / n
        out[metric] = value
        attributed += value
    calls = lambda *names: sum(book(name, "calls") for name in names)  # noqa: E731
    out["transport.bytes_per_msg"] = book("transport.send", "bytes") / n
    out["transport.syscalls_per_msg"] = calls("transport.send", "transport.recv") / n
    out["rt.burst_size_mean"] = book("rt.pipeline", "items") / max(calls("rt.pipeline"), 1)
    out["aio.burst_size_mean"] = book("aio.pipeline", "items") / max(calls("aio.pipeline"), 1)
    out["obs.metric_updates_per_msg"] = calls("obs.metric") / n
    out["util.queue_ops_per_msg"] = calls("util.queue") / n
    out["util.counter_incs_per_msg"] = calls("util.counter") / n
    out.update(traced["scraped"])
    out["core.reordered_per_kmsg"] = traced["reordered"] * 1000 / max(traced["attempted"], 1)
    out["core.pending_correlations_peak"] = traced["trace"]["peak_correlations"]
    out["front.ctx_switches_per_msg"] = traced["ctx_switches"] / n
    out["front.threads"] = traced["threads"]
    out["front.cpu_us_per_msg_traced"] = traced["cpu_us_per_msg_total"]
    out["front.unattributed_us_per_msg"] = traced["cpu_us_per_msg_total"] - attributed
    out["trace.overhead_us_per_msg"] = (
        traced["cpu_us_per_msg_total"] - untraced["cpu_us_per_msg_total"]
    )
    return out


# -- the run ------------------------------------------------------------------------
async def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed)
    workload.name = args.workload
    await workload.start_servers()
    services = workload.services()
    sessions = []
    try:
        if not args.trace:
            # set-up is timed on every front; each front then carries an
            # equal share of the window, so one process's luck with thread
            # scheduling is one third of the run, not all of it
            setups = []
            for _ in range(FRONTS):
                front = Front(workload.runtime, services, trace=False)
                setups.append(front.setup_s)
                try:
                    sessions.append(await session(workload, front, args.seconds / FRONTS))
                finally:
                    front.stop()
            setup = statistics.median(setups)
        else:
            for traced in (False, True):
                front = Front(workload.runtime, services, trace=traced)
                try:
                    sessions.append(
                        await session(workload, front, args.seconds / 2, tracer_books=traced)
                    )
                finally:
                    front.stop()
            setup = front.setup_s
    finally:
        await workload.close()
    return {"setup_s": setup, "sessions": sessions}


def report(args, outcome: dict) -> dict:
    sessions = outcome["sessions"]
    violations = [v for s in sessions for v in s["violations"]]
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    main = sessions[-1]
    if args.trace:
        values = layer_metrics(main, sessions[0])
        units = PER_LAYER
    else:
        values = end_to_end(sessions, outcome["setup_s"])
        info = {name: {"value": values.pop(name), "unit": unit} for name, unit in WALL_CLOCK.items()}
        info["host_steal"] = {"value": values.pop("host_steal"), "unit": "cpu_s/s"}
        info["reordered_per_kmsg"] = {
            "value": sum(s["reordered"] for s in sessions) * 1000 / attempted, "unit": "1/kmsg"
        }
        print(json.dumps({"info": info}))
        units = END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}")
    for line in violations[:20]:
        print(f"violation: {line}")
    return {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < FRONTS * 2 * SLICE_S:
        ap.error(f"--seconds must be at least {FRONTS * 2 * SLICE_S:g}: two slices per front")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    print(json.dumps({"host": host_stamp(), "workload": args.workload, "seed": args.seed}))
    outcome = asyncio.run(run(args))
    for s in outcome["sessions"]:
        detail = {
            k: v for k, v in s.items()
            if k not in ("violations", "trace")
        }
        print(json.dumps({"session": detail}))
    print(json.dumps(report(args, outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
