#!/usr/bin/env python3
"""e2e: the wall-clock, layer-attributed benchmark.  See README.md beside this file.

    python benchmarks/e2e/run.py [--seed N] [--traced] [--smoke]
                                 [--workload NAME] [--out PATH] [--seconds S]

builds the fixtures, runs the seven workloads (timed pass with nothing wrapped,
then a traced pass), checks every answer against the brute-force oracle,
prints every metric by name with its unit and writes the same as JSON.

The benchmark driver's form,

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of stdout, one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"e2e: the library is not in this checkout (no {SRC / 'repro'})")
# Siblings are imported as the package `e2e` (so trace.py cannot shadow the
# standard library's trace); the script's own directory leaves the path.
sys.path[0:1] = [str(HERE.parent), str(SRC)]

import numpy as np  # noqa: E402

from e2e import fixtures, metrics, oracle, workloads  # noqa: E402

#: Seconds one workload measures for when --seconds is not given.
DEFAULT_SECONDS = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
#: A worker must be warmed up and ready within this many seconds.
READY_TIMEOUT_S = 120.0
SETUP_REPEAT_S = 2.0
OUT_DIR = HERE / "out"


class Worker:
    """The driver's end of one worker subprocess (JSON lines over pipes)."""

    def __init__(self, spec: dict):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(HERE.parent), str(SRC)])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "e2e.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.alive = True
        self._send(spec)

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # EOF: the worker is gone

    def _send(self, message: dict) -> None:
        try:
            self.proc.stdin.write(json.dumps(message) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError):
            self.alive = False

    def receive(self, timeout: float) -> dict | None:
        """The next reply, or None (and a dead worker) on timeout or EOF."""
        if self.alive:
            try:
                line = self._lines.get(timeout=timeout)
            except queue.Empty:
                line = None
            if line is not None:
                return json.loads(line)
            self.kill()
        return None

    def ask(self, message: dict, timeout: float = oracle.ROUND_TIMEOUT_S) -> dict | None:
        self._send(message)
        return self.receive(timeout)

    def kill(self) -> None:
        self.alive = False
        self.proc.kill()
        self.proc.wait()

    def stop(self) -> None:
        if self.alive:
            self._send({"cmd": "exit"})
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.kill()
        self.alive = False
        self.proc.stdin.close()
        self._reader.join(timeout=5)
        self.proc.stdout.close()


def host_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def oracle_columns(generations: list[list]) -> list[np.ndarray]:
    """What the oracle keeps of every written particle: position, id, density."""
    dtype = np.dtype([("position", "f8", (3,)), ("id", "f8"), ("density", "f8")])
    out = []
    for batches in generations:
        data = np.empty(sum(len(b) for b in batches), dtype=dtype)
        pos = 0
        for batch in batches:
            for name in dtype.names:
                data[name][pos : pos + len(batch)] = batch.data[name]
            pos += len(batch)
        out.append(data)
    return out


def build_fixture(name: str, seed: int, smoke: bool, tmp: str) -> dict:
    """Generate (and for R, C write) one fixture; timed as part of setup_s."""
    fx = fixtures.FIXTURES[name]
    root = os.path.join(tmp, name)
    start = time.perf_counter()
    generations = fixtures.generate(fx, seed, smoke)
    if fx.on_disk:
        fixtures.write_dataset(fx, generations[0], root)
    build_s = time.perf_counter() - start
    itemsize = generations[0][0].dtype.itemsize
    return {
        "fixture": fx,
        "root": root,
        "build_s": build_s,
        "oracle": oracle.Oracle(oracle_columns(generations)),
        "payload_bytes": fx.particles(smoke) * fx.generations * itemsize,
    }


def start_worker(spec: dict, build_s: float) -> tuple[Worker, float]:
    """A ready worker and its start -> ready time.  A set-up of under
    SETUP_REPEAT_S is too short to time once: the worker is then started up
    to three times and the median start counts."""
    starts: list[float] = []
    while True:
        start = time.perf_counter()
        worker = Worker(spec)
        ready = worker.receive(READY_TIMEOUT_S)
        starts.append(time.perf_counter() - start)
        if ready is None:
            worker.stop()
            raise SystemExit(f"e2e: worker for {spec['workload']} did not become ready")
        if len(starts) == 3 or build_s + sum(starts) >= SETUP_REPEAT_S:
            return worker, statistics.median(starts)
        worker.stop()


def run(
    names: list[str],
    seed: int,
    seconds: float,
    rounds: int,
    smoke: bool,
    traced: bool,
    trace_path: str,
    tmp: str,
) -> dict:
    """Timed pass (and traced pass) of ``names``; returns the result envelope."""
    built = {
        fixture: build_fixture(fixture, seed, smoke, tmp)
        for fixture in dict.fromkeys(workloads.WORKLOADS[n].fixture for n in names)
    }
    state: dict[str, dict] = {}
    try:
        for name in names:
            fx = built[workloads.WORKLOADS[name].fixture]
            ops = workloads.make_ops(name, seed, smoke)
            spec = {
                "workload": name,
                "root": fx["root"],
                "ops": ops,
                "seed": seed,
                "smoke": smoke,
            }
            if name == "lod_prefix":
                spec["prefix_ids_path"] = os.path.join(tmp, "prefix_ids.npy")
            worker, start_s = start_worker(spec, fx["build_s"])
            prefix_ids = np.load(spec["prefix_ids_path"]) if name == "lod_prefix" else None
            state[name] = {
                "worker": worker,
                "fixture": fx,
                "list_ops": len(workloads.flat_ops(ops)),
                "expected": workloads.expected_answers(name, ops, fx["oracle"], prefix_ids),
                "setup_s": fx["build_s"] + start_s,
                "rounds": [],
                "attempted": 0,
                "failed": 0,
            }

        # One round at a time, round-robin: only one worker is ever running
        # and each workload's rounds are spread over the whole run.
        for _ in range(rounds):
            for name in names:
                st = state[name]
                reply = st["worker"].ask(
                    {"cmd": "round", "budget_s": seconds / workloads.ROUNDS}
                )
                if reply is None:  # timeout or crash: the round's ops failed
                    st["attempted"] += st["list_ops"]
                    st["failed"] += st["list_ops"]
                    continue
                st["rounds"].append(reply)
                st["attempted"] += len(reply["reported"])
                st["failed"] += oracle.count_failures(st["expected"], reply["reported"])

        for name in names:
            st = state[name]
            fx = st["fixture"]
            # write_append: the directory as the last cycle left it.
            st["stored_ratio"] = fixtures.stored_bytes(fx["root"]) / fx["payload_bytes"]

        if traced:
            for name in names:
                st = state[name]
                reply = st["worker"].ask({"cmd": "trace", "trace_path": trace_path})
                if reply is None:
                    raise SystemExit(f"e2e: traced round of {name} did not finish")
                st["trace_failed"] = oracle.count_failures(st["expected"], reply["reported"])
                st["trace_attempted"] = len(reply["reported"])
                st["per_layer"] = reply["per_layer"]
                st["traced_lat_ns"] = reply["lat_ns"]
                extras = st["worker"].ask({"cmd": "extras"}, timeout=3 * oracle.ROUND_TIMEOUT_S)
                if extras is None:
                    raise SystemExit(f"e2e: side measurements of {name} did not finish")
                st["per_layer"].update(extras)
    finally:
        for st in state.values():
            st["worker"].stop()

    result = {
        "benchmark": "e2e",
        "host": host_facts(),
        "clock": "wall",
        "storage": "page-cache",
        "seed": seed,
        "git_sha": git_sha(),
        "rounds": rounds,
        "seconds": seconds,
        "smoke": smoke,
        "workloads": {},
    }
    for name in names:
        st = state[name]
        w = workloads.WORKLOADS[name]
        if st["rounds"]:
            end_to_end = metrics.summarise_rounds(st["rounds"])
        else:
            end_to_end = {m: metrics.single(0.0) for m in metrics.PER_ROUND}
        end_to_end["setup_s"] = metrics.single(st["setup_s"])
        end_to_end["stored_bytes_per_payload_byte"] = metrics.single(st["stored_ratio"])
        end_to_end["fail_ratio"] = metrics.single(st["failed"] / st["attempted"])
        for metric, cell in end_to_end.items():
            cell["unit"] = metrics.E2E_UNITS[metric]
        entry = {
            "why": w.why,
            "fixture": w.fixture,
            "ops": {
                "per_pass": st["list_ops"],
                "passes_per_round": [r["passes"] for r in st["rounds"]],
                "attempted": st["attempted"],
                "failed": st["failed"],
            },
            "end_to_end": end_to_end,
        }
        if traced:
            per_layer = st["per_layer"]
            timed_p50 = end_to_end["op_p50_ms"]["value"]
            traced_p50 = float(np.median(st["traced_lat_ns"])) / 1e6
            per_layer["trace.overhead_ratio"] = traced_p50 / timed_p50 if timed_p50 else 0.0
            entry["per_layer"] = {
                metric: {"value": value, "unit": metrics.LAYER_UNITS[metric]}
                for metric, value in per_layer.items()
            }
            entry["ops"]["traced_attempted"] = st["trace_attempted"]
            entry["ops"]["traced_failed"] = st["trace_failed"]
        result["workloads"][name] = entry
    return result


def print_metrics(result: dict) -> None:
    for name, entry in result["workloads"].items():
        ops = entry["ops"]
        print(f"\n{name}  (fixture {entry['fixture']}, {ops['attempted']} ops, {ops['failed']} failed)")
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry.get(section, {}).items():
                print(f"  {metric:<40} {cell['value']:>14.6g} {cell['unit']}")


def contract_line(result: dict, name: str, trace: bool) -> str:
    """The driver contract's last line of stdout."""
    entry = result["workloads"][name]
    ops = entry["ops"]
    if trace:
        cells = entry["per_layer"]
        attempted = ops["attempted"] + ops["traced_attempted"]
        failed = ops["failed"] + ops["traced_failed"]
    else:
        cells = {m: entry["end_to_end"][m] for m, _u, _b, _bound in metrics.END_TO_END}
        attempted, failed = ops["attempted"], ops["failed"]
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m: {"value": c["value"], "unit": c["unit"]} for m, c in cells.items()},
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="seconds each workload measures for (split over the rounds)")
    parser.add_argument("--traced", action="store_true",
                        help="one timed round only (the reference for "
                             "trace.overhead_ratio), then the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round, <= 10 ops per workload, fixtures shrunk 8x")
    parser.add_argument("--out", type=Path, help="result JSON (default out/BENCH_e2e.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: print one JSON line with the end-to-end (0) "
                             "or per-layer (1) metrics of --workload")
    args = parser.parse_args()
    contract = args.trace is not None
    if contract and not args.workload:
        parser.error("--trace needs --workload")

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    rounds = 1 if (args.smoke or args.traced) else workloads.ROUNDS
    seconds = 0.0 if args.smoke else args.seconds  # smoke: one pass per round
    traced = bool(args.trace) if contract else True

    OUT_DIR.mkdir(exist_ok=True)
    # Fixtures live inside the checkout: the benchmark writes nowhere else.
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        trace_path = os.path.join(tmp if contract else OUT_DIR, "trace.jsonl")
        if not contract and os.path.exists(trace_path):
            os.remove(trace_path)
        result = run(names, args.seed, seconds, rounds, args.smoke, traced, trace_path, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print_metrics(result)
    if args.out or not contract:
        out = args.out or OUT_DIR / "BENCH_e2e.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {out}")
    if contract:
        print(contract_line(result, args.workload, bool(args.trace)))
    failed = sum(e["ops"]["failed"] + e["ops"].get("traced_failed", 0)
                 for e in result["workloads"].values())
    return 1 if failed and not contract else 0


if __name__ == "__main__":
    sys.exit(main())
