"""One workload's long-lived worker subprocess: ``python -m e2e.worker``.

Each workload runs in its own process so that it has its own RSS high-water
mark, its own handle pool and facade memos, and so that a hang or crash costs
one workload.  The driver speaks JSON lines over stdin/stdout: the first line
is the spec (workload, dataset root, op list), each later line one command.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from .fixtures import FIXTURES
from .metrics import layer_metrics
from .trace import Tracer
from .workloads import WORKLOADS, Runner, make_runner


def run_round(runner: Runner, budget_s: float) -> dict:
    """Whole passes over the op list: at least one, then for as long as the
    next is expected to end nearer to ``budget_s`` than this one did."""
    total = {"lat_ns": [], "busy_ns": 0, "reported": [], "payload": 0, "passes": 0}
    reset_peak_rss()
    start = time.perf_counter()
    while True:
        out = runner.run_pass()
        total["passes"] += 1
        total["lat_ns"] += out["lat_ns"]
        total["reported"] += out["reported"]
        total["busy_ns"] += out["busy_ns"]
        total["payload"] += out["payload"]
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / total["passes"] > budget_s:
            total["peak_rss_mb"] = peak_rss_mb()
            return total


def reset_peak_rss() -> None:
    """Start a new RSS high-water mark, so that each round has its own peak
    and one allocator spike does not set the number for the whole run."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass  # not permitted here: the mark then covers the worker's life


def peak_rss_mb() -> float:
    """This process's RSS high-water mark.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries ``ru_maxrss`` over
    fork+exec, so a worker would start at the driver's footprint (which holds
    the whole fixture as the oracle)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def traced_round(runner: Runner, trace_path: str) -> dict:
    """One pass with every layer's public callables wrapped."""
    tracer = Tracer()
    tracer.install(FIXTURES[WORKLOADS[runner.name].fixture].config.get("codec"))
    runner.start_trace(tracer)
    try:
        out = runner.run_pass()
    finally:
        runner.stop_trace()
        tracer.uninstall()
    tracer.dump(trace_path, runner.name)
    out["per_layer"] = layer_metrics(runner, tracer, out)
    return out


def main() -> None:
    protocol = sys.stdout
    sys.stdout = sys.stderr  # a stray print must not corrupt the protocol

    def reply(message: dict) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    spec = json.loads(sys.stdin.readline())
    runner = make_runner(spec)
    try:
        runner.warmup()
        if spec.get("prefix_ids_path"):
            np.save(spec["prefix_ids_path"], runner.answer(0)["id"])
        reply({"ready": True})
        for line in sys.stdin:
            message = json.loads(line)
            command = message["cmd"]
            if command == "round":
                reply(run_round(runner, message["budget_s"]))
            elif command == "trace":
                reply(traced_round(runner, message["trace_path"]))
            elif command == "extras":
                reply(runner.extras())
            elif command == "exit":
                break
    finally:
        runner.close()


if __name__ == "__main__":
    main()
