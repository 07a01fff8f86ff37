"""Smoke test of the e2e benchmark: ``PYTHONPATH=src python -m pytest -q benchmarks/e2e``.

Runs the real command on shrunk fixtures (``--smoke``: 1 round, <= 10 ops per
workload) and holds ``BENCHMARK.json``, the metric tables and the output in
step.  Self-contained: nothing is imported from ``tests/`` or
``benchmarks/conftest.py``.
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from e2e import metrics, workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def command(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict[int, tuple[dict, str, Path]]:
    """``seed -> (result, stdout, path)`` of two ``--smoke`` runs."""
    runs = {}
    for seed in (0, 1):
        out = tmp_path_factory.mktemp("e2e") / f"smoke-{seed}.json"
        proc = command("--smoke", "--seed", str(seed), "--out", str(out))
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs[seed] = (json.loads(out.read_text()), proc.stdout, out)
    return runs


def spec_names(section: str) -> list[str]:
    return [m["name"] for m in SPEC[section]]


def test_benchmark_json_mirrors_the_tables():
    assert spec_names("workloads") == list(workloads.WORKLOADS)
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    for name in spec_names("workloads") + spec_names("end_to_end") + spec_names("per_layer"):
        assert NAME.fullmatch(name), name


def test_every_name_appears_and_nothing_else(smoke):
    result, stdout, _path = smoke[0]
    assert sorted(result["workloads"]) == sorted(spec_names("workloads"))
    for name, entry in result["workloads"].items():
        assert sorted(entry["end_to_end"]) == sorted(
            spec_names("end_to_end") + [row[0] for row in metrics.REPORTED_ONLY]
        )
        assert sorted(entry["per_layer"]) == sorted(spec_names("per_layer"))
        assert entry["why"] == workloads.WORKLOADS[name].why
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$", stdout, re.M), m
    for key in ("host", "clock", "storage", "seed", "git_sha", "rounds"):
        assert key in result
    assert (result["clock"], result["storage"]) == ("wall", "page-cache")


@pytest.mark.parametrize("seed", [0, 1])
def test_values_are_finite_and_nothing_fails(smoke, seed):
    result, _stdout, _path = smoke[seed]
    for name, entry in result["workloads"].items():
        assert entry["end_to_end"]["fail_ratio"]["value"] == 0, name
        assert entry["ops"]["failed"] == entry["ops"]["traced_failed"] == 0, name
        assert 1 <= entry["ops"]["per_pass"] <= 10, name
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry[section].items():
                assert NAME.fullmatch(metric), metric
                assert isinstance(cell["value"], (int, float)), (name, metric)
                assert math.isfinite(cell["value"]), (name, metric)
        for metric in spec_names("end_to_end"):
            assert entry["end_to_end"][metric]["value"] > 0, (name, metric)


def test_op_lists_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_ops(name, 0, True) == workloads.make_ops(name, 0, True)
    for name in ("cold_open_box", "warm_box", "columnar_select", "serve_hotspot"):
        assert workloads.make_ops(name, 0, True) != workloads.make_ops(name, 1, True)


def test_driver_form_prints_the_contract_line():
    names = {"0": spec_names("end_to_end"), "1": spec_names("per_layer")}
    for trace, expected in names.items():
        proc = command("--workload", "write_append", "--seed", "5", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == expected
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        for metric, cell in line["metrics"].items():
            assert sorted(cell) == ["unit", "value"] and cell["unit"] == units[metric]
            assert math.isfinite(cell["value"])


def compare(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "compare.py"), *args],
        capture_output=True, text=True, timeout=60, check=False,
    )


def test_compare_judges_a_result_against_itself_as_same(smoke):
    _result, _stdout, path = smoke[0]
    proc = compare(str(path), str(path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worse" not in proc.stdout and "better" not in proc.stdout
    rows = [line for line in proc.stdout.splitlines() if line.startswith("warm_box ")]
    assert len(rows) == len(SPEC["end_to_end"]) + len(metrics.REPORTED_ONLY)
    layers = compare(str(path), str(path), "--layers")
    assert layers.returncode == 0 and "format.manifest_read_ms" in layers.stdout


def test_compare_fails_on_a_regression(smoke, tmp_path):
    result, _stdout, path = smoke[0]
    result = copy.deepcopy(result)
    cell = result["workloads"]["warm_box"]["end_to_end"]["op_p50_ms"]
    for key in ("value", "min", "q1", "median", "q3", "max"):
        cell[key] *= 2
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(result))
    proc = compare(str(path), str(slower))
    assert proc.returncode == 1 and "worse" in proc.stdout
