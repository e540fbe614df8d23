"""Self-tests of the benchmark: tracer arithmetic, metric names, restoration, gates.

    python3 -m pytest -q perfbench/tests/check_tracer.py

The file name keeps these out of the package's own test run; they start
purifylab processes and take about half a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from array import array

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, body_lines, expected_counts  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _batch(spans):
    """A span batch as a worker would write it, from (name, parent, start, end)."""
    names = sorted({s[0] for s in spans})
    return {
        "names": names,
        "name": array("i", [names.index(s[0]) for s in spans]).tobytes(),
        "parent": array("i", [s[1] for s in spans]).tobytes(),
        "start": array("d", [s[2] for s in spans]).tobytes(),
        "end": array("d", [s[3] for s in spans]).tobytes(),
        "count": array("d", [1.0] * len(spans)).tobytes(),
        "size": array("d", [0.0] * len(spans)).tobytes(),
        "keys": [],
    }


def test_self_time_of_nested_spans():
    # main [0, 10] > est [1, 9] > (draw [2, 4], eigh [5, 6] > draw [5.2, 5.5])
    spans = [("main", -1, 0.0, 10.0), ("est", 0, 1.0, 9.0), ("draw", 1, 2.0, 4.0),
             ("eigh", 1, 5.0, 6.0), ("draw", 3, 5.2, 5.5)]
    totals, _ = tracer.summarize([_batch(spans), _batch([("draw", -1, 0.0, 2.0)])])
    assert totals["main"]["self_s"] == pytest.approx(2.0)
    assert totals["est"]["self_s"] == pytest.approx(8.0 - 2.0 - 1.0)
    assert totals["eigh"]["self_s"] == pytest.approx(0.7)
    assert totals["draw"]["calls"] == 3
    assert totals["draw"]["self_s"] == pytest.approx(2.0 + 0.3 + 2.0)


def test_span_log_nesting_and_unwinding():
    log = tracer.SpanLog()
    outer = log.open("outer")
    inner = log.open("inner")
    log.open("lost")  # never closed: an exception skipped its close
    log.close(inner)
    log.close(outer)
    assert log.stack == []
    assert list(log.parent) == [-1, outer, inner]


def test_metric_names_are_valid_and_declared():
    declared = _declared()
    layer_names = set(tracer.layer_metrics({}, [])) | {"trace.overhead_s"}
    assert layer_names == {m["name"] for m in declared["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in declared["end_to_end"]}
    assert set(WORKLOADS) == {w["name"] for w in declared["workloads"]}
    for w in declared["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    names = [m["name"] for m in declared["per_layer"] + declared["end_to_end"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names + list(WORKLOADS))
    for w in WORKLOADS.values():
        assert set(expected_counts(w, w.sizes["tiny"])) <= layer_names


def test_reference_counts_follow_the_code_path():
    ref = {name: expected_counts(w, w.sizes["reference"]) for name, w in WORKLOADS.items()}
    assert ref["qubit-sweep"]["ensembles.streams"] == 200_000
    assert ref["qubit-sweep"]["ensembles.draws_per_key"] == 2.0
    assert ref["tomo-scaling"]["strategies.tomo_calls"] == 1_400
    assert ref["tomo-scaling"]["strategies.tomo_shots"] == 1_625_600
    assert ref["tomo-scaling"]["ensembles.haar_unitaries"] == 1_625_600
    assert ref["tomo-scaling"]["metrics.pools_created"] == 0
    assert ref["wide-validate"]["ensembles.draws_per_key"] == 5.0
    assert ref["wide-validate"]["metrics.pools_created"] == 6
    assert ref["wide-validate"]["metrics.chunks_dispatched"] == 240
    assert ref["second-moment"]["ensembles.streams"] == 200_000
    assert ref["second-moment"]["metrics.partial_bytes"] == 391 * 65536 == 25_624_576


def _cli_body(tmp_path, argv, tag):
    from purifylab import cli

    out = str(tmp_path / f"{tag}.csv")
    assert cli.main([*argv, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        return hashlib.sha256("\n".join(body_lines(fh.read())).encode()).hexdigest()


@pytest.mark.parametrize("workload", ["qubit-sweep", "wide-validate"])
def test_traced_run_restores_names_and_keeps_the_output(tmp_path, workload):
    import numpy as np

    from purifylab import cli, ensembles, metrics, strategies

    argv = WORKLOADS[workload].argv(0, "tiny")
    before = {
        "ginibre": (metrics.sample_ginibre, ensembles.sample_ginibre),
        "haar": strategies.haar_unitaries_batch,
        "eigh": np.linalg.eigh,
        "svd": np.linalg.svd,
        "stream": ensembles.RandomStream.generator,
        "pool": metrics.ProcessPoolExecutor,
        "main": cli.main,
    }
    plain = _cli_body(tmp_path, argv, "plain")
    installed = tracer.install("selftest", None)
    try:
        assert metrics.sample_ginibre is not before["ginibre"][0]
        assert np.linalg.eigh is not before["eigh"]
        traced = _cli_body(tmp_path, argv, "traced")
        totals, keys = tracer.summarize([tracer.LOG.payload()])
    finally:
        installed.restore()
    assert traced == plain
    assert totals["cli.main"]["calls"] == 1
    after = {
        "ginibre": (metrics.sample_ginibre, ensembles.sample_ginibre),
        "haar": strategies.haar_unitaries_batch,
        "eigh": np.linalg.eigh,
        "svd": np.linalg.svd,
        "stream": ensembles.RandomStream.generator,
        "pool": metrics.ProcessPoolExecutor,
        "main": cli.main,
    }
    assert after == before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_passes_its_gates_and_counts(tmp_path, workload):
    args = argparse.Namespace(seed=0, shape="tiny", trace=1, seconds=0)
    store = run.DigestStore(str(tmp_path / "digests.json"), "selftest")
    wr = run.WorkloadRun(WORKLOADS[workload], args, str(tmp_path), store, traced=True,
                         deadline=time.monotonic() + 120)
    wr.invoke(trace=False)
    wr.invoke(trace=True)
    assert wr.tally.failures == []
    metrics = wr.metrics()
    assert set(metrics) == {m["name"] for m in _declared()["per_layer"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qubit-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
