"""purifylab benchmark: CLI workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload qubit-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload, interleaved

Each invocation runs ``purifylab.cli.main(argv)`` in a fresh interpreter
(``perfbench/child.py``) with one BLAS thread, checks the output, and is
repeated until ``--seconds`` are used.  Untraced runs report the end-to-end
metrics over the run's invocations (mean main() time, median set-up time and
peak RSS), with times scaled to a reference host speed measured by a
calibration kernel around each invocation; ``--trace 1`` alternates untraced
and traced invocations and reports the per-layer metrics of the traced ones.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS, expected_counts, gates, samples_scored, body_lines  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
MIN_INVOCATIONS = 3
HARD_LIMIT_S = 150.0  # no invocation starts after this, and none runs past 165 s
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Times are scaled to the host speed at which child.calibrate() takes this
# long (its typical time on a 2-vCPU Xeon at 2.0 GHz), because the shared host's
# speed drifts by tens of percent over minutes; see README.md, "Host noise".
REFERENCE_CAL_S = 0.016


def layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the package sources: identifies the code without git."""
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "purifylab")
    for dirpath, dirnames, files in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            h.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def manifest(args, selected) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: f"{v.get('name')} {v.get('version')}" for k, v in deps.items()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": CHILD_ENV,
        "bench_seed": args.seed,
        "shape": args.shape,
        "workloads": {w.name: {"workers": w.workers, "cli_seed": w.base_seed + args.seed,
                               "argv": w.argv(args.seed, args.shape)} for w in selected},
    }


# ---------------------------------------------------------------------------
# Invocations
# ---------------------------------------------------------------------------


def spawn(tmp: str, mode: str, argv: list[str], deadline: float) -> tuple[dict, str]:
    """Run child.py once; returns its result (empty on a crash or timeout) and stderr.

    The child gets its own process group, so a child that overruns the
    deadline is killed together with any pool workers it started.
    """
    result_path = os.path.join(tmp, f"result-{uuid.uuid4().hex}.json")
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), ROOT, result_path, mode, "--", *argv],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {}, f"invocation killed after {time.monotonic() - t0:.0f} s\n"
    except BaseException:  # interrupted: take the child's process group down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(result_path)
    except (OSError, ValueError):
        return {}, err
    result["setup_s"] = result["setup_end"] - t0
    if proc.returncode != 0:
        result.setdefault("code", proc.returncode)
    return result, err


class Tally:
    """Correctness checks of one workload across its invocations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


class DigestStore:
    """CSV body digests per (source, workload, argv), kept across runs of a checkout."""

    def __init__(self, path: str, source: str) -> None:
        self.path, self.source = path, source
        try:
            with open(path, encoding="utf-8") as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def agrees(self, workload: str, argv: list[str], digest: str) -> bool:
        key = f"{self.source}|{workload}|{' '.join(argv)}"
        return self.data.setdefault(key, digest) == digest

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


class WorkloadRun:
    """Samples and checks of one workload within a benchmark run."""

    def __init__(self, w, args, tmp: str, store: DigestStore, traced: bool,
                 deadline: float) -> None:
        self.w, self.tmp, self.store, self.traced = w, tmp, store, traced
        self.deadline = deadline
        self.n = w.sizes[args.shape]
        self.argv = w.argv(args.seed, args.shape)
        self.tally = Tally()
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.raw_wall_s: list[float] = []
        self.cal_s: list[float] = []
        self.traced_wall_s: list[float] = []
        self.rss_mb: list[float] = []
        self.layers: list[dict[str, float]] = []
        self.digest: str | None = None

    def invoke(self, trace: bool) -> None:
        tag = uuid.uuid4().hex
        out = os.path.join(self.tmp, f"out-{tag}.csv")
        mode = "run"
        if trace:
            trace_dir = os.path.join(self.tmp, f"spans-{tag}")
            os.mkdir(trace_dir)
            mode = f"trace:{trace_dir}"
        result, err = spawn(self.tmp, mode, [*self.argv, "--out", out], self.deadline)
        self.tally.check("process_completed", bool(result))
        if not result:
            sys.stderr.write(err)
            return
        try:
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            text = ""
        for name, ok in gates(self.w, result["code"], text).items():
            self.tally.check(name, ok)
        digest = hashlib.sha256("\n".join(body_lines(text)).encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        self.tally.check("body_same_across_invocations", digest == self.digest)
        self.tally.check("body_same_across_runs", self.store.agrees(self.w.name, self.argv, digest))
        cal = (result["cal_before_s"] + result["cal_after_s"]) / 2
        wall = result["wall_s"] * REFERENCE_CAL_S / cal
        if trace:
            self.tally.check("tracer_restored", result.get("restored", False))
            self.traced_wall_s.append(wall)
            self._record_trace(trace_dir)
        else:
            self.setup_s.append(result["setup_s"] * REFERENCE_CAL_S / result["cal_before_s"])
            self.wall_s.append(wall)
            self.raw_wall_s.append(result["wall_s"])
            self.cal_s.append(cal)
            self.rss_mb.append(result["maxrss_kib"] / 1024.0)

    def _record_trace(self, trace_dir: str) -> None:
        totals, keys = tracer.summarize(tracer.load_spans(trace_dir))
        layers = tracer.layer_metrics(totals, keys)
        for name, want in expected_counts(self.w, self.n).items():
            self.tally.check(f"count:{name}", layers[name] == want)
        if self.layers:
            counts = [k for k in layers if not k.endswith("_s")]
            self.tally.check("counts_repeat", all(layers[k] == self.layers[0][k] for k in counts))
        self.layers.append(layers)

    def metrics(self) -> dict[str, float]:
        med = statistics.median
        mean = statistics.fmean
        if not self.traced:
            return {"wall_s": mean(self.wall_s),
                    "samples_per_s": samples_scored(self.w, self.n) / mean(self.wall_s),
                    "setup_s": med(self.setup_s), "peak_rss_mb": med(self.rss_mb)}
        out = {k: med(layer[k] for layer in self.layers) for k in self.layers[0]}
        out["trace.overhead_s"] = mean(self.traced_wall_s) - mean(self.wall_s)
        return out

    def ready(self) -> bool:
        return bool(self.wall_s) and (not self.traced or bool(self.layers))


def measure(selected, args, tmp: str, store: DigestStore) -> list[WorkloadRun]:
    """Round-robin invocations over the selected workloads until time is up.

    Untraced: one invocation per turn.  Traced: an untraced and a traced
    invocation per turn, so the overhead is measured against untraced times
    of the same run.
    """
    start = time.monotonic()
    runs = [WorkloadRun(w, args, tmp, store, bool(args.trace), start + HARD_LIMIT_S + 15)
            for w in selected]
    budget = args.seconds * len(runs)
    turns = 0
    while True:
        elapsed = time.monotonic() - start
        per_turn = elapsed / turns if turns else 0.0
        if turns >= MIN_INVOCATIONS and elapsed + per_turn > budget:
            break
        if turns and elapsed + per_turn > HARD_LIMIT_S:
            break
        for run in runs:
            run.invoke(trace=False)
            if args.trace:
                run.invoke(trace=True)
        turns += 1
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("bench", "reference", "tiny"), default="bench")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "purifylab", "cli.py")):
        print(f"error: no purifylab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the child and the scratch directory are cleaned up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    selected = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    units = layer_units() if args.trace else END_TO_END_UNITS

    state = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(state, f"run-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp)
    info = manifest(args, selected)
    store = DigestStore(os.path.join(state, "digests.json"), info["source_sha256"])
    try:
        runs = measure(selected, args, tmp, store)
    finally:
        store.save()
        shutil.rmtree(tmp, ignore_errors=True)

    print("manifest " + json.dumps(info, sort_keys=True))
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for run in runs:
        attempted += run.tally.attempted
        failed += len(run.tally.failures)
        error_rate = len(run.tally.failures) / max(run.tally.attempted, 1)
        print(f"{run.w.name}: {len(run.wall_s)} untraced / {len(run.layers)} traced invocations, "
              f"error_rate {error_rate:.4g} ({len(run.tally.failures)}/{run.tally.attempted})")
        if run.wall_s:
            print(f"  unscaled main() mean {statistics.fmean(run.raw_wall_s):.4f} s, "
                  f"calibration median {statistics.median(run.cal_s) * 1e3:.2f} ms "
                  f"(reference {REFERENCE_CAL_S * 1e3:.1f} ms)")
        for name in sorted(set(run.tally.failures)):
            print(f"  FAILED {name}")
        if not run.ready():
            continue
        for name, value in run.metrics().items():
            print(f"  {name:32s} {value:.6g} {units[name]}")
            key = name if len(runs) == 1 else f"{run.w.name}.{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    if not all(run.ready() for run in runs):
        print("error: a workload produced no timed invocation", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
