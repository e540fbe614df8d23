"""The benchmark's workloads: argv, code-derived work counts and output gates.

Every workload is one ``purifylab`` CLI invocation.  Three sizes exist:

* ``reference`` - the shape named when the benchmark was defined (the
  acceptance runs and ``scripts/qubit_sweep.sh``); 6-16 s per invocation;
* ``bench``     - the shape the timed runs use, cut in ``n`` so that one run
  of ``--seconds`` holds many invocations;
* ``tiny``      - the smallest shape whose gates still hold, for self-tests.

The CLI seed is the workload's base seed plus the benchmark's ``--seed``, so
``--seed 0`` reproduces the acceptance seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CHUNK = 512  # metrics._CHUNK: samples per chunk and per pool task
TOMO_KS = (64, 128, 256, 512, 1024, 2048, 4096)
SWEEP_STRATEGIES = "pure:omega,append:optimal,dep,avg-ue"
# Sigma of every statistical gate (a Monte Carlo mean against its closed
# form).  The acceptance tests apply 3 sigma once, at fixed seeds; the benchmark
# runs whatever seed it is given, many times, and a false alarm rejects a
# correct program.  At 5.5 sigma the two-sided false-alarm rate is 3.8e-8 per
# point, about 1e-6 per invocation over the sweep's 25 points, while a real
# defect still shows: at the bench shape one sigma of avg-ue at d_E=25 is 2e-5
# of its value.
GATE_SIGMA = 5.5
# validate rows whose tolerance column is 3 sigma + 1e-12 (cli._run_check)
STATISTICAL_CHECKS = ("purity", "avg-ue", "separable-pure")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base_seed: int
    head: tuple[str, ...]
    sizes: dict[str, int]  # shape -> n
    workers: int = 1

    def argv(self, seed: int, shape: str = "bench") -> list[str]:
        return [*self.head, "--n", str(self.sizes[shape]),
                "--workers", str(self.workers), "--seed", str(self.base_seed + seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "qubit-sweep",
            "flagship sweep; 4x4 Choi matrices leave per-sample stream and Ginibre "
            "draws dominant, bank drawn twice per key; no tomography, no pool",
            20245,
            ("sweep", "--di", "2", "--do", "2", "--de", "1..25",
             "--strategies", SWEEP_STRATEGIES),
            {"reference": 2000, "bench": 500, "tiny": 100},
        ),
        Workload(
            "tomo-scaling",
            "estimation machine bypasses the sample bank: Haar bases by eigh per shot "
            "dominate; n fits one chunk, so the pool is never used",
            20250,
            ("tomo-scaling", "--di", "1", "--do", "2", "--de", "2",
             "--k", ",".join(map(str, TOMO_KS))),
            {"reference": 200, "bench": 25, "tiny": 8},
            workers=2,
        ),
        Workload(
            "wide-validate",
            "64x4 draws and 16x16 Choi matrices make LAPACK half the time; bank drawn "
            "5x per key; 6 process pools carry real work",
            7,
            ("validate", "--di", "4", "--do", "4", "--de", "16"),
            {"reference": 20000, "bench": 6144, "tiny": 1024},
            workers=2,
        ),
        Workload(
            "second-moment",
            "only caller of the two-copy accumulator and its closed form; holds "
            "one 64 KiB partial per chunk, so peak memory shows here",
            20247,
            ("validate", "--di", "2", "--do", "2", "--de", "2", "--check", "second-moment"),
            {"reference": 200000, "bench": 65536, "tiny": 65536},
        ),
    )
}


def sweep_range(w: Workload) -> list[int]:
    lo, hi = w.head[w.head.index("--de") + 1].split("..")
    return list(range(int(lo), int(hi) + 1))


def samples_scored(w: Workload, n: int) -> int:
    """Sum of n over the estimator calls the workload makes."""
    if w.name == "qubit-sweep":
        # per d_E: weights moments + one estimate per strategy
        return 5 * n * len(sweep_range(w))
    if w.name == "tomo-scaling":
        return n * len(TOMO_KS)
    if w.name == "wide-validate":
        # purity, dep-constant, avg-ue, separable-pure, moment-identity (x2)
        return 6 * n
    return n  # second_moment_operator


def expected_counts(w: Workload, n: int) -> dict[str, float]:
    """Per-layer counts that follow from the code path and the argv alone."""
    chunks = math.ceil(n / CHUNK)
    pooled = w.workers > 1 and chunks > 1
    counts = {
        "ensembles.streams": 0, "ensembles.draws_per_key": 0.0,
        "ensembles.haar_unitaries": 0, "strategies.tomo_calls": 0,
        "strategies.tomo_shots": 0, "metrics.pools_created": 0,
        "metrics.chunks_dispatched": 0, "metrics.partial_bytes": 0,
        "metrics.samples_scored": samples_scored(w, n),
    }
    if w.name == "qubit-sweep":
        # pure, append and avg-ue draw the sample bank, append:optimal the
        # weight bank: 4 draws over 2 key sets per d_E
        counts.update({"ensembles.streams": 4 * n * len(sweep_range(w)),
                       "ensembles.draws_per_key": 2.0})
    elif w.name == "tomo-scaling":
        shots = n * sum(TOMO_KS)
        counts.update({"ensembles.streams": n * len(TOMO_KS),
                       "strategies.tomo_calls": n * len(TOMO_KS),
                       "strategies.tomo_shots": shots, "ensembles.haar_unitaries": shots,
                       "metrics.pools_created": len(TOMO_KS) if pooled else 0,
                       "metrics.chunks_dispatched": len(TOMO_KS) * chunks if pooled else 0})
    elif w.name == "wide-validate":
        # purity, avg-ue, separable-pure and moment-identity (x2) draw the bank;
        # every one of the 6 estimator calls opens a pool
        counts.update({"ensembles.streams": 5 * n, "ensembles.draws_per_key": 5.0,
                       "metrics.pools_created": 6 if pooled else 0,
                       "metrics.chunks_dispatched": 6 * chunks if pooled else 0})
    else:
        side = 2 * 2 * 2
        counts.update({"ensembles.streams": n, "ensembles.draws_per_key": 1.0,
                       "metrics.partial_bytes": chunks * side**4 * 16})
    return {k: float(v) for k, v in counts.items()}


# ---------------------------------------------------------------------------
# Output gates.  Closed forms are restated here (docs/formulas.md) so that a
# broken purifylab.theory cannot vouch for a broken estimator.
# ---------------------------------------------------------------------------


def _avg_purity(d_i: int, d_o: int, d_e: int) -> float:
    return (d_i * d_o * (d_e**2 - 1) + d_i**2 * d_e * (d_o**2 - 1)) / (d_o**2 * d_e**2 - 1)


def eps_dep(d_i: int, d_o: int, d_e: int) -> float:
    return d_i**2 - d_i / (d_o * d_e)


def eps_avg_ue(d_i: int, d_o: int, d_e: int) -> float:
    return d_i**2 - _avg_purity(d_i, d_o, d_e) / d_e


def body_lines(text: str) -> list[str]:
    """CSV body: everything but the ``#`` comment prologue."""
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def gates(w: Workload, code: int, text: str) -> dict[str, bool]:
    """Named pass/fail checks of one invocation's exit code and CSV output."""
    try:
        lines = body_lines(text)
        if w.name == "qubit-sweep":
            return {"exit_code": code == 0, **_sweep_gates(w, lines)}
        if w.name == "tomo-scaling":
            return {"exit_code": code == 0, **_tomo_gates(lines)}
        return _validate_gates(w, code, lines)
    except (ValueError, IndexError, KeyError):
        return {"exit_code": code == 0, "parsable_output": False}


def _validate_gates(w: Workload, code: int, lines: list[str]) -> dict[str, bool]:
    """validate exits 1 when a check misses its 3 sigma tolerance; the
    statistical checks are judged again here at GATE_SIGMA, the rest must pass."""
    rows = [ln.split(",") for ln in lines[1:]]
    out = {"exit_code": code in (0, 1),
           "row_count": len(rows) == (1 if "--check" in w.head else 5)}
    for name, expected, observed, tol, status in rows:
        if name in STATISTICAL_CHECKS:
            sigma = (float(tol) - 1e-12) / 3
            ok = abs(float(observed) - float(expected)) <= GATE_SIGMA * sigma + 1e-12
        else:
            ok = status == "pass"
        out[f"check:{name}"] = ok
    return out


def _sweep_gates(w: Workload, lines: list[str]) -> dict[str, bool]:
    rows = {}
    for ln in lines[1:]:
        f = ln.split(",")
        rows[(int(f[0]), f[1])] = (float(f[2]), float(f[3]))
    des = sweep_range(w)
    strategies = SWEEP_STRATEGIES.split(",")

    def gap_sigma(d_e, lo_s, hi_s):
        (lo_m, lo_e), (hi_m, hi_e) = rows[(d_e, lo_s)], rows[(d_e, hi_s)]
        return (hi_m - lo_m) / max(math.hypot(lo_e, hi_e), 1e-300)

    return {
        "row_count": len(lines) == 1 + len(des) * len(strategies),
        "dep_exact": all(abs(rows[(d, "dep")][0] - eps_dep(2, 2, d)) <= 1e-9 for d in des),
        "avg_ue_closed_form": all(
            abs(rows[(d, "avg-ue")][0] - eps_avg_ue(2, 2, d))
            <= GATE_SIGMA * rows[(d, "avg-ue")][1] + 1e-9
            for d in des
        ),
        "crossover_de2": gap_sigma(2, "append:optimal", "pure:omega") > 3,
        "crossover_de16": gap_sigma(16, "pure:omega", "append:optimal") > 3,
    }


def _tomo_gates(lines: list[str]) -> dict[str, bool]:
    slope = float(lines[-1].split(",")[1])
    means = [float(ln.split(",")[1]) for ln in lines[1:-1]]
    return {
        "row_count": len(means) == len(TOMO_KS),
        "slope_band": -1.3 <= slope <= -0.7,
        "monotone": all(a >= b * 0.98 for a, b in zip(means, means[1:])),
    }
