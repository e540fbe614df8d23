"""Acceptance suite: one test per release criterion, printed pass/fail.

Each criterion pins its tolerance explicitly; statistical checks run at
fixed seeds so the suite is deterministic.
"""

import math
import time

import numpy as np

from purifylab import metrics, theory
from purifylab.cli import main as cli_main
from purifylab.ensembles import (
    EnsembleSpec,
    PURPOSE_FIXED,
    RandomStream,
    mp_cdf,
    mp_mu,
    sample_choi,
)
from purifylab.metrics import (
    error_append,
    error_orbit_numeric,
    error_pure_output,
    estimate_average_error,
    estimate_moments,
    orbit_bruteforce,
    parse_strategy,
    second_moment_closed_form,
    second_moment_operator,
)
from purifylab.strategies import PureOutput


def record(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}  {name}")
    assert ok, f"criterion {num} failed: {name}"


def body(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


def test_01_average_purity():
    start = time.perf_counter()
    spec = EnsembleSpec(2, 2, 4, seed=20_240)
    rep = estimate_moments(spec, 20_000, "purity")
    elapsed = time.perf_counter() - start
    target = 12 / 7
    ok = abs(rep.value - target) <= 3 * float(rep.stderr[0]) and elapsed < 30.0
    record(1, f"purity MC {rep.value:.6f} vs 12/7, {elapsed:.1f}s", ok)


def test_02_map_to_depolarizing_exact():
    spec = EnsembleSpec(2, 2, 3, seed=20_241)
    rep = estimate_average_error(parse_strategy("dep", spec), spec, 100)
    per_sample_exact = np.all(np.abs(rep.per_sample - (4 - 1 / 3)) <= 1e-9)
    zero_spread = float(np.ptp(rep.per_sample)) == 0.0
    ok = per_sample_exact and zero_spread and rep.stderr == 0.0
    record(2, "dep strategy constant at 4 - 1/3 with zero variance", ok)


def test_03_trivial_environment_optima():
    spec = EnsembleSpec(2, 2, 1, seed=20_242)
    app = estimate_average_error(parse_strategy("append:maxmixed", spec), spec, 100)
    avg = estimate_average_error(parse_strategy("avg-ue", spec), spec, 100)
    pure = estimate_average_error(parse_strategy("pure:omega", spec), spec, 100)
    ok = (
        app.mean <= 1e-10
        and avg.mean <= 1e-10
        and abs(pure.mean - 6.0) <= 1e-12
        and pure.stderr == 0.0
    )
    record(3, "d_e=1: append/avg-ue zero, pure:omega exactly 6", ok)


def test_04_pure_output_ordering():
    spec = EnsembleSpec(2, 2, 4, seed=20_243)
    n = 5000
    omega = estimate_average_error(parse_strategy("pure:omega", spec), spec, n)
    sep = estimate_average_error(parse_strategy("pure:separable", spec), spec, n)
    ok = True
    worst_low, worst_high = np.inf, np.inf
    for j in range(50):
        _, w = sample_choi(spec, spec.stream(j, PURPOSE_FIXED))
        rep = estimate_average_error(PureOutput(w), spec, n)
        lo_slack = rep.mean - omega.mean + 3 * math.hypot(rep.stderr, omega.stderr)
        hi_slack = sep.mean - rep.mean + 3 * math.hypot(rep.stderr, sep.stderr)
        worst_low = min(worst_low, lo_slack)
        worst_high = min(worst_high, hi_slack)
        ok &= lo_slack >= 0 and hi_slack >= 0
    sep_ok = abs(sep.mean - 6.0) <= 3 * sep.stderr
    ok &= sep_ok
    record(
        4,
        f"maximally entangled <= random W <= separable over 50 draws "
        f"(margins {worst_low:.3f}, {worst_high:.3f}); separable = 6 within 3 sigma",
        ok,
    )


def test_05_strategy_hierarchy_balanced_environment():
    spec = EnsembleSpec(2, 2, 4, seed=20_244)
    n = 5000
    means, errs = {}, {}
    for text in ("pure:omega", "append:optimal", "avg-ue", "dep"):
        strat = metrics.parse_strategy(text, spec, n_weights=n)
        rep = estimate_average_error(strat, spec, n)
        means[text], errs[text] = rep.mean, rep.stderr
    chain = ("pure:omega", "append:optimal", "avg-ue", "dep")
    gaps = []
    ok = True
    for a, b in zip(chain, chain[1:]):
        gap = means[b] - means[a]
        sigma = math.hypot(errs[a], errs[b])
        gaps.append(gap / max(sigma, 1e-300))
        ok &= gap > 3 * sigma
    record(
        5,
        "hierarchy pure < append < avg-ue < dep at (2,2,4), gaps "
        + ", ".join(f"{g:.0f} sigma" for g in gaps),
        ok,
    )


def test_06_qubit_sweep_crossover(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "sweep.csv"
    code = cli_main([
        "sweep", "--di", "2", "--do", "2", "--de", "1..25", "--n", "2000",
        "--seed", "20245", "--strategies", "pure:omega,append:optimal,dep,avg-ue",
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - start
    lines = body(out)
    rows = {}
    for ln in lines[1:]:
        f = ln.split(",")
        rows[(int(f[0]), f[1])] = (float(f[2]), float(f[3]), f[4])
    ok = code == 0 and len(lines) == 1 + 25 * 4 and elapsed < 600.0

    def gap_sigma(d_e, lo_s, hi_s):
        lo_m, lo_e, _ = rows[(d_e, lo_s)]
        hi_m, hi_e, _ = rows[(d_e, hi_s)]
        return (hi_m - lo_m) / max(math.hypot(lo_e, hi_e), 1e-300)

    cross_low = gap_sigma(2, "append:optimal", "pure:omega")  # append wins
    cross_high = gap_sigma(16, "pure:omega", "append:optimal")  # pure wins
    ok &= cross_low > 3 and cross_high > 3
    for d_e in range(1, 26):
        mean, err, cf = rows[(d_e, "dep")]
        ok &= abs(mean - (4 - 2 / (2 * d_e))) <= 1e-9 and cf != ""
        mean, err, _ = rows[(d_e, "avg-ue")]
        ok &= abs(mean - theory.eps_avg_ue(2, 2, d_e)) <= 3 * err + 1e-9
    record(
        6,
        f"qubit sweep: crossover {cross_low:.0f}/{cross_high:.0f} sigma, "
        f"closed forms hold, {elapsed:.0f}s",
        ok,
    )


def test_07_orbit_optimizer_oracle_agreement():
    spec = EnsembleSpec(2, 2, 2, seed=20_246)
    rng = np.random.default_rng(20_246)
    worst_app = worst_pure = 0.0
    dominance_ok = True
    for i in range(100):
        c, v = sample_choi(spec, spec.stream(i))
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        q_app = np.kron(c.matrix, rho)
        res_app = error_orbit_numeric(q_app, v, rs=RandomStream(900, i))
        worst_app = max(worst_app, abs(res_app.error - error_append(c, rho)))

        _, w = sample_choi(spec, spec.stream(i, PURPOSE_FIXED))
        res_pure = error_orbit_numeric(w.projector(), v, rs=RandomStream(901, i))
        worst_pure = max(worst_pure, abs(res_pure.error - error_pure_output(c, w)))

        grid = orbit_bruteforce(q_app, v, resolution=24)
        dominance_ok &= res_app.error <= grid + 1e-9
    ok = worst_app <= 1e-6 and worst_pure <= 1e-6 and dominance_ok
    record(
        7,
        f"orbit ascent vs closed forms (worst {worst_app:.2e}, {worst_pure:.2e}) "
        "and grid dominance over 100 instances",
        ok,
    )


def test_08_two_copy_moment():
    spec = EnsembleSpec(2, 2, 2, seed=20_247)
    mc = second_moment_operator(spec, 50_000)
    cf = second_moment_closed_form(spec)
    rel = float(np.linalg.norm(mc - cf) / np.linalg.norm(cf))
    record(8, f"two-copy Haar moment, relative deviation {rel:.4f} < 3%", rel < 0.03)


def test_09_marchenko_pastur():
    mu_ok = abs(mp_mu(1.0) - 8 / (3 * math.pi)) <= 1e-10

    spec = EnsembleSpec(4, 4, 16, seed=20_248)
    pooled = []
    for i in range(200):
        c, _ = sample_choi(spec, spec.stream(i))
        pooled.append(np.linalg.eigvalsh(c.matrix) * 4)
    eigs = np.sort(np.maximum(np.concatenate(pooled), 0.0))
    ks = float(
        np.max(np.abs(np.arange(1, eigs.size + 1) / eigs.size - mp_cdf(1.0, eigs)))
    )

    # The balanced-ensemble ratio E[(tr sqrt C)^2] / (d_i^2 d_o) approaches
    # mu(1)^2 along growing dimensions (from above at these sizes) and lands
    # within 15% at (4, 4, 16).
    target = (8 / (3 * math.pi)) ** 2
    dists = []
    for (d_i, d_o, d_e), n in (((2, 2, 4), 4000), ((3, 3, 9), 1500), ((4, 4, 16), 600)):
        s = EnsembleSpec(d_i, d_o, d_e, seed=20_249)
        rep = estimate_moments(s, n, "sqrt_trace_sq")
        dists.append(abs(rep.value / (d_i**2 * d_o) - target))
    ladder_ok = dists[0] > dists[1] > dists[2]
    landing_ok = dists[2] <= 0.15 * target
    ok = mu_ok and ks < 0.08 and ladder_ok and landing_ok
    record(
        9,
        f"mu(1)=8/(3pi) exact, KS {ks:.3f} < 0.08, ratio ladder "
        f"{[round(d, 4) for d in dists]} shrinking and within 15%",
        ok,
    )


def test_10_estimation_scaling(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "tomo.csv"
    code = cli_main([
        "tomo-scaling", "--di", "1", "--do", "2", "--de", "2", "--n", "200",
        "--seed", "20250", "--k", "64,128,256,512,1024,2048,4096",
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - start
    lines = body(out)
    slope = float(lines[-1].split(",")[1])
    means = [float(ln.split(",")[1]) for ln in lines[1:-1]]
    monotone = all(a >= b * 0.98 for a, b in zip(means, means[1:]))
    ok = code == 0 and -1.3 <= slope <= -0.7 and monotone and elapsed < 600.0
    record(10, f"estimation error slope {slope:.3f} in [-1.3, -0.7], {elapsed:.0f}s", ok)


def test_11_worker_reproducibility(tmp_path):
    args = [
        "sweep", "--di", "2", "--do", "2", "--de", "1..3", "--n", "1000",
        "--seed", "20251", "--strategies", "pure:omega,append:optimal,avg-ue,dep",
    ]
    out1, out8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    cli_main(args + ["--workers", "1", "--out", str(out1)])
    cli_main(args + ["--workers", "8", "--out", str(out8)])
    sweep_ok = body(out1) == body(out8)

    targs = [
        "tomo-scaling", "--di", "1", "--do", "2", "--de", "2", "--n", "40",
        "--seed", "20252", "--k", "32,128,512",
    ]
    t1, t4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
    cli_main(targs + ["--workers", "1", "--out", str(t1)])
    cli_main(targs + ["--workers", "4", "--out", str(t4)])
    tomo_ok = body(t1) == body(t4)
    record(11, "byte-identical CSV bodies across worker counts", sweep_ok and tomo_ok)
