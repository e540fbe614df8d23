"""Command-line entry point.

Subcommands:

* ``validate``      closed-form agreement checks, exit 0/1
* ``sweep``         strategy errors over a range of environment dimensions
* ``spectrum``      pooled eigenvalue histogram against the MP reference
* ``tomo-scaling``  copy-budget scaling of the estimation machine
* ``fixtures``      golden fixture regression run

Outputs are CSV (canonical, 12 significant digits, config echoed in header
comments) or JSON; ``--plot`` adds an SVG chart next to the output file.
Exit codes: 0 success, 1 failed check, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

import numpy as np

from . import __version__, ensembles, metrics, theory
from .ensembles import EnsembleSpec, mp_atom, mp_cdf, mp_density, mp_support
from .errors import PurifyLabError
from .fixtures import run_fixtures
from .metrics import estimate_average_error, estimate_moments, second_moment_closed_form
from .strategies import parse_strategy
from . import svgplot

DEFAULT_STRATEGIES = "pure:omega,append:optimal,dep,avg-ue"
FORMATS = ("csv", "json")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_table(out, comments: dict, header: list[str], rows: list[list], fmt: str):
    """Emit a report as CSV (with # comment prologue) or JSON."""
    if fmt == "json":
        payload = {
            "config": {k: v for k, v in comments.items()},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        lines = [f"# {k}={v}" for k, v in comments.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_config_file(path: str) -> dict:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PurifyLabError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def positive_int(text) -> int:
    """An integer >= 1 (``ValueError`` otherwise), the type of ``--workers``."""
    val = int(text)
    if val < 1:
        raise ValueError(f"{val} is below 1")
    return val


def _checked(name, text, key, cast):
    """``text`` from config or environment ``name``, checked like --key."""
    try:  # the check the flag's type or choices make
        val = cast(text)
    except ValueError:
        val = None
    if val is None or (key == "format" and val not in FORMATS):
        raise PurifyLabError(f"bad {name}={text!r} for --{key}")
    return val


def _resolve(args, key, cfg, cast, default):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key not in cfg:
        return default
    return _checked(f"config value {key}", cfg[key], key, cast)


def _resolve_seed(args, cfg) -> int:
    seed = _resolve(args, "seed", cfg, int, None)
    if seed is not None:
        return seed
    env = os.environ.get("PURIFYLAB_SEED")
    if env is not None:
        return _checked("environment value PURIFYLAB_SEED", env, "seed", int)
    return 0


def _parse_de_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo < 1 or hi < lo:
            raise PurifyLabError(f"bad environment range {text!r}")
        return list(range(lo, hi + 1))
    val = int(text)
    if val < 1:
        raise PurifyLabError("environment dimension must be >= 1")
    return [val]


def _single_de(cmd: str, text: str) -> int:
    """The one environment dimension of a command that takes no range."""
    if ".." in text:
        raise PurifyLabError(
            f"{cmd} takes one environment dimension, not the range {text!r}; "
            "use sweep for a range"
        )
    return _parse_de_range(text)[0]


def _add_common(p: argparse.ArgumentParser, *, de_help="environment dimension"):
    p.add_argument("--di", type=int, default=None, help="input dimension")
    p.add_argument("--do", type=int, default=None, help="output dimension")
    p.add_argument("--de", type=str, default=None, help=de_help)
    p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    p.add_argument("--workers", type=positive_int, default=None, help="parallel workers")
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--config", type=str, default=None, help="key=value defaults file")


# Registered only on the subcommands that read them, so the others reject them.
def _add_n(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=None, help="Monte Carlo samples")


def _add_plot(p: argparse.ArgumentParser):
    p.add_argument("--plot", action="store_true", help="also write an SVG chart")


# Keys a --config file may set; each is read only by the subcommands that
# register its flag, and any other key is rejected.
_CONFIG_KEYS = ("di", "do", "de", "n", "seed", "workers", "out", "format", "strategies")


def _common_values(args, *, n_default: int = 2000):
    cfg = _load_config_file(args.config) if args.config else {}
    unread = [k for k in cfg if k not in _CONFIG_KEYS or not hasattr(args, k)]
    if unread:
        raise PurifyLabError(
            f"{args.command} does not read config key(s) {', '.join(unread)}; "
            f"it reads {', '.join(k for k in _CONFIG_KEYS if hasattr(args, k))}"
        )
    vals = {
        "di": _resolve(args, "di", cfg, int, 2),
        "do": _resolve(args, "do", cfg, int, 2),
        "de": _resolve(args, "de", cfg, str, "1"),
        "n": _resolve(args, "n", cfg, int, n_default),
        "workers": _resolve(args, "workers", cfg, positive_int, 1),
        "format": _resolve(args, "format", cfg, str, "csv"),
        "seed": _resolve_seed(args, cfg),
        "out": args.out or cfg.get("out"),
        "strategies": getattr(args, "strategies", None) or cfg.get("strategies"),
    }
    return vals


def _comments(cmd: str, vals: dict, extra: dict | None = None) -> dict:
    base = {
        "command": cmd,
        "version": __version__,
        "di": vals["di"],
        "do": vals["do"],
        "de": vals["de"],
        "n": vals["n"],
        "seed": vals["seed"],
        "workers": vals["workers"],
    }
    if extra:
        base.update(extra)
    return base


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

CHECKS = ("purity", "dep-constant", "avg-ue", "separable-pure", "moment-identity",
          "second-moment")
DEFAULT_CHECKS = CHECKS[:-1]  # second-moment is opt-in (heavier sample cost)
# check -> strategy whose mean is tested against its closed form at 3 sigma
_CLOSED_FORM_CHECKS = {"avg-ue": "avg-ue", "separable-pure": "pure:separable"}


def _run_check(name: str, spec: EnsembleSpec, n: int, workers: int):
    if name == "purity":
        rep = estimate_moments(spec, n, "purity", workers=workers)
        expect = theory.avg_purity(*spec.dims)
        tol = 3 * float(rep.stderr[0]) + metrics.CLOSED_FORM_SLACK
        return expect, rep.value, tol, abs(rep.value - expect) <= tol
    if name == "dep-constant":
        rep = estimate_average_error(
            parse_strategy("dep", spec), spec, n, workers=workers, keep_per_sample=True
        )
        expect = rep.closed_form
        spread = float(np.ptp(rep.per_sample))
        ok = spread == 0.0 and abs(rep.mean - expect) < 1e-9 and rep.stderr == 0.0
        return expect, rep.mean, 1e-9, ok
    if name in _CLOSED_FORM_CHECKS:
        strat = parse_strategy(_CLOSED_FORM_CHECKS[name], spec)
        rep = estimate_average_error(strat, spec, n, workers=workers)
        tol = 3 * rep.stderr + metrics.CLOSED_FORM_SLACK
        return rep.closed_form, rep.mean, tol, rep.consistent_with_closed_form()
    if name == "moment-identity":
        ordered = estimate_moments(spec, n, "ordered_eig_sq", workers=workers)
        purity = estimate_moments(spec, n, "purity", workers=workers)
        got = float(ordered.values.sum())
        return purity.value, got, 1e-9, abs(got - purity.value) <= 1e-9
    if name == "second-moment":
        mc = metrics.second_moment_operator(spec, n, workers=workers)
        cf = second_moment_closed_form(spec)
        rel = float(np.linalg.norm(mc - cf) / np.linalg.norm(cf))
        return 0.0, rel, 0.03, rel < 0.03
    raise PurifyLabError(f"unknown check {name!r}; expected one of {CHECKS}")


def cmd_validate(args) -> int:
    vals = _common_values(args)
    d_e = _single_de("validate", vals["de"])
    spec = EnsembleSpec(vals["di"], vals["do"], d_e, seed=vals["seed"])
    names = [args.check] if args.check else list(DEFAULT_CHECKS)
    rows = []
    all_ok = True
    for name in names:
        expect, got, tol, ok = _run_check(name, spec, vals["n"], vals["workers"])
        all_ok &= ok
        rows.append([name, expect, got, tol, "pass" if ok else "FAIL"])
    header = ["check", "expected", "observed", "tolerance", "status"]
    _write_table(vals["out"], _comments("validate", vals), header, rows, vals["format"])
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    vals = _common_values(args)
    strategies = [s for s in (vals["strategies"] or DEFAULT_STRATEGIES).split(",") if s]
    if not strategies:
        raise PurifyLabError("sweep needs a non-empty strategy list")
    de_values = _parse_de_range(vals["de"])
    rows = []
    curves: dict[str, tuple[list[float], list[float]]] = {s: ([], []) for s in strategies}
    for d_e in de_values:
        spec = EnsembleSpec(vals["di"], vals["do"], d_e, seed=vals["seed"])
        for text in strategies:
            strat = metrics.make_strategy(
                text, spec, n_weights=vals["n"], workers=vals["workers"]
            )
            rep = estimate_average_error(strat, spec, vals["n"], workers=vals["workers"])
            rows.append(
                [d_e, text, rep.mean, rep.stderr, rep.closed_form, rep.n, rep.seed]
            )
            curves[text][0].append(d_e)
            curves[text][1].append(rep.mean)
    header = ["d_E", "strategy", "mean", "stderr", "closed_form", "n", "seed"]
    _write_table(vals["out"], _comments("sweep", vals, {"strategies": ",".join(strategies)}),
                 header, rows, vals["format"])
    if args.plot:
        target = (vals["out"] or "sweep") + ".svg"
        svgplot.line_chart(
            curves,
            target,
            title=f"average purification error, d_I={vals['di']} d_O={vals['do']}",
            xlabel="environment dimension",
            ylabel="mean squared HS distance",
        )
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _spectrum_chunk(spec: EnsembleSpec, lo: int, hi: int) -> np.ndarray:
    """Eigenvalues of d_O C for channel draws [lo, hi), one row per draw."""
    chois = ensembles._choi_bank(spec, lo, hi, ensembles.PURPOSE_SAMPLE)
    return np.linalg.eigvalsh(chois) * spec.d_o


def cmd_spectrum(args) -> int:
    vals = _common_values(args)
    bins = args.bins if args.bins is not None else 40
    if bins < 10:
        raise PurifyLabError("spectrum needs at least 10 bins")
    draws = args.draws if args.draws is not None else 200
    if draws < 1:
        raise PurifyLabError("spectrum needs --draws >= 1")
    d_e = _single_de("spectrum", vals["de"])
    spec = EnsembleSpec(vals["di"], vals["do"], d_e, seed=vals["seed"])
    c_ratio = spec.d_i * spec.d_o / spec.d_e

    chunks = metrics._chunk_map(partial(_spectrum_chunk, spec), draws, vals["workers"])
    eigs = np.sort(np.maximum(np.concatenate(list(chunks), axis=None), 0.0))

    _, hi = mp_support(c_ratio)
    top = max(hi, float(eigs[-1])) * 1.02
    edges = np.linspace(0.0, top, bins + 1)
    counts, _ = np.histogram(eigs, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2
    width = edges[1] - edges[0]
    empir = counts / counts.sum() / width
    overlay = mp_density(c_ratio, centers)
    atom = mp_atom(c_ratio)

    ks = float(np.max(np.abs(np.arange(1, eigs.size + 1) / eigs.size - mp_cdf(c_ratio, eigs))))
    rows = [
        [f"{c:.12g}", int(k), e, o, atom]
        for c, k, e, o in zip(centers, counts, empir, overlay)
    ]
    header = ["bin_center", "count", "empirical_density", "mp_density", "atom_weight"]
    comments = _comments("spectrum", vals, {"draws": draws, "bins": bins,
                                            "c": f"{c_ratio:.12g}", "ks": f"{ks:.6g}"})
    del comments["n"]  # the histogram pools --draws channels, not n samples
    _write_table(vals["out"], comments, header, rows, vals["format"])
    if args.plot:
        target = (vals["out"] or "spectrum") + ".svg"
        svgplot.line_chart(
            {"empirical": (centers.tolist(), empir.tolist()),
             "reference": (centers.tolist(), np.asarray(overlay).tolist())},
            target,
            title=f"spectral density of d_O C, c={c_ratio:g}",
            xlabel="eigenvalue of d_O C",
            ylabel="density",
        )
    return 0


# ---------------------------------------------------------------------------
# tomo-scaling
# ---------------------------------------------------------------------------


def cmd_tomo_scaling(args) -> int:
    vals = _common_values(args, n_default=200)
    if not args.k:
        raise PurifyLabError("tomo-scaling needs --k k1,k2,...")
    ks = [int(x) for x in args.k.split(",") if x]
    if len(ks) < 3 or max(ks) < 16 * min(ks):
        raise PurifyLabError("need >= 3 copy budgets spanning a >= 16x range")
    d_e = _single_de("tomo-scaling", vals["de"])
    spec = EnsembleSpec(vals["di"], vals["do"], d_e, seed=vals["seed"])
    rows = []
    means = []
    for k in ks:
        strat = parse_strategy(f"tomo:k={k}", spec)
        rep = estimate_average_error(strat, spec, vals["n"], workers=vals["workers"])
        rows.append([k, rep.mean, rep.stderr])
        means.append(rep.mean)
    slope = float(np.polyfit(np.log(ks), np.log(means), 1)[0])
    rows.append(["slope", slope, ""])
    header = ["k", "mean", "stderr"]
    comments = _comments("tomo-scaling", vals, {"k": ",".join(map(str, ks)),
                                                "slope": f"{slope:.6g}"})
    _write_table(vals["out"], comments, header, rows, vals["format"])
    if args.plot:
        target = (vals["out"] or "tomo") + ".svg"
        svgplot.line_chart(
            {"estimation error": (list(map(float, ks)), means)},
            target,
            title="estimation-machine error vs copy budget",
            xlabel="copies k",
            ylabel="mean error",
            logx=True,
            logy=True,
        )
    return 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def cmd_fixtures(args) -> int:
    report = run_fixtures(args.path)
    for rec in report["records"]:
        print(f"{rec['status']:>4}  {rec['name']}")
    print(f"{report['passed']}/{report['total']} fixtures passed")
    return 0 if report["passed"] == report["total"] else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purifylab",
        description="Monte Carlo analysis of approximate channel-purification machines",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="closed-form agreement checks")
    _add_common(p)
    _add_n(p)
    p.add_argument("--check", choices=CHECKS, default=None, help="run one named check")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="strategy errors over an environment range")
    _add_common(p, de_help="environment dimension or range a..b")
    _add_n(p)
    _add_plot(p)
    p.add_argument("--strategies", type=str, default=None,
                   help=f"comma list (default {DEFAULT_STRATEGIES})")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="eigenvalue histogram vs MP reference")
    _add_common(p)
    _add_plot(p)
    p.add_argument("--draws", type=int, default=None, help="channel draws (default 200)")
    p.add_argument("--bins", type=int, default=None, help="histogram bins (default 40)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("tomo-scaling", help="estimation error vs copy budget")
    _add_common(p)
    _add_n(p)
    _add_plot(p)
    p.add_argument("--k", type=str, default=None, help="comma list of copy budgets")
    p.set_defaults(func=cmd_tomo_scaling)

    p = sub.add_parser("fixtures", help="golden fixture regression run")
    p.add_argument("path", nargs="?", default=None, help="fixture JSON (default bundled)")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PurifyLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
