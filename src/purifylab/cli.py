"""Command-line entry point.

Subcommands:

* ``validate``      closed-form agreement checks, exit 0/1
* ``sweep``         strategy errors over a range of environment dimensions
* ``spectrum``      pooled eigenvalue histogram against the MP reference
* ``tomo-scaling``  copy-budget scaling of the estimation machine
* ``fixtures``      golden fixture regression run

Outputs are CSV (canonical, 12 significant digits, config echoed in header
comments) or JSON (numbers and lists kept typed); ``--plot`` adds an SVG
chart next to the output file.
Exit codes: 0 success, 1 failed check, 2 usage or config error.

Each flag declares its setting's default, type and check once.  A config
key is any flag of the subcommand that takes a value, named exactly; the
flag parses its config line and ``PURIFYLAB_SEED`` alike.  Precedence: flag,
config line, ``PURIFYLAB_SEED``, the flag's default.

``main`` first holds the process heap (``metrics._hold_heap``): on glibc
the arrays each 512-sample chunk frees stay mapped for the next chunk
instead of going back to the OS and faulting in again.  Pool workers do the
same; a library caller's allocator is left alone.
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
from .linalg import floor_eigenvalues
from .metrics import (
    estimate_average_error,
    estimate_moments,
    parse_strategy,
    second_moment_closed_form,
)
from . import svgplot

DEFAULT_STRATEGIES = "pure:omega,append:optimal,dep,avg-ue"
FORMATS = ("csv", "json")


def _fmt(x) -> str:
    """The text of a header value or a CSV cell: a number at 12 significant
    digits, a list joined with commas, ``None`` as an empty cell."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, list):
        return ",".join(map(_fmt, x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_table(args, header: list[str], rows: list[list], extra: dict | None = None,
                 chart: tuple[str, dict, dict] | None = None):
    """Emit a report to ``--out`` (default stdout) as CSV, with a ``#``
    comment prologue, or as JSON: the command, the version, the run settings
    the command has, then ``extra``.  Values are numbers, strings, lists or
    ``None``: CSV text comes from ``_fmt``, JSON keeps them typed.  Under
    ``--plot``, ``chart`` = (default name, series, labels) is also drawn to
    ``<--out or default name>.svg``."""
    comments = {"command": args.command, "version": __version__}
    for key in ("di", "do", "de", "n", "seed", "workers"):
        if hasattr(args, key):
            comments[key] = getattr(args, key)
    comments.update(extra or {})
    if args.format == "json":
        payload = {"config": comments, "rows": [dict(zip(header, row)) for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in comments.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if chart is not None and args.plot:
        name, series, labels = chart
        svgplot.line_chart(series, (args.out or name) + ".svg", **labels)


def at_least(floor: int):
    """The flag type of an integer >= ``floor``: 1 for ``--workers`` and
    ``--draws``, 2 for ``--n`` (the fewest samples a standard error needs)
    and 10 for ``--bins``."""

    def integer(text) -> int:
        val = int(text)
        if val < floor:
            raise argparse.ArgumentTypeError(f"{val} is below {floor}")
        return val

    return integer


class EnvDims(str):
    """Sweep's ``--de`` range ``a..b`` as given, for the header; ``dims``
    lists the environment dimensions it names."""

    dims: list[int]


def env_range(text) -> int | EnvDims:
    """Sweep's ``--de``: one environment dimension >= 1, or a range ``a..b``."""
    try:
        lo, hi = map(int, text.split("..")) if ".." in text else (int(text),) * 2
    except ValueError:
        lo = hi = 0
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad environment dimension or range {text!r}")
    if ".." not in text:
        return lo
    out = EnvDims(text)
    out.dims = list(range(lo, hi + 1))
    return out


def env_dim(text) -> int:
    """One environment dimension >= 1: ``--de`` of every command but sweep."""
    if ".." in text:
        raise argparse.ArgumentTypeError(
            f"one environment dimension, not the range {text!r}; use sweep for a range"
        )
    return env_range(text)


def copy_budgets(text) -> list[int]:
    """``--k``: a comma list of at least three copy budgets, each >= 1, spanning 16x."""
    try:
        ks = [int(x) for x in text.split(",")]
    except ValueError:
        ks = []
    if len(ks) < 3 or min(ks) < 1 or max(ks) < 16 * min(ks):
        raise argparse.ArgumentTypeError(
            f"need >= 3 copy budgets, each >= 1, spanning 16x, not {text!r}")
    return ks


def strategy_list(text) -> list[str]:
    """``--strategies``: a comma list of distinct strategy strings, each
    stripped of surrounding spaces and read by ``metrics.check_strategy``, so
    a bad or empty name exits before any machine is built."""
    try:
        names = [metrics.check_strategy(s) for s in text.split(",")]
    except PurifyLabError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    repeated = sorted({s for s in names if names.count(s) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"strategy {', '.join(repeated)} named twice")
    return names


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, the one owner of its settings.

    ``keys`` maps each flag that takes a value to its attribute: the keys a
    ``--config`` line may set.
    """

    def __init__(self, *args, **kwargs):
        self.keys: dict[str, str] = {}
        super().__init__(*args, **kwargs)
        self.set_defaults(parser=self)  # so main finds it from the parsed args

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.nargs != 0 and action.dest != "config":
            self.keys[action.option_strings[0].lstrip("-")] = action.dest
        return action

    def value(self, key: str, text: str):
        """``text`` as ``--key`` parses it, or ``argparse.ArgumentError``."""
        self.exit_on_error = False
        try:
            return getattr(self.parse_args([f"--{key}={text}"]), self.keys[key])
        finally:
            self.exit_on_error = True


def _add_common(p: _Subcommand, *, n=None, plot=True, de_type=env_dim,
                de_help="environment dimension"):
    p.add_argument("--di", type=int, default=2, help="input dimension")
    p.add_argument("--do", type=int, default=2, help="output dimension")
    p.add_argument("--de", type=de_type, default="1", help=de_help)
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p.add_argument("--workers", type=at_least(1), default=1, help="parallel workers")
    p.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--config", type=str, default=None, help="key=value defaults file")
    # only where the command reads them, so the others reject them
    if n is not None:
        p.add_argument("--n", type=at_least(2), default=n,
                       help="Monte Carlo samples (default %(default)s)")
    if plot:
        p.add_argument("--plot", action="store_true", help="also write an SVG chart")


def _with_defaults(parser: argparse.ArgumentParser, args, argv):
    """``args`` again, once PURIFYLAB_SEED and then each ``--config`` line,
    checked by the flag it sets, are defaults of the subcommand's parser."""
    p = args.parser
    given = []  # (source, key, text), lowest precedence first
    env = os.environ.get("PURIFYLAB_SEED")
    if env is not None and "seed" in p.keys:
        given.append(("environment value PURIFYLAB_SEED", "seed", env))
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise PurifyLabError(f"bad config line: {line!r}")
                key, text = (s.strip() for s in line.split("=", 1))
                given.append((f"config value {key}", key, text))
    if not given:
        return args
    unread = [key for _, key, _ in given if key not in p.keys]
    if unread:
        raise PurifyLabError(
            f"{args.command} does not read config key(s) {', '.join(unread)}; "
            f"it reads {', '.join(p.keys)}"
        )
    defaults = {}
    for source, key, text in given:
        try:
            defaults[p.keys[key]] = p.value(key, text)
        except argparse.ArgumentError as exc:
            raise PurifyLabError(f"bad {source}={text!r}: {exc}") from None
    p.set_defaults(**defaults)
    return parser.parse_args(argv)


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
        tol = metrics.closed_form_tolerance(rep.stderr[0])
        return expect, rep.value, tol, abs(rep.value - expect) <= tol
    if name == "dep-constant":
        rep = estimate_average_error(parse_strategy("dep", spec), spec, n, workers=workers)
        expect = rep.closed_form
        spread = float(np.ptp(rep.per_sample))
        ok = spread == 0.0 and abs(rep.mean - expect) < 1e-9 and rep.stderr == 0.0
        return expect, rep.mean, 1e-9, ok
    if name in _CLOSED_FORM_CHECKS:
        strat = parse_strategy(_CLOSED_FORM_CHECKS[name], spec)
        rep = estimate_average_error(strat, spec, n, workers=workers)
        tol = metrics.closed_form_tolerance(rep.stderr)
        return rep.closed_form, rep.mean, tol, rep.consistent_with_closed_form()
    if name == "moment-identity":
        ordered = estimate_moments(spec, n, "ordered_eig_sq", workers=workers)
        purity = estimate_moments(spec, n, "purity", workers=workers)
        got = float(ordered.values.sum())
        return purity.value, got, 1e-9, abs(got - purity.value) <= 1e-9
    # second-moment, the one name left: --check takes only CHECKS
    cf = second_moment_closed_form(spec)
    mc = metrics.second_moment_operator(spec, n, workers=workers)
    mc -= cf  # in place: one side^4 operator fewer at the peak
    rel = float(np.linalg.norm(mc) / np.linalg.norm(cf))
    return 0.0, rel, 0.03, rel < 0.03


def cmd_validate(args) -> int:
    spec = EnsembleSpec(args.di, args.do, args.de, seed=args.seed)
    names = [args.check] if args.check else list(DEFAULT_CHECKS)
    rows = []
    all_ok = True
    for name in names:
        expect, got, tol, ok = _run_check(name, spec, args.n, args.workers)
        all_ok &= ok
        rows.append([name, expect, got, tol, "pass" if ok else "FAIL"])
    header = ["check", "expected", "observed", "tolerance", "status"]
    _write_table(args, header, rows)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    strategies = args.strategies
    rows = []
    curves: dict[str, tuple[list[float], list[float]]] = {s: ([], []) for s in strategies}
    for d_e in args.de.dims if isinstance(args.de, EnvDims) else [args.de]:
        spec = EnsembleSpec(args.di, args.do, d_e, seed=args.seed)
        for text in strategies:
            strat = parse_strategy(text, spec, n_weights=args.n, workers=args.workers)
            rep = estimate_average_error(strat, spec, args.n, workers=args.workers)
            rows.append(
                [d_e, text, rep.mean, rep.stderr, rep.closed_form, args.n, args.seed]
            )
            curves[text][0].append(d_e)
            curves[text][1].append(rep.mean)
    header = ["d_E", "strategy", "mean", "stderr", "closed_form", "n", "seed"]
    labels = {"title": f"average purification error, d_I={args.di} d_O={args.do}",
              "xlabel": "environment dimension", "ylabel": "mean squared HS distance"}
    _write_table(args, header, rows, {"strategies": strategies},
                 ("sweep", curves, labels))
    return 0


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def _spectrum_chunk(spec: EnsembleSpec, lo: int, hi: int) -> np.ndarray:
    """Eigenvalues of d_O C for channel draws [lo, hi), one row per draw."""
    chois = ensembles._choi_bank(spec, lo, hi, ensembles.PURPOSE_SAMPLE)
    return np.linalg.eigvalsh(chois) * spec.d_o


def _mp_ks_distance(c: float, eigs: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of sorted samples from the MP law.

    Between sample points the empirical cdf F_n is flat and the MP cdf F
    rises, so the supremum is met at a sample point x, either as
    |F_n(x) - F(x)| or as |F_n(x-) - F(x-)|.  Ties count once per point, and
    F is continuous except for its atom at zero, where F(0-) = 0.
    """
    x = np.unique(eigs)
    cdf = mp_cdf(c, x)
    at = np.searchsorted(eigs, x, side="right") / eigs.size
    below = np.searchsorted(eigs, x, side="left") / eigs.size
    return float(max(np.max(np.abs(at - cdf)),
                     np.max(np.abs(below - np.where(x > 0.0, cdf, 0.0)))))


def cmd_spectrum(args) -> int:
    bins, draws = args.bins, args.draws
    spec = EnsembleSpec(args.di, args.do, args.de, seed=args.seed)
    c_ratio = spec.d_i * spec.d_o / spec.d_e

    chunks = metrics._chunk_map(partial(_spectrum_chunk, spec), draws, args.workers)
    # floored per draw, so the zero eigenvalues of d_E < d_I d_O sit on the atom
    eigs = np.sort(floor_eigenvalues(np.concatenate(list(chunks))), axis=None)

    _, hi = mp_support(c_ratio)
    top = max(hi, float(eigs[-1])) * 1.02
    edges = np.linspace(0.0, top, bins + 1)
    counts, _ = np.histogram(eigs, bins=edges)
    centers = (edges[:-1] + edges[1:]) / 2
    width = edges[1] - edges[0]
    empir = counts / counts.sum() / width
    overlay = mp_density(c_ratio, centers)
    atom = mp_atom(c_ratio)

    ks = _mp_ks_distance(c_ratio, eigs)
    rows = [[*row, atom] for row in zip(centers, counts.tolist(), empir, overlay)]
    header = ["bin_center", "count", "empirical_density", "mp_density", "atom_weight"]
    series = {"empirical": (centers.tolist(), empir.tolist()),
              "reference": (centers.tolist(), np.asarray(overlay).tolist())}
    labels = {"title": f"spectral density of d_O C, c={c_ratio:g}",
              "xlabel": "eigenvalue of d_O C", "ylabel": "density"}
    _write_table(args, header, rows,
                 {"draws": draws, "bins": bins, "c": c_ratio, "ks": ks},
                 ("spectrum", series, labels))
    return 0


# ---------------------------------------------------------------------------
# tomo-scaling
# ---------------------------------------------------------------------------


def cmd_tomo_scaling(args) -> int:
    ks = args.k
    if ks is None:
        raise PurifyLabError("tomo-scaling needs --k k1,k2,...")
    spec = EnsembleSpec(args.di, args.do, args.de, seed=args.seed)
    rows = []
    means = []
    for k in ks:
        strat = parse_strategy(f"tomo:k={k}", spec)
        rep = estimate_average_error(strat, spec, args.n, workers=args.workers)
        rows.append([k, rep.mean, rep.stderr])
        means.append(rep.mean)
    slope = float(np.polyfit(np.log(ks), np.log(means), 1)[0])
    rows.append(["slope", slope, None])
    header = ["k", "mean", "stderr"]
    labels = {"title": "estimation-machine error vs copy budget",
              "xlabel": "copies k", "ylabel": "mean error", "loglog": True}
    _write_table(args, header, rows, {"k": ks, "slope": slope},
                 ("tomo", {"estimation error": (list(map(float, ks)), means)}, labels))
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
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p = sub.add_parser("validate", help="closed-form agreement checks")
    _add_common(p, n=2000, plot=False)
    p.add_argument("--check", choices=CHECKS, default=None, help="run one named check")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="strategy errors over an environment range")
    _add_common(p, n=2000, de_type=env_range, de_help="environment dimension or range a..b")
    p.add_argument("--strategies", type=strategy_list, default=DEFAULT_STRATEGIES,
                   help="comma list (default %(default)s)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectrum", help="eigenvalue histogram vs MP reference")
    _add_common(p)
    p.add_argument("--draws", type=at_least(1), default=200,
                   help="channel draws (default %(default)s)")
    p.add_argument("--bins", type=at_least(10), default=40,
                   help="histogram bins, at least 10 (default %(default)s)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("tomo-scaling", help="estimation error vs copy budget")
    _add_common(p, n=200)
    p.add_argument("--k", type=copy_budgets, default=None,
                   help="comma list of >= 3 copy budgets, each >= 1, spanning 16x")
    p.set_defaults(func=cmd_tomo_scaling)

    p = sub.add_parser("fixtures", help="golden fixture regression run")
    p.add_argument("path", nargs="?", default=None, help="fixture JSON (default bundled)")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    metrics._hold_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(_with_defaults(parser, args, argv))
    except (OSError, ValueError) as exc:  # PurifyLabError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
