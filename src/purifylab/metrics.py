"""Per-sample purification errors and Monte Carlo estimators.

The figure of merit is the squared Hilbert-Schmidt distance between the
machine output and the closest purification of the input channel, where
"closest" minimizes over unitaries on the environment.  For the append and
pure-output families that minimum has exact per-sample expressions (the
ordered-eigenvalue trace inequality and the Uhlmann fidelity); a Riemannian
ascent over the environment unitary group covers everything else.  Its
restarts climb as one stack, by Barzilai-Borwein steps with a polar-gradient
fallback that cannot descend; a grid search on U(2) is an independent oracle.

``parse_strategy`` is the one constructor of a machine from its strategy
string; it lives here because ``append:optimal`` is fitted to Monte Carlo
weights (``estimate_ordered_weights``).

Reduction contract: per-sample values depend only on (seed, sample index)
and are combined in fixed index order, so every reported mean is identical
for any worker count.

``ProcessPoolExecutor`` is a module attribute resolved on first use
(``__getattr__``), so importing this module loads no process-pool machinery
(``multiprocessing``, ``socket``, ``subprocess``) until a caller reads the
name or ``_chunk_map`` opens its first pool.
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .channels import (
    ChoiOperator,
    PurificationVector,
    identity_isometry_purification,
    max_entangled_purification,
    separable_purification,
)
from .ensembles import (
    EnsembleSpec,
    PURPOSE_FIXED,
    PURPOSE_SAMPLE,
    PURPOSE_WEIGHTS,
    RandomStream,
    _as_generator,
    _choi_bank,
    _vmat_bank,
    haar_unitaries_batch,
    sample_choi,
    sample_ginibre,  # noqa: F401  perfbench/tests/check_tracer.py wraps this binding
)
from .errors import EnvironmentTooSmall, InvalidDims, TooLarge
from .linalg import _integers, _psd_eigvalsh, _purities, _require_hermitian, _require_norm
from .linalg import (
    dagger,
    flip_operator,
    floor_eigenvalues,
    permute_factors,
    swap_factors,
)
from .strategies import (
    Append,
    Estimation,
    MapToDepolarizing,
    PureOutput,
    Strategy,
    _clip_errors,
    optimal_append_spectrum,
)

__all__ = [
    "ErrorReport",
    "OrbitResult",
    "MomentReport",
    "error_pure_output",
    "error_append",
    "error_orbit_numeric",
    "orbit_bruteforce",
    "estimate_average_error",
    "estimate_moments",
    "estimate_ordered_weights",
    "STRATEGY_GRAMMAR",
    "check_strategy",
    "parse_strategy",
    "second_moment_operator",
    "second_moment_closed_form",
    "channel_pair_moment_closed_form",
]

ZERO_VARIANCE = 1e-20
# closed-form agreement: CLOSED_FORM_SIGMAS standard errors plus an absolute slack
CLOSED_FORM_SIGMAS = 3.0
CLOSED_FORM_SLACK = 1e-12
_CHUNK = 512

# Both glibc malloc thresholds, set by ``_hold_heap``.  A chunk allocates
# several 0.5-2 MiB arrays and frees them together; by default glibc returns
# that heap top to the OS and the next chunk faults the same pages back in.
# 32 MiB is the largest M_MMAP_THRESHOLD glibc accepts on 64-bit (mallopt
# returns 1 for it on glibc 2.36).  Both must be set: a trim threshold alone
# turns off glibc's dynamic mmap threshold, so every array of 128 KiB or more
# is mmapped and unmapped each time (wide-validate at --workers 1 took
# 220 674 minor faults against 89 949 with neither set).  A larger trim
# threshold holds more memory: at validate --di 4 --do 4 --de 4 --n 1024
# --check second-moment, peak RSS stayed at 678 MiB with an 8 or 32 MiB trim
# threshold and rose to 727 MiB with 64 or 256 MiB.
_HEAP_HOLD_BYTES = 32 * 1024 * 1024
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

# Environment-unitary ascent: starting points (the identity plus Haar draws),
# iteration cap, stationarity tolerance and first trial step.
_RESTARTS = 20
_MAX_ITERS = 500
_REL_TOL = 1e-9
_INITIAL_STEP = 1.0


def __getattr__(name: str):
    """Import ``concurrent.futures.ProcessPoolExecutor`` when the name is
    first read, and bind it here, so it can be replaced and subclassed like
    any module attribute."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def closed_form_tolerance(stderr) -> float:
    """How far a Monte Carlo mean may sit from its closed form:
    ``CLOSED_FORM_SIGMAS`` standard errors plus ``CLOSED_FORM_SLACK``."""
    return CLOSED_FORM_SIGMAS * float(stderr) + CLOSED_FORM_SLACK


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------


@dataclass
class ErrorReport:
    """Monte Carlo estimate of an average purification error.

    ``per_sample`` holds the error of every sample, in index order; ``mean``
    and ``stderr`` summarize it, and ``closed_form`` is the strategy's exact
    value, or None where it has none.
    """

    mean: float
    stderr: float
    closed_form: Optional[float]
    per_sample: np.ndarray

    def consistent_with_closed_form(self) -> Optional[bool]:
        """None when no closed form is attached; otherwise the 3-sigma check."""
        if self.closed_form is None:
            return None
        return abs(self.mean - self.closed_form) <= closed_form_tolerance(self.stderr)


@dataclass(frozen=True)
class OrbitResult:
    error: float
    overlap: float
    converged: bool
    best_unitary: np.ndarray


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo estimate of a spectral moment (vector-valued in general)."""

    values: np.ndarray
    stderr: np.ndarray

    @property
    def value(self) -> float:
        return float(self.values[0])


# ---------------------------------------------------------------------------
# Single-sample error routes (batches of one through the machine classes)
# ---------------------------------------------------------------------------


def error_pure_output(c: ChoiOperator, w: PurificationVector) -> float:
    """Exact orbit-minimized error of a fixed pure output against channel c.

    A batch of one through :meth:`~purifylab.strategies.PureOutput.errors`,
    after ``c.validate()`` and ``w.validate()``.
    Depends on w only through its marginal; environments of different size
    need no explicit embedding.
    """
    if (c.d_i, c.d_o) != (w.d_i, w.d_o):
        raise InvalidDims("channel and pure output dims differ")
    c.validate()
    w.validate()
    return float(PureOutput(w).errors(c.d_i, c.matrix[None])[0])


def error_append(c: ChoiOperator, rho_e: np.ndarray) -> float:
    """Exact orbit-minimized error of appending state rho_e to channel c.

    The orbit maximum of the overlap is the descending-eigenvalue pairing
    sum_i (c_i)^2 lambda_i (ordered trace inequality); see
    :class:`~purifylab.strategies.Append`.  rho_e must be a unit-trace PSD
    state, c a valid channel of rank at most dim rho_e (EnvironmentTooSmall).
    """
    lam = np.linalg.eigvalsh(_require_hermitian(np.asarray(rho_e, dtype=complex)))
    machine = Append(lam)
    r = c.validate().rank()
    if r > lam.size:
        raise EnvironmentTooSmall(f"rank {r} exceeds environment size {lam.size}")
    return float(machine.errors(c.d_i, c.matrix[None])[0])


# ---------------------------------------------------------------------------
# Orbit optimization (numeric route) and U(2) brute force (oracle)
# ---------------------------------------------------------------------------


def _polar_unitary(a: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def _tangent_project(u: np.ndarray, z: np.ndarray) -> np.ndarray:
    inner = dagger(u) @ z
    return z - u @ (inner + dagger(inner)) / 2.0


def _re_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("rij,rij->r", a.conj(), b).real


def _overlap(
    q: np.ndarray, vmat: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """f(U) = <V_U|Q|V_U> and its gradient G (df = Re tr G† dU) for a stack of U."""
    v_u = (vmat @ np.swapaxes(u, -1, -2)).reshape(len(u), -1)
    g_vec = v_u @ q.T
    f = np.einsum("ri,ri->r", v_u.conj(), g_vec).real
    gmat = g_vec.reshape(len(u), *vmat.shape)
    return f, 2.0 * np.swapaxes(gmat, -1, -2) @ vmat.conj()


def _ascend(
    q: np.ndarray, vmat: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Climb f from a stack of starting unitaries u (updated in place), one
    loop for the whole stack.

    Each start tries the retracted Barzilai-Borwein step polar(U + a xi),
    whose length follows the local curvature, as the nearly flat ridges of a
    near-degenerate overlap spectrum need.  Where that does not raise f it
    takes U <- polar(G) instead (the generalized power method), which cannot
    lower f: Q is PSD, so f is a convex quadratic in U, f(U') >= f(U) +
    Re tr G†(U' - U), and polar(G) maximizes the bound over unitaries.  A
    start stops at the stationarity rule or when neither step raises f; it is
    converged unless the iteration cap stops it.  A stopped start leaves the
    stack, so each iteration works on the starts still climbing.
    """
    f, grad = _overlap(q, vmat, u)
    xi = _tangent_project(u, grad)
    step = np.full(len(u), _INITIAL_STEP)
    # indices of the starts still climbing; only these are recomputed
    live = np.arange(len(u))
    for _ in range(_MAX_ITERS):
        norm2 = _re_inner(xi[live], xi[live])
        live = live[norm2 > _REL_TOL**2 * np.maximum(1.0, np.abs(f[live]))]
        if not live.size:
            break
        u_l, f_l, x_l = u[live], f[live], xi[live]
        trial = _polar_unitary(u_l + step[live, None, None] * x_l)
        f_new, g_new = _overlap(q, vmat, trial)
        flat = f_new <= f_l
        if flat.any():
            trial[flat] = _polar_unitary(grad[live[flat]])
            f_new[flat], g_new[flat] = _overlap(q, vmat, trial[flat])
        xi_new = _tangent_project(trial, g_new)
        y_vec = xi_new - x_l
        sy, yy = np.abs(_re_inner(trial - u_l, y_vec)), _re_inner(y_vec, y_vec)
        bb = (sy > 1e-300) & (yy > 1e-300)
        bb_step = np.where(bb, sy / np.where(bb, yy, 1.0), 2.0 * step[live])
        up = f_new > f_l
        live = live[up]
        u[live], f[live] = trial[up], f_new[up]
        grad[live], xi[live] = g_new[up], xi_new[up]
        step[live] = np.clip(bb_step[up], 1e-8, 1e8)
    converged = np.ones(len(u), dtype=bool)
    converged[live] = False
    return f, u, converged


def _orbit_inputs(q_out: np.ndarray, v: PurificationVector) -> np.ndarray:
    """Q as a complex array, after the checks both orbit routes make: Q is
    PSD, square on I O E and of trace d_i, and v is a valid purification."""
    q = np.asarray(q_out, dtype=complex)
    side = v.d_i * v.d_o * v.d_e
    if q.shape != (side, side):
        raise InvalidDims(f"machine output shape {q.shape}, expected {(side, side)}")
    _psd_eigvalsh(q)
    v.validate()
    _require_norm(np.trace(q).real, v.d_i, "trace of Q")
    return q


def error_orbit_numeric(
    q_out: np.ndarray,
    v: PurificationVector,
    rs: RandomStream | np.random.Generator,
) -> OrbitResult:
    """Best-of-restarts Riemannian ascent of the orbit overlap.

    Maximizes tr[Q (1 x U) |V><V| (1 x U†)] over environment unitaries from
    the identity and 19 Haar starts drawn from ``rs``, all climbed as one
    stack (see ``_ascend``).  ``rs`` has no default: a fixed one could be the
    stream the input channel was drawn from.  The returned error tr(Q^2) + d_i^2 - 2 * best is an upper
    bound on the true orbit minimum that matches the exact routes on the
    append and pure-output families; ``converged`` is the best start's.
    Q must be PSD with trace d_i and v a valid purification, so the error
    lies in [0, 2 d_i^2] before its clip.
    """
    rng = _as_generator(rs)
    q = _orbit_inputs(q_out, v)

    eye = np.eye(v.d_e, dtype=complex)[None]
    starts = np.concatenate([eye, haar_unitaries_batch(v.d_e, _RESTARTS - 1, rng)])
    f, u, converged = _ascend(q, v.as_matrix(), starts)
    best = int(np.argmax(f))
    err = _clip_errors(_purities(q[None])[0] + v.d_i**2 - 2.0 * f[best], v.d_i)
    return OrbitResult(float(err), float(f[best]), bool(converged[best]), u[best])


def orbit_bruteforce(
    q_out: np.ndarray, v: PurificationVector, resolution: int = 24
) -> float:
    """Deterministic grid minimum of the orbit error for d_e <= 2.

    Scans an Euler-angle grid on U(2) modulo global phase (``resolution``
    points per angle); the result upper-bounds the true orbit minimum and
    serves as an independent oracle for the numeric ascent.  It rejects the
    inputs ``error_orbit_numeric`` rejects.
    """
    if v.d_e > 2:
        raise TooLarge("brute-force grid supports d_e <= 2 only")
    (resolution,) = _integers((resolution,), "grid resolution", low=1)
    q = _orbit_inputs(q_out, v)
    q_purity = _purities(q[None])[0]
    vmat = v.as_matrix()
    if v.d_e == 1:
        f = float(np.vdot(vmat.reshape(-1), q @ vmat.reshape(-1)).real)
        return float(_clip_errors(q_purity + v.d_i**2 - 2.0 * f, v.d_i))

    alphas = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    betas = np.linspace(0.0, math.pi, resolution)
    gammas = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    a, b, g = np.meshgrid(alphas, betas, gammas, indexing="ij")
    a, b, g = a.ravel(), b.ravel(), g.ravel()
    # U = Rz(a) Ry(b) Rz(g), global phase dropped.
    cos_b, sin_b = np.cos(b / 2), np.sin(b / 2)
    u = np.empty((a.size, 2, 2), dtype=complex)
    u[:, 0, 0] = np.exp(-0.5j * (a + g)) * cos_b
    u[:, 0, 1] = -np.exp(-0.5j * (a - g)) * sin_b
    u[:, 1, 0] = np.exp(0.5j * (a - g)) * sin_b
    u[:, 1, 1] = np.exp(0.5j * (a + g)) * cos_b

    v_u = np.einsum("gef,mf->gme", u, vmat).reshape(a.size, -1)
    f = np.einsum("gi,ij,gj->g", v_u.conj(), q, v_u).real
    return float(_clip_errors(q_purity + v.d_i**2 - 2.0 * float(f.max()), v.d_i))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def _hold_heap() -> bool:
    """Keep freed chunk arrays on glibc's heap instead of returning them.

    Sets M_MMAP_THRESHOLD and M_TRIM_THRESHOLD to ``_HEAP_HOLD_BYTES`` and
    returns whether glibc accepted both.  Where libc has no ``mallopt``
    (macOS, Windows) it changes nothing and returns False.  Called by
    ``cli.main`` and by each pool worker ``_chunk_map`` starts, so importing
    purifylab as a library leaves the host process's allocator alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        # no loadable C library (Windows rejects a None name) or no mallopt
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(_M_MMAP_THRESHOLD, _HEAP_HOLD_BYTES) == 1
    trim_ok = mallopt(_M_TRIM_THRESHOLD, _HEAP_HOLD_BYTES) == 1
    return mmap_ok and trim_ok


def _chunk_map(fn, n: int, workers: int):
    """Yield ``fn(lo, hi)`` for consecutive chunks of [0, n), in index order.

    ``workers`` must be an integer >= 1 by ``linalg._integers``, or
    ``InvalidDims`` is raised before any chunk is drawn.  With more than one
    worker and more than one chunk the calls run in one process pool of the
    class bound to ``ProcessPoolExecutor`` here, read when the pool opens, so
    the first pool of a process also imports the pool machinery.  Its
    workers hold their heap (``_hold_heap``) under any start method; results
    still arrive in index order, so any reduction over them is identical for
    every worker count.
    """
    (workers,) = _integers((workers,), "workers", low=1)
    bounds = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    if workers <= 1 or len(bounds) == 1:
        for lo, hi in bounds:
            yield fn(lo, hi)
        return
    pool_type = sys.modules[__name__].ProcessPoolExecutor
    with pool_type(max_workers=workers, initializer=_hold_heap) as pool:
        yield from pool.map(fn, *zip(*bounds))


def _reduce(chunk_fn, n: int, workers: int):
    """The rows ``chunk_fn`` returns for [0, n) in index order, their mean
    over axis 0 and its standard error sqrt(var / n), read as exactly 0 where
    the variance is below ``ZERO_VARIANCE`` (constant up to rounding)."""
    (n,) = _integers((n,), "Monte Carlo sample count n", low=2)
    rows = np.concatenate(list(_chunk_map(chunk_fn, n, workers)))
    var = np.var(rows, axis=0, ddof=1)
    stderr = np.where(var < ZERO_VARIANCE, 0.0, np.sqrt(var / n))
    return rows, rows.mean(axis=0), stderr


def estimate_average_error(
    strategy: Strategy, spec: EnsembleSpec, n: int, *, workers: int = 1
) -> ErrorReport:
    """Monte Carlo mean and standard error of the per-sample purification error.

    Each sample uses the substream keyed by its index, so the report's
    per-sample errors are identical for any worker count.  The closed-form
    field is filled whenever the strategy admits a moment-free exact value.
    A constant strategy reports stderr exactly zero (``_reduce``).
    """
    per, mean, stderr = _reduce(partial(strategy.chunk_errors, spec), n, workers)
    return ErrorReport(float(mean), float(stderr), strategy.closed_form(spec), per)


_MOMENT_NAMES = ("purity", "sqrt_trace_sq", "ordered_eig_sq", "cmax_sq")


def _moment_chunk(spec: EnsembleSpec, which: str, purpose: int, lo: int, hi: int):
    chois = _choi_bank(spec, lo, hi, purpose)
    if which == "purity":
        # the kernel of Append.errors on a flat spectrum
        return _purities(chois)[:, None]
    vals = floor_eigenvalues(np.linalg.eigvalsh(chois))  # ascending
    if which == "sqrt_trace_sq":
        return (np.sum(np.sqrt(vals), axis=1) ** 2)[:, None]
    if which == "cmax_sq":
        return (vals[:, -1] ** 2)[:, None]
    # ordered_eig_sq; estimate_moments rejects any other name before drawing
    r = min(spec.d_e, spec.d_i * spec.d_o)
    desc = vals[:, ::-1]
    return desc[:, :r] ** 2


def estimate_moments(
    spec: EnsembleSpec,
    n: int,
    which: str,
    *,
    workers: int = 1,
    purpose: int = PURPOSE_SAMPLE,
) -> MomentReport:
    """Monte Carlo estimate of a spectral moment of the channel ensemble.

    ``which`` is one of ``purity`` (tr C^2), ``sqrt_trace_sq``
    ((tr sqrt C)^2), ``ordered_eig_sq`` (vector of descending-eigenvalue
    second moments, length min(d_e, d_i d_o)), or ``cmax_sq``.
    """
    if which not in _MOMENT_NAMES:
        raise InvalidDims(f"unknown moment {which!r}; expected one of {_MOMENT_NAMES}")
    _, values, stderr = _reduce(partial(_moment_chunk, spec, which, purpose), n, workers)
    return MomentReport(values, stderr)


def estimate_ordered_weights(
    spec: EnsembleSpec, n: int, *, workers: int = 1
) -> np.ndarray:
    """Ordered-eigenvalue second moments from the reserved weight streams."""
    report = estimate_moments(
        spec, n, "ordered_eig_sq", workers=workers, purpose=PURPOSE_WEIGHTS
    )
    return report.values


# ---------------------------------------------------------------------------
# Strategy strings
# ---------------------------------------------------------------------------

_STRATEGY_NAMES = ("pure:omega", "pure:separable", "pure:random", "append:maxmixed",
                   "append:optimal", "append:pure", "dep", "avg-ue")
STRATEGY_GRAMMAR = " | ".join(_STRATEGY_NAMES + ("tomo:k=<int|inf>",))


def check_strategy(text: str) -> str:
    """``text`` stripped of surrounding spaces, once it is a strategy string
    of ``STRATEGY_GRAMMAR`` (``InvalidDims`` otherwise).  It builds and draws
    nothing, so a list can be checked whole before its first machine."""
    text = text.strip()
    if text.startswith("tomo:k="):
        raw = text.split("=", 1)[1]
        if raw != "inf" and not (raw.isdecimal() and int(raw) >= 1):
            raise InvalidDims(f"tomo copy budget must be an integer >= 1 or inf, got "
                              f"{text!r}; expected one of {STRATEGY_GRAMMAR}")
    elif text not in _STRATEGY_NAMES:
        raise InvalidDims(f"unknown strategy {text!r}; expected one of {STRATEGY_GRAMMAR}")
    return text


def parse_strategy(
    text: str, spec: EnsembleSpec, *, n_weights: int = 2000, workers: int = 1
) -> Strategy:
    """Build a strategy from its command-line description, once
    ``check_strategy`` has read it against ``STRATEGY_GRAMMAR``.

    ``append:maxmixed`` and ``avg-ue`` are one machine.  ``append:optimal``
    fits its spectrum to ordered weights estimated from ``n_weights`` draws
    of the reserved weight streams (``estimate_ordered_weights`` on
    ``workers`` workers), padded with zeros to d_e.  ``pure:random`` draws
    its fixed output once from a reserved substream of the ensemble seed, so
    repeated parses agree.
    """
    text = check_strategy(text)
    if text == "pure:omega":
        return PureOutput(max_entangled_purification(spec.d_i, spec.d_o))
    if text == "pure:separable":
        ups = identity_isometry_purification(spec.d_i, spec.d_o)
        return PureOutput(separable_purification(ups, np.eye(spec.d_e)[0]))
    if text == "pure:random":
        _, w = sample_choi(spec, spec.stream(0, PURPOSE_FIXED))
        return PureOutput(w)
    if text in ("append:maxmixed", "avg-ue"):
        return Append(np.full(spec.d_e, 1.0 / spec.d_e))
    if text == "append:optimal":
        fitted = estimate_ordered_weights(spec, n_weights, workers=workers)
        w = np.zeros(spec.d_e)
        w[: fitted.size] = fitted
        return Append(optimal_append_spectrum(w))
    if text == "append:pure":
        return Append(np.eye(spec.d_e)[0])
    if text == "dep":
        return MapToDepolarizing(spec.d_e)
    raw = text.split("=", 1)[1]  # tomo:k=<int|inf>
    return Estimation(None if raw == "inf" else int(raw))


# ---------------------------------------------------------------------------
# Second-moment operator (Monte Carlo vs exact two-copy average)
# ---------------------------------------------------------------------------


def _symmetric_pairs(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns of v x v kept on Sym^2, and the kept column of every pair.

    ``kept`` lists the flat indices i * side + j with i <= j (m =
    side (side + 1) / 2 of them); ``full[i * side + j]`` is the position in
    ``kept`` of (min(i, j), max(i, j)).
    """
    rows, cols = np.triu_indices(side)
    pos = np.empty((side, side), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    return rows * side + cols, pos.ravel()


def _second_moment_chunk(spec: EnsembleSpec, rows, cols, lo: int, hi: int) -> np.ndarray:
    """Sum of (v x v)(v x v)† over draws [lo, hi), on the kept Sym^2 columns,
    the factor indices (i, j) of which are ``rows`` and ``cols``.

    Only the blocks on and above the diagonal are summed: one einsum per row
    block of height side, over the columns from its diagonal block on, each
    entry the same sum in the same draw order as a block-by-block einsum.
    The blocks below the diagonal are left zero, for
    ``second_moment_operator`` to mirror.
    """
    vm = _vmat_bank(spec, lo, hi, PURPOSE_SAMPLE)
    vecs = vm.reshape(hi - lo, -1)
    side = vecs.shape[1]
    # einsum forms v_i v_j with the bits of its v_j v_i, so each kept column
    # stands for its mirror exactly; a plain multiply would round differently
    pairs = np.einsum("bk,bk->bk", vecs[:, rows], vecs[:, cols])
    conj = pairs.conj()
    m = pairs.shape[1]
    part = np.zeros((m, m), dtype=complex)
    for a in range(0, m, side):
        np.einsum("bi,bj->ij", pairs[:, a : a + side], conj[:, a:], out=part[a : a + side, a:])
    return part


def second_moment_operator(
    spec: EnsembleSpec, n: int, *, workers: int = 1
) -> np.ndarray:
    """Monte Carlo average of the two-copy projector |V><V| x |V><V|.

    v x v lies in the symmetric subspace, so each chunk sums only its
    m = side (side + 1) / 2 columns with i <= j (side = d_i d_o d_e) into
    one m x m partial of m^2 * 16 bytes: 66 MiB at side 64, against
    256 MiB (side^4 * 16) for all side^2 columns.  The partial is Hermitian,
    so a chunk sums only its blocks on and above the diagonal, and the
    strict lower triangle is filled once, after the division, as the
    conjugate of the upper: each entry's products and their order over the
    draws make the lower entry exactly the conjugate of the upper one.
    Partials are added in index order as they arrive, so the result is
    worker-count independent and no list of partials is kept; the mean is
    expanded to side^2 x side^2 once, at the end.  Every entry is the same
    sum, in the same order, as the full-column accumulation.  Dense storage
    limits the joint dimension to d_i * d_o * d_e <= 64.
    """
    side = spec.d_i * spec.d_o * spec.d_e
    if side > 64:
        raise TooLarge("two-copy operator needs d_i * d_o * d_e <= 64")
    (n,) = _integers((n,), "two-copy sample count n", low=1)
    kept, full = _symmetric_pairs(side)
    rows, cols = np.divmod(kept, side)
    parts = _chunk_map(partial(_second_moment_chunk, spec, rows, cols), n, workers)
    acc = next(parts)
    for part in parts:
        acc += part
        del part  # so a spent partial is not held while the next is drawn
    acc /= n
    lower = np.tril_indices(len(acc), -1)
    acc[lower] = acc.T[lower].conj()
    return acc[np.ix_(full, full)]


def second_moment_closed_form(spec: EnsembleSpec) -> np.ndarray:
    """Exact Haar average of |V><V| x |V><V| from the two-moment identity.

    With D = d_o * d_e the average equals
    (1 + F_I F_O F_E) / (D^2 - 1) - (F_I + F_O F_E) / (D (D^2 - 1)),
    where F_X swaps the X factors of the two copies.
    """
    d_i, d_o, d_e = spec.dims
    side = d_i * d_o * d_e
    if side > 64:
        raise TooLarge("two-copy operator needs d_i * d_o * d_e <= 64")
    big = d_o * d_e
    dims = [d_i, d_o, d_e, d_i, d_o, d_e]
    # In-place updates hold at most two side^4 matrices at a time.
    sub = swap_factors(dims, 0, 3)
    sub += permute_factors(dims, (0, 4, 5, 3, 1, 2))  # F_O F_E
    sub /= big * (big**2 - 1)
    lead = flip_operator(side)  # F_I F_O F_E swaps the two copies whole
    lead[np.diag_indices_from(lead)] += 1.0
    lead /= big**2 - 1
    lead -= sub
    return lead


def channel_pair_moment_closed_form(spec: EnsembleSpec) -> np.ndarray:
    """Exact E[C x C] on I O I' O', the environment trace of the two-copy average.

    (d_e^2 1 + d_e F_I F_O) / (D^2 - 1)
    - (d_e^2 F_I + d_e F_O) / (D (D^2 - 1)), D = d_o * d_e.
    """
    d_i, d_o, d_e = spec.dims
    big = d_o * d_e
    dims = [d_i, d_o, d_i, d_o]
    f_i = swap_factors(dims, 0, 2)
    f_o = swap_factors(dims, 1, 3)
    lead = d_e * flip_operator(d_i * d_o)  # d_e F_I F_O
    lead[np.diag_indices_from(lead)] += d_e**2
    lead /= big**2 - 1
    sub = (d_e**2 * f_i + d_e * f_o) / (big * (big**2 - 1))
    return lead - sub
