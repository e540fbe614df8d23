"""Per-sample purification errors and Monte Carlo estimators.

The figure of merit is the squared Hilbert-Schmidt distance between the
machine output and the closest purification of the input channel, where
"closest" minimizes over unitaries on the environment.  For the append and
pure-output families that minimum has exact per-sample expressions (the
ordered-eigenvalue trace inequality and the Uhlmann fidelity); a Riemannian
ascent over the environment unitary group covers everything else.  Its
restarts climb as one stack, by Barzilai-Borwein steps with a polar-gradient
fallback that cannot descend; a grid search on U(2) is an independent oracle.

Reduction contract: per-sample values depend only on (seed, sample index)
and are combined in fixed index order, so every reported mean is identical
for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .channels import ChoiOperator, PurificationVector
from .ensembles import (
    EnsembleSpec,
    PURPOSE_SAMPLE,
    PURPOSE_WEIGHTS,
    RandomStream,
    _as_generator,
    _choi_bank,
    _vmat_bank,
    haar_unitaries_batch,
    sample_ginibre,  # noqa: F401  perfbench/tests/check_tracer.py wraps this binding
)
from .errors import EnvironmentTooSmall, InvalidDims, TooLarge
from .linalg import _psd_eigvalsh, _purities, _require_hermitian
from .linalg import (
    dagger,
    flip_operator,
    floor_eigenvalues,
    permute_factors,
    swap_factors,
)
from .strategies import (
    Append,
    Strategy,
    _clip_errors,
    error_pure_output,
    parse_strategy,
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
    "make_strategy",
    "second_moment_operator",
    "second_moment_closed_form",
    "channel_pair_moment_closed_form",
]

ZERO_VARIANCE = 1e-20
# absolute slack added to n_sigma standard errors in closed-form agreement
CLOSED_FORM_SLACK = 1e-12
_CHUNK = 512

# Environment-unitary ascent: starting points (the identity plus Haar draws),
# iteration cap, stationarity tolerance and first trial step.
_RESTARTS = 20
_MAX_ITERS = 500
_REL_TOL = 1e-9
_INITIAL_STEP = 1.0


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------


@dataclass
class ErrorReport:
    """Monte Carlo estimate of an average purification error."""

    strategy: str
    d_i: int
    d_o: int
    d_e: int
    n: int
    seed: int
    mean: float
    stderr: float
    closed_form: Optional[float] = None
    per_sample: Optional[np.ndarray] = None

    def consistent_with_closed_form(self, n_sigma: float = 3.0) -> Optional[bool]:
        """None when no closed form is attached; otherwise the n-sigma check."""
        if self.closed_form is None:
            return None
        slack = n_sigma * self.stderr + CLOSED_FORM_SLACK
        return abs(self.mean - self.closed_form) <= slack

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "d_i": self.d_i,
            "d_o": self.d_o,
            "d_e": self.d_e,
            "n": self.n,
            "seed": self.seed,
            "mean": self.mean,
            "stderr": self.stderr,
            "closed_form": self.closed_form,
        }


@dataclass(frozen=True)
class OrbitResult:
    error: float
    overlap: float
    converged: bool
    best_unitary: np.ndarray

    def __float__(self) -> float:
        return self.error


@dataclass(frozen=True)
class MomentReport:
    """Monte Carlo estimate of a spectral moment (vector-valued in general)."""

    name: str
    values: np.ndarray
    stderr: np.ndarray
    n: int
    seed: int

    @property
    def value(self) -> float:
        return float(self.values[0])


# ---------------------------------------------------------------------------
# Single-sample error routes (batches of one through the machine classes)
# ---------------------------------------------------------------------------


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


def error_orbit_numeric(
    q_out: np.ndarray,
    v: PurificationVector,
    rs: RandomStream | np.random.Generator | None = None,
) -> OrbitResult:
    """Best-of-restarts Riemannian ascent of the orbit overlap.

    Maximizes tr[Q (1 x U) |V><V| (1 x U†)] over environment unitaries from
    the identity and 19 Haar starts, all climbed as one stack (see
    ``_ascend``).  The returned error tr(Q^2) + d_i^2 - 2 * best is an upper
    bound on the true orbit minimum that matches the exact routes on the
    append and pure-output families; ``converged`` is the best start's.
    """
    rng = _as_generator(rs if rs is not None else RandomStream(0, 0))
    q = np.asarray(q_out, dtype=complex)
    side = v.d_i * v.d_o * v.d_e
    if q.shape != (side, side):
        raise InvalidDims(f"machine output shape {q.shape}, expected {(side, side)}")
    _psd_eigvalsh(q)

    eye = np.eye(v.d_e, dtype=complex)[None]
    starts = np.concatenate([eye, haar_unitaries_batch(v.d_e, _RESTARTS - 1, rng)])
    f, u, converged = _ascend(q, v.as_matrix(), starts)
    best = int(np.argmax(f))
    err = _clip_errors(float(np.vdot(q, q).real) + v.d_i**2 - 2.0 * f[best], v.d_i)
    return OrbitResult(float(err), float(f[best]), bool(converged[best]), u[best])


def orbit_bruteforce(
    q_out: np.ndarray, v: PurificationVector, resolution: int = 24
) -> float:
    """Deterministic grid minimum of the orbit error for d_e <= 2.

    Scans an Euler-angle grid on U(2) modulo global phase (``resolution``
    points per angle); the result upper-bounds the true orbit minimum and
    serves as an independent oracle for the numeric ascent.
    """
    if v.d_e > 2:
        raise TooLarge("brute-force grid supports d_e <= 2 only")
    q = np.asarray(q_out, dtype=complex)
    q_purity = float(np.vdot(q, q).real)
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


def _chunk_map(fn, n: int, workers: int):
    """Yield ``fn(lo, hi)`` for consecutive chunks of [0, n), in index order.

    With more than one worker and more than one chunk the calls run in one
    process pool; results still arrive in index order, so any reduction over
    them is identical for every worker count.
    """
    bounds = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    if workers <= 1 or len(bounds) == 1:
        for lo, hi in bounds:
            yield fn(lo, hi)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, *zip(*bounds))


def per_sample_errors(
    strategy: Strategy, spec: EnsembleSpec, n: int, workers: int = 1
) -> np.ndarray:
    """Per-sample errors for indices 0..n-1, identical for any worker count."""
    chunks = _chunk_map(partial(strategy.chunk_errors, spec), n, workers)
    return np.concatenate(list(chunks))


def estimate_average_error(
    strategy: Strategy,
    spec: EnsembleSpec,
    n: int,
    *,
    workers: int = 1,
    keep_per_sample: bool = False,
) -> ErrorReport:
    """Monte Carlo mean and standard error of the per-sample purification error.

    Each sample uses the substream keyed by its index; the closed-form field
    is filled whenever the strategy admits a moment-free exact value.
    Sample variance below 1e-20 is reported as stderr exactly zero
    (genuinely constant strategies).
    """
    if n < 2:
        raise InvalidDims("Monte Carlo estimation needs n >= 2")
    per = per_sample_errors(strategy, spec, n, workers)
    mean = float(np.mean(per))
    var = float(np.var(per, ddof=1))
    stderr = 0.0 if var < ZERO_VARIANCE else math.sqrt(var / n)
    return ErrorReport(
        strategy=strategy.label,
        d_i=spec.d_i,
        d_o=spec.d_o,
        d_e=spec.d_e,
        n=n,
        seed=spec.seed,
        mean=mean,
        stderr=stderr,
        closed_form=strategy.closed_form(spec),
        per_sample=per if keep_per_sample else None,
    )


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
    if n < 2:
        raise InvalidDims("moment estimation needs n >= 2")
    if which not in _MOMENT_NAMES:
        raise InvalidDims(f"unknown moment {which!r}; expected one of {_MOMENT_NAMES}")
    chunks = _chunk_map(partial(_moment_chunk, spec, which, purpose), n, workers)
    samples = np.concatenate(list(chunks), axis=0)
    values = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / math.sqrt(n)
    return MomentReport(which, values, stderr, n, spec.seed)


def estimate_ordered_weights(
    spec: EnsembleSpec, n: int, *, workers: int = 1
) -> np.ndarray:
    """Ordered-eigenvalue second moments from the reserved weight streams."""
    report = estimate_moments(
        spec, n, "ordered_eig_sq", workers=workers, purpose=PURPOSE_WEIGHTS
    )
    return report.values


def make_strategy(
    text: str, spec: EnsembleSpec, *, n_weights: int = 2000, workers: int = 1
) -> Strategy:
    """Parse a strategy string, estimating weights for append:optimal."""
    if text.strip() == "append:optimal":
        w = estimate_ordered_weights(spec, n_weights, workers=workers)
        return parse_strategy(text, spec, append_weights=w)
    return parse_strategy(text, spec)


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


def _second_moment_chunk(spec: EnsembleSpec, lo: int, hi: int) -> np.ndarray:
    """Sum of (v x v)(v x v)† over draws [lo, hi), on the kept Sym^2 columns."""
    vm = _vmat_bank(spec, lo, hi, PURPOSE_SAMPLE)
    vecs = vm.reshape(hi - lo, -1)
    kept, _ = _symmetric_pairs(vecs.shape[1])
    # einsum's v_i v_j equals its v_j v_i bit for bit, so the gathered
    # columns stand for their mirrors exactly; a plain multiply of the two
    # columns would round differently.
    pairs = np.einsum("bi,bj->bij", vecs, vecs).reshape(hi - lo, -1)[:, kept]
    return np.einsum("bi,bj->ij", pairs, pairs.conj())


def second_moment_operator(
    spec: EnsembleSpec, n: int, *, workers: int = 1
) -> np.ndarray:
    """Monte Carlo average of the two-copy projector |V><V| x |V><V|.

    v x v lies in the symmetric subspace, so each chunk sums only its
    m = side (side + 1) / 2 columns with i <= j (side = d_i d_o d_e) into
    one m x m partial of m^2 * 16 bytes: 66 MiB at side 64, against
    256 MiB (side^4 * 16) for all side^2 columns.  Partials are added in
    index order as they arrive, so the result is worker-count independent
    and no list of partials is kept; the mean is expanded to
    side^2 x side^2 once, after the division.  Every entry is the same sum,
    in the same order, as the full-column accumulation.  Dense storage
    limits the joint dimension to d_i * d_o * d_e <= 64.
    """
    side = spec.d_i * spec.d_o * spec.d_e
    if side > 64:
        raise TooLarge("two-copy operator needs d_i * d_o * d_e <= 64")
    if n < 1:
        raise InvalidDims("two-copy average needs n >= 1")
    parts = _chunk_map(partial(_second_moment_chunk, spec), n, workers)
    acc = next(parts)
    for part in parts:
        acc += part
        del part  # so a spent partial is not held while the next is drawn
    acc /= n
    _, full = _symmetric_pairs(side)
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
