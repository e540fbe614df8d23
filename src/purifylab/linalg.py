"""Dense complex-matrix kernels shared by the rest of the package.

Everything here operates on plain ``numpy.ndarray`` objects of dtype
complex128 (real input is promoted).  Partial traces take an explicit list
of factor dimensions and the set of factors to keep, so multipartite index
bookkeeping lives in one place.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import DomainError, InvalidDims, NotHermitian, NotNormalized, NotPSD

__all__ = [
    "partial_trace",
    "herm_eig",
    "floor_eigenvalues",
    "psd_sqrt",
    "psd_factor",
    "trace_norm",
    "uhlmann_overlap",
    "fidelity",
    "flip_operator",
    "swap_factors",
    "permute_factors",
    "complete_elliptic",
    "hermitianize",
    "dagger",
]

# The package's tolerances, one per property; the helper that applies each
# rule states it (EIG_FLOOR: floor_eigenvalues, the rest: the _require_* checks).
# Each _require_* check raises unless its `<=` test holds, so NaN fails it.
EIG_FLOOR = 1e-12
PSD_TOL = 1e-9
HERM_TOL = 1e-10
NORM_TOL = 1e-10
ISO_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes, so a stack maps matrix by matrix."""
    return np.swapaxes(a.conj(), -1, -2)


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a†) / 2."""
    return (a + dagger(a)) / 2


def _purities(chois: np.ndarray) -> np.ndarray:
    """tr(C^2) = ||C||_F^2 of each matrix in a Hermitian stack, with no spectrum."""
    return np.einsum("bij,bij->b", chois.conj(), chois).real


def _check_square(m: np.ndarray) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidDims(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def _integers(values: Iterable, what: str, low=0, error: type = InvalidDims) -> list[int]:
    """``values`` as Python ints, each >= ``low``, or ``error`` naming ``what``:
    the package's one integer rule.  Python and NumPy integers pass; a bool,
    a float (2.0 and NaN too), a string or None fails, so no dimension,
    count, index or seed is truncated or read from a flag."""
    values = list(values)
    try:
        if {bool, np.bool_} & set(map(type, values)):
            raise TypeError
        out = [operator.index(v) for v in values]
    except TypeError:
        raise error(f"{what} must be integers, got {values}") from None
    if min(out, default=low) < low:
        raise error(f"{what} must be >= {low}, got {out}")
    return out


def _shape(d_i, d_o, d_e, error: type = InvalidDims) -> tuple[int, int, int]:
    """(d_i, d_o, d_e) as Python ints, or ``error``: the one shape rule,
    integers d_i >= 1, d_o >= 2, d_e >= 1, the shapes of ``EnsembleSpec``
    (which adds d_o d_e >= d_i) and of the closed forms in ``theory``."""
    dims = (d_i, d_o, d_e)
    try:
        d_i, d_o, d_e = _integers(dims, "(d_i, d_o, d_e)", error=error)
        ok = d_i >= 1 and d_o >= 2 and d_e >= 1
    except error:  # not integers, or negative
        ok = False
    if not ok:
        raise error(f"need integers d_i >= 1, d_o >= 2, d_e >= 1, got {dims}")
    return d_i, d_o, d_e


def partial_trace(
    m: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    Parameters
    ----------
    m : square matrix on the tensor product of the given factors
    dims : ordered factor dimensions, whose product must equal the side of m
    keep : indices (into dims) of the factors to retain, in original order

    Returns
    -------
    The reduced matrix on the kept factors.  The full trace is preserved.
    """
    side = _check_square(m)
    dims = _integers(dims, "factor dims", low=1)
    if math.prod(dims) != side:
        raise InvalidDims(f"factor dims {dims} do not multiply to side {side}")
    n = len(dims)
    keep = sorted(set(_integers(keep, "keep indices")))
    if any(k >= n for k in keep):
        raise InvalidDims(f"keep indices {keep} out of range for {n} factors")

    t = m.reshape(dims + dims)
    # Repeat the index letter on (row, col) legs of every traced factor.
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row + col, out)
    d_keep = math.prod(dims[k] for k in keep) if keep else 1
    return reduced.reshape(d_keep, d_keep)


def _require_hermitian(m: np.ndarray) -> np.ndarray:
    """The Hermitian part of m, or :class:`NotHermitian` by the HERM_TOL rule."""
    _check_square(m)
    if not np.max(np.abs(m - dagger(m))) <= HERM_TOL * np.max(np.abs(m)):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return hermitianize(np.asarray(m, dtype=complex))


def _require_psd(vals: np.ndarray) -> None:
    """:class:`NotPSD` on a spectrum below ``-PSD_TOL * max|eig|``."""
    if not -PSD_TOL * np.max(np.abs(vals), initial=0.0) <= np.min(vals, initial=0.0):
        raise NotPSD(f"eigenvalue {np.min(vals):.3e} below the PSD tolerance")


def _psd_eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of m, after the Hermiticity and negativity rules."""
    vals = np.linalg.eigvalsh(_require_hermitian(m))
    _require_psd(vals)
    return vals


def _require_norm(value, target: float, what: str) -> None:
    """:class:`NotNormalized` unless ``|value - target| <= NORM_TOL * target``."""
    if not abs(value - target) <= NORM_TOL * target:
        raise NotNormalized(f"{what} is {value:.12g}, expected {target}")


def _require_identity(gram: np.ndarray, exc: type, what: str) -> None:
    """Raise ``exc`` unless the Gram matrix V†V is the identity within ISO_TOL."""
    if not np.max(np.abs(gram - np.eye(gram.shape[0]))) <= ISO_TOL:
        raise exc(f"{what} deviates from the identity")


def herm_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a Hermitian matrix.

    Returns ``(vals, vecs)`` with eigenvalues sorted in non-increasing order
    and ``vecs[:, i]`` the matching orthonormal eigenvectors.  Ties keep the
    stable order produced by the underlying solver, so output is
    deterministic for identical input.
    """
    h = _require_hermitian(m)
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(-vals, kind="stable")
    return vals[order].real, vecs[:, order]


def floor_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues below EIG_FLOOR * max (and negative ones) to exact zero.

    Works over the last axis, so a stack of spectra is floored row by row.
    """
    top = np.max(vals, axis=-1, keepdims=True, initial=0.0)
    return np.maximum(np.where(vals < EIG_FLOOR * top, 0.0, vals), 0.0)


def _psd_spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``herm_eig`` of m through the negativity rule, with floored eigenvalues
    (a negative band inside the rule, drift after partial traces, is zero)."""
    vals, vecs = herm_eig(m)
    _require_psd(vals)
    return floor_eigenvalues(vals), vecs


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root via the spectral decomposition;
    :class:`NotPSD` as in ``psd_factor``."""
    vals, vecs = _psd_spectrum(m)
    return hermitianize((vecs * np.sqrt(vals)) @ dagger(vecs))


def psd_factor(m: np.ndarray) -> np.ndarray:
    """S = V_r diag(sqrt(lambda_r)) with m = S S†: one column per eigenvalue
    above the floor, descending, so the column count is the rank.  Raises
    :class:`NotPSD` on an eigenvalue below ``-PSD_TOL * max|eig|``."""
    vals, vecs = _psd_spectrum(m)
    r = int(np.count_nonzero(vals))
    return vecs[:, :r] * np.sqrt(vals[:r])


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values (Schatten-1 norm)."""
    if m.ndim != 2:
        raise InvalidDims(f"expected a matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False).sum())


def uhlmann_overlap(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    """||sqrt(M) sqrt(S S†)||_1^2 = (sum sqrt eig(S† M S))^2, with the
    eigenvalues floored; over the last two axes of m, so a stack of M gives
    one overlap each.  With S = ``psd_factor(W)`` this is the Uhlmann overlap
    of M and W, one r x r spectrum for a rank-r W and no SVD."""
    vals = floor_eigenvalues(np.linalg.eigvalsh(s.conj().T @ m @ s))
    return np.sum(np.sqrt(vals), axis=-1) ** 2


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``||sqrt(rho) sqrt(sigma)||_1^2`` of two density
    matrices, the maximal squared overlap between their purifications, by
    ``uhlmann_overlap`` on sigma's PSD factor.  Both inputs must be unit-trace
    PSD matrices of the same size."""
    _psd_eigvalsh(rho)
    if rho.shape != sigma.shape:
        raise InvalidDims("fidelity arguments must have equal shape")
    s = psd_factor(sigma)
    for name, op in (("rho", rho), ("sigma", sigma)):
        _require_norm(np.trace(op), 1.0, f"trace of {name}")
    f = float(uhlmann_overlap(s, hermitianize(rho)))
    return min(max(f, 0.0), 1.0)


def flip_operator(d: int) -> np.ndarray:
    """Swap operator F on C^d x C^d, F |a,b> = |b,a>.

    Satisfies tr[(X x Y) F] = tr(XY), F^2 = 1, and F = F†.  ``d`` must be
    an integer >= 1 (``InvalidDims`` otherwise).
    """
    return permute_factors((d, d), (1, 0))


def permute_factors(dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Operator P |b_0, ..., b_{n-1}> = |b_perm[0], ..., b_perm[n-1]>.

    Factor ``perm[k]`` of the input lands in slot k, so every factor must
    keep its dimension.  Built by index assignment, so a product of
    factor permutations costs one dense matrix instead of a matmul.
    """
    dims = _integers(dims, "factor dims", low=1)
    perm = _integers(perm, "factor permutation")
    if sorted(perm) != list(range(len(dims))) or any(
        dims[p] != d for p, d in zip(perm, dims)
    ):
        raise InvalidDims(f"{perm} does not permute equal factors of dims {dims}")
    side = math.prod(dims)
    cols = np.arange(side).reshape(dims).transpose(perm).reshape(-1)
    out = np.zeros((side, side))
    out[np.arange(side), cols] = 1.0
    return out


def swap_factors(dims: Sequence[int], i: int, j: int) -> np.ndarray:
    """Operator swapping tensor factors i and j of a multipartite space.

    The two factors must have equal dimension; all other factors are left
    untouched.  Used to assemble flip-operator identities on spaces holding
    two copies of a system.
    """
    dims = _integers(dims, "factor dims", low=1)
    i, j = _integers((i, j), "factor indices")
    n = len(dims)
    if not (i < n and j < n) or dims[i] != dims[j]:
        raise InvalidDims(f"cannot swap factors {i},{j} of dims {dims}")
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    return permute_factors(dims, perm)


def complete_elliptic(m: float) -> tuple[float, float]:
    """Complete elliptic integrals (K(m), E(m)) in the parameter convention.

    ``m`` is the parameter (squared modulus).  Evaluated by the
    arithmetic-geometric mean iteration; K(1) is reported as ``inf`` with
    E(1) = 1 exactly.
    """
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"elliptic parameter {m} outside [0, 1]")
    if m == 1.0:
        return float("inf"), 1.0
    a, b = 1.0, math.sqrt(1.0 - m)
    c_sum = 0.5 * m  # 2^(n-1) c_n^2 accumulated from c_0 = sqrt(m)
    power = 0.5
    for _ in range(64):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        power *= 2.0
        c_sum += power * c * c
        if c < 1e-17:
            break
    k = math.pi / (2.0 * a)
    e = k * (1.0 - c_sum)
    return k, e
