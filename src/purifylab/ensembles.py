"""Random ensembles: Ginibre matrices, Haar isometries, random channels.

Channels are drawn by tracing the environment of a Haar-random isometry
``V : H_I -> H_O x H_E``.  Every Haar isometry and unitary is the Q factor
of a complex Ginibre matrix G = QR (square or tall) with R's diagonal real
and positive, which is Haar on the Stiefel manifold.  One kernel builds it,
classical Gram-Schmidt run twice across the whole stack, isometric to
rounding.  A normalized-Wishart route to the same Choi distribution is
provided as an independent cross-check, together with the Marchenko-Pastur
reference density that governs the spectra at large dimension.  Every
Ginibre draw, for the bank, a Haar stack or the Wishart route, goes through
one function, :func:`sample_ginibre`, as unscaled standard complex normals:
both routes are scale-free, so a scale would change nothing but the cost.

All randomness flows through :class:`RandomStream`, a counter-based keyed
stream: identical ``(seed, index)`` always reproduces the same draws, no
matter how samples are distributed over workers.  One method,
:meth:`EnsembleSpec.streams`, forms the keys of a range of samples and
range-checks the whole range before it returns a stream; a lone
:meth:`EnsembleSpec.stream` is a range of one.  The sample bank takes one
stream per sample from it and writes each Ginibre draw straight into its row
of the bank (``sample_ginibre(..., out=row)``), with no temporary.  One method,
:meth:`RandomStream.generator`, writes a stream's Philox state, into a new
generator or into one the caller holds: a keyed Ginibre draw re-keys its
thread's scratch generator, and a tomography chunk re-keys one of its own.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import ChoiOperator, PurificationVector, choi_vector
from .errors import DomainError, InvalidDims, SingularNormalizer
from .linalg import _integers, _shape, complete_elliptic, dagger, herm_eig, partial_trace

__all__ = [
    "EnsembleSpec",
    "RandomStream",
    "sample_ginibre",
    "sample_haar_isometry",
    "sample_haar_unitary",
    "sample_choi",
    "sample_wishart_choi",
    "mp_support",
    "mp_density",
    "mp_atom",
    "mp_cdf",
    "mp_mu",
]

_MASK64 = (1 << 64) - 1

# Purpose tags partitioning the substream index space, so that e.g. weight
# estimation never consumes the streams used for error evaluation.
PURPOSE_SAMPLE = 0
PURPOSE_WEIGHTS = 1
PURPOSE_FIXED = 2


@dataclass(frozen=True)
class EnsembleSpec:
    """Dimension triple (d_i, d_o, d_e) plus the Monte Carlo seed.

    ``d_e`` controls the prior over channels: d_e = 1 draws only isometric
    channels, d_e = d_i * d_o the uniform Choi measure, and large d_e
    concentrates near the fully depolarizing channel.
    """

    d_i: int
    d_o: int
    d_e: int
    seed: int = 0

    def __post_init__(self) -> None:
        # NumPy integers are kept as Python ints; a bool, float or string fails here
        dims = _shape(self.d_i, self.d_o, self.d_e)
        seed = _integers((self.seed,), "seed", low=-math.inf)
        for name, value in zip(("d_i", "d_o", "d_e", "seed"), (*dims, *seed)):
            object.__setattr__(self, name, value)
        if self.d_o * self.d_e < self.d_i:
            raise InvalidDims("no isometry exists: d_o * d_e < d_i")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d_i, self.d_o, self.d_e)

    def stream(self, index: int, purpose: int = PURPOSE_SAMPLE) -> "RandomStream":
        """Counter-based substream for sample ``index`` of a given purpose:
        :meth:`streams` over the range of one sample."""
        (index,) = _integers((index,), "sample index")
        return next(self.streams(index, index + 1, purpose))

    def streams(self, lo: int, hi: int, purpose: int = PURPOSE_SAMPLE):
        """Substreams of samples ``lo, ..., hi - 1`` of a given purpose, in order.

        The one place a stream index is formed: ``(purpose << 48) + index``.
        A sample index outside [0, 2^48) or a purpose outside [0, 2^16) would
        alias another purpose's streams (or wrap the 64-bit key word), so the
        whole range is checked, and :class:`InvalidDims` raised, before any
        stream is returned.  NumPy integers are taken as Python ints first,
        so the key arithmetic cannot wrap in a fixed-width dtype.
        """
        lo, hi, purpose = _integers((lo, hi, purpose), "stream lo, hi and purpose")
        if not (lo <= hi <= 1 << 48 and purpose < 1 << 16):
            raise InvalidDims(f"streams need sample indices in [0, 2^48) and a purpose in "
                              f"[0, 2^16), got indices [{lo}, {hi}), purpose {purpose}")
        base = purpose << 48
        return map(partial(RandomStream, self.seed), range(base + lo, base + hi))


@dataclass(frozen=True)
class RandomStream:
    """Keyed, counter-based random stream (Philox).

    The (seed, index) pair fully determines the draw sequence, independent
    of host, thread count, or draw history of other streams.  Value type:
    copying the stream and calling :meth:`generator` twice replays the same
    sequence.

    The Philox key is ``[seed mod 2^64, index mod 2^64]`` and the counter
    starts at 0; :meth:`EnsembleSpec.streams` forms the index as
    ``(purpose << 48) + sample``.  Seed and index may be any integers,
    NumPy's included.

    :meth:`generator` is the one place a stream's state is written.  It sets
    the whole Philox state, the key, the zero counter and an empty output
    buffer, on ``into`` (whatever ``into`` drew before) or, without it, on a
    new ``Philox(0)`` generator, whose constant seed reads no OS entropy.
    Either way the draws are the same bits (Philox is counter-based; Salmon
    et al., SC'11).
    """

    seed: int
    index: int = 0

    def generator(self, into: np.random.Generator | None = None) -> np.random.Generator:
        key = (operator.index(self.seed) & _MASK64, operator.index(self.index) & _MASK64)
        if into is None:
            into = np.random.Generator(np.random.Philox(0))
        into.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return into


# Per-thread Philox that keyed Ginibre draws re-key (RandomStream.generator).
_SCRATCH = threading.local()
_COMPLEX128 = np.dtype(np.complex128)


def _as_generator(rs: RandomStream | np.random.Generator) -> np.random.Generator:
    if isinstance(rs, np.random.Generator):
        return rs
    return rs.generator()


def sample_ginibre(
    rows: int,
    cols: int,
    rs: RandomStream | np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Complex Ginibre matrix: i.i.d. entries with Re, Im ~ N(0, 1).

    The one Ginibre entry point: every channel isometry, Haar unitary and
    Wishart factor is drawn here.  With ``out`` (a C-contiguous complex128
    array of shape (rows, cols)) the draw is written there and ``out`` is
    returned; the bits are those of the allocating call.  A
    :class:`RandomStream` is drawn from by re-keying this thread's scratch
    generator, built on the thread's first keyed draw; a ``Generator`` is
    drawn from as it is.

    The standard normals go straight into the result's real view, each
    consecutive (Re, Im) pair one entry, in the order of
    ``rng.standard_normal((rows, cols, 2))``: ``z[..., 0] + 1j * z[..., 1]``
    bit for bit, E|g|^2 = 2.  No scale is applied, since no consumer sees
    one: the phase-fixed QR factor of cG is that of G for any c > 0, and the
    Wishart route normalises it away.
    """
    if rows < 1 or cols < 1:
        raise InvalidDims("Ginibre dimensions must be >= 1")
    if out is None:
        out = np.empty((rows, cols), dtype=complex)
    elif (
        out.shape != (rows, cols)
        or out.dtype != _COMPLEX128
        or not out.flags.c_contiguous
    ):
        raise InvalidDims(
            f"out must be a C-contiguous complex128 array of shape {(rows, cols)}, "
            f"got {out.dtype} {out.shape}"
        )
    if isinstance(rs, RandomStream):
        scratch = getattr(_SCRATCH, "rng", None)
        rs = rs.generator(into=scratch)
        if scratch is None:
            _SCRATCH.rng = rs
    x = out.view(float)
    rs.standard_normal(out=x)
    return out


def sample_haar_isometry(
    d_in: int, d_out: int, rs: RandomStream | np.random.Generator
) -> np.ndarray:
    """Haar-random isometry V (d_out x d_in) with V†V = 1.

    A batch of one through the QR kernel, so the bits match the bank's row;
    the kernel's view is copied to a C-contiguous matrix.
    """
    if d_out < d_in:
        raise InvalidDims(f"isometry needs d_out >= d_in, got {d_out} < {d_in}")
    return np.ascontiguousarray(_qr_haar_batch(sample_ginibre(d_out, d_in, rs)[None])[0])


def sample_haar_unitary(d: int, rs: RandomStream | np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary: the square case of :func:`sample_haar_isometry`."""
    return sample_haar_isometry(d, d, rs)


def _qr_haar_batch(g: np.ndarray) -> np.ndarray:
    """Haar isometries Q from a stack of Ginibre G = QR with r_jj > 0.

    G is square or tall (rows >= columns); Q has G's shape and is Haar on
    the Stiefel manifold, the unitary group when G is square (Mezzadri,
    Notices AMS 54, 592 (2007)).  Classical Gram-Schmidt run twice (CGS2):
    column j of G loses its components along columns 0..j-1 of Q in two
    passes and is then normalised.  The R this implies has a real positive
    diagonal, so Q is the phase-fixed factor, and the second pass keeps
    Q†Q = 1 to rounding ("twice is enough": Giraud et al., Numer. Math.
    101, 87 (2005)).  The columns are worked on in a (column, row, batch)
    copy, so every numpy operation runs over the contiguous batch axis.
    Every sum adds the rows one by one in row order (:func:`_row_sums`), so
    a matrix gets the same bits alone as in any stack.

    Memory: the kernel drops its reference to G once the working copy
    exists, so a G that the caller passes without keeping a name for it
    is freed there, and it returns a (batch, row, column) view of the
    working array, not a copy.  A caller that needs another layout makes
    that one copy itself.  Tomography draws at most 2048 bases and 32 MiB
    of them per stack (``strategies.tomography_estimate``).

    Raises :class:`SingularNormalizer` when a column's residual after the
    two passes is at or below 1e-14 times that column's norm in G; a zero
    column trips it too.
    """
    q = g.transpose(2, 1, 0).astype(complex, order="C")
    del g
    for j, v in enumerate(q):
        norm_in = _norms(v)
        for _ in range(2):
            coef = [_row_sums(q[k].conj() * v) for k in range(j)]
            for k in range(j):
                v -= q[k] * coef[k]
        norm = _norms(v)
        if (norm <= 1e-14 * norm_in).any():
            raise SingularNormalizer(f"column {j} of G depends on the columns before it")
        v /= norm
    # the (batch, row, column) axes callers index, as a view of the work array
    return q.transpose(2, 1, 0)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the rows of a (row, batch) complex stack, in row order.

    Summed on the (row, 2 batch) real view.  numpy adds the rows one by one
    when a longer axis lies inside the summed one, but pairwise when the
    summed axis is innermost, as it is for a lone matrix once numpy drops
    its length-one batch axis; the real view's inner axis is never shorter
    than two.
    """
    return x.view(float).sum(axis=0).view(complex)


def _norms(x: np.ndarray) -> np.ndarray:
    """Column norms of a (row, batch) complex stack, summed as :func:`_row_sums`."""
    s = (x.view(float) ** 2).sum(axis=0)
    return np.sqrt(s[0::2] + s[1::2])


def haar_unitaries_batch(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` >= 1 independent Haar unitaries, drawn in one pass.

    One ``count * d`` by ``d`` Ginibre draw, read as ``count`` stacked
    matrices: the same memory filled in the same order.  The kernel's
    (batch, row, column) view, not C-contiguous; the draw peaks at about two
    stacks of ``count`` * 16 d^2 bytes.  Tomography asks for at most 2048
    unitaries and 32 MiB of them at a time.
    """
    return _qr_haar_batch(sample_ginibre(count * d, d, rng).reshape(count, d, d))


def _vmat_bank(spec: EnsembleSpec, lo: int, hi: int, purpose: int) -> np.ndarray:
    """Purification matrices (batch, d_i*d_o, d_e) for sample indices [lo, hi)."""
    d_i, d_o, d_e = spec.dims
    # no name holds the Ginibre stack, so the kernel frees it once its work
    # array exists; choi_vector's copy is the only other stack then held
    v = _qr_haar_batch(_ginibre_rows(spec.streams(lo, hi, purpose), hi - lo, d_o * d_e, d_i))
    return choi_vector(v).reshape(hi - lo, d_i * d_o, d_e)


def _ginibre_rows(streams, count: int, rows: int, cols: int) -> np.ndarray:
    """Stack (count, rows, cols) of keyed Ginibre draws, one stream a row,
    each written straight into its row."""
    gs = np.empty((count, rows, cols), dtype=complex)
    for row, rs in zip(gs, streams):
        sample_ginibre(rows, cols, rs, out=row)
    return gs


def _choi_bank(spec: EnsembleSpec, lo: int, hi: int, purpose: int) -> np.ndarray:
    """Choi matrices (batch, d_i*d_o, d_i*d_o) for sample indices [lo, hi)."""
    vm = _vmat_bank(spec, lo, hi, purpose)
    return vm @ dagger(vm)


def sample_choi(spec: EnsembleSpec, rs: RandomStream | np.random.Generator):
    """Draw one random channel: returns ``(choi, purification)``.

    The purification is the Choi vector of a Haar isometry
    d_i -> d_o * d_e; the Choi operator is its environment marginal.
    """
    v_iso = sample_haar_isometry(spec.d_i, spec.d_o * spec.d_e, rs)
    vec = choi_vector(v_iso)
    pur = PurificationVector(spec.d_i, spec.d_o, spec.d_e, vec)
    return pur.marginal_choi(), pur


def sample_wishart_choi(spec: EnsembleSpec, rs: RandomStream | np.random.Generator):
    """Random Choi matrix via the normalized-Wishart route.

    Forms W = GG† for Ginibre G (d_i d_o x d_e) and enforces trace
    preservation with T = tr_O W through (T^(-1/2) x 1) W (T^(-1/2) x 1).
    Same distribution as the marginal of :func:`sample_choi`.
    """
    g = sample_ginibre(spec.d_i * spec.d_o, spec.d_e, rs)
    w = g @ g.conj().T
    t = partial_trace(w, (spec.d_i, spec.d_o), keep=(0,))
    vals, vecs = herm_eig(t)
    if np.min(vals) <= 1e-14 * max(np.max(vals), 1e-300):
        raise SingularNormalizer("tr_O(GG†) is numerically singular")
    t_inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    s = np.kron(t_inv_root, np.eye(spec.d_o))
    return ChoiOperator(spec.d_i, spec.d_o, s @ w @ s)


# ---------------------------------------------------------------------------
# Marchenko-Pastur reference quantities
# ---------------------------------------------------------------------------


def mp_support(c: float) -> tuple[float, float]:
    """Support edges ((1 - sqrt(c))^2, (1 + sqrt(c))^2) of the bulk."""
    if not c > 0:
        raise DomainError("aspect ratio c must be positive")
    s = math.sqrt(c)
    return (1.0 - s) ** 2, (1.0 + s) ** 2


def mp_density(c: float, x) -> np.ndarray | float:
    """Absolutely continuous part of the Marchenko-Pastur density.

    The point mass at zero (weight ``(1 - 1/c)+`` for c > 1) is reported
    separately by :func:`mp_atom`, not folded into the density.
    """
    lo, hi = mp_support(c)
    xs = np.asarray(x, dtype=float)
    inside = (xs > lo) & (xs < hi) & (xs > 0.0)
    out = np.zeros_like(xs)
    xin = xs[inside]
    out[inside] = np.sqrt((hi - xin) * (xin - lo)) / (2.0 * math.pi * c * xin)
    if np.isscalar(x):
        return float(out)
    return out


def mp_atom(c: float) -> float:
    """Weight of the point mass at zero: (1 - 1/c)+."""
    if not c > 0:
        raise DomainError("aspect ratio c must be positive")
    return max(0.0, 1.0 - 1.0 / c)


def mp_cdf(c: float, x) -> np.ndarray | float:
    """Cumulative distribution of the Marchenko-Pastur law, atom included.

    Evaluated by dense trapezoidal integration of the bulk density
    (absolute accuracy well below 1e-6, enough for KS statistics).
    """
    lo, hi = mp_support(c)
    grid = np.linspace(lo, hi, 20001)
    dens = mp_density(c, grid)
    cum = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))))
    total = cum[-1]
    atom = mp_atom(c)
    xs = np.asarray(x, dtype=float)
    out = np.interp(xs, grid, cum, left=0.0, right=total)
    out = out / total * (1.0 - atom) + np.where(xs >= 0.0, atom, 0.0)
    if np.isscalar(x):
        return float(out)
    return out


def mp_mu(c: float) -> float:
    """Mean of sqrt(x) under the Marchenko-Pastur law, for 0 < c <= 1.

    Closed form in terms of complete elliptic integrals with parameter
    m = 4 sqrt(c) / (1 + sqrt(c))^2; equals 8 / (3 pi) at c = 1 and tends
    to 1 as c -> 0.
    """
    if not 0.0 < c <= 1.0:
        raise DomainError(f"mp_mu defined for 0 < c <= 1, got {c}")
    s = math.sqrt(c)
    m = 4.0 * s / (1.0 + s) ** 2
    k, e = complete_elliptic(min(m, 1.0))
    coef_k = (1.0 - s) ** 2
    k_term = 0.0 if coef_k == 0.0 else coef_k * k
    return (2.0 * (1.0 + s)) / (3.0 * math.pi * c) * ((1.0 + c) * e - k_term)
