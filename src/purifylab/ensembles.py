"""Random ensembles: Ginibre matrices, Haar isometries, random channels.

Channels are drawn by tracing the environment of a Haar-random isometry
``V : H_I -> H_O x H_E``.  Every Haar isometry and unitary is the Q factor
of a complex Ginibre matrix G = QR (square or tall) with R's diagonal real
and positive, which is Haar on the Stiefel manifold.  One kernel builds it,
classical Gram-Schmidt run twice across the whole stack, isometric to
rounding.  A normalized-Wishart route to the same Choi distribution is
provided as an independent cross-check, together with the Marchenko-Pastur
reference density that governs the spectra at large dimension.

All randomness flows through :class:`RandomStream`, a counter-based keyed
stream: identical ``(seed, index)`` always reproduces the same draws, no
matter how samples are distributed over workers.  The sample bank builds
one stream per sample and writes each Ginibre draw straight into its row of
the bank (``sample_ginibre(..., out=row)``), with no temporary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ChoiOperator, PurificationVector, choi_vector
from .errors import DomainError, InvalidDims, SingularNormalizer
from .linalg import complete_elliptic, dagger, herm_eig, partial_trace

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
# The Philox counter every stream starts at; Philox copies it and never
# writes it back.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)

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
        if self.d_i < 1 or self.d_o < 2 or self.d_e < 1:
            raise InvalidDims(
                f"need d_i >= 1, d_o >= 2, d_e >= 1, got "
                f"({self.d_i}, {self.d_o}, {self.d_e})"
            )
        if self.d_o * self.d_e < self.d_i:
            raise InvalidDims("no isometry exists: d_o * d_e < d_i")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.d_i, self.d_o, self.d_e)

    def stream(self, index: int, purpose: int = PURPOSE_SAMPLE) -> "RandomStream":
        """Counter-based substream for sample ``index`` of a given purpose.

        The index is ``(purpose << 48) + index``; an index outside [0, 2^48)
        or a purpose outside [0, 2^16) would alias another purpose's streams
        (or wrap the 64-bit key word), so both raise :class:`InvalidDims`.
        """
        if not (0 <= index < 1 << 48 and 0 <= purpose < 1 << 16):
            raise InvalidDims(
                f"stream needs 0 <= index < 2^48 and 0 <= purpose < 2^16, "
                f"got index {index}, purpose {purpose}"
            )
        return RandomStream(self.seed, (purpose << 48) + index)


@dataclass(frozen=True)
class RandomStream:
    """Keyed, counter-based random stream (Philox).

    The (seed, index) pair fully determines the draw sequence, independent
    of host, thread count, or draw history of other streams.  Value type:
    copying the stream and calling :meth:`generator` twice replays the same
    sequence.

    The Philox key is ``[seed mod 2^64, index mod 2^64]`` and the counter
    starts at 0; :meth:`EnsembleSpec.stream` forms the index as
    ``(purpose << 48) + sample``.  Building a generator reads no OS entropy,
    and the zero counter goes in as a ready uint64 array (``_ZERO_COUNTER``),
    so numpy does not convert the integer 0 word by word for every stream.
    """

    seed: int
    index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.index & _MASK64], dtype=np.uint64)
        return np.random.Generator(
            np.random.Philox(_key_seed_type()(key), counter=_ZERO_COUNTER)
        )


@functools.cache
def _key_seed_type() -> type:
    """Seed-sequence class that hands Philox a fixed 128-bit key.

    Philox seeded with it starts at the same key and counter 0 as
    ``Philox(key=key)``, without first building a ``SeedSequence`` from OS
    entropy that the key would override.  Built on first use so that
    importing purifylab does not import ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or dtype is not np.uint64:
                raise ValueError("a Philox key is two 64-bit words")
            return self.key

    return KeySeed


def _as_generator(rs: RandomStream | np.random.Generator) -> np.random.Generator:
    if isinstance(rs, np.random.Generator):
        return rs
    return rs.generator()


def _complex_normals(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fill the complex128 C-contiguous array ``out`` with Ginibre entries.

    The standard normals go straight into ``out``'s real view, each
    consecutive (Re, Im) pair one entry, in the order of
    ``rng.standard_normal((*out.shape, 2))``, and are scaled there by
    1/sqrt(2).  numpy divides a complex by the real sqrt(2) as one multiply
    by that reciprocal, so the entries are bit-identical to
    ``(z[..., 0] + 1j * z[..., 1]) / sqrt(2)``.
    """
    x = out.view(float)
    rng.standard_normal(out=x)
    x *= 1.0 / math.sqrt(2.0)
    return out


def sample_ginibre(
    rows: int,
    cols: int,
    rs: RandomStream | np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Complex Ginibre matrix: i.i.d. entries with Re, Im ~ N(0, 1/2).

    With ``out`` (a C-contiguous complex128 array of shape (rows, cols)) the
    draw is written there and ``out`` is returned; the bits are those of the
    allocating call.
    """
    if rows < 1 or cols < 1:
        raise InvalidDims("Ginibre dimensions must be >= 1")
    if out is None:
        out = np.empty((rows, cols), dtype=complex)
    elif (
        out.shape != (rows, cols)
        or out.dtype != np.complex128
        or not out.flags.c_contiguous
    ):
        raise InvalidDims(
            f"out must be a C-contiguous complex128 array of shape {(rows, cols)}, "
            f"got {out.dtype} {out.shape}"
        )
    return _complex_normals(out, _as_generator(rs))


def sample_haar_isometry(
    d_in: int, d_out: int, rs: RandomStream | np.random.Generator
) -> np.ndarray:
    """Haar-random isometry V (d_out x d_in) with V†V = 1.

    A batch of one through the QR kernel, so the bits match the bank's row.
    """
    if d_out < d_in:
        raise InvalidDims(f"isometry needs d_out >= d_in, got {d_out} < {d_in}")
    return _qr_haar_batch(sample_ginibre(d_out, d_in, rs)[None])[0]


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

    Raises :class:`SingularNormalizer` when a column's residual after the
    two passes is at or below 1e-14 times that column's norm in G; a zero
    column trips it too.
    """
    q = g.transpose(2, 1, 0).astype(complex, order="C")
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
    # back to C-ordered (batch, row, column), the layout callers index
    return np.ascontiguousarray(q.transpose(2, 1, 0))


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
    """Stack of ``count`` independent Haar unitaries, drawn in one pass."""
    return _qr_haar_batch(_complex_normals(np.empty((count, d, d), dtype=complex), rng))


def _vmat_bank(spec: EnsembleSpec, lo: int, hi: int, purpose: int) -> np.ndarray:
    """Purification matrices (batch, d_i*d_o, d_e) for sample indices [lo, hi)."""
    d_i, d_o, d_e = spec.dims
    big = d_o * d_e
    count = hi - lo
    gs = np.empty((count, big, d_i), dtype=complex)
    for j, i in enumerate(range(lo, hi)):
        sample_ginibre(big, d_i, spec.stream(i, purpose), out=gs[j])
    return choi_vector(_qr_haar_batch(gs)).reshape(count, d_i * d_o, d_e)


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
    if c <= 0:
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
    if c <= 0:
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
