"""The purification machines as executable objects.

Each machine class carries everything the package knows about it: its
output Q(C) on the A x B x E space (a PSD operator of trace d_i), its exact
per-sample error over a range of sample indices, and its moment-free closed
form where one exists.  The four families:

* ``PureOutput``        - ignore the input, emit a fixed pure Choi operator;
* ``Append``            - leave the input unchanged, append an environment
  state of fixed spectrum (maximally mixed, optimal weights, pure); the
  maximally mixed state commutes with every environment unitary, so its
  orbit minimum is also the averaged-unitary bound (``avg-ue``);
* ``MapToDepolarizing`` - emit the flat operator 1/(d_o d_e);
* ``Estimation``        - a k-copy measure-and-reprepare machine built on
  single-copy tomography in random bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from . import theory
from .channels import ChoiOperator, PurificationVector, _value_eq
from .ensembles import (
    EnsembleSpec,
    PURPOSE_SAMPLE,
    RandomStream,
    _as_generator,
    _choi_bank,
    haar_unitaries_batch,
    sample_choi,
    sample_haar_unitary,
)
from .errors import InvalidDims, InvalidWeights
from .linalg import _purities, _require_norm, _require_psd
from .linalg import floor_eigenvalues, psd_factor, uhlmann_overlap

__all__ = [
    "PureOutput",
    "Append",
    "MapToDepolarizing",
    "Estimation",
    "Strategy",
    "optimal_append_spectrum",
    "tomography_estimate",
]


class Strategy(Protocol):
    """What every purification machine provides."""

    def output(
        self, c: ChoiOperator, rs: RandomStream | np.random.Generator | None = None
    ) -> np.ndarray:
        """Machine output Q(C) on the joint A x B x E space.

        Always a PSD operator of trace d_i.  Only the estimation machine
        consumes randomness.
        """

    def chunk_errors(self, spec: EnsembleSpec, lo: int, hi: int) -> np.ndarray:
        """Exact orbit-minimized errors for sample indices [lo, hi)."""

    def closed_form(self, spec: EnsembleSpec) -> Optional[float]:
        """Moment-free exact average error, or None when there is none."""


def _clip_errors(err, d_i: int):
    """Clamp errors (scalar or array) to their range [0, 2 d_i^2]."""
    return np.clip(err, 0.0, 2.0 * d_i**2)


class _BankScored:
    """Machines scored by ``errors(d_i, chois)`` on chunks of the sample bank."""

    def chunk_errors(self, spec: EnsembleSpec, lo: int, hi: int) -> np.ndarray:
        return self.errors(spec.d_i, _choi_bank(spec, lo, hi, PURPOSE_SAMPLE))


@dataclass(frozen=True)
class PureOutput(_BankScored):
    """Emit the fixed pure Choi operator |w><w| regardless of the input.

    ``support`` is S = ``psd_factor(W)`` of the marginal W = tr_E |w><w|,
    so that W = S S† with one column per eigenvalue above the floor.  It is
    computed once, here.
    """

    w: PurificationVector
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", psd_factor(self.w.marginal_choi().matrix))

    def output(self, c: ChoiOperator, rs=None) -> np.ndarray:
        if (self.w.d_i, self.w.d_o) != (c.d_i, c.d_o):
            raise InvalidDims("pure output dims do not match the input channel")
        return self.w.projector()

    def errors(self, d_i: int, chois: np.ndarray) -> np.ndarray:
        """Exact errors against a stack of Choi matrices.

        By the Uhlmann relation the best overlap with a purification of C
        is the fidelity of the marginals, so the error is
        2 d_i^2 - 2 ||sqrt(C) sqrt(W)||_1^2, by ``linalg.uhlmann_overlap``
        on W = S S†: an r x r spectrum per sample, r = 1 for a separable
        output, d_i d_o for the maximally entangled one.
        """
        overlap = uhlmann_overlap(self.support, chois)
        return _clip_errors(2.0 * d_i**2 - 2.0 * overlap, d_i)

    def closed_form(self, spec: EnsembleSpec) -> Optional[float]:
        # A rank-one marginal is an isometric channel's Choi operator; it, or
        # any output against isometric inputs, has average Uhlmann overlap
        # d_i / d_o with the channel.
        if spec.d_e == 1 or self.support.shape[1] == 1:
            return theory.eps_separable_pure_output(spec.d_i, spec.d_o)
        return None


@dataclass(frozen=True)
class Append(_BankScored):
    """Append an environment state of the given spectrum to the unchanged input.

    The orbit minimum depends on the appended state only through its
    spectrum, kept in descending order; it must be a state's (``NotPSD``,
    ``NotNormalized``).  Against C of rank <= m, the spectrum size, the exact
    error is the descending pairing of the ordered trace inequality,
    d_i^2 + tr(C^2) sum lambda^2 - 2 sum_i (c_i)^2 lambda_i; a flat
    spectrum pairs 1/m with every c_i, giving d_i^2 - tr(C^2) / m.
    """

    spectrum: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.spectrum, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise InvalidDims("appended spectrum must be a non-empty vector")
        _require_psd(lam)
        _require_norm(lam.sum(), 1.0, "sum of the appended spectrum")
        # contiguous, so a copy sent to a pool worker multiplies alike
        object.__setattr__(self, "spectrum", np.ascontiguousarray(np.sort(lam)[::-1]))

    __eq__ = _value_eq  # one machine per spectrum

    def output(self, c: ChoiOperator, rs=None) -> np.ndarray:
        return np.kron(c.matrix, np.diag(self.spectrum).astype(complex))

    def errors(self, d_i: int, chois: np.ndarray) -> np.ndarray:
        """Exact errors against a stack of Choi matrices, on the floored
        spectrum of C; none for a flat one (Frobenius purity kernel)."""
        lam = self.spectrum
        if lam[0] == lam[-1]:
            return _clip_errors(d_i**2 - _purities(chois) / lam.size, d_i)
        cvals = floor_eigenvalues(np.linalg.eigvalsh(chois))[:, ::-1]  # descending
        k = min(cvals.shape[1], lam.size)
        purity = np.sum(cvals**2, axis=1)
        pair = (cvals[:, :k] ** 2) @ lam[:k]
        return _clip_errors(d_i**2 + purity * float(np.sum(lam**2)) - 2.0 * pair, d_i)

    def closed_form(self, spec: EnsembleSpec) -> Optional[float]:
        # The maximally mixed state commutes with every environment unitary,
        # so its orbit minimum is the environment average.
        if self.spectrum.size == spec.d_e and np.all(self.spectrum == 1.0 / spec.d_e):
            return theory.eps_avg_ue(*spec.dims)
        return None


@dataclass(frozen=True)
class MapToDepolarizing:
    """Emit the flat operator d_i / (d_i d_o d_e), whatever the input."""

    d_e: int

    def output(self, c: ChoiOperator, rs=None) -> np.ndarray:
        side = c.d_i * c.d_o * self.d_e
        return np.eye(side, dtype=complex) * (c.d_i / side)

    def chunk_errors(self, spec: EnsembleSpec, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo, theory.eps_dep(spec.d_i, spec.d_o, self.d_e))

    def closed_form(self, spec: EnsembleSpec) -> Optional[float]:
        return theory.eps_dep(spec.d_i, spec.d_o, self.d_e)


@dataclass(frozen=True)
class Estimation:
    """Measure k copies, reprepare the estimated purification.

    ``k = None`` is the infinite-copy surrogate: the exact input is fed
    through the canonical purifier.
    """

    k: Optional[int]

    def output(self, c: ChoiOperator, rs=None) -> np.ndarray:
        if rs is None:
            raise InvalidDims("estimation strategy needs a random stream")
        return tomography_estimate(c, self.k, rs).projector()

    def chunk_errors(self, spec: EnsembleSpec, lo: int, hi: int) -> np.ndarray:
        """Each sample's stream draws the channel, then feeds its shots;
        one generator is re-keyed to each sample's stream in turn."""
        out = np.empty(hi - lo)
        gen = None
        for j, rs in enumerate(spec.streams(lo, hi)):
            gen = rs.generator(into=gen)
            c, _ = sample_choi(spec, gen)
            est = tomography_estimate(c, self.k, gen)
            out[j] = PureOutput(est).errors(spec.d_i, c.matrix[None])[0]
        return out

    def closed_form(self, spec: EnsembleSpec) -> Optional[float]:
        return None


def optimal_append_spectrum(weights) -> np.ndarray:
    """Error-minimizing spectrum of the appended state: lambda = w / sum(w).

    ``weights`` are the ordered second moments w_i = E[c_i^2], non-negative
    and non-increasing; their sum is the average purity E[tr C^2].
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0 or np.any(w < 0) or not w.sum() > 0:
        raise InvalidWeights("weights must be non-negative with a positive sum")
    if np.any(np.diff(w) > 1e-12 * max(w.max(), 1.0)):
        raise InvalidWeights("weights must be non-increasing")
    return w / w.sum()


# A shot batch holds at most _TOMO_CHUNK bases and _TOMO_BYTES of them; the
# byte cap binds only above joint dimension 32, so smaller shapes keep the
# 2048-shot schedule.
_TOMO_CHUNK = 2048
_TOMO_BYTES = 32 << 20


def tomography_estimate(
    c: ChoiOperator, k: Optional[int], rs: RandomStream | np.random.Generator
) -> PurificationVector:
    """Single-copy tomography surrogate for the estimation machine.

    A uniformly random purification of the input (canonical purification
    rotated by one Haar environment unitary) is measured ``k`` times, each
    shot in a fresh Haar-random orthonormal basis of the joint space.  The
    unbiased linear-inversion estimator

        rho_hat = mean_j [ (D + 1) |b_j><b_j| - 1 ],   D = joint dimension,

    is projected onto the PSD cone; its top eigenvector, rescaled to norm
    sqrt(d_i), is the reprepared purification.  The environment size is the
    numerical rank of the input, and the infidelity decays like 1/k.

    The shots are drawn in batches of at most 2048 bases and at most 32 MiB
    of them (16 D^2 bytes a basis), so a batch's memory is bounded at any D;
    below D = 32 only the 2048-shot cap binds.
    """
    rng = _as_generator(rs)
    # one factor C = S S† gives both the rank and the canonical dilation
    s = psd_factor(c.matrix)
    r = s.shape[1]
    if k is None:
        return PurificationVector(c.d_i, c.d_o, r, s.reshape(-1))
    if k < 1:
        raise InvalidDims("copy budget k must be >= 1")

    psi = (s @ sample_haar_unitary(r, rng).T).reshape(-1) / math.sqrt(c.d_i)
    dim = psi.size

    cap = max(1, min(_TOMO_CHUNK, _TOMO_BYTES // (16 * dim * dim)))
    basis_sum = np.zeros((dim, dim), dtype=complex)
    done = 0
    while done < k:
        batch = min(cap, k - done)
        bases = haar_unitaries_batch(dim, batch, rng)
        # |<b_m|psi>|^2, without a conjugated copy of the stack
        probs = np.abs(np.einsum("bxm,x->bm", bases, psi.conj())) ** 2
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random((batch, 1))
        outcome = (np.cumsum(probs, axis=1) < u).sum(axis=1)
        outcome = np.minimum(outcome, dim - 1)
        chosen = bases[np.arange(batch), :, outcome]
        basis_sum += np.einsum("bi,bj->ij", chosen, chosen.conj())
        done += batch

    # exactly Hermitian: einsum forms entries (i, j) and (j, i) from
    # conjugate products summed in the same order
    rho_hat = (dim + 1) * basis_sum / k - np.eye(dim)
    top = np.linalg.eigh(rho_hat)[1][:, -1]  # eigenvector of the top eigenvalue
    return PurificationVector(c.d_i, c.d_o, r, math.sqrt(c.d_i) * top)
