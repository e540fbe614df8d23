"""Choi, Kraus, and Stinespring representations of quantum channels.

Conventions, fixed globally:

* tensor factor order is I x O x E (input, output, environment), row-major;
* Choi operators are unnormalized, with tr C = d_i and tr_O C = 1_I;
* purification vectors are Choi vectors of isometries, squared norm d_i;
* the canonical purification uses Kraus operators from descending
  eigenvalues of C and the computational basis on the environment.  Any
  other purification of the same channel differs by a unitary on E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import EnvironmentTooSmall, InvalidDims, NotTracePreserving, NotUnitary
from .linalg import _array, _integers, _psd_eigvalsh, _purities, _require_identity
from .linalg import _require_norm, dagger, partial_trace, psd_factor

__all__ = [
    "ChoiOperator",
    "PurificationVector",
    "KrausSet",
    "choi_from_kraus",
    "choi_vector",
    "kraus_from_choi",
    "stinespring_from_choi",
    "apply_env_unitary",
    "embed_env",
    "depolarizing_choi",
    "max_entangled_purification",
    "identity_isometry_purification",
    "separable_purification",
]


def _re_im(a: np.ndarray) -> list:  # JSON form: [re, im] pairs, row-major
    return [[float(z.real), float(z.imag)] for z in a.reshape(-1)]


def _is_number(x) -> bool:
    """A JSON number: an int or a float, never a bool (JSON's true/false)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _from_re_im(pairs, *shape) -> np.ndarray:
    """The complex array of ``shape`` back from its JSON form, the codec's one
    reader: exactly prod(shape) [re, im] pairs of numbers, row-major, or
    :class:`InvalidDims`.  Each pair is read as ``complex(re, im)`` is."""
    shape = _integers(shape, "re_im shape", low=1)
    size = math.prod(shape)
    if not (isinstance(pairs, list) and len(pairs) == size and all(
        isinstance(p, list) and len(p) == 2 and all(map(_is_number, p)) for p in pairs
    )):
        raise InvalidDims(f"re_im must be a list of {size} [re, im] pairs of numbers")
    try:
        return np.array(pairs, dtype=float).view(complex).reshape(shape)
    except OverflowError:  # an integer past the float range, which complex() rejects too
        raise InvalidDims("re_im holds an integer too large for a float") from None


def _value_eq(a, b) -> bool:
    """Value equality of records that hold arrays: same class, every field
    ``np.array_equal``; the generated ``__eq__`` would ask an array for a bool."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
    )


def _set_dims(record, *names: str) -> None:
    """Store the record's fields ``names`` as read by ``_integers``, each >= 1."""
    what = f"{type(record).__name__} {', '.join(names)}"
    dims = _integers((getattr(record, n) for n in names), what, low=1)
    for name, value in zip(names, dims):
        object.__setattr__(record, name, value)


@dataclass(frozen=True)
class ChoiOperator:
    """Unnormalized Choi matrix of a channel, acting on H_I x H_O."""

    d_i: int
    d_o: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        _set_dims(self, "d_i", "d_o")
        side = self.d_i * self.d_o
        m = _array(self.matrix, (side, side), "ChoiOperator matrix")
        object.__setattr__(self, "matrix", m)

    __eq__ = _value_eq

    def validate(self) -> "ChoiOperator":
        """Check Hermiticity, positivity, trace d_i, and trace preservation."""
        m = self.matrix
        _psd_eigvalsh(m)
        _require_norm(np.trace(m), self.d_i, "tr C")
        marg = partial_trace(m, (self.d_i, self.d_o), keep=(0,))
        _require_identity(marg, NotTracePreserving, "tr_O C")
        return self

    def rank(self) -> int:
        """Column count of ``psd_factor(C)``: eigenvalues above the floor."""
        return psd_factor(self.matrix).shape[1]

    def purity(self) -> float:
        """tr(C^2)."""
        return float(_purities(self.matrix[None])[0])

    def to_json_dict(self) -> dict:
        return {"d_i": self.d_i, "d_o": self.d_o, "re_im": _re_im(self.matrix)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ChoiOperator":
        d_i, d_o = data["d_i"], data["d_o"]
        m = _from_re_im(data["re_im"], d_i, d_o, d_i, d_o)
        return cls(d_i, d_o, m.reshape(d_i * d_o, d_i * d_o))


@dataclass(frozen=True)
class PurificationVector:
    """Choi vector of an isometry on H_I x H_O x H_E, squared norm d_i."""

    d_i: int
    d_o: int
    d_e: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        _set_dims(self, "d_i", "d_o", "d_e")
        size = self.d_i * self.d_o * self.d_e
        v = _array(np.asarray(self.vector).ravel(), (size,), "PurificationVector vector")
        object.__setattr__(self, "vector", v)

    __eq__ = _value_eq  # so a PureOutput compares through its w

    def validate(self) -> "PurificationVector":
        _require_norm(np.vdot(self.vector, self.vector).real, self.d_i, "squared norm")
        self.marginal_choi().validate()
        return self

    def as_matrix(self) -> np.ndarray:
        """Reshape to (d_i * d_o, d_e): rows joint system, columns environment."""
        return self.vector.reshape(self.d_i * self.d_o, self.d_e)

    def projector(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())

    def marginal_choi(self) -> ChoiOperator:
        m = self.as_matrix()
        return ChoiOperator(self.d_i, self.d_o, m @ dagger(m))

    def to_json_dict(self) -> dict:
        dims = {"d_i": self.d_i, "d_o": self.d_o, "d_e": self.d_e}
        return {**dims, "re_im": _re_im(self.vector)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PurificationVector":
        dims = data["d_i"], data["d_o"], data["d_e"]
        return cls(*dims, _from_re_im(data["re_im"], *dims))


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators K_i (d_o x d_i) with sum K†K = 1."""

    d_i: int
    d_o: int
    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        _set_dims(self, "d_i", "d_o")
        shape = (self.d_o, self.d_i)
        ops = tuple(_array(k, shape, "KrausSet operator") for k in self.operators)
        object.__setattr__(self, "operators", ops)

    __eq__ = _value_eq

    def validate(self) -> "KrausSet":
        acc = sum(dagger(k) @ k for k in self.operators)
        _require_identity(acc, NotTracePreserving, "Kraus completeness sum K†K")
        return self


def choi_vector(k: np.ndarray) -> np.ndarray:
    """|K> = sum_i |i> x K|i>, flattened with the input index major.

    Over the last two axes, so a stack of operators gives a stack of vectors.
    """
    return np.ascontiguousarray(np.swapaxes(k, -1, -2)).reshape(*k.shape[:-2], -1)


def choi_from_kraus(kraus: KrausSet) -> ChoiOperator:
    """Choi operator S S† of a channel given by Kraus operators, where the
    columns of S are the Choi vectors |K_k>."""
    kraus.validate()
    s = choi_vector(np.stack(kraus.operators)).T
    return ChoiOperator(kraus.d_i, kraus.d_o, s @ dagger(s))


def kraus_from_choi(c: ChoiOperator) -> KrausSet:
    """Kraus operators from the columns of ``psd_factor(C)``.

    One operator per eigenvalue above the floor, ordered by descending
    eigenvalue; column e is the Choi vector of operator e.
    """
    s = psd_factor(c.matrix)
    ops = s.T.reshape(-1, c.d_i, c.d_o)  # index order (i, o)
    return KrausSet(c.d_i, c.d_o, tuple(np.swapaxes(ops, 1, 2)))


def stinespring_from_choi(c: ChoiOperator, d_e: int) -> PurificationVector:
    """Canonical purification of a Choi operator on an environment of size d_e.

    Requires d_e >= rank(C).  The columns of ``psd_factor(C)`` (Kraus
    operators from descending eigenvalues) fill the computational environment
    basis, padded with zeros, so the output is a deterministic representative
    of the unitary orbit of purifications.
    """
    (d_e,) = _integers((d_e,), "environment size d_e", low=1)
    s = psd_factor(c.matrix)
    r = s.shape[1]
    if d_e < r:
        raise EnvironmentTooSmall(f"rank {r} exceeds environment size {d_e}")
    vec = np.zeros((c.d_i * c.d_o, d_e), dtype=complex)
    vec[:, :r] = s
    return PurificationVector(c.d_i, c.d_o, d_e, vec.reshape(-1))


def apply_env_unitary(v: PurificationVector, u: np.ndarray) -> PurificationVector:
    """Act with a unitary on the environment: the marginal channel is unchanged."""
    u = _array(u, (v.d_e, v.d_e), "environment unitary u")
    _require_identity(dagger(u) @ u, NotUnitary, "environment operator U†U")
    rotated = v.as_matrix() @ u.T
    return PurificationVector(v.d_i, v.d_o, v.d_e, rotated.reshape(-1))


def embed_env(v: PurificationVector, d_e_new: int) -> PurificationVector:
    """Isometrically enlarge the environment by zero-padding extra dimensions."""
    (d_e_new,) = _integers((d_e_new,), "environment size d_e_new", low=1)
    if d_e_new < v.d_e:
        raise EnvironmentTooSmall("cannot shrink the environment by embedding")
    mat = np.zeros((v.d_i * v.d_o, d_e_new), dtype=complex)
    mat[:, : v.d_e] = v.as_matrix()
    return PurificationVector(v.d_i, v.d_o, d_e_new, mat.reshape(-1))


def depolarizing_choi(d_i: int, d_o: int) -> ChoiOperator:
    """Choi operator 1 / d_o of the fully depolarizing channel."""
    d_i, d_o = _integers((d_i, d_o), "(d_i, d_o)", low=1)
    side = d_i * d_o
    return ChoiOperator(d_i, d_o, np.eye(side) / d_o)


def max_entangled_purification(d_i: int, d_o: int) -> PurificationVector:
    """Purification of the fully depolarizing channel, maximally entangled
    across the (system pair) | environment cut; environment size d_i * d_o."""
    d_i, d_o = _integers((d_i, d_o), "(d_i, d_o)", low=1)
    side = d_i * d_o
    vec = np.zeros((side, side), dtype=complex)
    np.fill_diagonal(vec, 1.0 / np.sqrt(d_o))
    return PurificationVector(d_i, d_o, side, vec.reshape(-1))


def identity_isometry_purification(d_i: int, d_o: int) -> PurificationVector:
    """Choi vector of the canonical embedding isometry |i> -> |i> (d_o >= d_i)."""
    d_i, d_o = _integers((d_i, d_o), "(d_i, d_o)", low=1)
    if d_o < d_i:
        raise InvalidDims("embedding isometry needs d_o >= d_i")
    return PurificationVector(d_i, d_o, 1, choi_vector(np.eye(d_o, d_i)))


def separable_purification(
    upsilon: PurificationVector, psi: np.ndarray
) -> PurificationVector:
    """Product purification |Upsilon> x |psi| of an isometric channel.

    ``upsilon`` must be an isometric channel's Choi vector (d_e = 1) and
    ``psi`` a normalized environment state.  The marginal is |Y><Y|
    regardless of psi.
    """
    if upsilon.d_e != 1:
        raise InvalidDims("separable purification needs an isometric (d_e = 1) core")
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    _require_norm(np.vdot(psi, psi).real, 1.0, "squared norm of psi")
    vec = np.kron(upsilon.vector, psi)
    return PurificationVector(upsilon.d_i, upsilon.d_o, psi.size, vec)
