"""Closed-form error expressions and bounds for the purification strategies.

All formulas are exact functions of the dimension triple (d_i, d_o, d_e);
the ones that depend on spectral moments of the random-channel ensemble
take externally supplied Monte Carlo estimates and never substitute
asymptotics silently.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "avg_purity",
    "eps_dep",
    "eps_avg_ue",
    "eps_pure",
    "eps_separable_pure_output",
    "eps_app",
    "eps_app_bounds",
    "eps_app_pure_ancilla",
    "eps_tomo_bound",
    "table2_regime_values",
    "sqrt_moment_asymptote",
]


def _require_shape(d_i, d_o, d_e) -> None:
    """:class:`DomainError` outside ``EnsembleSpec``'s shapes, integers d_i >= 1,
    d_o >= 2, d_e >= 1, where the closed forms divide by zero or describe no
    channel; 2.5 and NaN fail it."""
    try:
        d_i, d_o, d_e = map(operator.index, (d_i, d_o, d_e))
        ok = d_i >= 1 and d_o >= 2 and d_e >= 1
    except TypeError:  # not an integer
        ok = False
    if not ok:
        raise DomainError(f"need d_i >= 1, d_o >= 2, d_e >= 1, got ({d_i}, {d_o}, {d_e})")


def avg_purity(d_i: int, d_o: int, d_e: int) -> float:
    """Ensemble average of tr(C^2) for Haar-Stinespring random channels.

    Exact rational value
    (d_i d_o (d_e^2 - 1) + d_i^2 d_e (d_o^2 - 1)) / (d_o^2 d_e^2 - 1),
    which decreases monotonically in d_e from d_i^2 down to d_i / d_o.
    """
    _require_shape(d_i, d_o, d_e)
    num = d_i * d_o * (d_e**2 - 1) + d_i**2 * d_e * (d_o**2 - 1)
    den = d_o**2 * d_e**2 - 1
    return num / den


def eps_dep(d_i: int, d_o: int, d_e: int) -> float:
    """Exact error of the map-to-depolarizing strategy: d_i^2 - d_i/(d_o d_e)."""
    _require_shape(d_i, d_o, d_e)
    return d_i**2 - d_i / (d_o * d_e)


def eps_avg_ue(d_i: int, d_o: int, d_e: int) -> float:
    """Upper bound from averaging (not minimizing) over environment unitaries.

    Equals d_i^2 - avg_purity / d_e, attained by appending a maximally
    mixed environment state, and independent of the copy budget.
    """
    return d_i**2 - avg_purity(d_i, d_o, d_e) / d_e


def eps_pure(d_i: int, d_o: int, moment_tr_sqrt_sq: float) -> float:
    """Minimum error over pure-output machines, 2 d_i^2 - (2/d_o) E[(tr sqrt C)^2].

    The spectral moment E[(tr sqrt C)^2] has no finite-size closed form and
    must be estimated by Monte Carlo; at d_e = 1 it is exactly d_i.
    """
    return 2.0 * d_i**2 - (2.0 / d_o) * moment_tr_sqrt_sq


def eps_separable_pure_output(d_i: int, d_o: int) -> float:
    """Error of any fixed separable pure output, 2(d_i^2 - d_i/d_o), for every d_e.

    The same value is the error of every pure output against isometric
    inputs (d_e = 1).
    """
    return 2.0 * (d_i**2 - d_i / d_o)


def eps_app(d_i: int, d_o: int, d_e: int, weights: Sequence[float]) -> float:
    """Minimum error over append-environment machines.

    ``weights`` are the ordered-eigenvalue second moments w_i = E[(c_i)^2]
    (descending), normally Monte Carlo estimates; the prefactor
    1 / avg_purity is exact.  Value: d_i^2 - sum(w_i^2) / avg_purity.
    """
    w = np.asarray(weights, dtype=float)
    return d_i**2 - float(np.sum(w**2)) / avg_purity(d_i, d_o, d_e)


def eps_app_bounds(d_i: int, d_o: int, d_e: int) -> tuple[float, float]:
    """Exact two-sided bounds on the append-environment error.

    d_i^2 - avg_purity <= eps_app <= d_i^2 - avg_purity / d_e; the upper
    bound is attained by the maximally mixed environment state.
    """
    return d_i**2 - avg_purity(d_i, d_o, d_e), eps_avg_ue(d_i, d_o, d_e)


def eps_app_pure_ancilla(d_i: int, d_o: int, d_e: int, moment_cmax_sq: float) -> float:
    """Minimum error when the appended environment state is pure.

    Value d_i^2 + avg_purity - 2 E[c_max^2] with the top-eigenvalue moment
    supplied externally (Monte Carlo).
    """
    return d_i**2 + avg_purity(d_i, d_o, d_e) - 2.0 * moment_cmax_sq


def eps_tomo_bound(
    d_i: int, d_o: int, d_e: int, k: int, delta: float, kappa: float
) -> float:
    """High-probability error bound of the k-copy estimation strategy.

    2 d_i^2 (min{1, kappa (d_i d_o min(d_e, d_i d_o) + log(1/delta)) / k}
    + delta).  Clamps at 2 d_i^2 (1 + delta) for small k and decays like
    1/k; the constant kappa is not universal across estimators.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError("delta must lie in (0, 1)")
    if not kappa > 0.0:
        raise DomainError("kappa must be positive")
    if not k >= 1:
        raise DomainError("copy budget k must be >= 1")
    r = min(d_e, d_i * d_o)
    rate = kappa * (d_i * d_o * r + math.log(1.0 / delta)) / k
    return 2.0 * d_i**2 * (min(1.0, rate) + delta)


def table2_regime_values(d_i: int, d_o: int) -> dict:
    """Strategy errors in the three environment regimes (1, d_i d_o, infinity).

    The pure-output value at the balanced point needs a Monte Carlo moment
    and is reported as None.
    """
    bal = d_i * d_o
    return {
        "balanced_purity": avg_purity(d_i, d_o, bal),
        "pure": {
            "d_e=1": eps_separable_pure_output(d_i, d_o),
            "d_e=d_i*d_o": None,  # requires the E[(tr sqrt C)^2] moment
            "d_e=inf": 0.0,
        },
        "append": {
            "d_e=1": 0.0,
            "d_e=d_i*d_o": eps_app_bounds(d_i, d_o, bal),
            "d_e=inf": d_i**2 - 1.0 / d_o**2,
        },
        "dep": {
            "d_e=1": eps_dep(d_i, d_o, 1),
            "d_e=d_i*d_o": eps_dep(d_i, d_o, bal),
            "d_e=inf": float(d_i**2),
        },
        "avg_ue": {
            "d_e=1": eps_avg_ue(d_i, d_o, 1),
            "d_e=d_i*d_o": eps_avg_ue(d_i, d_o, bal),
            "d_e=inf": float(d_i**2),
        },
    }


def sqrt_moment_asymptote(d_i: int, d_o: int, d_e: int) -> float:
    """Proportional-growth reference value for E[(tr sqrt C)^2].

    d_i^2 d_o mu(c)^2 with c = d_i d_o / d_e and mu the Marchenko-Pastur
    square-root mean.  Only meaningful as a large-dimension diagnostic;
    valid for c <= 1 (d_e >= d_i d_o).
    """
    from .ensembles import mp_mu

    if not d_e >= 1:
        raise DomainError(f"environment dimension d_e must be >= 1, got {d_e}")
    c = d_i * d_o / d_e
    return d_i**2 * d_o * mp_mu(c) ** 2
