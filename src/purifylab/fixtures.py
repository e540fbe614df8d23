"""Golden fixture runner.

Each fixture record names a public operation, its JSON-encoded input, the
expected output, a tolerance, and a provenance tag (``closed_form`` for
values fixed by exact formulas, ``trivial`` for definitional cases,
``derived`` for values computed by an independent oracle).
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from . import theory
from .channels import ChoiOperator, choi_from_kraus, kraus_from_choi, stinespring_from_choi
from .channels import _from_re_im, _is_number, depolarizing_choi
from .ensembles import mp_mu
from .errors import PurifyLabError
from .linalg import complete_elliptic, fidelity, flip_operator

__all__ = ["run_fixtures", "PROVENANCE_TAGS"]

PROVENANCE_TAGS = ("closed_form", "trivial", "derived")


def _op_depolarizing_choi(d_i, d_o):
    return depolarizing_choi(d_i, d_o).matrix


def _op_flip_trace(d):
    return float(np.trace(flip_operator(d)).real)


def _op_fidelity(rho, sigma):
    return fidelity(*(_from_re_im(m["re_im"], m["side"], m["side"]) for m in (rho, sigma)))


def _op_kraus_roundtrip_dev(choi):
    c = ChoiOperator.from_json_dict(choi)
    back = choi_from_kraus(kraus_from_choi(c))
    return float(np.max(np.abs(back.matrix - c.matrix)))


def _op_stinespring_marginal_dev(choi, d_e):
    c = ChoiOperator.from_json_dict(choi)
    v = stinespring_from_choi(c, d_e)
    return float(np.max(np.abs(v.marginal_choi().matrix - c.matrix)))


# op name -> function called with the record's input as keyword arguments
_OPS = {
    "depolarizing_choi": _op_depolarizing_choi,
    "avg_purity": theory.avg_purity,
    "eps_dep": theory.eps_dep,
    "eps_avg_ue": theory.eps_avg_ue,
    "eps_app_bounds": theory.eps_app_bounds,
    # the per-sample error of the map-to-depolarizing machine is eps_dep
    "error_map_to_depolarizing": theory.eps_dep,
    "mp_mu": mp_mu,
    "complete_elliptic": complete_elliptic,
    "flip_trace": _op_flip_trace,
    "fidelity": _op_fidelity,
    "kraus_roundtrip_dev": _op_kraus_roundtrip_dev,
    "stinespring_marginal_dev": _op_stinespring_marginal_dev,
}


def _max_dev(got, expected) -> float:
    if isinstance(expected, dict) and "re_im" in expected:
        want = _from_re_im(expected["re_im"], *np.shape(got))
        return float(np.max(np.abs(got - want)))
    got_arr = np.asarray(got, dtype=float).reshape(-1)
    want_arr = np.asarray(expected, dtype=float).reshape(-1)
    if got_arr.shape != want_arr.shape:
        raise ValueError(f"shape {want_arr.shape}, output {got_arr.shape}")
    return float(np.max(np.abs(got_arr - want_arr)))


def run_fixtures(path: str | None = None) -> dict:
    """Evaluate every fixture record; returns a pass/fail report dict."""
    if path is None:
        source = resources.files("purifylab").joinpath("data/golden_fixtures.json")
        raw = source.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    try:
        records = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise PurifyLabError(f"fixture file does not parse: {exc}") from exc

    if not isinstance(records, list):
        raise PurifyLabError("fixture file must hold a list of records")
    results = []
    passed = 0
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise PurifyLabError(f"fixture record {i} is not an object: {rec!r}")
        for key in ("name", "op", "input", "expected", "tol", "provenance"):
            if key not in rec:
                raise PurifyLabError(f"fixture record missing field {key!r}: {rec}")
        name, tol = rec["name"], rec["tol"]
        if rec["provenance"] not in PROVENANCE_TAGS:
            raise PurifyLabError(f"unknown provenance tag {rec['provenance']!r}")
        op = _OPS.get(rec["op"])
        if op is None:
            raise PurifyLabError(f"unknown fixture op {rec['op']!r}")
        if not isinstance(rec["input"], dict):
            raise PurifyLabError(f"fixture {name!r}: input is not an object")
        if not _is_number(tol):
            raise PurifyLabError(f"fixture {name!r}: tol {tol!r} is not a number")
        try:
            got = op(**rec["input"])
        # a missing or unexpected key, or a value the op rejects
        except (TypeError, KeyError, PurifyLabError) as exc:
            raise PurifyLabError(
                f"fixture {name!r}: bad input: {type(exc).__name__} {exc}"
            ) from exc
        try:
            dev = _max_dev(got, rec["expected"])
        except (TypeError, ValueError) as exc:  # not numbers, or the wrong shape
            raise PurifyLabError(f"fixture {name!r}: bad expected value: {exc}") from exc
        ok = dev <= tol
        passed += ok
        results.append(
            {
                "name": name,
                "provenance": rec["provenance"],
                "deviation": dev,
                "tolerance": tol,
                "status": "pass" if ok else "FAIL",
            }
        )
    return {"total": len(records), "passed": passed, "records": results}
