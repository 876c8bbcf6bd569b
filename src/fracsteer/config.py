"""JSON configuration schema.

Problem file keys: alpha, omega, N, T, r, impulses:[{t,kind,scale}],
nonlocal:[{c,tau}], phi:{kind,params}, f:{kind,params,L1,L2,M1,p},
B:{kind,params}.  Unknown keys are rejected at every level, and a value of
the wrong JSON type is rejected with the name of its field.  No other module
reads a kind: each maps to parameters of one formula, phi(s) = coeffs +
s * slope, f = f1 + the f2 memory integral, I(x) = scale * x, or a B matrix.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import (
    ImpulseDescriptor,
    NonlinearityDescriptor,
    NonlocalTerm,
    PhiDescriptor,
    ProblemSpec,
    _check_finite,
)
from .optimal import CostDescriptor

_TOP_KEYS = {"alpha", "omega", "N", "T", "r", "impulses", "nonlocal", "phi", "f", "B"}
# Largest accepted N: the input map alone is an N x N matrix.
_MAX_MODES = 1024


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"missing key {key!r} in {where}")
    return obj[key]


def _list(raw, where: str) -> list:
    if not isinstance(raw, list):
        raise ConfigError(f"{where} must be a JSON list, got {raw!r}")
    return raw


def _number(raw, where: str) -> float:
    """A JSON number as a float; bools, strings, lists, objects and null
    are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{where} must be a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ConfigError(f"{where} must be finite") from None


def _fields(obj: dict, keys: tuple, where: str) -> dict:
    """The number under each of keys in obj, every key required."""
    return {key: _number(_require(obj, key, where), f"{where}.{key}") for key in keys}


def _numbers(raw, where: str) -> np.ndarray:
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(_list(raw, where))])


def _coeff_vector(raw, n: int, where: str) -> np.ndarray:
    if not isinstance(raw, list):
        return np.full(n, _number(raw, where))
    arr = _numbers(raw, where)
    if arr.size > n:
        raise ConfigError(f"{where}: expected a scalar or a vector of length <= N={n}")
    out = np.zeros(n)
    out[: arr.size] = arr
    return out


# the params each phi kind takes; a kind without a slope has phi(s) = coeffs
PHI_PARAMS = {"zero": (), "constant": ("coeffs",), "linear": ("coeffs", "slope")}


def _build_phi(raw: dict, n: int) -> PhiDescriptor:
    _reject_unknown(raw, {"kind", "params"}, "phi")
    kind = _require(raw, "kind", "phi")
    if not (isinstance(kind, str) and kind in PHI_PARAMS):
        raise ConfigError(f"unknown phi kind {kind!r}")
    params = raw.get("params", {})
    _reject_unknown(params, set(PHI_PARAMS[kind]), "phi.params")
    vectors = {key: _coeff_vector(_require(params, key, "phi.params"), n, f"phi.{key}")
               for key in PHI_PARAMS[kind]}
    return PhiDescriptor(vectors.get("coeffs", np.zeros(n)), vectors.get("slope"))


# the params each nonlinearity kind takes, by the descriptor field each sets
F_PARAMS = {
    "zero": {},
    "linear": {"gain": "f1_gain"},
    "memory": {key: key for key in ("f1_gain", "f2_gain", "kernel_rate", "f1_form", "f2_form")},
}


def _f_param(key: str, raw):
    where = f"f.params.{key}"
    if key.endswith("_form"):  # NonlinearityDescriptor checks the vocabulary
        return raw
    value = _number(raw, where)
    _check_finite(where, value)
    return value


def _build_f(raw: dict) -> NonlinearityDescriptor:
    _reject_unknown(raw, {"kind", "params", "L1", "L2", "M1", "p"}, "f")
    kind = _require(raw, "kind", "f")
    if not (isinstance(kind, str) and kind in F_PARAMS):
        raise ConfigError(f"unknown nonlinearity kind {kind!r}")
    params = raw.get("params", {})
    _reject_unknown(params, set(F_PARAMS[kind]), "f.params")
    return NonlinearityDescriptor(
        **{F_PARAMS[kind][key]: _f_param(key, value) for key, value in params.items()},
        L1=_number(raw.get("L1", 0.0), "f.L1"),
        L2=_number(raw.get("L2", 0.0), "f.L2"),
        M1=_number(raw.get("M1", 0.0), "f.M1"),
        holder_p=_number(raw.get("p", 0.25), "f.p"),
    )


def _build_B(raw: dict, n: int) -> np.ndarray:
    _reject_unknown(raw, {"kind", "params"}, "B")
    kind = _require(raw, "kind", "B")
    params = raw.get("params", {})
    if kind == "identity":
        _reject_unknown(params, set(), "B.params")
        return np.eye(n)
    if kind == "scale":
        _reject_unknown(params, {"value"}, "B.params")
        return _number(_require(params, "value", "B.params"), "B.params.value") * np.eye(n)
    if kind == "diag":
        _reject_unknown(params, {"entries"}, "B.params")
        entries = _numbers(_require(params, "entries", "B.params"), "B.params.entries")
        if entries.shape != (n,):
            raise ConfigError(f"B.diag entries must have length N={n}")
        return np.diag(entries)
    if kind == "matrix":
        _reject_unknown(params, {"rows"}, "B.params")
        rows = _list(_require(params, "rows", "B.params"), "B.params.rows")
        rows = [_numbers(row, f"B.params.rows[{i}]") for i, row in enumerate(rows)]
        if len(rows) != n or any(row.shape != (n,) for row in rows):
            raise ConfigError(f"B.matrix rows must be {n}x{n}")
        return np.array(rows)
    raise ConfigError(f"unknown B kind {kind!r}")


def problem_from_dict(raw: dict) -> ProblemSpec:
    _reject_unknown(raw, _TOP_KEYS, "problem config")
    n = _number(_require(raw, "N", "problem config"), "N")
    if not (1 <= n <= _MAX_MODES and n == int(n)):
        raise ConfigError(f"N must be an integer in [1, {_MAX_MODES}], got {n!r}")
    n = int(n)
    impulses = []
    for i, item in enumerate(_list(raw.get("impulses", []), "impulses")):
        _reject_unknown(item, {"t", "kind", "scale"}, f"impulses[{i}]")
        if item.get("kind", "linear") != "linear":  # I(x) = scale * x
            raise ConfigError(f"unknown impulse kind {item['kind']!r}")
        impulses.append(ImpulseDescriptor(**_fields(item, ("t", "scale"), f"impulses[{i}]")))
    terms = []
    for i, item in enumerate(_list(raw.get("nonlocal", []), "nonlocal")):
        _reject_unknown(item, {"c", "tau"}, f"nonlocal[{i}]")
        terms.append(NonlocalTerm(**_fields(item, ("c", "tau"), f"nonlocal[{i}]")))
    return ProblemSpec(
        alpha=_number(_require(raw, "alpha", "problem config"), "alpha"),
        omega=_number(raw.get("omega", 0.0), "omega"),
        n_modes=n,
        horizon=_number(_require(raw, "T", "problem config"), "T"),
        delay=_number(raw.get("r", 0.0), "r"),
        impulses=tuple(impulses),
        nonlocal_terms=tuple(terms),
        phi=_build_phi(_require(raw, "phi", "problem config"), n),
        f_desc=_build_f(_require(raw, "f", "problem config")),
        B=_build_B(raw.get("B", {"kind": "identity"}), n),
    )


def load_problem(path) -> ProblemSpec:
    return problem_from_dict(_read_json(path, "config"))


def load_target(path, n: int) -> np.ndarray:
    """Target state file: {"coeffs": [...]} (short vectors are zero-padded)."""
    raw = _read_json(path, "target")
    _reject_unknown(raw, {"coeffs"}, "target file")
    coeffs = _coeff_vector(_require(raw, "coeffs", "target file"), n, "target coeffs")
    if not np.all(np.isfinite(coeffs)):
        raise ConfigError("target coeffs must be finite")
    return coeffs


def cost_from_dict(raw: dict) -> CostDescriptor:
    _reject_unknown(raw, {"kind", "weights", "coercivity"}, "cost config")
    kind = raw.get("kind", "quadratic")
    if kind != "quadratic":
        raise ConfigError(f"unknown cost kind {kind!r}")
    weights = raw.get("weights", {})
    _reject_unknown(weights, {"state", "history", "control"}, "cost.weights")
    coerc = raw.get("coercivity", {})
    _reject_unknown(coerc, {"d", "e", "f"}, "cost.coercivity")
    return CostDescriptor(
        w_state=_number(weights.get("state", 1.0), "cost.weights.state"),
        w_hist=_number(weights.get("history", 1.0), "cost.weights.history"),
        w_control=_number(weights.get("control", 1.0), "cost.weights.control"),
        d=_number(coerc.get("d", 0.0), "cost.coercivity.d"),
        e=_number(coerc.get("e", 0.0), "cost.coercivity.e"),
        f_u=_number(coerc.get("f", 1.0), "cost.coercivity.f"),
    )


def load_cost(path) -> CostDescriptor:
    return cost_from_dict(_read_json(path, "cost config"))
