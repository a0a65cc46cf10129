"""Field and matrix persistence.

A field file is a JSON header next to a flat binary payload. The header
records the discretization (kappa, ell, n_r, n_theta, n_z), the component
count, the dtype tag "c128" and the coefficient layout "n-major, then m,
then r"; the payload holds the coefficients as little-endian complex128 in
exactly that order. Round trips are bit exact: headers are written with
sorted keys and repr-formatted floats, payloads byte for byte.

Matrix files follow the same pattern with dtype tags "c128" or "f64" and
row-major layout.
"""

import json
import os

import numpy as np

from .config import DomainConfig
from .fields import ScalarField, VectorField

_LAYOUT = "n-major, then m, then r"


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_payload(path, arr):
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def _check_finite(arr, payload):
    if not np.all(np.isfinite(arr)):
        raise ValueError("payload %s holds non-finite values (NaN or Inf)" % payload)


def write_field(path, field):
    """Write a field as header JSON plus binary payload.

    Args:
        path: header path, conventionally ending in .json; the payload is
            written next to it with extension .bin.
        field: ScalarField or VectorField.

    Returns:
        the header path.
    """
    cfg = field.config
    components = 3 if isinstance(field, VectorField) else 1
    base = os.path.basename(path)
    stem = base[: -len(".json")] if base.endswith(".json") else base
    payload_name = stem + ".bin"
    header = {
        "kappa": cfg.kappa,
        "ell": cfg.ell,
        "n_r": cfg.n_r,
        "n_theta": cfg.n_theta,
        "n_z": cfg.n_z,
        "components": components,
        "dtype": "c128",
        "layout": _LAYOUT,
        "payload": payload_name,
        "real_flag": bool(field.real_flag),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_canonical_json(header))
    _write_payload(
        os.path.join(os.path.dirname(path) or ".", payload_name),
        field.coeffs.astype("<c16", copy=False),
    )
    return path


_FIELD_KEYS = {
    "kappa",
    "ell",
    "n_r",
    "n_theta",
    "n_z",
    "components",
    "dtype",
    "layout",
    "payload",
    "real_flag",
}


def read_field(path, mu=1.0):
    """Read a field file written by write_field.

    The header stores every DomainConfig field but mu; pass mu when the
    field is meant for a specific DomainConfig, and the field comes back
    with exactly the config it was written from.

    Returns:
        ScalarField or VectorField according to the components entry.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    missing = _FIELD_KEYS - set(header)
    unknown = set(header) - _FIELD_KEYS
    if missing or unknown:
        raise ValueError(
            "field header %s has missing keys %s / unknown keys %s"
            % (path, sorted(missing), sorted(unknown))
        )
    if header["dtype"] != "c128":
        raise ValueError("field payload dtype must be c128, got %r" % header["dtype"])
    if header["layout"] != _LAYOUT:
        raise ValueError("unsupported field layout %r" % header["layout"])
    if header["components"] not in (1, 3):
        raise ValueError("field components must be 1 or 3")
    cfg = DomainConfig(
        kappa=header["kappa"],
        ell=header["ell"],
        mu=mu,
        n_r=header["n_r"],
        n_theta=header["n_theta"],
        n_z=header["n_z"],
    )
    shape = (cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r)
    if header["components"] == 3:
        shape = (3,) + shape
    payload = os.path.join(os.path.dirname(path) or ".", header["payload"])
    with open(payload, "rb") as fh:
        raw = fh.read()
    count = int(np.prod(shape))
    arr = np.frombuffer(raw, dtype="<c16")
    if arr.size != count:
        raise ValueError(
            "field payload %s holds %d values, expected %d" % (payload, arr.size, count)
        )
    _check_finite(arr, payload)
    coeffs = arr.astype(np.complex128).reshape(shape)
    kind = VectorField if header["components"] == 3 else ScalarField
    return kind(cfg, coeffs, bool(header["real_flag"]))


def write_matrix(path, mat):
    """Write a dense matrix as header JSON plus binary payload."""
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("matrix export expects a 2d array")
    if np.iscomplexobj(mat):
        tag, cast = "c128", "<c16"
    else:
        tag, cast = "f64", "<f8"
    base = os.path.basename(path)
    stem = base[: -len(".json")] if base.endswith(".json") else base
    payload_name = stem + ".bin"
    header = {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "dtype": tag,
        "layout": "row-major",
        "payload": payload_name,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_canonical_json(header))
    _write_payload(
        os.path.join(os.path.dirname(path) or ".", payload_name),
        mat.astype(cast, copy=False),
    )
    return path


def read_matrix(path):
    """Read a matrix file written by write_matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    want = {"rows", "cols", "dtype", "layout", "payload"}
    if set(header) != want:
        raise ValueError("matrix header %s must have keys %s" % (path, sorted(want)))
    if header["layout"] != "row-major":
        raise ValueError("unsupported matrix layout %r" % header["layout"])
    dt = {"c128": "<c16", "f64": "<f8"}.get(header["dtype"])
    if dt is None:
        raise ValueError("unsupported matrix dtype %r" % header["dtype"])
    payload = os.path.join(os.path.dirname(path) or ".", header["payload"])
    with open(payload, "rb") as fh:
        raw = fh.read()
    arr = np.frombuffer(raw, dtype=dt)
    shape = (header["rows"], header["cols"])
    if arr.size != shape[0] * shape[1]:
        raise ValueError("matrix payload size mismatch in %s" % payload)
    _check_finite(arr, payload)
    out = arr.reshape(shape)
    return out.astype(np.complex128 if header["dtype"] == "c128" else np.float64)
