"""Every file format of the package.

This module owns every CSV table, JSON document and header+payload file
the commands write or read (the run configuration, which config reads,
is the one exception). No other module opens a file.

CSV tables (write_csv) hold a header row and one row per record, comma
separated, with "\\n" line ends; a float cell is repr(float(x)), a boolean
cell is true or false, and any other cell is str(x).

JSON documents (write_json: estimate.json, verify_report.json and every
file header) are written with sorted keys, two-space indents and a final
newline; floats are repr formatted, so a write/read round trip is exact.

A field file is a JSON header next to a flat binary payload. The header
records the discretization (kappa, ell, n_r, n_theta, n_z), the component
count, the dtype tag "c128", the coefficient layout "n-major, then m,
then r", the real_flag and the payload's file name; the payload holds the
coefficients as little-endian complex128 in exactly that order. Matrix
files follow the same pattern with dtype tags "c128" or "f64", row-major
layout and rows and cols entries. Round trips are bit exact.

Both kinds are read by one header check and one payload reader: the
header must be a JSON object with exactly the expected keys, each of the
expected JSON type (integers are nonnegative and never booleans, flags
are JSON booleans), and its payload must be a plain file name in the
header's directory; the payload must hold exactly the expected number of
finite values, and a field header must hold a valid DomainConfig. A field
whose header sets real_flag must have Hermitian-symmetric coefficients
(fields.REAL_TOL). Any violation, invalid JSON included, raises a
ValueError naming the file.
JSON is serialized here only (_canonical_json), verify's reports included.
"""

import csv
import json
import os

import numpy as np

from .config import ConfigError, DomainConfig
from .fields import ScalarField, VectorField

_LAYOUT = "n-major, then m, then r"
# payload dtype tag -> little-endian numpy dtype
_DTYPES = {"c128": "<c16", "f64": "<f8"}
_REAL = (int, float)
# header key -> accepted JSON types
_FIELD_KEYS = {
    "kappa": _REAL,
    "ell": _REAL,
    "n_r": int,
    "n_theta": int,
    "n_z": int,
    "components": int,
    "dtype": str,
    "layout": str,
    "payload": str,
    "real_flag": bool,
}
# the DomainConfig fields a field header records (all but mu)
_DOMAIN_KEYS = ("kappa", "ell", "n_r", "n_theta", "n_z")
_MATRIX_KEYS = {"rows": int, "cols": int, "dtype": str, "layout": str, "payload": str}


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    """Write obj as canonical JSON: sorted keys, two-space indents, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_canonical_json(obj))


def _cell(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(float(x)) if isinstance(x, float) else str(x)


def write_csv(path, header, rows):
    """Write a header row and the rows, formatting cells as the module docstring says."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in rows)


def _write_file(path, header, arr):
    """Write header plus a payload entry as JSON at path and arr next to it as .bin."""
    base = os.path.basename(path)
    name = (base[: -len(".json")] if base.endswith(".json") else base) + ".bin"
    write_json(path, dict(header, payload=name))
    with open(os.path.join(os.path.dirname(path) or ".", name), "wb") as fh:
        fh.write(np.ascontiguousarray(arr, dtype=_DTYPES[header["dtype"]]).tobytes())
    return path


def _read_header(path, kind, keys, layout, dtypes):
    """The header at path, checked against keys (key -> JSON types), layout and dtypes."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ValueError("%s header %s is not JSON: %s" % (kind, path, exc)) from None
    if not isinstance(header, dict):
        raise ValueError("%s header %s is not a JSON object" % (kind, path))
    missing = keys.keys() - header.keys()
    unknown = header.keys() - keys.keys()
    if missing or unknown:
        raise ValueError(
            "%s header %s has missing keys %s / unknown keys %s"
            % (kind, path, sorted(missing), sorted(unknown))
        )
    for key, types in keys.items():
        v = header[key]
        if (
            isinstance(v, bool) != (types is bool)
            or not isinstance(v, types)
            or (types is int and v < 0)
        ):
            raise ValueError("%s header %s has a malformed %s entry %r" % (kind, path, key, v))
    name = header["payload"]
    if name in ("", ".", "..") or os.path.basename(name) != name:
        raise ValueError("%s header %s: payload %r is not a plain file name" % (kind, path, name))
    if header["layout"] != layout:
        raise ValueError("%s header %s: unsupported layout %r" % (kind, path, header["layout"]))
    if header["dtype"] not in dtypes:
        raise ValueError(
            "%s header %s: unsupported dtype %r, expected one of %s"
            % (kind, path, header["dtype"], list(dtypes))
        )
    return header


def _read_payload(path, header, shape):
    """The payload a checked header names, as a native array of the given shape."""
    payload = os.path.join(os.path.dirname(path) or ".", header["payload"])
    with open(payload, "rb") as fh:
        arr = np.frombuffer(fh.read(), dtype=_DTYPES[header["dtype"]])
    count = int(np.prod(shape))
    if arr.size != count:
        raise ValueError("payload %s holds %d values, expected %d" % (payload, arr.size, count))
    if not np.all(np.isfinite(arr)):
        raise ValueError("payload %s holds non-finite values (NaN or Inf)" % payload)
    return arr.astype(arr.dtype.newbyteorder("=")).reshape(shape)


def write_field(path, field):
    """Write a field as header JSON plus binary payload.

    Args:
        path: header path, conventionally ending in .json; the payload is
            written next to it with extension .bin.
        field: ScalarField or VectorField.

    Returns:
        the header path.
    """
    header = {k: getattr(field.config, k) for k in _DOMAIN_KEYS}
    header.update(
        components=3 if isinstance(field, VectorField) else 1,
        dtype="c128",
        layout=_LAYOUT,
        real_flag=bool(field.real_flag),
    )
    return _write_file(path, header, field.coeffs)


def read_field(path, mu=1.0):
    """Read a field file written by write_field.

    The header stores every DomainConfig field but mu; pass mu when the
    field is meant for a specific DomainConfig, and the field comes back
    with exactly the config it was written from.

    Returns:
        ScalarField or VectorField according to the components entry.

    Raises:
        ValueError naming the file for a malformed header or payload, or
        for a payload that is not Hermitian symmetric when the header
        says real_flag.
    """
    header = _read_header(path, "field", _FIELD_KEYS, _LAYOUT, ("c128",))
    if header["components"] not in (1, 3):
        raise ValueError("field header %s: components must be 1 or 3" % path)
    try:
        cfg = DomainConfig(mu=mu, **{k: header[k] for k in _DOMAIN_KEYS})
    except ConfigError as exc:  # a bad file, not a bad run configuration
        raise ValueError("field header %s: %s" % (path, exc)) from None
    kind = VectorField if header["components"] == 3 else ScalarField
    shape = (cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r)
    if kind is VectorField:
        shape = (3,) + shape
    coeffs = _read_payload(path, header, shape)
    try:
        return kind(cfg, coeffs, header["real_flag"])
    except ValueError as exc:  # real_flag set on coefficients that are not real
        raise ValueError("field file %s: %s" % (path, exc)) from None


def write_matrix(path, mat):
    """Write a dense matrix as header JSON plus binary payload."""
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError("matrix export expects a 2d array")
    header = {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "dtype": "c128" if np.iscomplexobj(mat) else "f64",
        "layout": "row-major",
    }
    return _write_file(path, header, mat)


def read_matrix(path):
    """Read a matrix file written by write_matrix."""
    header = _read_header(path, "matrix", _MATRIX_KEYS, "row-major", _DTYPES)
    return _read_payload(path, header, (header["rows"], header["cols"]))
