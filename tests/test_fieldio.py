import json

import numpy as np
import pytest

import jetstokes as js
from jetstokes.fieldio import _canonical_json
from jetstokes.fields import random_smooth_scalar, random_smooth_vector
from jetstokes.rng import stream


def test_scalar_round_trip(cfg_small, tmp_path):
    u = random_smooth_scalar(cfg_small, stream(71, "tests"), real=False)
    path = tmp_path / "scalar.json"
    js.write_field(path, u)
    back = js.read_field(path)
    assert isinstance(back, js.ScalarField)
    assert np.array_equal(back.coeffs, u.coeffs)
    assert back.real_flag == u.real_flag
    assert back.config.kappa == cfg_small.kappa
    assert back.config.n_r == cfg_small.n_r


def test_vector_round_trip_bits(cfg_small, tmp_path):
    u = random_smooth_vector(cfg_small, stream(72, "tests"), real=True)
    path = tmp_path / "vector.json"
    js.write_field(path, u)
    back = js.read_field(path)
    assert isinstance(back, js.VectorField)
    assert back.coeffs.tobytes() == u.coeffs.tobytes()
    # writing again produces identical bytes
    path2 = tmp_path / "again.json"
    js.write_field(path2, u)
    assert (tmp_path / "vector.bin").read_bytes() == (tmp_path / "again.bin").read_bytes()


def test_field_header_is_canonical(cfg_small, tmp_path):
    u = random_smooth_scalar(cfg_small, stream(73, "tests"))
    path = tmp_path / "field.json"
    js.write_field(path, u)
    text = path.read_text()
    header = json.loads(text)
    assert text == json.dumps(header, sort_keys=True, indent=2) + "\n"
    assert header["payload"] == "field.bin"
    assert header["dtype"] == "c128"
    assert header["components"] == 1


def test_field_header_key_enforcement(cfg_small, tmp_path):
    u = random_smooth_scalar(cfg_small, stream(74, "tests"))
    path = tmp_path / "field.json"
    js.write_field(path, u)
    header = json.loads(path.read_text())

    bad = dict(header)
    del bad["kappa"]
    path.write_text(_canonical_json(bad))
    with pytest.raises(ValueError, match="missing keys"):
        js.read_field(path)

    bad = dict(header)
    bad["extra"] = 1
    path.write_text(_canonical_json(bad))
    with pytest.raises(ValueError, match="unknown keys"):
        js.read_field(path)

    bad = dict(header)
    bad["dtype"] = "f32"
    path.write_text(_canonical_json(bad))
    with pytest.raises(ValueError, match="c128"):
        js.read_field(path)

    bad = dict(header)
    bad["components"] = 2
    path.write_text(_canonical_json(bad))
    with pytest.raises(ValueError, match="components"):
        js.read_field(path)


def test_field_payload_size_mismatch(cfg_small, tmp_path):
    u = random_smooth_scalar(cfg_small, stream(75, "tests"))
    path = tmp_path / "field.json"
    js.write_field(path, u)
    payload = tmp_path / "field.bin"
    payload.write_bytes(payload.read_bytes()[:-16])
    with pytest.raises(ValueError, match="expected"):
        js.read_field(path)


def test_non_finite_payloads_rejected(cfg_small, tmp_path):
    u = random_smooth_vector(cfg_small, stream(77, "tests"))
    u.coeffs[1, 0, 0, 0] = np.nan
    js.write_field(tmp_path / "nan.json", u)
    with pytest.raises(ValueError, match="nan.bin holds non-finite"):
        js.read_field(tmp_path / "nan.json")
    mat = np.eye(3)
    mat[2, 1] = -np.inf
    js.write_matrix(tmp_path / "inf.json", mat)
    with pytest.raises(ValueError, match="inf.bin holds non-finite"):
        js.read_matrix(tmp_path / "inf.json")


def test_matrix_round_trip(tmp_path):
    rng = stream(76, "tests")
    mc = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    path = tmp_path / "mat.json"
    js.write_matrix(path, mc)
    back = js.read_matrix(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, mc)

    mr = rng.standard_normal((4, 4))
    path2 = tmp_path / "real.json"
    js.write_matrix(path2, mr)
    back2 = js.read_matrix(path2)
    assert back2.dtype == np.float64
    assert np.array_equal(back2, mr)
    header = json.loads(path2.read_text())
    assert header["dtype"] == "f64"


def test_matrix_validation(tmp_path):
    with pytest.raises(ValueError, match="2d"):
        js.write_matrix(tmp_path / "bad.json", np.zeros(3))
    path = tmp_path / "mat.json"
    js.write_matrix(path, np.eye(2))
    header = json.loads(path.read_text())
    bad = dict(header)
    bad["layout"] = "col-major"
    path.write_text(_canonical_json(bad))
    with pytest.raises(ValueError, match="layout"):
        js.read_matrix(path)
    bad = dict(header)
    bad["dtype"] = "i32"
    path.write_text(_canonical_json(bad))
    with pytest.raises(ValueError, match="dtype"):
        js.read_matrix(path)
    bad = dict(header)
    del bad["rows"]
    path.write_text(_canonical_json(bad))
    with pytest.raises(ValueError, match="keys"):
        js.read_matrix(path)


def test_canonical_json_shape():
    text = _canonical_json({"b": 1, "a": [1.5, True]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
