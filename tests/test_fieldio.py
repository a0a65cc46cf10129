import json
import re

import numpy as np
import pytest

import jetstokes as js
from jetstokes.cli import main
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


# ---------------------------------------------------------------------------
# malformed headers: a ValueError naming the file, exit status 1 in the CLI


def _rewrite(path, **entries):
    """Replace entries of the header at path."""
    header = json.loads(path.read_text())
    header.update(entries)
    path.write_text(_canonical_json(header))


def _assert_rejected(reader, path, tmp_path, capsys):
    """reader(path) raises a ValueError naming path; so does the CLI, with status 1."""
    with pytest.raises(ValueError, match=re.escape(str(path))):
        reader(path)
    if reader is js.read_field:
        run = tmp_path / "run.json"
        run.write_text(
            json.dumps(
                {
                    "domain": {"n_r": 12, "n_theta": 3, "n_z": 2},
                    "project": {"source": str(path)},
                    "output_dir": str(tmp_path / "out"),
                }
            )
        )
        assert main(["project", "--config", str(run)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err


def test_header_must_be_a_json_object(tmp_path, capsys):
    for reader in (js.read_field, js.read_matrix):
        path = tmp_path / "five.json"
        path.write_text("5\n")
        _assert_rejected(reader, path, tmp_path, capsys)
        path.write_text("[1, 2]\n")
        _assert_rejected(reader, path, tmp_path, capsys)
        path.write_text('{"rows": 2,\n')
        _assert_rejected(reader, path, tmp_path, capsys)
        path.write_bytes(b"\xff\xfe")
        _assert_rejected(reader, path, tmp_path, capsys)


def test_payload_must_be_a_plain_file_name(cfg_small, tmp_path, capsys):
    sub = tmp_path / "sub"
    sub.mkdir()
    field = sub / "field.json"
    js.write_field(field, random_smooth_vector(cfg_small, stream(78, "tests")))
    mat = sub / "mat.json"
    js.write_matrix(mat, np.eye(2))
    # valid payloads outside the header's directory must not be read
    (tmp_path / "field.bin").write_bytes((sub / "field.bin").read_bytes())
    (tmp_path / "mat.bin").write_bytes((sub / "mat.bin").read_bytes())
    for path, reader in ((field, js.read_field), (mat, js.read_matrix)):
        outside = tmp_path / path.with_suffix(".bin").name
        for name in (5, None, "", "..", "../" + outside.name, str(outside)):
            _rewrite(path, payload=name)
            _assert_rejected(reader, path, tmp_path, capsys)


def test_real_flag_must_be_a_json_boolean(cfg_small, tmp_path, capsys):
    path = tmp_path / "field.json"
    js.write_field(path, random_smooth_scalar(cfg_small, stream(79, "tests")))
    for flag in ("false", 0, 1, None):
        _rewrite(path, real_flag=flag)
        _assert_rejected(js.read_field, path, tmp_path, capsys)


def test_real_flag_must_hold_for_the_payload(cfg_small, tmp_path, capsys):
    path = tmp_path / "field.json"
    js.write_field(path, random_smooth_vector(cfg_small, stream(81, "tests"), real=False))
    _rewrite(path, real_flag=True)
    _assert_rejected(js.read_field, path, tmp_path, capsys)
    with pytest.raises(ValueError, match="not Hermitian"):
        js.read_field(path)


def test_counts_must_be_integers(cfg_small, tmp_path, capsys):
    path = tmp_path / "field.json"
    js.write_field(path, random_smooth_vector(cfg_small, stream(80, "tests")))
    for count in (True, 3.0, "3"):
        _rewrite(path, components=count)
        _assert_rejected(js.read_field, path, tmp_path, capsys)
    mat = tmp_path / "mat.json"
    js.write_matrix(mat, np.eye(2))
    for key, count in (("rows", "2"), ("rows", True), ("cols", 2.0), ("cols", -2)):
        js.write_matrix(mat, np.eye(2))
        _rewrite(mat, **{key: count})
        _assert_rejected(js.read_matrix, mat, tmp_path, capsys)
