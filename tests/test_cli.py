import dataclasses
import json
import math

import numpy as np
import pytest

import jetstokes as js
import oracles
from jetstokes import cli
from jetstokes.cli import main
from jetstokes.discretization import tables_for
from jetstokes.fields import random_smooth_scalar
from jetstokes.rng import stream

SMALL_DOMAIN = {"n_r": 12, "n_theta": 3, "n_z": 2}


def _config(tmp_path, name="run.json", **blocks):
    body = {"domain": dict(SMALL_DOMAIN), "output_dir": str(tmp_path / "out")}
    body.update(blocks)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_solve_mode_constant(tmp_path):
    cfgp = _config(tmp_path, solve_mode={"n": 0, "forcing": "constant"})
    assert main(["solve-mode", "--config", cfgp]) == 0
    u = js.read_field(tmp_path / "out" / "mode_solution.json")
    assert isinstance(u, js.ScalarField)
    cfg = js.DomainConfig(**SMALL_DOMAIN)
    r = tables_for(cfg).r
    want = oracles.poisson_const_profile(r, cfg.kappa)
    got = u.coeffs[cfg.n_z, cfg.n_theta, :]
    assert np.max(np.abs(got - want)) < 1e-10


def test_solve_mode_from_file(tmp_path):
    cfg = js.DomainConfig(**SMALL_DOMAIN)
    f = random_smooth_scalar(cfg, stream(81, "tests"), real=False)
    fpath = tmp_path / "forcing.json"
    js.write_field(fpath, f)
    cfgp = _config(tmp_path, solve_mode={"n": 1, "forcing": "file", "path": str(fpath)})
    assert main(["solve-mode", "--config", cfgp]) == 0
    u = js.read_field(tmp_path / "out" / "mode_solution.json")
    lap = js.laplacian(u)
    i_n = cfg.n_z + 1
    err = np.linalg.norm(lap.coeffs[i_n] - f.coeffs[i_n])
    assert err < 1e-7 * np.linalg.norm(f.coeffs[i_n])


def test_solve_mode_grid_mismatch(tmp_path, capsys):
    other = js.DomainConfig(n_r=10, n_theta=3, n_z=2)
    f = random_smooth_scalar(other, stream(82, "tests"))
    fpath = tmp_path / "forcing.json"
    js.write_field(fpath, f)
    cfgp = _config(tmp_path, solve_mode={"n": 0, "forcing": "file", "path": str(fpath)})
    assert main(["solve-mode", "--config", cfgp]) == 2
    assert "does not match" in capsys.readouterr().err


def test_solve_mode_rejects_out_of_range_mode(tmp_path):
    cfgp = _config(tmp_path, solve_mode={"n": 5, "forcing": "constant"})
    assert main(["solve-mode", "--config", cfgp]) == 2


def test_project_random(tmp_path):
    cfgp = _config(tmp_path)
    assert main(["project", "--config", cfgp]) == 0
    sol = js.read_field(tmp_path / "out" / "solenoidal.json")
    pot = js.read_field(tmp_path / "out" / "potential.json")
    assert isinstance(sol, js.VectorField)
    assert isinstance(pot, js.ScalarField)
    assert js.norm_L2(js.div(sol)) < 1e-8 * max(js.norm_L2(sol), 1.0)


def test_project_is_deterministic(tmp_path):
    cfg_a = _config(tmp_path, name="a.json", output_dir=str(tmp_path / "a"))
    cfg_b = _config(tmp_path, name="b.json", output_dir=str(tmp_path / "b"))
    assert main(["project", "--config", cfg_a, "--seed", "7"]) == 0
    assert main(["project", "--config", cfg_b, "--seed", "7"]) == 0
    ba = (tmp_path / "a" / "solenoidal.bin").read_bytes()
    bb = (tmp_path / "b" / "solenoidal.bin").read_bytes()
    assert ba == bb
    assert main(["project", "--config", cfg_b, "--seed", "8"]) == 0
    assert (tmp_path / "b" / "solenoidal.bin").read_bytes() != ba


def test_project_accepts_its_own_output(tmp_path):
    # the solenoidal field file read back as a source must match the
    # configured domain and pass through the projection unchanged
    first = _config(tmp_path, name="first.json", output_dir=str(tmp_path / "first"))
    assert main(["project", "--config", first]) == 0
    src = tmp_path / "first" / "solenoidal.json"
    again = _config(
        tmp_path, name="again.json", output_dir=str(tmp_path / "again"),
        project={"source": str(src)},
    )
    assert main(["project", "--config", again]) == 0
    u = js.read_field(src)
    pu = js.read_field(tmp_path / "again" / "solenoidal.json")
    assert np.linalg.norm(pu.coeffs - u.coeffs) <= 1e-10 * np.linalg.norm(u.coeffs)


def test_spectrum_with_block_export(tmp_path):
    cfgp = _config(
        tmp_path, spectrum={"modes": [0, 1], "count": 3, "export_blocks": True}
    )
    assert main(["spectrum", "--config", cfgp]) == 0
    lines = (tmp_path / "out" / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "n,re_lambda,im_lambda,residual,in_sector"
    assert len(lines) == 7
    rows = [line.split(",") for line in lines[1:]]
    ws = js.Workspace(js.DomainConfig(**SMALL_DOMAIN))
    for n in (0, 1):
        a = js.read_matrix(tmp_path / "out" / ("mode_%d_A.json" % n))
        m = js.read_matrix(tmp_path / "out" / ("mode_%d_M.json" % n))
        g = js.read_matrix(tmp_path / "out" / ("mode_%d_G.json" % n))
        assert a.shape == m.shape == g.shape
        assert np.linalg.norm(a - g) < 1e-8 * np.linalg.norm(g)
        # the blocks are in ascending eigenvalue order: M = I and G's
        # diagonal is the spectrum, whose lowest rows the CSV holds
        assert np.max(np.abs(m - np.eye(m.shape[0]))) < 1e-12
        w = np.array([e.lam.real for e in js.eigensolve(ws, n, m.shape[0])])
        assert w.size == m.shape[0] and np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(np.diag(g) - w)) < 1e-12 * w[-1]
        csv_w = [float(row[1]) for row in rows if row[0] == str(n)]
        assert np.max(np.abs(np.diag(g).real[:3] - csv_w)) < 1e-12 * w[-1]


def test_spectrum_rejects_bad_mode(tmp_path):
    cfgp = _config(tmp_path, spectrum={"modes": [5]})
    assert main(["spectrum", "--config", cfgp]) == 2


def test_resolvent_sweep_cli(tmp_path):
    cfgp = _config(tmp_path, resolvent={"rays": [[0, 1]], "magnitudes": [1, 2]})
    assert main(["resolvent-sweep", "--config", cfgp]) == 0
    lines = (tmp_path / "out" / "resolvent_sweep.csv").read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,l2_gain,l2_bound,hk_gain,bound_ok"
    assert len(lines) == 3
    assert all(line.endswith(",true") for line in lines[1:])


def test_evolve_forced_run(tmp_path):
    cfgp = _config(
        tmp_path,
        evolve={
            "t_final": 0.1,
            "dt": 0.02,
            "initial": "random",
            "forcing": "sinusoidal",
            "amplitude": 0.5,
            "omega": 2.0,
            "snapshot_stride": 2,
        },
    )
    assert main(["evolve", "--config", cfgp]) == 0
    out = tmp_path / "out"
    lines = (out / "energy.csv").read_text().splitlines()
    assert lines[0] == "t,l2_norm_sq,dissipation,residual"
    assert len(lines) == 7
    for k in (0, 2, 4):
        assert (out / ("snapshot_%05d.json" % k)).exists()
    assert not (out / "snapshot_00001.json").exists()
    rep = json.loads((out / "estimate.json").read_text())
    assert rep["ratio"] >= 0.0
    assert rep["dt"] == 0.02
    assert "l2t_h2p_velocity" in rep["surrogate_terms"]
    snap = js.read_field(out / "snapshot_00000.json")
    assert js.norm_L2(snap) == pytest.approx(1.0, rel=1e-8)


def test_evolve_homogeneous_run(tmp_path):
    cfgp = _config(
        tmp_path,
        evolve={"t_final": 0.1, "dt": 0.05, "initial": "constant", "forcing": "none"},
    )
    assert main(["evolve", "--config", cfgp]) == 0
    assert not (tmp_path / "out" / "estimate.json").exists()
    lines = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    first = float(lines[1].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert last == pytest.approx(first, rel=1e-12)


@pytest.mark.parametrize(
    "forcing, stride, stored",
    [("none", 0, False), ("none", 2, True), ("sinusoidal", 0, True)],
)
def test_evolve_keeps_fields_only_for_their_readers(tmp_path, monkeypatch, forcing, stride, stored):
    # snapshots and the estimate read the trajectory; energy.csv does not,
    # and it is the same whether the fields were kept or not
    seen = []
    real = cli.evolve

    def spy(ws, evo, keep=None):
        seen.append(evo.store_trajectory)
        if keep is not None:
            evo = dataclasses.replace(evo, store_trajectory=keep)
        return real(ws, evo)

    block = {"t_final": 0.1, "dt": 0.02, "initial": "random", "forcing": forcing}
    block["snapshot_stride"] = stride
    energies = []
    for name, keep in (("a", None), ("b", True)):
        cfgp = _config(tmp_path, name + ".json", evolve=block)
        monkeypatch.setattr(cli, "evolve", lambda ws, evo: spy(ws, evo, keep))
        assert main(["evolve", "--config", cfgp, "--out", str(tmp_path / name)]) == 0
        energies.append((tmp_path / name / "energy.csv").read_bytes())
    assert seen == [stored, stored]
    assert energies[0] == energies[1]


def test_out_and_seed_overrides(tmp_path):
    cfgp = _config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["project", "--config", cfgp, "--out", str(other)]) == 0
    assert (other / "solenoidal.json").exists()
    assert not (tmp_path / "out").exists()


def test_exit_code_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["spectrum", "--config", str(bad)]) == 2
    assert "config:" in capsys.readouterr().err


def test_exit_code_on_unknown_key(tmp_path):
    path = tmp_path / "run.json"
    # the SVD cutoff and the solve tolerance are constants, and the disk
    # Gram is exact in closed form with no quadrature order: none is a
    # config key
    for key in ("n_rr", "svd_tol", "quad_order", "solver_tol"):
        path.write_text(json.dumps({"domain": {key: 12}}))
        assert main(["spectrum", "--config", str(path)]) == 2


NON_FINITE_CLI = [
    ("evolve", "amplitude", math.nan),
    ("domain", "mu", math.nan),
    ("domain", "ell", math.inf),
    ("evolve", "dt", math.nan),
    ("resolvent", "magnitudes", [math.inf]),
    ("resolvent", "rays", [["a", 1]]),
]


@pytest.mark.parametrize(
    "section, key, value",
    NON_FINITE_CLI,
    ids=["%s.%s=%s" % case for case in NON_FINITE_CLI],
)
def test_exit_code_on_non_finite_value(tmp_path, capsys, section, key, value):
    blocks = {section: dict(SMALL_DOMAIN, **{key: value}) if section == "domain" else {key: value}}
    cfgp = _config(tmp_path, **blocks)
    command = "resolvent-sweep" if section == "resolvent" else "evolve"
    assert main([command, "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config:") and "%s.%s" % (section, key) in err
    assert not (tmp_path / "out").exists()


NOT_STR_OR_BOOL_CLI = [
    ("project", {"output_dir": 5}, "output_dir"),
    ("spectrum", {"spectrum": {"export_blocks": "no"}}, "spectrum.export_blocks"),
    ("project", {"project": {"source": 9}}, "project.source"),
    ("solve-mode", {"solve_mode": {"forcing": "file", "path": 7}}, "solve_mode.path"),
]


@pytest.mark.parametrize(
    "command, blocks, key",
    NOT_STR_OR_BOOL_CLI,
    ids=[key for _, _, key in NOT_STR_OR_BOOL_CLI],
)
def test_exit_code_on_non_string_or_bool_value(tmp_path, capsys, command, blocks, key):
    cfgp = _config(tmp_path, **blocks)
    assert main([command, "--config", cfgp]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config:") and key in err
    assert not (tmp_path / "out").exists()


def test_project_rejects_a_source_with_an_invalid_domain(tmp_path, capsys):
    # an out-of-range value in a field header is a bad file (status 1,
    # naming it), not a bad run configuration (status 2)
    first = _config(tmp_path, name="first.json", output_dir=str(tmp_path / "first"))
    assert main(["project", "--config", first]) == 0
    src = tmp_path / "first" / "solenoidal.json"
    header = json.loads(src.read_text())
    header["kappa"] = 2.0
    src.write_text(json.dumps(header))
    again = _config(
        tmp_path, name="again.json", output_dir=str(tmp_path / "again"),
        project={"source": str(src)},
    )
    assert main(["project", "--config", again]) == 1
    err = capsys.readouterr().err
    assert str(src) in err and "kappa" in err
    assert "config:" not in err and "Traceback" not in err


def test_exit_code_on_missing_field_file(tmp_path, capsys):
    cfgp = _config(tmp_path, project={"source": str(tmp_path / "absent.json")})
    assert main(["project", "--config", cfgp]) == 1
    assert "io:" in capsys.readouterr().err


def test_project_rejects_scalar_source(tmp_path):
    cfg = js.DomainConfig(**SMALL_DOMAIN)
    f = random_smooth_scalar(cfg, stream(83, "tests"))
    fpath = tmp_path / "scalar.json"
    js.write_field(fpath, f)
    cfgp = _config(tmp_path, project={"source": str(fpath)})
    assert main(["project", "--config", cfgp]) == 2
