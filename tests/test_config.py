import dataclasses
import json
import math

import numpy as np
import pytest

import jetstokes as js
from jetstokes.config import ResolventBlock


def test_domain_defaults():
    cfg = js.DomainConfig()
    assert cfg.kappa == 0.5
    assert cfg.ell == 2.0 * math.pi
    assert cfg.mu == 1.0
    assert (cfg.n_r, cfg.n_theta, cfg.n_z) == (32, 8, 8)
    assert len(dataclasses.fields(cfg)) == 6
    assert cfg.n_modes_theta == 17
    assert cfg.n_modes_z == 17


def test_beta_and_ranges():
    cfg = js.DomainConfig(ell=4.0, n_z=2, n_theta=2, n_r=8)
    assert cfg.beta(1) == pytest.approx(math.pi / 2.0)
    assert cfg.beta(-2) == -cfg.beta(2)
    assert (cfg.n_modes_z, cfg.n_modes_theta) == (5, 5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kappa": 1.0},
        {"kappa": 0.0},
        {"kappa": -0.5},
        {"ell": 0.0},
        {"mu": -1.0},
        {"n_r": 3},
        {"n_theta": 0},
        {"n_z": -1},
        {"mu": math.nan},
        {"ell": math.inf},
        {"n_r": 12.5},
        {"n_theta": True},
        {"n_z": 2.0},
        {"kappa": "0.5"},
    ],
)
def test_domain_validation(kwargs):
    with pytest.raises(js.ConfigError):
        js.DomainConfig(**kwargs)


def test_one_azimuthal_channel_exits_2(tmp_path, capsys):
    # at n_theta = 1 the band clips sectors +-1, which hold the mode-0
    # kernel fields e1 +- i e2
    from jetstokes.cli import main

    path = tmp_path / "run.json"
    path.write_text(json.dumps({"domain": {"n_theta": 1}}))
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "sectors j = +-1 must be complete" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_radius_error_message():
    with pytest.raises(js.ConfigError, match="radii >= 1 are not supported"):
        js.DomainConfig(kappa=1.5)


def test_load_round_trip(tmp_path):
    doc = {
        "domain": {"n_r": 8, "n_theta": 2, "n_z": 1, "kappa": 0.4},
        "seed": 7,
        "output_dir": "out",
        "spectrum": {"modes": [0, 1], "count": 5},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    run = js.load_run_config(path)
    assert run.domain.n_r == 8
    assert run.domain.kappa == 0.4
    assert run.seed == 7
    assert run.spectrum.modes == (0, 1)
    assert run.spectrum.count == 5
    # untouched sections keep their defaults
    assert run.evolve.scheme == "crank-nicolson"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"domain": {"n_rr": 8}}))
    with pytest.raises(js.ConfigError, match="unknown config key 'domain.n_rr'"):
        js.load_run_config(path)


def test_integer_entries_reject_floats_and_bools(tmp_path):
    path = tmp_path / "run.json"
    for doc in (
        {"domain": {"n_r": 12.5}},
        {"seed": 1.5},
        {"seed": True},
        {"spectrum": {"count": 3.0}},
        {"spectrum": {"modes": [True]}},
        {"solve_mode": {"n": 1.5}},
        {"evolve": {"snapshot_stride": 1.0}},
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(js.ConfigError, match="must be an integer"):
            js.load_run_config(path)


NON_FINITE = [
    ("domain", "kappa", math.nan),
    ("domain", "mu", math.nan),
    ("domain", "ell", math.inf),
    ("solve_mode", "amplitude", -math.inf),
    ("resolvent", "epsilon", math.nan),
    ("resolvent", "magnitudes", [math.inf]),
    ("resolvent", "rays", [["a", 1]]),
    ("resolvent", "rays", [[math.nan, 1]]),
    ("evolve", "t_final", math.inf),
    ("evolve", "dt", math.nan),
    ("evolve", "amplitude", math.nan),
    ("evolve", "omega", "1.0"),
]


@pytest.mark.parametrize(
    "section, key, value",
    NON_FINITE,
    ids=["%s.%s=%s" % case for case in NON_FINITE],
)
def test_non_finite_and_non_numeric_values_rejected(tmp_path, section, key, value):
    # json.dumps writes NaN and Infinity, which json.load reads back
    path = tmp_path / "run.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(js.ConfigError, match="%s.%s" % (section, key)):
        js.load_run_config(path)


NOT_STR_OR_BOOL = [
    ({"output_dir": 5}, "output_dir"),
    ({"project": {"source": 9}}, "project.source"),
    ({"solve_mode": {"forcing": "file", "path": 3}}, "solve_mode.path"),
    ({"solve_mode": {"forcing": ["constant"]}}, "solve_mode.forcing"),
    ({"evolve": {"scheme": None}}, "evolve.scheme"),
    ({"evolve": {"forcing": 0}}, "evolve.forcing"),
    ({"evolve": {"initial": False}}, "evolve.initial"),
    ({"spectrum": {"export_blocks": "no"}}, "spectrum.export_blocks"),
    ({"spectrum": {"export_blocks": 1}}, "spectrum.export_blocks"),
]


@pytest.mark.parametrize(
    "doc, key", NOT_STR_OR_BOOL, ids=[json.dumps(doc) for doc, _ in NOT_STR_OR_BOOL]
)
def test_string_and_bool_entries_type_checked(tmp_path, doc, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(js.ConfigError, match="%s must be" % key):
        js.load_run_config(path)


def test_malformed_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(js.ConfigError, match="not valid JSON"):
        js.load_run_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(js.ConfigError, match="cannot read"):
        js.load_run_config(tmp_path / "nope.json")


def test_resolvent_grid_order():
    blk = ResolventBlock(rays=((0.0, 1.0), (-1.0, 2.0)), magnitudes=(2.0, 1.0))
    grid = blk.grid()
    assert grid == [1j, 2j, complex(-1, 2), complex(-2, 4)]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rays": ((1.0, 2.0),)},          # points into Re > 0
        {"rays": ((-2.0, 1.0),)},         # |im| <= |re|
        {"rays": ((0.0, 0.0),)},
        {"magnitudes": ()},
        {"magnitudes": (0.1,), "epsilon": 0.5},  # reaches below epsilon
        {"epsilon": -1.0},
    ],
)
def test_resolvent_validation(kwargs):
    with pytest.raises(js.ConfigError):
        ResolventBlock(**kwargs)


def test_evolve_block_validation(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"evolve": {"scheme": "leapfrog"}}))
    with pytest.raises(js.ConfigError, match="evolve.scheme"):
        js.load_run_config(path)
    path.write_text(json.dumps({"evolve": {"t_final": 0.001, "dt": 0.01}}))
    with pytest.raises(js.ConfigError, match="t_final"):
        js.load_run_config(path)


def test_verify_block_validation(tmp_path, capsys):
    # no verify section is accepted: a config that still carries one exits 2
    from jetstokes.cli import main

    path = tmp_path / "run.json"
    path.write_text(json.dumps({"verify": {"determinism": "reduced"}}))
    assert main(["verify-all", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown config key 'run.verify'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_default_run_config():
    run = js.default_run_config()
    assert run.seed == 0
    assert run.output_dir == "runs"
    assert not hasattr(run, "verify")


def test_rng_streams():
    from jetstokes.rng import STREAM_IDS, stream

    a = stream(3, "tests").standard_normal(8)
    b = stream(3, "tests").standard_normal(8)
    assert np.array_equal(a, b)
    c = stream(3, "project-input").standard_normal(8)
    assert not np.array_equal(a, c)
    d = stream(4, "tests").standard_normal(8)
    assert not np.array_equal(a, d)
    assert len(set(STREAM_IDS.values())) == len(STREAM_IDS)
    with pytest.raises(KeyError, match="unknown rng stream"):
        stream(0, "nonsense")
