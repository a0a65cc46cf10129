"""Acceptance gate: every verification criterion at the default resolution.

This module runs the full verify-all battery once (a few minutes) and
asserts each criterion separately so a failure names the exact check and
carries its measured numbers in the assertion message.
"""

import json
import subprocess
import sys

import pytest

import jetstokes as js
from jetstokes.verify import CRITERIA, run_all


@pytest.fixture(scope="session")
def acceptance():
    records, all_pass = run_all(js.DomainConfig(), 0, echo=True)
    return records, all_pass


def _check(records, name):
    rec = records[name]
    assert rec["pass"], "%s failed: %s" % (name, json.dumps(rec, default=str))


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(acceptance, name):
    _check(acceptance[0], name)


def test_all_criteria_pass(acceptance):
    records, all_pass = acceptance
    assert set(records) == set(CRITERIA)
    assert all_pass


def test_cli_verify_report_is_reproducible(tmp_path):
    body = {
        "domain": {"n_r": 12, "n_theta": 3, "n_z": 2},
    }
    cfgp = tmp_path / "run.json"
    cfgp.write_text(json.dumps(body))
    outs = []
    codes = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "jetstokes.cli",
                "verify-all",
                "--config",
                str(cfgp),
                "--seed",
                "3",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        codes.append(proc.returncode)
        outs.append((out / "verify_report.json").read_bytes())
    assert codes[0] == codes[1]
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert set(report) == set(CRITERIA)
