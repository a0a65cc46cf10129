"""Batched kernels held to the per-channel and four-application references.

apply_stack runs one GEMM over every channel and leading axis, on the real
view when a real stack meets a complex array; the derivative pair reads
d/dx and d/dy from one raising and one lowering application, and the
divergence uses the identity d/dx v1 + d/dy v2 = up(v1 - i v2)/2 +
down(v1 + i v2)/2. tests/oracles.py keeps the earlier kernels.
"""

import numpy as np
import pytest

from jetstokes.discretization import apply_stack
from jetstokes.fields import _div_slice, _dxy
from jetstokes.helmholtz import _q_slice
from jetstokes.rng import stream

import oracles

REL = 1e-14
# leading shapes: one slice, components, (n_modes_z, components) of a field
# and a stack of time points
LEADS = [(), (3,), (9, 3), (17, 3)]


def _random(rng, shape, complex_values):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if complex_values else a


def _close(got, want):
    return np.linalg.norm(got - want) <= REL * np.linalg.norm(want)


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("name", ["raising", "lap", "resample", "gram", "factor"])
def test_apply_stack_matches_per_channel(ws_small, name, lead, complex_values):
    # resample is the oracle's quadrature sampling, a non-square stack
    t = ws_small.tables
    st = oracles.resample_stack(t, -4, 4) if name == "resample" else getattr(t.stacks(-4, 4), name)
    arr = _random(stream(91, "tests"), lead + (st.shape[0], st.shape[2]), complex_values)
    got = apply_stack(st, arr)
    want = oracles.apply_stack_per_channel(st, arr)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert _close(got, want)


@pytest.mark.parametrize("lead", LEADS, ids=str)
def test_derivative_pair_matches_four_applications(ws_small, lead):
    t = ws_small.tables
    arr = _random(stream(92, "tests"), lead + (9, t.n_r), True)
    dx, dy = _dxy(t, arr)
    assert _close(dx, oracles.dx_four(t, arr))
    assert _close(dy, oracles.dy_four(t, arr))


@pytest.mark.parametrize("lead", [(), (9,), (17,)], ids=str)
def test_div_slice_matches_four_applications(ws_small, lead):
    t = ws_small.tables
    varr = _random(stream(93, "tests"), lead + (3, 7, t.n_r), True)
    beta = 0.7 if not lead else np.linspace(-2.0, 2.0, lead[0])[:, None, None]
    assert _close(_div_slice(t, varr, beta), oracles.div_four(t, varr, beta))


@pytest.mark.parametrize("forced", [False, True], ids=["velocity", "forced"])
@pytest.mark.parametrize("n", [0, -2])
def test_q_slice_matches_four_applications(ws_small, n, forced):
    cfg = ws_small.config
    rng = stream(94, "tests")
    shape = (3, cfg.n_modes_theta, cfg.n_r)
    varr = _random(rng, shape, True)
    farr = _random(rng, shape, True) if forced else None
    got = _q_slice(ws_small, n, varr, farr)
    # the potential occupies band + 1, where the oracle's cut is a no-op
    want = oracles.q_slice_four(ws_small, n, varr, cfg.n_theta + 1, farr)
    assert _close(got, want)
