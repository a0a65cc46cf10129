"""The time steppers against the exact solution of the semi-discrete system.

In eigen coordinates (M = I, G = diag w) every coordinate obeys
c' = -w c + r(t). For the forcing f(t) = g sin(omega t) the exact solution
from c(0) = 0 is the Duhamel integral oracles.duhamel_sine, and without
forcing a state decays as e^{-w t}. Crank-Nicolson is second order and
implicit Euler first order in dt on smooth data. On a rough initial state
the Crank-Nicolson amplification factor tends to -1 on the stiff
coordinates, so they do not decay, while implicit Euler damps them.
"""

import math

import numpy as np
import pytest

import jetstokes as js
import oracles
from jetstokes.fields import random_smooth_vector
from jetstokes.rng import stream
from jetstokes.stokesop import expand_slice, reduce_slice

T = 0.5
OMEGA = 1.0
ORDERS = {"crank-nicolson": 2, "implicit-euler": 1}
# relative coordinate error at T over dt^order at dt = 0.01, forcing
# g sin(t) on the smooth profile of stream(71, "tests")
ERROR_CONSTANTS = {
    ("crank-nicolson", 12): 0.29082,
    ("crank-nicolson", 24): 0.19019,
    ("implicit-euler", 12): 1.4713,
    ("implicit-euler", 24): 1.7098,
}


@pytest.fixture(scope="module", params=[(12, 3, 2), (24, 6, 4)], ids=["12-3-2", "24-6-4"])
def ws_grid(request):
    n_r, n_theta, n_z = request.param
    return js.Workspace(js.DomainConfig(n_r=n_r, n_theta=n_theta, n_z=n_z))


def _operators(ws):
    cfg = ws.config
    return {n: js.mode_operator(ws, abs(n)) for n in range(-cfg.n_z, cfg.n_z + 1)}


def _eigenvalues(ws):
    """Each mode's packed eigenvalues, 0 on the padding."""
    return {n: op.w for n, op in _operators(ws).items()}


def _rel_error(got, want):
    num = sum(np.linalg.norm(got[n] - want[n]) ** 2 for n in want)
    return math.sqrt(num / sum(np.linalg.norm(want[n]) ** 2 for n in want))


def _field(ws, coords):
    """The field of per-mode coordinates."""
    return js.VectorField(ws.config, expand_slice(ws, oracles.field_coords(ws, coords)), False)


def _reduce(ws, v):
    """Per-mode coordinates of a field."""
    return oracles.mode_coords(ws, reduce_slice(ws, v.coeffs))


def _run(ws, scheme, dt, **kwargs):
    evo = js.EvolutionConfig(t_final=T, dt=dt, scheme=scheme, **kwargs)
    return js.evolve(ws, evo)


@pytest.mark.parametrize("scheme", sorted(ORDERS))
def test_forced_run_converges_to_the_duhamel_solution(ws_grid, scheme):
    cfg = ws_grid.config
    g = random_smooth_vector(cfg, stream(71, "tests"))
    w = _eigenvalues(ws_grid)
    r = _reduce(ws_grid, g)
    exact = {n: oracles.duhamel_sine(wn, r[n], OMEGA, T) for n, wn in w.items()}
    errors = []
    for dt in (0.02, 0.01):
        res = _run(ws_grid, scheme, dt, forcing=lambda t: g * math.sin(OMEGA * t), store_trajectory=False)
        errors.append(_rel_error(oracles.mode_coords(ws_grid, res.coords), exact))
    order = ORDERS[scheme]
    assert math.log2(errors[0] / errors[1]) == pytest.approx(order, abs=0.01)
    constant = ERROR_CONSTANTS[(scheme, cfg.n_r)]
    assert errors[1] / 0.01**order == pytest.approx(constant, rel=0.01)


@pytest.mark.parametrize("scheme", sorted(ORDERS))
def test_smooth_homogeneous_state_decays_as_exp_minus_w_t(ws_grid, scheme):
    # the three lowest coordinates of every mode, each decaying at its own
    # rate; the error is the worst over the stored time points t_k
    w = _eigenvalues(ws_grid)
    c0 = {
        n: oracles.packed(op, np.where(np.arange(op.order.size) < 3, 1.0 + 0.5j, 0.0))
        for n, op in _operators(ws_grid).items()
    }
    u = _field(ws_grid, c0)
    errors = []
    for dt in (0.01, 0.005):
        res = _run(ws_grid, scheme, dt, initial=u)
        worst = 0.0
        for k, v in enumerate(res.fields):
            got = _reduce(ws_grid, v)
            worst = max(worst, _rel_error(got, {n: np.exp(-w[n] * dt * k) * c0[n] for n in w}))
        errors.append(worst)
    assert math.log2(errors[0] / errors[1]) == pytest.approx(ORDERS[scheme], abs=0.03)
    assert errors[1] < {"crank-nicolson": 1e-4, "implicit-euler": 1e-2}[scheme]


def test_rough_initial_state_exercises_the_stiff_amplification(ws_grid):
    w = _eigenvalues(ws_grid)
    rng = stream(72, "tests")
    c0 = {}
    for n, op in _operators(ws_grid).items():
        k = op.order.size
        c0[n] = oracles.packed(op, rng.standard_normal(k) + 1j * rng.standard_normal(k))
    u = _field(ws_grid, c0)
    exact = {n: np.exp(-w[n] * T) * c0[n] for n in w}
    scale = max(np.max(np.abs(c)) for c in c0.values())
    errors = {}
    for scheme, theta in (("implicit-euler", 1.0), ("crank-nicolson", 0.5)):
        errors[scheme] = []
        for dt in (0.02, 0.01):
            steps = round(T / dt)
            res = _run(ws_grid, scheme, dt, initial=u, store_trajectory=False)
            got = oracles.mode_coords(ws_grid, res.coords)
            # every coordinate, the stiff ones included, follows its own
            # amplification factor to roundoff
            for n, wn in w.items():
                amp = ((1.0 - (1.0 - theta) * dt * wn) / (1.0 + theta * dt * wn)) ** steps
                assert np.max(np.abs(got[n] - amp * c0[n])) <= 1e-12 * scale
            errors[scheme].append(_rel_error(got, exact))
    # implicit Euler damps the stiff coordinates and stays first order
    ie = errors["implicit-euler"]
    assert math.log2(ie[0] / ie[1]) == pytest.approx(1.0, abs=0.02)
    assert ie[1] < 1e-2
    # Crank-Nicolson's factor tends to -1 there: they barely decay, while
    # the exact state has, so the error is no longer small
    w_max = max(float(np.max(wn)) for wn in w.values())
    assert (1.0 - 0.005 * w_max) / (1.0 + 0.005 * w_max) < -0.95
    assert errors["crank-nicolson"][1] > 0.05
