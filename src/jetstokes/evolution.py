"""Linearized time evolution on the constrained subspaces.

Each axial mode evolves independently in its reduced coordinates: with
M and G its pencil blocks and f the reduced forcing functionals, the
Galerkin system is M c' + G c = f. Every mode is stored sector by sector
in the M-orthonormal eigenbasis of its pencil (see stokesop), where M = I
and G = diag(w) up to roundoff, so both schemes are scalar recurrences:

  implicit Euler   (1 + dt w) c' = c + dt f(t'),
  Crank-Nicolson   (1 + dt/2 w) c' = (1 - dt/2 w) c + dt (f(t) + f(t'))/2.

c is packed as in stokesop.ModeOperator, and w is 0 on its zero padding,
which both factors then keep. w is real and nonnegative, so homogeneous
energies are monotone, and the mode-0 kernel is deflated exactly, so
constant states persist to roundoff. Energies are sum |c|^2 and
sum w |c|^2. The recurrence is exact, so a step's residual against the
blocks set-up formed is (M - I) dc/dt + (G - diag w) c_eval; the
residual column bounds it by ||eps_M dc/dt|| + ||eps_G c_eval|| per mode
(stokesop.field_pencil), over ||dc/dt|| + ||w c_eval|| + ||f||.

The state and w are field coordinate arrays (n_z + 1, dim, sides) (see
stokesop.reduce_slice), so each step is a few whole-array operations: the
recurrence, the residual bound and its per-mode scale, the energies and
the Crank-Nicolson midpoint terms. w, eps_M and eps_G are the cached
read-only arrays of stokesop.field_pencil. The forcing of a block of
STEP_BLOCK steps is reduced, and its snapshots expanded, in one call
each, one pass over every mode and side of the whole block; the reduced
block is copied once into the state's (time, mode, coordinate, side)
order, so every step reads contiguous arrays. The forcing callable is
called once per time point, in time order (after one extra call at
t = 0 for the hypothesis check). w is real, so the recurrence is the
same on both signs of n.

A real run carries one side. When the initial state (if any) and the
forcing at t = 0 are flagged real (fields.real_flag), the state holds
side 0 only (sides = 1): side 1 of a real field repeats it, so the steps,
reductions and expansions touch modes n >= 0 only, the energies, the
midpoint forcing term and the residual terms count each |n| > 0 twice,
and the snapshots are flagged real. The decision reads the flags, never
the data. A real initial state is projected on side 0 only. A complex
f(0), or a later forcing value flagged complex, widens the state to two
sides (from its block on), side 1 a copy of side 0 (_two_sided), which is
exact for a real state. EvolutionResult.coords is always two-sided.
"""

import dataclasses
import math

import numpy as np

from .fieldio import write_csv
from .fields import VectorField, _field, _require_config, norm_L2, trace_norm_L2, trace_SF
from .fields import grad, inner_product_Hkp
from .helmholtz import operator_Q, project_P
from .stokesop import (
    expand_slice,
    field_pencil,
    mode_operator,
    project_constrained,
    reduce_slice,
)

SCHEMES = ("implicit-euler", "crank-nicolson")

# steps per block: the forcing reductions and snapshot expansions run once
# per block, so transient memory is bounded by the block, not the run
STEP_BLOCK = 16


def _off_grid(steps, dt, t_final):
    """Whether t_final differs from steps * dt by more than 1e-9 * max(t_final, 1)."""
    return abs(steps * dt - t_final) > 1e-9 * max(t_final, 1.0)


@dataclasses.dataclass
class EvolutionConfig:
    """Settings of one evolution run.

    Attributes:
        t_final: time horizon; the step count is round(t_final / dt).
        dt: step size.
        scheme: "implicit-euler" or "crank-nicolson".
        forcing: callable t -> VectorField, or None for homogeneous runs.
        initial: VectorField initial state, or None for zero.
        store_trajectory: keep the velocity field of every step.
    """

    t_final: float
    dt: float
    scheme: str = "crank-nicolson"
    forcing: object = None
    initial: object = None
    store_trajectory: bool = True


@dataclasses.dataclass
class EnergyTrace:
    """Per-step energy bookkeeping.

    Arrays have one entry per time grid point, starting at t = 0.
    identity_residual / identity_scale are per-step (length steps) and
    only filled for Crank-Nicolson runs.
    """

    t: np.ndarray
    l2_norm_sq: np.ndarray
    dissipation: np.ndarray
    residual: np.ndarray
    warnings: list
    identity_residual: object = None
    identity_scale: object = None


@dataclasses.dataclass
class EvolutionResult:
    """Trajectory, energy trace, final field and final eigen coordinates.

    coords is the final field coordinate array (n_z + 1, dim, 2) of
    stokesop.reduce_slice: [|n|, :, 0] is mode +|n|, [|n|, :, 1] mode -|n|,
    zero on the padding, side 1 of |n| = 0 included.
    """

    fields: list
    trace: EnergyTrace
    final: VectorField
    coords: np.ndarray


def _mode_norms(y):
    """Euclidean norm (n_z + 1, sides) of each mode's part of coordinates (n_z + 1, dim, sides)."""
    yr = y.view(float).reshape(y.shape[0], -1, 2 * y.shape[2])
    sq = np.einsum("adc,adc->ac", yr, yr)
    return np.sqrt(sq[:, 0::2] + sq[:, 1::2])


def _two_sided(y):
    """Coordinates (..., n_z + 1, dim, 2) of real fields from their side 0 (..., n_z + 1, dim, 1).

    Side 1 of |n| > 0 repeats side 0; side 1 of |n| = 0 is padding.
    """
    out = np.zeros(y.shape[:-1] + (2,), dtype=complex)
    out[..., 0] = y[..., 0]
    out[..., 1:, :, 1] = y[..., 1:, :, 0]
    return out


def _side_weights(n_z, sides):
    """Weights (n_z + 1, 1, sides) of each mode's coordinates in sums over all modes.

    1 everywhere for two sides; with one side, each |n| > 0 stands for
    +|n| and -|n| and weighs 2.
    """
    mult = np.ones((n_z + 1, 1, sides))
    if sides == 1:
        mult[1:] = 2.0
    return mult


def _forcing_value(ws, forcing, t):
    """forcing(t), checked to be a VectorField on ws.config (ValueError otherwise)."""
    f = forcing(t)
    if not isinstance(f, VectorField):
        raise ValueError("forcing callable must return a VectorField")
    _require_config(ws, f, "evolve: forcing at t = %g" % t)
    return f


def evolve(ws, evo):
    """Run the linearized evolution described by an EvolutionConfig.

    Returns:
        EvolutionResult. The trace warnings record a violated forcing
        hypothesis (the solenoidal part of f at t = 0 must vanish), an
        initial state outside the constrained subspace, and conditioning
        alerts; they never silence the run.

    Raises:
        ValueError for an unknown scheme, a bad step or horizon, or an
        initial state or forcing value that is not on ws.config.

    The run carries one side while the initial state and the forcing
    values are flagged real (see the module docstring).
    """
    cfg = ws.config
    if evo.scheme not in SCHEMES:
        raise ValueError("unknown scheme %r; expected one of %s" % (evo.scheme, SCHEMES))
    if evo.dt <= 0.0:
        raise ValueError("dt must be positive")
    if evo.t_final < evo.dt:
        raise ValueError("t_final must be at least dt")
    if evo.initial is not None:
        _require_config(ws, evo.initial, "evolve: initial state")
    steps = max(int(round(evo.t_final / evo.dt)), 1)
    dt = evo.dt
    warnings = []
    if _off_grid(steps, dt, evo.t_final):
        warnings.append(
            "horizon adjusted to %d steps of dt=%g (t_final=%g)"
            % (steps, dt, evo.t_final)
        )

    w_all, eps_m, eps_g = field_pencil(ws)
    # the eigenbasis deflates the mode-0 kernel columns, which is exact
    # only while G couples to them at roundoff level
    coupling = max(info["kernel_coupling"] for info in mode_operator(ws, 0).info)
    if coupling > 1e-8:
        warnings.append("mode 0: dissipation form couples to the kernel (%.3e)" % coupling)

    f0 = None if evo.forcing is None else _forcing_value(ws, evo.forcing, 0.0)
    sides = 1 if all(x is None or x.real_flag for x in (evo.initial, f0)) else 2

    # a state is one field coordinate array
    c = np.zeros(w_all.shape[:2] + (sides,), dtype=complex)
    if evo.initial is not None:
        vnorm = norm_L2(evo.initial)
        proj, c = project_constrained(ws, evo.initial)
        c = _two_sided(c) if c.shape[2] < sides else np.ascontiguousarray(c)
        if vnorm > 0.0:
            defect = norm_L2(evo.initial - proj) / vnorm
            if defect > 1e-8:
                warnings.append(
                    "initial state lies outside the constrained subspace "
                    "(relative defect %.3e); evolving its projection" % defect
                )

    if f0 is not None:
        n0 = norm_L2(f0)
        if n0 > 0.0:
            sol_part = norm_L2(project_P(ws, f0).solenoidal) / n0
            if sol_part > 1e-8:
                warnings.append(
                    "forcing has a solenoidal part at t = 0 (relative %.3e); "
                    "the evolution hypothesis requires P f(0) = 0" % sol_part
                )

    # implicit Euler evaluates G and f at the new time, Crank-Nicolson at
    # the midpoint
    theta = 1.0 if evo.scheme == "implicit-euler" else 0.5
    t_grid = dt * np.arange(steps + 1)
    l2_arr = np.zeros(steps + 1)
    diss_arr = np.zeros(steps + 1)
    res_arr = np.zeros(steps + 1)
    diss_mid = np.zeros(steps)
    fp_mid = np.zeros(steps)

    def widths(sides):
        """The eigenvalues, mode weights and step factors at a state width."""
        w = np.ascontiguousarray(w_all[:, :, :sides])
        return w, _side_weights(cfg.n_z, sides), 1.0 - (1.0 - theta) * dt * w, 1.0 + theta * dt * w

    def energies(z):
        mz = mult * z
        return np.vdot(z, mz).real, np.vdot(z, w * mz).real

    w, mult, keep, denom = widths(sides)
    l2_arr[0], diss_arr[0] = energies(c)
    fields = []
    r = None
    for k0 in range(0, steps, STEP_BLOCK):
        k1 = min(k0 + STEP_BLOCK, steps)
        # x[i] and r[i] are the time points k0 + i; point 0 carries over,
        # except in the first block, where it is t = 0 itself
        first = 1 if k0 else 0
        if evo.forcing is not None:
            # the block's forcing functionals, reduced in one call
            ks = range(k0 + first, k1 + 1)
            stack = np.empty((len(ks), 3, cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r), complex)
            real = True
            for i, k in enumerate(ks):
                f = _forcing_value(ws, evo.forcing, dt * k)
                stack[i] = f.coeffs
                real = real and f.real_flag
            if sides == 1 and not real:
                sides = 2
                c = _two_sided(c)
                r = None if r is None else _two_sided(r)
                w, mult, keep, denom = widths(sides)
            new = reduce_slice(ws, stack, real=sides == 1)
            new = np.ascontiguousarray(np.moveaxis(new, -1, 0))
            # freed before the block's snapshots are expanded, which reuse its memory
            del stack
            r = np.concatenate([r[-1:], new]) if k0 else new
        x = np.empty((k1 - k0 + 1,) + c.shape, dtype=complex)
        x[0] = c
        for i, k in enumerate(range(k0, k1)):
            c_new = keep * c
            if r is not None:
                r_eval = theta * r[i + 1] + (1.0 - theta) * r[i]
                c_new += dt * r_eval
            c_new /= denom
            x[i + 1] = c_new
            # the bound on the step's residual and its scale, per mode, its
            # energies and the Crank-Nicolson midpoint terms
            c_eval = theta * c_new + (1.0 - theta) * c
            dc = (c_new - c) / dt
            bound = _mode_norms(eps_m * dc) + _mode_norms(eps_g * c_eval)
            scale = _mode_norms(dc) + _mode_norms(w * c_eval)
            if r is not None:
                scale += _mode_norms(r_eval)
                fp_mid[k] = np.vdot(c_eval, mult * r_eval).real
            scale_sq = np.sum(mult[:, 0] * scale * scale)
            if scale_sq > 0.0:
                res_arr[k + 1] = math.sqrt(np.sum(mult[:, 0] * bound * bound) / scale_sq)
            diss_mid[k] = energies(c_eval)[1]
            l2_arr[k + 1], diss_arr[k + 1] = energies(c_new)
            c = c_new
        if evo.store_trajectory:
            states = expand_slice(ws, np.moveaxis(x[first:], 0, -1))
            fields += [_field(VectorField, cfg, v, sides == 1) for v in states]
    ident_res = ident_scale = None
    if evo.scheme == "crank-nicolson":
        lhs = np.diff(l2_arr) / dt
        ident_res = np.abs(lhs - (-2.0 * diss_mid + 2.0 * fp_mid))
        ident_scale = np.abs(lhs) + 2.0 * np.abs(diss_mid) + 2.0 * np.abs(fp_mid) + 1e-300

    final = fields[-1] if fields else _field(VectorField, cfg, expand_slice(ws, c), sides == 1)
    trace = EnergyTrace(
        t=t_grid,
        l2_norm_sq=l2_arr,
        dissipation=diss_arr,
        residual=res_arr,
        warnings=warnings,
        identity_residual=ident_res,
        identity_scale=ident_scale,
    )
    coords = _two_sided(c) if sides == 1 else c
    return EvolutionResult(fields=fields, trace=trace, final=final, coords=coords)


def recover_pressure(ws, v, f=None):
    """Pressure field of a trajectory snapshot, from one Dirichlet solve call.

    q = Q v plus, when a forcing snapshot f is given, the zero-trace
    potential solving laplacian(phi) = div(f); see helmholtz.operator_Q,
    which solves the slices n >= 0 only when v (and f) are real. Both
    fields must be on ws.config (ValueError otherwise).
    """
    return operator_Q(ws, v, f)


def energy_csv_rows(trace):
    """Rows (t, l2_norm_sq, dissipation, residual) for energy.csv."""
    cols = (trace.t, trace.l2_norm_sq, trace.dissipation, trace.residual)
    return [tuple(map(float, row)) for row in zip(*cols)]


def write_energy_csv(path, trace):
    write_csv(path, ["t", "l2_norm_sq", "dissipation", "residual"], energy_csv_rows(trace))


def estimate_report(ws, fields, pressures, forcings, dt, t_final):
    """Surrogate maximal-regularity ratio of a computed trajectory.

    The continuous-time norms are replaced by right-endpoint discrete
    L^2(0, T) sums over the trajectory:

      num = ||v||_{L2t H2p} + ||dv/dt||_{L2t L2} + ||grad q||_{L2t L2}
            + ||q|_SF||_{L2t L2(SF)}
      den = ||f||_{L2t L2}

    Args:
        fields, pressures, forcings: aligned lists over the time grid,
        starting at t = 0, all on ws.config; forcings may be None for
        homogeneous runs. The k steps of dt must reach t_final to the
        tolerance evolve accepts (ValueError otherwise).

    Returns:
        dict {ratio, surrogate_terms, T, dt}; ratio is 0.0 when the
        forcing vanishes.
    """
    k_steps = len(fields) - 1
    if k_steps < 1:
        raise ValueError("estimate_report needs at least one step")
    if len(pressures) != len(fields):
        raise ValueError("pressures must align with fields")
    if forcings is not None and len(forcings) != len(fields):
        raise ValueError("forcings must align with fields")
    if _off_grid(k_steps, dt, t_final):
        raise ValueError(
            "estimate_report: t_final=%g is not the %d steps of dt=%g" % (t_final, k_steps, dt)
        )
    for role, items in (("field", fields), ("pressure", pressures), ("forcing", forcings or ())):
        for item in items:
            _require_config(ws, item, "estimate_report: " + role)
    s_h2 = 0.0
    s_dv = 0.0
    s_gq = 0.0
    s_qt = 0.0
    s_f = 0.0
    for k in range(1, k_steps + 1):
        v = fields[k]
        q = pressures[k]
        s_h2 += dt * inner_product_Hkp(v, v, 2).real
        s_dv += dt * (norm_L2(v - fields[k - 1]) / dt) ** 2
        s_gq += dt * norm_L2(grad(q)) ** 2
        s_qt += dt * trace_norm_L2(trace_SF(q)) ** 2
        if forcings is not None:
            s_f += dt * norm_L2(forcings[k]) ** 2
    terms = {
        "l2t_h2p_velocity": math.sqrt(max(s_h2, 0.0)),
        "l2t_l2_velocity_increment": math.sqrt(s_dv),
        "l2t_l2_grad_pressure": math.sqrt(s_gq),
        "l2t_l2sf_pressure_trace": math.sqrt(s_qt),
        "l2t_l2_forcing": math.sqrt(s_f),
        "definition": (
            "right-endpoint discrete L2-in-time sums over the trajectory; "
            "surrogate for the continuous-time maximal regularity quotient"
        ),
    }
    denom = terms["l2t_l2_forcing"]
    if denom == 0.0:
        ratio = 0.0
    else:
        ratio = (
            terms["l2t_h2p_velocity"]
            + terms["l2t_l2_velocity_increment"]
            + terms["l2t_l2_grad_pressure"]
            + terms["l2t_l2sf_pressure_trace"]
        ) / denom
    return {
        "ratio": ratio,
        "surrogate_terms": terms,
        "T": float(k_steps * dt),
        "dt": float(dt),
    }
