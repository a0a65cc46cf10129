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
(stokesop.FieldOperator), over ||dc/dt|| + ||w c_eval|| + ||f||.

The state and w are field coordinate arrays (n_z + 1, dim, sides) (see
stokesop.reduce_slice), and the run goes in blocks of STEP_BLOCK steps.
A block's forcing is reduced, and its snapshots expanded, in one call
each, one pass over every mode and side of the whole block; the reduced
block is copied once into the state's (time, mode, coordinate, side)
order. Each step runs the recurrence alone, a few whole-array
operations, and keeps its forcing term at the evaluation point in the
block's forcing array, in place of the time point it no longer needs.
The bookkeeping follows once per block (_block_terms), from the block's
states and those forcing terms: the energies of every point, each step's
residual bound and its per-mode scale, and the Crank-Nicolson midpoint
terms. Each is a per-(mode, side) sum over the coordinates of the
squares of a block array, weighed by 1, w, w^2, eps_M^2 or eps_G^2 (the
cached read-only arrays of stokesop.field_operator). The forcing
callable is called once per time point, in time order (after one extra
call at t = 0 for the hypothesis check). w is real, so the recurrence
is the same on both signs of n.

A real run carries one side. When the initial state (if any) and the
forcing at t = 0 are flagged real (fields.real_flag), the state holds
side 0 only (sides = 1): side 1 of a real field repeats it, so the steps,
reductions and expansions touch modes n >= 0 only, the energies, the
midpoint forcing term and the residual terms count each |n| > 0 twice,
and the snapshots are flagged real. The decision reads the flags, never
the data. A real initial state is projected on side 0 only. A complex
f(0), or a later forcing value flagged complex, widens the state to two
sides (from its block on), side 1 a copy of side 0 (_two_sided), which is
exact for a real state; its blocks are then weighed at two sides.
EvolutionResult.coords is always two-sided.
"""

import dataclasses
import math

import numpy as np

from .config import SCHEMES
from .fieldio import write_csv
from .fields import VectorField, _field, _require_config, inner_product_Hkp, norm_L2
from .fields import _grad_norm_sq, _norms_and_increments
from .fields import trace_norm_L2, trace_SF
from .helmholtz import operator_Q, project_P
from .stokesop import (
    expand_slice,
    field_operator,
    mode_operator,
    project_constrained,
    reduce_slice,
)

# theta per scheme: implicit Euler evaluates G and f at the new time,
# Crank-Nicolson at the midpoint
_THETA = dict(zip(SCHEMES, (1.0, 0.5)))

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


def _block_terms(x, r_eval, theta, dt, fop):
    """The bookkeeping of one block of steps from its states x (points, n_z + 1, dim, sides).

    r_eval (steps, n_z + 1, dim, sides) holds each step's forcing term at
    its evaluation point, or is None for a homogeneous run; it is
    overwritten. theta is 1 or 1/2 and fop is the stokesop.FieldOperator
    whose w, eps_M and eps_G weigh the terms, taken at the width of x, so
    a block that widened is weighed on both sides.

    Returns (energies, residual, diss_mid, fp_mid): energies (2, points)
    are sum mult |c|^2 and sum mult w |c|^2 at every point of x; the rest
    are per step. residual is the bound ||eps_M dc/dt|| + ||eps_G c_eval||
    per mode over the scale ||dc/dt|| + ||w c_eval|| + ||f||, summed over
    modes in squares (0 where the scale vanishes); diss_mid and fp_mid
    are sum mult w |c_eval|^2 and Re sum mult conj(c_eval) f. Each term
    is a per-(mode, side) sum over the coordinates of |x|^2, |dc|^2,
    |f|^2, |c_eval|^2 or Re conj(c_eval) f, weighed by 1, w, w^2, eps_M^2
    or eps_G^2; one buffer holds the squares in turn.
    """
    steps, sides = x.shape[0] - 1, x.shape[-1]
    # the weights (n_z + 1, sides, dim), their coordinate axis last
    w, eps_m, eps_g = (np.swapaxes(a, 1, 2) for a in (fop.w[:, :, :sides], fop.eps_M, fop.eps_G))
    mult = _side_weights(x.shape[1] - 1, sides)[:, 0]

    def sums(sq, *weights):
        """Sums (weights, rows, n_z + 1, sides) of weight * sq (rows, n_z + 1, dim, sides, 2)."""
        stack = np.stack([np.broadcast_to(v, w.shape) for v in weights], axis=2)
        return np.moveaxis(np.matmul(stack, np.swapaxes(sq, 2, 3)).sum(axis=-1), -1, 0)

    def total(s):
        return np.sum(mult * s, axis=(-2, -1))

    xf = x.view(float).reshape(x.shape + (2,))
    buf = np.empty_like(xf)
    energies = total(sums(np.square(xf, out=buf), 1.0, w))
    sq = buf[:steps]
    dc_sq, dc_m = sums(np.square(np.subtract(xf[1:], xf[:-1], out=sq), out=sq), 1.0, eps_m**2)
    scale = np.sqrt(dc_sq) / dt
    bound = np.sqrt(dc_m) / dt
    fp_mid = np.zeros(steps)
    if r_eval is not None:
        rf = r_eval.view(float).reshape(r_eval.shape + (2,))
        scale += np.sqrt(sums(np.square(rf, out=sq), 1.0)[0])
    # c_eval = theta x[1:] + (1 - theta) x[:-1]
    np.multiply(xf[:-1], (1.0 - theta) / theta, out=sq)
    sq += xf[1:]
    sq *= theta
    if r_eval is not None:
        fp_mid = total(sums(np.multiply(rf, sq, out=rf), 1.0)[0])
    ce_w, ce_w2, ce_g = sums(np.square(sq, out=sq), w, w * w, eps_g**2)
    scale += np.sqrt(ce_w2)
    bound += np.sqrt(ce_g)
    scale_sq, bound_sq = total(scale * scale), total(bound * bound)
    residual = np.sqrt(np.divide(bound_sq, scale_sq, out=np.zeros(steps), where=scale_sq > 0.0))
    return energies, residual, total(ce_w), fp_mid


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

    fop = field_operator(ws)
    # the eigenbasis deflates the mode-0 kernel columns, which is exact
    # only while G couples to them at roundoff level
    coupling = max(info["kernel_coupling"] for info in mode_operator(ws, 0).info)
    if coupling > 1e-8:
        warnings.append("mode 0: dissipation form couples to the kernel (%.3e)" % coupling)

    f0 = None if evo.forcing is None else _forcing_value(ws, evo.forcing, 0.0)
    sides = 1 if all(x is None or x.real_flag for x in (evo.initial, f0)) else 2

    # a state is one field coordinate array
    c = np.zeros(fop.w.shape[:2] + (sides,), dtype=complex)
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

    theta = _THETA[evo.scheme]
    t_grid = dt * np.arange(steps + 1)
    l2_arr = np.zeros(steps + 1)
    diss_arr = np.zeros(steps + 1)
    res_arr = np.zeros(steps + 1)
    diss_mid = np.zeros(steps)
    fp_mid = np.zeros(steps)

    def factors(sides):
        """The step factors at a state width."""
        w = np.ascontiguousarray(fop.w[:, :, :sides])
        return 1.0 - (1.0 - theta) * dt * w, 1.0 + theta * dt * w

    keep, denom = factors(sides)
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
                keep, denom = factors(sides)
            new = reduce_slice(ws, stack, real=sides == 1)
            new = np.ascontiguousarray(np.moveaxis(new, -1, 0))
            # freed before the block's snapshots are expanded, which reuse its memory
            del stack
            r = np.concatenate([r[-1:], new]) if k0 else new
            del new
        x = np.empty((k1 - k0 + 1,) + c.shape, dtype=complex)
        x[0] = c
        for i in range(k1 - k0):
            c_new = keep * c
            if r is not None:
                # the step's forcing term at its evaluation point, kept in
                # r[i] for _block_terms; r[i + 1] is still the time point's
                r[i] = theta * r[i + 1] + (1.0 - theta) * r[i]
                c_new += dt * r[i]
            c_new /= denom
            x[i + 1] = c_new
            c = c_new
        energies, res_arr[k0 + 1 : k1 + 1], diss_mid[k0:k1], fp_mid[k0:k1] = _block_terms(
            x, None if r is None else r[:-1], theta, dt, fop
        )
        # the block's first point carries over, except at t = 0
        l2_arr[k0 + first : k1 + 1], diss_arr[k0 + first : k1 + 1] = energies[:, first:]
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

    Each term is a sum over the snapshots k >= 1 of dt times:
      - (v_k, v_k)_{H^2_p}, from one pass of v_k through the H^2 word
        stacks (fields._norms_and_increments);
      - ||v_k - v_(k-1)||^2 / dt^2, from the difference of the order-0
        outputs of those passes, reweighted per slice from the H^2 to the
        L^2 weight; no difference field is formed;
      - ||grad q_k||^2, from q_k's order-0 and order-1 word outputs on the
        channels grad keeps (fields._grad_norm_sq); no gradient is formed;
      - the L^2(S_F) norm of the trace of q_k squared;
      - (f_k, f_k)_{L^2}.
    The passes read the slices n >= 0 only when every snapshot is flagged
    real, and all slices otherwise, so the increments of a run that
    widened compare outputs of the same weights. One snapshot's outputs
    are held at a time, besides those of the pass in progress.

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
    for k, (h2, increment) in enumerate(_norms_and_increments(fields, 2), 1):
        q = pressures[k]
        s_h2 += dt * h2
        s_dv += increment / dt
        s_gq += dt * _grad_norm_sq(q)
        s_qt += dt * trace_norm_L2(trace_SF(q)) ** 2
        if forcings is not None:
            s_f += dt * inner_product_Hkp(forcings[k], forcings[k]).real
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
