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
sum w |c|^2. The per-step residual is measured against the packed M and
G stacks, so every step checks the eigenbasis instead of trusting it.

Only the recurrence itself runs step by step. Everything around it works
over the step axis in blocks of STEP_BLOCK steps: the forcing of a block is
reduced with one batched product per mode, and so are the M and G residual
products and the snapshot expansions; energies and the Crank-Nicolson
identity terms are summed per mode for the whole block. The forcing
callable is still called once per time point, in time order (after one
extra call at t = 0 for the hypothesis check).

Negative modes step in mode-|n| coordinates, the ones reduce_slice and
expand_slice use: w is real, so the recurrences are those of mode |n|.
"""

import dataclasses
import math

import numpy as np

from .fieldio import write_csv
from .fields import VectorField, norm_L2, trace_norm_L2, trace_SF, zeros_vector
from .fields import grad, inner_product_Hkp
from .helmholtz import _require_config, operator_Q, project_P
from .stokesop import expand_slice, mode_operator, packed_product, project_constrained, reduce_slice

SCHEMES = ("implicit-euler", "crank-nicolson")

# steps per block: the recurrence runs step by step, and the forcing
# reductions, residual products, energies and snapshot expansions run once
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

    coords are packed, zero on the padding (stokesop.ModeOperator); those
    of a mode n < 0 are mode-|n| coordinates, see reduce_slice.
    """

    fields: list
    trace: EnergyTrace
    final: VectorField
    coords: dict


def evolve(ws, evo):
    """Run the linearized evolution described by an EvolutionConfig.

    Returns:
        EvolutionResult. The trace warnings record a violated forcing
        hypothesis (the solenoidal part of f at t = 0 must vanish), an
        initial state outside the constrained subspace, and conditioning
        alerts; they never silence the run.
    """
    cfg = ws.config
    if evo.scheme not in SCHEMES:
        raise ValueError("unknown scheme %r; expected one of %s" % (evo.scheme, SCHEMES))
    if evo.dt <= 0.0:
        raise ValueError("dt must be positive")
    if evo.t_final < evo.dt:
        raise ValueError("t_final must be at least dt")
    steps = max(int(round(evo.t_final / evo.dt)), 1)
    dt = evo.dt
    warnings = []
    if _off_grid(steps, dt, evo.t_final):
        warnings.append(
            "horizon adjusted to %d steps of dt=%g (t_final=%g)"
            % (steps, dt, evo.t_final)
        )

    modes = list(range(-cfg.n_z, cfg.n_z + 1))
    ops = {a: mode_operator(ws, a) for a in range(cfg.n_z + 1)}
    # the eigenbasis deflates the mode-0 kernel columns, which is exact
    # only while G couples to them at roundoff level
    sectors = ops[0].sectors
    coupling = math.sqrt(sum(np.linalg.norm(s.G[: s.nk]) ** 2 for s in sectors))
    coupling /= max(math.sqrt(sum(np.linalg.norm(s.G) ** 2 for s in sectors)), 1e-300)
    if coupling > 1e-8:
        warnings.append("mode 0: dissipation form couples to the kernel (%.3e)" % coupling)
    # one state is a row holding every mode's coordinates; mode n owns span[n]
    edges = np.cumsum([0] + [ops[abs(n)].w.size for n in modes])
    span = {n: slice(edges[i], edges[i + 1]) for i, n in enumerate(modes)}
    w = np.concatenate([ops[abs(n)].w for n in modes])

    c = np.zeros((1, edges[-1]), dtype=complex)
    if evo.initial is not None:
        vnorm = norm_L2(evo.initial)
        proj, coords = project_constrained(ws, evo.initial)
        for n in modes:
            c[0, span[n]] = coords[n]
        if vnorm > 0.0:
            defect = norm_L2(evo.initial - proj) / vnorm
            if defect > 1e-8:
                warnings.append(
                    "initial state lies outside the constrained subspace "
                    "(relative defect %.3e); evolving its projection" % defect
                )

    if evo.forcing is not None:
        f0 = evo.forcing(0.0)
        if not isinstance(f0, VectorField):
            raise ValueError("forcing callable must return a VectorField")
        n0 = norm_L2(f0)
        if n0 > 0.0:
            sol_part = norm_L2(project_P(ws, f0).solenoidal) / n0
            if sol_part > 1e-8:
                warnings.append(
                    "forcing has a solenoidal part at t = 0 (relative %.3e); "
                    "the evolution hypothesis requires P f(0) = 0" % sol_part
                )

    def reduce_forcing(k, out):
        """Write the forcing functionals at time points k, k + 1, ... into out's rows."""
        stack = np.empty((len(out), 3, cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r), complex)
        for i in range(len(out)):
            f = evo.forcing(dt * (k + i))
            if not isinstance(f, VectorField):
                raise ValueError("forcing callable must return a VectorField")
            stack[i] = f.coeffs
        for n in modes:
            out[:, span[n]] = reduce_slice(ws, n, stack[:, :, cfg.n_z + n]).T

    def snapshots(x):
        """VectorFields of the states in the rows of x."""
        out = [zeros_vector(cfg) for _ in x]
        for n in modes:
            for f, v in zip(out, expand_slice(ws, n, x[:, span[n]].T)):
                f.coeffs[:, cfg.n_z + n] = v
        for f in out:
            f.real_flag = False
        return out

    # implicit Euler evaluates G and f at the new time, Crank-Nicolson at
    # the midpoint
    theta = 1.0 if evo.scheme == "implicit-euler" else 0.5
    keep = 1.0 - (1.0 - theta) * dt * w
    denom = 1.0 + theta * dt * w
    t_grid = dt * np.arange(steps + 1)
    l2_arr = np.zeros(steps + 1)
    diss_arr = np.zeros(steps + 1)
    res_arr = np.zeros(steps + 1)
    ident_res = np.zeros(steps) if evo.scheme == "crank-nicolson" else None
    ident_scale = np.zeros(steps) if evo.scheme == "crank-nicolson" else None

    fields = []
    r = None
    for k0 in range(0, steps, STEP_BLOCK):
        k1 = min(k0 + STEP_BLOCK, steps)
        # rows of x and r are the time points k0..k1; row 0 carries over,
        # except in the first block, where it is t = 0 itself
        first = 1 if k0 else 0
        x = np.empty((k1 - k0 + 1, c.shape[1]), dtype=complex)
        x[0] = c[-1]
        if evo.forcing is not None:
            r_block = np.empty_like(x)
            if k0:
                r_block[0] = r[-1]
            r = r_block
            reduce_forcing(k0 + first, r[first:])
        for i in range(k1 - k0):
            b = keep * x[i]
            if r is not None:
                b += dt * (theta * r[i + 1] + (1.0 - theta) * r[i])
            x[i + 1] = b / denom
        c = x

        # per mode: residuals against the M and G blocks, energies and the
        # midpoint terms of the Crank-Nicolson identity, for every step
        rows = k1 - k0
        defect_sq, scale_sq = np.zeros(rows), np.zeros(rows)
        diss_mid, fp_mid = np.zeros(rows), np.zeros(rows)
        l2, diss = np.zeros(rows + 1 - first), np.zeros(rows + 1 - first)
        for n in modes:
            op, wn, xn = ops[abs(n)], w[span[n]], x[:, span[n]]
            c_eval = theta * xn[1:] + (1.0 - theta) * xn[:-1]
            dc = packed_product(op.M, ((xn[1:] - xn[:-1]) / dt).T)
            ge = packed_product(op.G, c_eval.T)
            d = dc + ge
            s = np.linalg.norm(dc, axis=0) + np.linalg.norm(ge, axis=0)
            if r is not None:
                r_eval = theta * r[1:, span[n]] + (1.0 - theta) * r[:-1, span[n]]
                d -= r_eval.T
                s += np.linalg.norm(r_eval, axis=1)
                fp_mid += np.sum(np.real(np.conj(c_eval) * r_eval), axis=1)
            defect_sq += np.linalg.norm(d, axis=0) ** 2
            scale_sq += s * s
            diss_mid += np.sum(wn * np.abs(c_eval) ** 2, axis=1)
            power = np.abs(xn[first:]) ** 2
            l2 += np.sum(power, axis=1)
            diss += np.sum(wn * power, axis=1)
        l2_arr[k0 + first : k1 + 1] = l2
        diss_arr[k0 + first : k1 + 1] = diss
        scaled = scale_sq > 0.0
        res_arr[k0 + 1 : k1 + 1][scaled] = np.sqrt(defect_sq[scaled]) / np.sqrt(scale_sq[scaled])
        if evo.scheme == "crank-nicolson":
            lhs = np.diff(l2_arr[k0 : k1 + 1]) / dt
            rhs = -2.0 * diss_mid + 2.0 * fp_mid
            ident_res[k0:k1] = np.abs(lhs - rhs)
            ident_scale[k0:k1] = (
                np.abs(lhs) + 2.0 * np.abs(diss_mid) + 2.0 * np.abs(fp_mid) + 1e-300
            )
        if evo.store_trajectory:
            fields += snapshots(x[first:])

    final = fields[-1] if fields else snapshots(c[-1:])[0]
    trace = EnergyTrace(
        t=t_grid,
        l2_norm_sq=l2_arr,
        dissipation=diss_arr,
        residual=res_arr,
        warnings=warnings,
        identity_residual=ident_res,
        identity_scale=ident_scale,
    )
    coords = {n: c[-1, span[n]].copy() for n in modes}
    return EvolutionResult(fields=fields, trace=trace, final=final, coords=coords)


def recover_pressure(ws, v, f=None):
    """Pressure field of a trajectory snapshot, one Dirichlet solve per |n|.

    q = Q v plus, when a forcing snapshot f is given, the zero-trace
    potential solving laplacian(phi) = div(f); see helmholtz.operator_Q.
    Both fields must be on ws.config (ValueError otherwise).
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
