"""Linearized time evolution on the constrained subspaces.

Each axial mode evolves independently in its reduced coordinates: with
M and G its pencil blocks and f the reduced forcing functionals, the
Galerkin system is M c' + G c = f. Every mode is stored sector by sector
in the M-orthonormal eigenbasis of its pencil (see stokesop), where M = I
and G = diag(w) up to roundoff, so both schemes are scalar recurrences:

  implicit Euler   (1 + dt w) c' = c + dt f(t'),
  Crank-Nicolson   (1 + dt/2 w) c' = (1 - dt/2 w) c + dt (f(t) + f(t'))/2.

The eigenvalues w are real and nonnegative, so homogeneous energies are
monotone, and the mode-0 kernel is deflated exactly in the eigenbasis, so
constant states persist to roundoff. Energies are sum |c|^2 and
sum w |c|^2. The per-step residual is measured against the per-sector M
and G blocks, so every step checks the eigenbasis instead of trusting it.

Negative modes step in mode-|n| coordinates, the ones reduce_slice and
expand_slice use: w is real, so the recurrences are those of mode |n|.
"""

import dataclasses
import math

import numpy as np

from .fields import VectorField, norm_L2, trace_norm_L2, trace_SF, zeros_vector
from .fields import grad, inner_product_Hkp
from .helmholtz import operator_Q, project_P
from .stokesop import expand_slice, mode_operator, project_constrained, reduce_slice

SCHEMES = ("implicit-euler", "crank-nicolson")


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

    coords of a mode n < 0 are mode-|n| coordinates, see reduce_slice.
    """

    fields: list
    trace: EnergyTrace
    final: VectorField
    coords: dict


def _field_from_coords(ws, coords):
    cfg = ws.config
    out = zeros_vector(cfg)
    for n, y in coords.items():
        out.coeffs[:, cfg.n_z + n] = expand_slice(ws, n, y)
    out.real_flag = False
    return out


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
    if abs(steps * dt - evo.t_final) > 1e-9 * max(evo.t_final, 1.0):
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
    eig = {a: op.eigen[0] for a, op in ops.items()}

    if evo.initial is None:
        c = {n: np.zeros(eig[abs(n)].size, dtype=complex) for n in modes}
    else:
        vnorm = norm_L2(evo.initial)
        proj, c = project_constrained(ws, evo.initial)
        if vnorm > 0.0:
            defect = norm_L2(evo.initial - proj) / vnorm
            if defect > 1e-8:
                warnings.append(
                    "initial state lies outside the constrained subspace "
                    "(relative defect %.3e); evolving its projection" % defect
                )

    def reduced_forcing(t):
        """Forcing functionals of every mode, or None."""
        if evo.forcing is None:
            return None
        f = evo.forcing(t)
        if not isinstance(f, VectorField):
            raise ValueError("forcing callable must return a VectorField")
        return {n: reduce_slice(ws, n, f.coeffs[:, cfg.n_z + n]) for n in modes}

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

    def energies(cur):
        l2 = sum(float(np.sum(np.abs(cur[n]) ** 2)) for n in modes)
        diss = sum(float(np.sum(eig[abs(n)] * np.abs(cur[n]) ** 2)) for n in modes)
        return l2, diss

    # implicit Euler evaluates G and f at the new time, Crank-Nicolson at
    # the midpoint
    theta = 1.0 if evo.scheme == "implicit-euler" else 0.5
    t_grid = dt * np.arange(steps + 1)
    l2_arr = np.zeros(steps + 1)
    diss_arr = np.zeros(steps + 1)
    res_arr = np.zeros(steps + 1)
    ident_res = np.zeros(steps) if evo.scheme == "crank-nicolson" else None
    ident_scale = np.zeros(steps) if evo.scheme == "crank-nicolson" else None

    l2_arr[0], diss_arr[0] = energies(c)
    fields = []
    if evo.store_trajectory:
        fields.append(_field_from_coords(ws, c))

    r_prev = reduced_forcing(0.0)
    for k in range(steps):
        r_next = reduced_forcing(dt * (k + 1))
        c_new = {}
        defect_sq = 0.0
        scale_sq = 0.0
        fp_mid = 0.0
        diss_mid = 0.0
        for n in modes:
            w = eig[abs(n)]
            op = ops[abs(n)]
            b = (1.0 - (1.0 - theta) * dt * w) * c[n]
            if r_next is not None:
                r_eval = theta * r_next[n] + (1.0 - theta) * r_prev[n]
                b += dt * r_eval
            c_new[n] = b / (1.0 + theta * dt * w)
            c_eval = theta * c_new[n] + (1.0 - theta) * c[n]
            dc = op.apply("M", (c_new[n] - c[n]) / dt)
            ge = op.apply("G", c_eval)
            d = dc + ge
            s = np.linalg.norm(dc) + np.linalg.norm(ge)
            if r_next is not None:
                d -= r_eval
                s += np.linalg.norm(r_eval)
                fp_mid += float(np.real(np.vdot(c_eval, r_eval)))
            defect_sq += float(np.linalg.norm(d) ** 2)
            scale_sq += float(s * s)
            diss_mid += float(np.sum(w * np.abs(c_eval) ** 2))
        l2_new, diss_new = energies(c_new)
        l2_arr[k + 1] = l2_new
        diss_arr[k + 1] = diss_new
        res_arr[k + 1] = (
            math.sqrt(defect_sq) / math.sqrt(scale_sq) if scale_sq > 0.0 else 0.0
        )
        if evo.scheme == "crank-nicolson":
            lhs = (l2_new - l2_arr[k]) / dt
            rhs = -2.0 * diss_mid + 2.0 * fp_mid
            ident_res[k] = abs(lhs - rhs)
            ident_scale[k] = abs(lhs) + 2.0 * abs(diss_mid) + 2.0 * abs(fp_mid) + 1e-300
        c = c_new
        r_prev = r_next
        if evo.store_trajectory:
            fields.append(_field_from_coords(ws, c))

    final = fields[-1] if fields else _field_from_coords(ws, c)
    trace = EnergyTrace(
        t=t_grid,
        l2_norm_sq=l2_arr,
        dissipation=diss_arr,
        residual=res_arr,
        warnings=warnings,
        identity_residual=ident_res,
        identity_scale=ident_scale,
    )
    return EvolutionResult(fields=fields, trace=trace, final=final, coords=c)


def recover_pressure(ws, v, f=None):
    """Pressure field of a trajectory snapshot, one solve per axial slice.

    q = Q v plus, when a forcing snapshot f is given, the zero-trace
    potential solving laplacian(phi) = div(f); see helmholtz.operator_Q.
    """
    return operator_Q(ws, v, f)


def energy_csv_rows(trace):
    """Rows (t, l2_norm_sq, dissipation, residual) for energy.csv."""
    rows = []
    for k in range(trace.t.size):
        rows.append(
            (
                float(trace.t[k]),
                float(trace.l2_norm_sq[k]),
                float(trace.dissipation[k]),
                float(trace.residual[k]),
            )
        )
    return rows


def write_energy_csv(path, trace):
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["t", "l2_norm_sq", "dissipation", "residual"])
        for row in energy_csv_rows(trace):
            w.writerow([repr(x) for x in row])


def estimate_report(ws, fields, pressures, forcings, dt, t_final):
    """Surrogate maximal-regularity ratio of a computed trajectory.

    The continuous-time norms are replaced by right-endpoint discrete
    L^2(0, T) sums over the trajectory:

      num = ||v||_{L2t H2p} + ||dv/dt||_{L2t L2} + ||grad q||_{L2t L2}
            + ||q|_SF||_{L2t L2(SF)}
      den = ||f||_{L2t L2}

    Args:
        fields, pressures, forcings: aligned lists over the time grid,
        starting at t = 0; forcings may be None for homogeneous runs.

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
    s_h2 = 0.0
    s_dv = 0.0
    s_gq = 0.0
    s_qt = 0.0
    s_f = 0.0
    for k in range(1, k_steps + 1):
        v = fields[k]
        q = pressures[k]
        s_h2 += dt * inner_product_Hkp(v, v, 2).real
        s_dv += dt * (norm_L2(fields[k] - fields[k - 1]) / dt) ** 2
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
