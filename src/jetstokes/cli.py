"""Command line front end.

Subcommands: solve-mode, project, spectrum, resolvent-sweep, evolve,
verify-all. Every command reads a JSON run configuration (or the
defaults), honors --seed and --out overrides, and writes its outputs
into the output directory. Configuration problems exit with status 2,
runtime failures with 1.
"""

import argparse
import dataclasses
import math
import pathlib
import sys

from .config import ConfigError, default_run_config, load_run_config
from .evolution import EvolutionConfig, estimate_report, evolve, recover_pressure, write_energy_csv
from .fieldio import read_field, write_field, write_json, write_matrix
from .fields import ScalarField, VectorField, constant_vector
from .fields import random_smooth_vector, scalar_from_profile
from .helmholtz import project_P
from .modesolve import dirichlet_residual, solve_mode_dirichlet
from .rng import stream
from .spectral import (
    eigensolve,
    kernel_dimension,
    resolvent_sweep,
    write_eigenvalues_csv,
    write_resolvent_csv,
)
from .stokesop import mode_operator, random_constrained_vector
from .verify import run_all
from .workspace import Workspace

import numpy as np


def _outdir(run):
    path = pathlib.Path(run.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _require_same_grid(cfg, field, command):
    f = field.config
    ours = (cfg.kappa, cfg.ell, cfg.n_r, cfg.n_theta, cfg.n_z)
    theirs = (f.kappa, f.ell, f.n_r, f.n_theta, f.n_z)
    if ours != theirs:
        raise ConfigError(
            "%s: field grid %s does not match the configured domain %s"
            % (command, theirs, ours)
        )


def cmd_solve_mode(run):
    cfg = run.domain
    blk = run.solve_mode
    ws = Workspace(cfg)
    if abs(blk.n) > cfg.n_z:
        raise ConfigError(
            "solve_mode: mode %d outside the resolved range |n| <= %d"
            % (blk.n, cfg.n_z)
        )
    if blk.forcing == "constant":
        f = scalar_from_profile(
            cfg, blk.n, 0, blk.amplitude * np.ones(cfg.n_r)
        )
    else:
        f = read_field(blk.path, mu=cfg.mu)
        if not isinstance(f, ScalarField):
            raise ConfigError("solve_mode: forcing file must hold a scalar field")
        _require_same_grid(cfg, f, "solve_mode")
    u = solve_mode_dirichlet(ws, blk.n, f)
    out = _outdir(run)
    write_field(out / "mode_solution.json", u)
    res = dirichlet_residual(ws, blk.n, f, u)
    print("solve-mode: mode %d, collocation residual %.3e" % (blk.n, res))
    print("solve-mode: wrote %s" % (out / "mode_solution.json"))
    return 0


def cmd_project(run):
    cfg = run.domain
    blk = run.project
    ws = Workspace(cfg)
    if blk.source == "random":
        u = random_smooth_vector(cfg, stream(run.seed, "project-input"))
    else:
        u = read_field(blk.source, mu=cfg.mu)
        if not isinstance(u, VectorField):
            raise ConfigError("project: source file must hold a vector field")
        _require_same_grid(cfg, u, "project")
    d = project_P(ws, u)
    out = _outdir(run)
    write_field(out / "solenoidal.json", d.solenoidal)
    write_field(out / "potential.json", d.potential)
    print("project: decomposition residual %.3e" % d.residual)
    print("project: wrote %s and %s" % (out / "solenoidal.json", out / "potential.json"))
    return 0


def cmd_spectrum(run):
    cfg = run.domain
    blk = run.spectrum
    ws = Workspace(cfg)
    modes = tuple(blk.modes) if blk.modes else tuple(range(cfg.n_z + 1))
    for n in modes:
        if not 0 <= n <= cfg.n_z:
            raise ConfigError(
                "spectrum: mode %d outside 0..%d (negative modes mirror"
                " their positive counterparts)" % (n, cfg.n_z)
            )
    entries = []
    for n in modes:
        entries.extend(eigensolve(ws, n, blk.count))
    out = _outdir(run)
    write_eigenvalues_csv(out / "eigenvalues.csv", entries)
    print("spectrum: %d eigenvalues over modes %s" % (len(entries), list(modes)))
    if 0 in modes:
        print("spectrum: kernel dimension %d" % kernel_dimension(ws))
    if blk.export_blocks:
        for n in modes:
            op = mode_operator(ws, n)
            for tag, mat in (("A", op.A_block), ("M", op.M_block), ("G", op.G_block)):
                write_matrix(out / ("mode_%d_%s.json" % (n, tag)), mat)
        print("spectrum: exported operator blocks for modes %s" % list(modes))
    print("spectrum: wrote %s" % (out / "eigenvalues.csv"))
    return 0


def cmd_resolvent_sweep(run):
    cfg = run.domain
    ws = Workspace(cfg)
    grid = run.resolvent.grid()
    samples = resolvent_sweep(ws, grid, stream(run.seed, "sweep-rhs"))
    out = _outdir(run)
    write_resolvent_csv(out / "resolvent_sweep.csv", samples)
    bad = sum(1 for s in samples if not s.bound_ok)
    print(
        "resolvent-sweep: %d spectral parameters, %d bound violations"
        % (len(samples), bad)
    )
    print("resolvent-sweep: wrote %s" % (out / "resolvent_sweep.csv"))
    return 0


def cmd_evolve(run):
    cfg = run.domain
    blk = run.evolve
    ws = Workspace(cfg)
    if blk.initial == "zero":
        initial = None
    elif blk.initial == "constant":
        initial = constant_vector(cfg, (1.0, 0.0, 0.0))
    else:
        initial = random_constrained_vector(ws, stream(run.seed, "evolution-initial"))
    forcing = None
    if blk.forcing == "sinusoidal":
        profile = random_smooth_vector(cfg, stream(run.seed, "evolution-forcing"))
        amp, omega = blk.amplitude, blk.omega

        def forcing(t):
            return profile * (amp * math.sin(omega * t))

    evo = EvolutionConfig(
        t_final=blk.t_final,
        dt=blk.dt,
        scheme=blk.scheme,
        forcing=forcing,
        initial=initial,
        # the snapshots and the estimate are the only readers of the fields
        store_trajectory=forcing is not None or blk.snapshot_stride > 0,
    )
    res = evolve(ws, evo)
    out = _outdir(run)
    write_energy_csv(out / "energy.csv", res.trace)
    for w in res.trace.warnings:
        print("evolve: warning: %s" % w)
    if blk.snapshot_stride > 0:
        count = 0
        for k in range(0, len(res.fields), blk.snapshot_stride):
            write_field(out / ("snapshot_%05d.json" % k), res.fields[k])
            count += 1
        print("evolve: wrote %d snapshots" % count)
    if forcing is not None:
        t_grid = res.trace.t
        forcings = [forcing(float(t)) for t in t_grid]
        pressures = [recover_pressure(ws, v, f) for v, f in zip(res.fields, forcings)]
        rep = estimate_report(
            ws, res.fields, pressures, forcings, blk.dt, float(t_grid[-1])
        )
        write_json(out / "estimate.json", rep)
        print("evolve: estimate ratio %.6g" % rep["ratio"])
    print(
        "evolve: %d steps, final energy %.6e, wrote %s"
        % (res.trace.t.size - 1, res.trace.l2_norm_sq[-1], out / "energy.csv")
    )
    return 0


def cmd_verify_all(run):
    records, ok = run_all(run.domain, run.seed, echo=True)
    out = _outdir(run)
    path = out / "verify_report.json"
    write_json(path, records)
    passed = sum(1 for r in records.values() if r["pass"])
    print("verify-all: %d/%d criteria pass, report at %s" % (passed, len(records), path))
    return 0 if ok else 1


_COMMANDS = {
    "solve-mode": cmd_solve_mode,
    "project": cmd_project,
    "spectrum": cmd_spectrum,
    "resolvent-sweep": cmd_resolvent_sweep,
    "evolve": cmd_evolve,
    "verify-all": cmd_verify_all,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="jetstokes",
        description="Spectral solver suite for viscous flow on a periodic"
        " liquid cylinder with a stress-free surface.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            run = load_run_config(args.config)
        else:
            run = default_run_config()
        if args.seed is not None:
            run = dataclasses.replace(run, seed=args.seed)
        if args.out is not None:
            run = dataclasses.replace(run, output_dir=args.out)
        return _COMMANDS[args.command](run)
    except ConfigError as exc:
        print("config: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("io: %s" % exc, file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
