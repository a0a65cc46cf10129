"""Domain and run configuration.

A run is described by one declarative JSON document. Unknown keys anywhere in
the document are rejected, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import json
import math

# the time-stepping schemes of evolution.evolve
SCHEMES = ("implicit-euler", "crank-nicolson")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


def _check_int(value, name):
    # JSON numbers like 12.5 or 1.0 and booleans are not integers here
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s must be an integer, got %r" % (name, value))


def _check_float(value, name):
    # json.load accepts NaN and Infinity; neither is a usable setting
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError("%s must be a finite number, got %r" % (name, value))


def _check_str(value, name):
    if not isinstance(value, str):
        raise ConfigError("%s must be a string, got %r" % (name, value))


def _check_bool(value, name):
    # 0 and 1 are not booleans here, and neither is the string "no"
    if not isinstance(value, bool):
        raise ConfigError("%s must be true or false, got %r" % (name, value))


@dataclasses.dataclass(frozen=True)
class DomainConfig:
    """Discretization of the periodic cylinder {r < kappa} x (0, ell).

    The disk Gram is exact, in closed form from the Zernike profiles (see
    discretization.RadialTables), and the residual bound of the Dirichlet
    solves is the constant modesolve.SOLVER_TOL; neither is a setting.

    Attributes:
        kappa: free-surface radius, 0 < kappa < 1 (larger radii unsupported).
        ell: axial period.
        mu: viscosity.
        n_r: radial grid size per azimuthal mode (half of the diameter grid).
        n_theta: azimuthal cutoff, modes m = -n_theta..n_theta are stored.
        n_z: axial cutoff, modes n = -n_z..n_z are stored.
    """

    kappa: float = 0.5
    ell: float = 2.0 * math.pi
    mu: float = 1.0
    n_r: int = 32
    n_theta: int = 8
    n_z: int = 8

    def __post_init__(self):
        for name in ("kappa", "ell", "mu"):
            _check_float(getattr(self, name), "domain." + name)
        for name in ("n_r", "n_theta", "n_z"):
            _check_int(getattr(self, name), "domain." + name)
        if not (0.0 < self.kappa < 1.0):
            raise ConfigError(
                "domain.kappa must lie in (0, 1); radii >= 1 are not supported"
            )
        if self.ell <= 0.0:
            raise ConfigError("domain.ell must be positive")
        if self.mu <= 0.0:
            raise ConfigError("domain.mu must be positive")
        if self.n_r < 4:
            raise ConfigError("domain.n_r must be at least 4")
        if self.n_theta < 2:
            raise ConfigError(
                "domain.n_theta must be at least 2: sectors j = +-1 must be complete "
                "to hold the mode-0 kernel fields e1 +- i e2"
            )
        if self.n_z < 0:
            raise ConfigError("domain.n_z must be nonnegative")

    def beta(self, n):
        """Axial wavenumber 2*pi*n/ell of mode n."""
        return 2.0 * math.pi * n / self.ell

    @property
    def n_modes_theta(self):
        return 2 * self.n_theta + 1

    @property
    def n_modes_z(self):
        return 2 * self.n_z + 1


@dataclasses.dataclass(frozen=True)
class SolveModeBlock:
    """Settings for the per-mode Dirichlet solve command."""

    n: int = 1
    forcing: str = "constant"
    amplitude: float = 1.0
    path: str = ""

    def __post_init__(self):
        _check_int(self.n, "solve_mode.n")
        _check_float(self.amplitude, "solve_mode.amplitude")
        for name in ("forcing", "path"):
            _check_str(getattr(self, name), "solve_mode." + name)
        if self.forcing not in ("constant", "file"):
            raise ConfigError("solve_mode.forcing must be 'constant' or 'file'")
        if self.forcing == "file" and not self.path:
            raise ConfigError("solve_mode.path is required when forcing is 'file'")


@dataclasses.dataclass(frozen=True)
class ProjectBlock:
    """Settings for the Helmholtz projection command."""

    source: str = "random"

    def __post_init__(self):
        _check_str(self.source, "project.source")
        if not self.source:
            raise ConfigError("project.source must be 'random' or a field file path")


@dataclasses.dataclass(frozen=True)
class SpectrumBlock:
    """Settings for the eigenvalue command."""

    modes: tuple = ()
    count: int = 20
    export_blocks: bool = False

    def __post_init__(self):
        _check_int(self.count, "spectrum.count")
        _check_bool(self.export_blocks, "spectrum.export_blocks")
        if self.count < 1:
            raise ConfigError("spectrum.count must be at least 1")
        for n in self.modes:
            _check_int(n, "spectrum.modes entry")


@dataclasses.dataclass(frozen=True)
class ResolventBlock:
    """Settings for the resolvent sweep command.

    The sweep grid is {t * (re + i*im) : (re, im) in rays, t in magnitudes}.
    Points closer to the origin than epsilon are rejected at load time.
    """

    rays: tuple = ((0.0, 1.0), (-1.0, 2.0))
    magnitudes: tuple = (1.0, 2.0, 4.0, 8.0)
    epsilon: float = 0.5

    def __post_init__(self):
        _check_float(self.epsilon, "resolvent.epsilon")
        if self.epsilon <= 0.0:
            raise ConfigError("resolvent.epsilon must be positive")
        if not self.rays or not self.magnitudes:
            raise ConfigError("resolvent.rays and resolvent.magnitudes must be nonempty")
        for ray in self.rays:
            if len(ray) != 2:
                raise ConfigError("resolvent.rays entries must be [re, im] pairs")
            for x in ray:
                _check_float(x, "resolvent.rays entry")
            re, im = float(ray[0]), float(ray[1])
            if re > 0.0 or (re == 0.0 and im == 0.0):
                raise ConfigError(
                    "resolvent.rays must point into {Re <= 0} and away from the origin"
                )
            if abs(im) <= abs(re):
                raise ConfigError(
                    "resolvent.rays must satisfy |im| > |re| (sector of the form bound)"
                )
        for t in self.magnitudes:
            _check_float(t, "resolvent.magnitudes entry")
            if t <= 0.0:
                raise ConfigError("resolvent.magnitudes must be positive")
        lo = min(
            t * math.hypot(float(r[0]), float(r[1]))
            for t in self.magnitudes
            for r in self.rays
        )
        if lo < self.epsilon:
            raise ConfigError(
                "resolvent grid reaches |lambda| = %g below epsilon = %g"
                % (lo, self.epsilon)
            )

    def grid(self):
        """Sweep points, ray-major then magnitude-ascending."""
        pts = []
        for re, im in self.rays:
            for t in sorted(self.magnitudes):
                pts.append(complex(t * re, t * im))
        return pts


@dataclasses.dataclass(frozen=True)
class EvolveBlock:
    """Settings for the time-evolution command."""

    t_final: float = 1.0
    dt: float = 0.01
    scheme: str = "crank-nicolson"
    forcing: str = "sinusoidal"
    amplitude: float = 1.0
    omega: float = 1.0
    initial: str = "zero"
    snapshot_stride: int = 0

    def __post_init__(self):
        for name in ("t_final", "dt", "amplitude", "omega"):
            _check_float(getattr(self, name), "evolve." + name)
        for name in ("scheme", "forcing", "initial"):
            _check_str(getattr(self, name), "evolve." + name)
        if self.scheme not in SCHEMES:
            raise ConfigError(
                "evolve.scheme must be 'implicit-euler' or 'crank-nicolson'"
            )
        if self.forcing not in ("none", "sinusoidal"):
            raise ConfigError("evolve.forcing must be 'none' or 'sinusoidal'")
        if self.initial not in ("zero", "constant", "random"):
            raise ConfigError("evolve.initial must be 'zero', 'constant' or 'random'")
        if self.dt <= 0.0:
            raise ConfigError("evolve.dt must be positive")
        if self.t_final < self.dt:
            raise ConfigError("evolve.t_final must be at least dt")
        _check_int(self.snapshot_stride, "evolve.snapshot_stride")
        if self.snapshot_stride < 0:
            raise ConfigError("evolve.snapshot_stride must be nonnegative")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Complete declarative description of one run."""

    domain: DomainConfig = dataclasses.field(default_factory=DomainConfig)
    seed: int = 0
    output_dir: str = "runs"
    solve_mode: SolveModeBlock = dataclasses.field(default_factory=SolveModeBlock)
    project: ProjectBlock = dataclasses.field(default_factory=ProjectBlock)
    spectrum: SpectrumBlock = dataclasses.field(default_factory=SpectrumBlock)
    resolvent: ResolventBlock = dataclasses.field(default_factory=ResolventBlock)
    evolve: EvolveBlock = dataclasses.field(default_factory=EvolveBlock)

    def __post_init__(self):
        _check_int(self.seed, "seed")
        _check_str(self.output_dir, "output_dir")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")


_NESTED = {
    "domain": DomainConfig,
    "solve_mode": SolveModeBlock,
    "project": ProjectBlock,
    "spectrum": SpectrumBlock,
    "resolvent": ResolventBlock,
    "evolve": EvolveBlock,
}


def _tupled(value):
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def _build(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigError("section '%s' must be a JSON object" % where)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise ConfigError("unknown config key '%s.%s'" % (where, key))
        sub = _NESTED.get(key) if cls is RunConfig else None
        if sub is not None:
            kwargs[key] = _build(sub, value, key)
        else:
            kwargs[key] = _tupled(value)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError("section '%s': %s" % (where, exc)) from None


def load_run_config(path):
    """Parse a RunConfig from a JSON file.

    Raises ConfigError for unreadable files, invalid JSON, unknown keys,
    or values that fail validation.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config file %s is not valid JSON: %s" % (path, exc)) from None
    return _build(RunConfig, data, "run")


def default_run_config():
    """RunConfig with all defaults."""
    return RunConfig()
