"""Benchmark of the jetstokes solver.

Run from the root of a checkout:

    python3 bench/run.py --workload resolvent-sweep --seed 1 --seconds 10 --trace 0

Each invocation is one fresh single-threaded process: it sets the workload
up from a fresh Workspace with empty caches, then issues closed-loop
requests for --seconds. With --trace 1 it afterwards repeats the set-up
and the same requests with spans recorded, and fits the cost-exponent
ladder. The line before the last holds the full record ("report: {...}");
the last line is one JSON object with the keys correct, attempted, failed
and metrics. See bench/README.md.
"""

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

# numpy and the package are imported only after import_package has run
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# set-ups per untraced run; setup_s is their median
SETUPS = 2
LADDER_NR = (12, 16, 24, 32)  # at n_theta = 4
LADDER_NTHETA = (2, 4, 6, 8)  # at n_r = 16

# metric names and units, in the order the last output line lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# per-layer metrics every workload exercises; the report line has the rest
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def import_package():
    """Import jetstokes from the checkout, before numpy, and check its BLAS pin."""
    if not (SRC / "jetstokes" / "__init__.py").is_file():
        sys.exit("bench: no package at %s; run from the root of a checkout" % (SRC / "jetstokes"))
    sys.path.insert(0, str(SRC))
    import jetstokes  # noqa: F401  (pins the BLAS thread variables to 1)

    bad = {v: os.environ[v] for v in BLAS_VARS if os.environ.get(v) != "1"}
    if bad:
        sys.exit(
            "bench: BLAS thread variables %s are set to other than 1 in the calling"
            " environment; the benchmark runs single-threaded" % bad
        )


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "loadavg_start": os.getloadavg(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def _rng(seed, index):
    import numpy

    return numpy.random.default_rng([seed, index])


def one_request(wl, cfg, ws, seed, index, tracer, perturb):
    """Draw, time, and check one request; returns (seconds, failure messages)."""
    inp = wl.make_input(cfg, _rng(seed, index), index)
    tracer.request_id = index
    t0 = time.perf_counter()
    try:
        answer = wl.request(ws, inp, tracer)
    except Exception:
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, ["exception"]
    finally:
        tracer.request_id = None
    elapsed = time.perf_counter() - t0
    if perturb is not None:
        answer = perturb(answer)
    try:
        bad = wl.check(cfg, inp, answer)
    except Exception:
        traceback.print_exc()
        bad = ["check raised"]
    if bad:
        print("bench: request %d failed: %s" % (index, "; ".join(bad)), file=sys.stderr)
    return elapsed, bad


def check_setup(wl, cfg, ws, spectrum, perturb):
    """Check the spectrum answers of one set-up; returns failure messages."""
    from jetstokes import kernel_dimension
    from workloads import spectrum_check

    if not wl.eig_in_setup:
        return []
    try:
        answer = spectrum, kernel_dimension(ws)
        if perturb is not None:
            answer = perturb(answer)
        bad = spectrum_check(cfg, answer)
    except Exception:
        traceback.print_exc()
        bad = ["check raised"]
    if bad:
        print("bench: set-up failed: %s" % "; ".join(bad), file=sys.stderr)
    return bad


def untraced_pass(wl, cfg, seed, seconds, setups, perturb, perturb_setup):
    """Set up `setups` times, each followed by seconds/setups of requests.

    Spreading the request windows over the whole run, between the set-ups,
    averages over more of the machine's slow drifts than one window would.
    """
    from spans import NullTracer
    from workloads import setup

    null = NullTracer()
    cpu0 = time.process_time()
    setup_times = []
    latencies = []
    windows = []
    failed = 0
    ws = None
    for _ in range(setups):
        ws = None
        gc.collect()
        t0 = time.perf_counter()
        ws, spectrum = setup(cfg, wl.eig_in_setup, null)
        setup_times.append(time.perf_counter() - t0)
        failed += bool(check_setup(wl, cfg, ws, spectrum, perturb_setup))
        first = len(latencies)
        start = time.perf_counter()
        while len(latencies) == first or time.perf_counter() - start < seconds / setups:
            elapsed, bad = one_request(wl, cfg, ws, seed, len(latencies), null, perturb)
            latencies.append(elapsed)
            failed += bool(bad)
        windows.append(latencies[first:])
    return {
        "setup_times": setup_times,
        "latencies": latencies,
        "windows": windows,
        "failed": failed,
        "cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(wl, cfg, seed, n_requests, perturb, perturb_setup):
    """One traced set-up and the same requests; returns (tracer, ws, wall, failed)."""
    from spans import Tracer, instrument
    from workloads import setup

    tracer = Tracer()
    failed = 0
    with instrument(tracer):
        gc.collect()
        t0 = time.perf_counter()
        tracer.request_id = "setup"
        ws, spectrum = setup(cfg, wl.eig_in_setup, tracer)
        tracer.request_id = None
        wall = time.perf_counter() - t0
        failed += bool(check_setup(wl, cfg, ws, spectrum, perturb_setup))
        for i in range(n_requests):
            elapsed, bad = one_request(wl, cfg, ws, seed, i, tracer, perturb)
            wall += elapsed
            failed += bool(bad)
    return tracer, ws, wall, failed


def ladder():
    """Fitted log-log cost exponents of mode 0's basis build and eigh."""
    import numpy as np
    from jetstokes import DomainConfig
    from spans import Tracer, instrument
    from workloads import setup

    grids = sorted({(nr, 4) for nr in LADDER_NR} | {(16, nt) for nt in LADDER_NTHETA})
    times = {}
    for nr, nt in grids:
        tracer = Tracer()
        gc.collect()
        with instrument(tracer):
            setup(DomainConfig(n_r=nr, n_theta=nt, n_z=0), True, tracer)
        total, _, _ = tracer.totals()
        times[nr, nt] = (total["stokesop.basis"], total["spectral.eigh"])

    def slope(sizes, key, which):
        t = [times[key(s)][which] for s in sizes]
        return float(np.polyfit(np.log(sizes), np.log(t), 1)[0])

    return {
        "scaling.basis_exp_nr": slope(LADDER_NR, lambda s: (s, 4), 0),
        "scaling.basis_exp_ntheta": slope(LADDER_NTHETA, lambda s: (16, s), 0),
        "scaling.eigh_exp_nr": slope(LADDER_NR, lambda s: (s, 4), 1),
        "scaling.eigh_exp_ntheta": slope(LADDER_NTHETA, lambda s: (16, s), 1),
        "scaling.points": {"%d/%d" % k: {"basis_s": v[0], "eigh_s": v[1]} for k, v in times.items()},
    }


def layer_metrics(tracer, ws, wall):
    """Per-layer numbers of a traced pass; wall excludes input generation."""
    from workloads import EVOLVE_STEPS, mode_cache_mb

    total, own, calls = tracer.totals()
    per_layer = {
        "discretization.tables_s": total["discretization.tables"],
        "stokesop.basis_s": total["stokesop.basis"],
        "stokesop.basis_calls": calls["stokesop.basis"],
        "stokesop.constraint_rows": tracer.counts["stokesop.constraint_rows"],
        "stokesop.basis_dim": tracer.counts["stokesop.basis_dim"],
        # basis spans only ever run inside the set-up's mode_operator spans
        "stokesop.assembly_s": total["stokesop.mode_operator"] - total["stokesop.basis"],
        "stokesop.mode_cache_mb": mode_cache_mb(ws),
        "stokesop.reduce_slice_s": total["stokesop.reduce_slice"],
        "stokesop.reduce_slice_calls": calls["stokesop.reduce_slice"],
        "stokesop.expand_slice_s": total["stokesop.expand_slice"],
        "stokesop.expand_slice_calls": calls["stokesop.expand_slice"],
        "spectral.eigh_s": total["spectral.eigh"],
        "spectral.resolve_s": total["spectral.resolve"],
        "spectral.resolve_self_s": own["spectral.resolve"],
        "spectral.resolve_calls": calls["spectral.resolve"],
        "evolution.evolve_s": total["evolution.evolve"],
        "evolution.step_ms": 1e3 * total["evolution.evolve"] / max(calls["evolution.evolve"] * EVOLVE_STEPS, 1),
        "evolution.recover_pressure_s": total["evolution.recover_pressure"],
        "evolution.estimate_report_s": total["evolution.estimate_report"],
        "helmholtz.operator_Q_s": total["helmholtz.operator_Q"],
        "helmholtz.project_P_s": total["helmholtz.project_P"],
        "modesolve.laplace_solve_channels_s": total["modesolve.laplace_solve_channels"],
        "modesolve.laplace_solve_channels_calls": calls["modesolve.laplace_solve_channels"],
        "modesolve.channel_solves": tracer.counts["modesolve.channel_solves"],
        "fields.norm_s": total["fields.norm"],
        "run.span_coverage_frac": tracer.root_time() / wall,
    }
    layer_self = {}
    for name, t in own.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
    return per_layer, layer_self


def _pct(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def run_workload(wl, cfg, seed, seconds, trace, perturb=None, perturb_setup=None):
    """Run one workload; returns (result, report) as the last two lines print them.

    perturb and perturb_setup, if given, alter each request's answer and
    each set-up's spectrum answer before the checks see them.
    """
    env = environment()
    setups = 1 if trace else SETUPS
    meas = untraced_pass(wl, cfg, seed, seconds, setups, perturb, perturb_setup)
    lat_ms = [1e3 * t for t in meas["latencies"]]
    n_req = len(lat_ms)
    e2e = {
        "setup_s": statistics.median(meas["setup_times"]),
        "request_ms_p50": _pct(lat_ms, 50),
        "request_ms_p90": _pct(lat_ms, 90),
        "peak_rss_mb": meas["peak_rss_mb"],
    }
    attempted = setups + n_req
    failed = meas["failed"]
    report = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "grid": {"n_r": cfg.n_r, "n_theta": cfg.n_theta, "n_z": cfg.n_z},
        "environment": env,
        "setup_s_samples": meas["setup_times"],
        "request_samples": n_req,
        "request_ms_p50_per_window": [1e3 * statistics.median(w) for w in meas["windows"]],
        "end_to_end": dict(e2e),
    }
    if wl.name == "resolvent-sweep":
        report["end_to_end"]["resolve_ms_p50"] = e2e["request_ms_p50"]
        report["end_to_end"]["resolve_ms_p90"] = e2e["request_ms_p90"]
    if wl.name == "evolve-forced":
        report["end_to_end"]["evolve_run_s"] = statistics.median(meas["latencies"])
    metrics = {k: e2e[k] for k in END_TO_END}
    units = END_TO_END
    if trace:
        tracer, ws, wall, traced_failed = traced_pass(wl, cfg, seed, n_req, perturb, perturb_setup)
        attempted += 1 + n_req
        failed += traced_failed
        per_layer, layer_self = layer_metrics(tracer, ws, wall)
        del ws
        untraced_wall = meas["setup_times"][0] + sum(meas["latencies"])
        per_layer["run.cpu_s"] = meas["cpu_s"]
        per_layer["run.tracing_overhead_frac"] = wall / untraced_wall - 1.0
        scaling = ladder()
        report["scaling_points"] = scaling.pop("scaling.points")
        per_layer.update(scaling)
        report["per_layer"] = per_layer
        report["layer_self_s"] = layer_self
        metrics = {k: per_layer[k] for k in PER_LAYER}
        units = PER_LAYER
    report["ops_attempted"] = attempted
    report["ops_failed"] = failed
    report["environment"]["loadavg_end"] = os.getloadavg()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def main(argv=None):
    import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not (math.isfinite(args.seconds) and args.seconds > 0):
        parser.error("--seed must be nonnegative and --seconds positive")
    wl = WORKLOADS[args.workload]
    result, report = run_workload(wl, wl.config, args.seed, args.seconds, args.trace)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
