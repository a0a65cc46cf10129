"""Self-test of the benchmark on the tiny grid n_r=12, n_theta=3, n_z=2.

    python3 bench/selftest.py

For each workload it checks that an untraced and a traced run pass their
answer checks and report every metric with its unit, and that a perturbed
answer is counted as failed: an eigenvalue of a set-up's spectrum shifted
by 1e-3, a resolve solution scaled by 2, a broken Crank-Nicolson identity.
Exits 0 on success.
"""

import dataclasses
import math
import sys

import run

TINY = dict(n_r=12, n_theta=3, n_z=2)
SECONDS = 0.5
# every per-layer metric the report line carries, whichever workload runs
REPORTED_LAYERS = (
    "stokesop.reduce_slice_s",
    "stokesop.expand_slice_s",
    "spectral.eigh_s",
    "spectral.resolve_self_s",
    "evolution.evolve_s",
    "evolution.step_ms",
    "evolution.recover_pressure_s",
    "evolution.estimate_report_s",
    "helmholtz.operator_Q_s",
    "helmholtz.project_P_s",
    "fields.norm_s",
)


def shift_eigenvalue(answer):
    entries, kdim = answer
    entries = dict(entries)
    first = entries[1][0]
    entries[1] = [dataclasses.replace(first, lam=first.lam + 1e-3)] + entries[1][1:]
    return entries, kdim


def scale_solution(answer):
    v, info, l2_gain, hk_gain = answer
    return v * 2.0, info, 2.0 * l2_gain, 2.0 * hk_gain


def break_identity(answer):
    trace, rep = answer
    return dataclasses.replace(trace, identity_residual=trace.identity_scale * 1e-6), rep


PERTURB = {
    "resolvent-sweep": scale_solution,
    "evolve-forced": break_identity,
}


def check_result(result, units, where):
    problems = []
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append("%s: metrics %s, expected %s" % (where, sorted(metrics), sorted(units)))
    for name, m in metrics.items():
        if m["unit"] != units.get(name) or not math.isfinite(m["value"]):
            problems.append("%s: %s = %r" % (where, name, m))
    return problems


def main():
    run.import_package()
    from jetstokes import DomainConfig
    from workloads import WORKLOADS

    cfg = DomainConfig(**TINY)
    problems = []
    for name, wl in sorted(WORKLOADS.items()):
        result, _ = run.run_workload(wl, cfg, 7, SECONDS, 0)
        problems += check_result(result, run.END_TO_END, name)
        if not (result["correct"] and result["failed"] == 0):
            problems.append("%s: clean run failed %d ops" % (name, result["failed"]))
        if not all(m["value"] > 0 for m in result["metrics"].values()):
            problems.append("%s: an end-to-end metric is not positive" % name)

        result, report = run.run_workload(wl, cfg, 8, SECONDS, 1)
        problems += check_result(result, run.PER_LAYER, name + " traced")
        missing = [k for k in REPORTED_LAYERS if k not in report["per_layer"]]
        if missing or not result["correct"]:
            problems.append("%s traced: missing %s, failed %d" % (name, missing, result["failed"]))

        result, report = run.run_workload(wl, cfg, 9, SECONDS, 0, PERTURB[name])
        if result["correct"] or result["failed"] != report["request_samples"]:
            problems.append(
                "%s: perturbed answers failed %d of %d requests"
                % (name, result["failed"], report["request_samples"])
            )
        if wl.eig_in_setup:
            result, report = run.run_workload(wl, cfg, 10, SECONDS, 0, perturb_setup=shift_eigenvalue)
            if result["correct"] or result["failed"] != run.SETUPS:
                problems.append(
                    "%s: perturbed spectra failed %d of %d set-ups"
                    % (name, result["failed"], run.SETUPS)
                )
        print("selftest: %s done" % name, flush=True)
    for p in problems:
        print("selftest: FAIL %s" % p)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
