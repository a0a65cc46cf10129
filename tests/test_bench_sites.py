"""The benchmark reads package names that only its runs would exercise.

bench/spans.instrument looks functions up as module attributes and
bench/workloads.mode_cache_mb reads ModeOperator fields, so a refactor that
drops one of those names would otherwise break only the traced benchmark
run. Entering the instrumentation fails on a missing name; leaving it must
put every original function back.
"""

import importlib.util
import math
import pathlib

import pytest

import jetstokes as js
from jetstokes import evolution, helmholtz, spectral, stokesop, workspace
from jetstokes.fields import random_smooth_vector
from jetstokes.rng import stream

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
MODULES = (workspace, stokesop, spectral, evolution, helmholtz)


def _load(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_mode_cache_size_reads_every_field():
    workloads = _load("workloads")
    ws = js.Workspace(js.DomainConfig(n_r=8, n_theta=2, n_z=0))
    js.mode_operator(ws, 0)
    mb = workloads.mode_cache_mb(ws)
    assert math.isfinite(mb) and mb > 0.0


def test_tracer_sites_resolve_and_are_restored():
    spans = _load("spans")
    before = [dict(vars(m)) for m in MODULES]
    with spans.instrument(spans.Tracer()):
        during = [dict(vars(m)) for m in MODULES]
    after = [dict(vars(m)) for m in MODULES]
    wrapped = {
        (mod.__name__.split(".")[-1], name)
        for mod, old, new in zip(MODULES, before, during)
        for name in old
        if new[name] is not old[name]
    }
    for name in ("reduce_slice", "expand_slice"):
        assert ("spectral", name) in wrapped
    for name in (
        "reduce_slice",
        "expand_slice",
        "operator_Q",
        "project_P",
        "norm_L2",
        "inner_product_Hkp",
    ):
        assert ("evolution", name) in wrapped
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[name] is old[name] for name in old)


def test_traced_setup_counts_every_basis_build():
    # the bench wraps stokesop.build_constrained_basis by name, so set-up
    # must call it through the module global for the counts to be whole
    spans = _load("spans")
    tracer = spans.Tracer()
    cfg = js.DomainConfig(n_r=12, n_theta=3, n_z=2)
    with spans.instrument(tracer):
        ws = js.Workspace(cfg)
        ops = [js.mode_operator(ws, n) for n in range(cfg.n_z + 1)]
    # set-up builds the complete sectors j = 0..n_theta-1 of every mode,
    # each a stack entry; the edge sector j = n_theta is not built
    with pytest.raises(ValueError, match="j = %d is not complete" % cfg.n_theta):
        stokesop.build_constrained_basis(ws, 0, cfg.n_theta)
    infos = [info for op in ops for info in op.info]
    assert [(i["n"], i["j"]) for i in infos] == [
        (n, j) for n in range(cfg.n_z + 1) for j in range(cfg.n_theta)
    ]
    _, _, calls = tracer.totals()
    assert calls["stokesop.basis"] == len(infos)
    assert tracer.counts["stokesop.constraint_rows"] == sum(i["rows_kept"] for i in infos)
    assert tracer.counts["stokesop.basis_dim"] == sum(i["dim"] for i in infos)


def test_traced_requests_record_reduce_and_expand_spans():
    # the bench wraps reduce_slice and expand_slice at their import sites in
    # spectral and evolution, so a resolve and an evolve must call them
    # through those module globals for the traced layers to be whole
    spans = _load("spans")
    cfg = js.DomainConfig(n_r=12, n_theta=3, n_z=2)
    ws = js.Workspace(cfg)
    g = random_smooth_vector(cfg, stream(51, "tests"), real=False)
    evo = js.EvolutionConfig(t_final=0.03, dt=0.01, forcing=lambda t: g * math.sin(t))
    for request in (lambda: js.resolve(ws, -1.0 + 2.0j, g), lambda: js.evolve(ws, evo)):
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            request()
        _, _, calls = tracer.totals()
        assert calls["stokesop.reduce_slice"] >= 1
        assert calls["stokesop.expand_slice"] >= 1
