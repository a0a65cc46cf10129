"""The traced benchmark run wraps package functions at their import sites.

bench/spans.instrument looks those functions up as module attributes, so a
refactor that drops one of the imports would otherwise break only the
traced benchmark run. Entering the instrumentation fails on a missing name;
leaving it must put every original function back.
"""

import importlib.util
import pathlib

from jetstokes import evolution, helmholtz, spectral, stokesop, workspace

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = (workspace, stokesop, spectral, evolution, helmholtz)


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_sites_resolve_and_are_restored():
    spans = _load_spans()
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
