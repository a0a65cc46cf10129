"""In-memory span recorder for the traced benchmark run.

Every span is recorded by benchmark code: either around a call the
benchmark makes into the package, or by a wrapper that `instrument`
installs at the import sites of a package function that is only reached
from inside another layer (reduce_slice inside resolve and evolve,
laplace_solve_channels inside assembly and pressure recovery). The
wrappers are removed when the traced run ends; nothing under src/ changes.
"""

import collections
import contextlib
import functools
import time


class Tracer:
    """Spans as [name, start, end, parent index, request id], kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.request_id = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def totals(self):
        """Per span name: total duration, self time and call count.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        total = collections.Counter()
        own = collections.Counter()
        calls = collections.Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return total, own, calls

    def root_time(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)


class NullTracer:
    """Stands in for Tracer when tracing is off; records nothing."""

    request_id = None

    def span(self, name):
        return contextlib.nullcontext()


def _count_basis(counts, args, out):
    info = out[1]
    counts["stokesop.constraint_rows"] += info["rows_kept"]
    counts["stokesop.basis_dim"] += info["dim"]


def _count_channels(counts, args, out):
    f_arr = args[2]
    columns = 1
    for size in f_arr.shape[:-2]:
        columns *= size
    counts["modesolve.channel_solves"] += f_arr.shape[-2] * columns


@contextlib.contextmanager
def instrument(tracer):
    """Wrap the inner-layer functions at their import sites while active."""
    from jetstokes import evolution, helmholtz, spectral, stokesop, workspace

    sites = [
        (workspace, "tables_for", "discretization.tables", None),
        (stokesop, "build_constrained_basis", "stokesop.basis", _count_basis),
        (spectral, "reduce_slice", "stokesop.reduce_slice", None),
        (spectral, "expand_slice", "stokesop.expand_slice", None),
        (evolution, "reduce_slice", "stokesop.reduce_slice", None),
        (evolution, "expand_slice", "stokesop.expand_slice", None),
        (helmholtz, "laplace_solve_channels", "modesolve.laplace_solve_channels", _count_channels),
        (evolution, "operator_Q", "helmholtz.operator_Q", None),
        (evolution, "project_P", "helmholtz.project_P", None),
        (evolution, "norm_L2", "fields.norm", None),
        (evolution, "inner_product_Hkp", "fields.norm", None),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in sites]
    try:
        for mod, attr, name, count in sites:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, count))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
