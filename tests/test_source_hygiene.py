"""Static checks on the package source, using only the standard library.

No linter ships with the project, so seven checks a linter would make
run here on the syntax trees of src/jetstokes (and of bench for the
fourth one):

- every module-level import of a module other than __init__.py is used in
  that module (__init__.py re-exports by design);
- every module-level function or class whose name starts with one
  underscore is referenced somewhere in the package, so a deletion cannot
  leave a private helper behind;
- every parameter of every function, method or lambda is read in its body
  (loaded, or discarded with an explicit del), so an argument a caller
  passes cannot be silently ignored;
- every field of the stokesop.ModeOperator and stokesop.FieldOperator
  dataclasses and of the discretization._ChannelStacks namedtuple is read
  as an attribute somewhere in src/jetstokes or bench
  (an attribute of an imported module, such as np.stack, does not count),
  so a refactor cannot leave a dead field behind;
- no module but fieldio, which owns every output and field file format,
  and config, which reads the run configuration, opens a file: none
  names the builtin open or calls an open, read_text, write_text,
  read_bytes or write_bytes method;
- no module but fieldio serializes JSON: none calls json.dumps (or a
  dumps imported from json);
- no module imports scipy, anywhere in its body: every factorization runs
  on numpy's OpenBLAS, and scipy.linalg would map a second one.

One more check runs the import itself in a fresh interpreter:
importing jetstokes and jetstokes.cli loads no scipy module.

The last checks guard the eigenbasis design and the whole-field
operator: ModeOperator stores no M or G stack, no module names
field_product, _sides or _mode_ops, and stokesop._synthesize is the one
synthesis map. No module defines synthesize, _eye, packed_product or
field_pencil, neither ModeOperator nor FieldOperator declares a slots or
inverse field (the slot table is built once per workspace), and a
resolve and a real and a complex forced evolve call _synthesize exactly
once per expand_slice call. A forced evolve does its bookkeeping once
per block of steps, and its estimate_report forms neither a gradient
field nor a difference of velocity fields.

The radial unknowns are pole-regular by construction: setting up every
mode reads no RadialTables.pole_rows (the tests' nodal reference), no
module defines the Cholesky pencil reduction _pencil_eigh, and the
Zernike tables cached on a RadialTables instance leave with it when
bench/workloads.clear_caches empties the module-level caches. No module
defines SVD_TOL: each sector's nullspace dimension is a count. No module
calls leggauss or defines lagrange_eval_matrix: the disk Gram is exact in
closed form, and the Gauss-Legendre resampling is the tests' reference.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "jetstokes"
MODULES = sorted(SRC.glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree):
    """Names bound by the module-level imports of a module (no __future__)."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _loaded_names(tree):
    """Every identifier read in a module: plain names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_module_imports_are_used(path):
    tree = _tree(path)
    used = _loaded_names(tree)
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, "%s imports unused names %s" % (path.name, unused)


def test_private_definitions_are_referenced():
    trees = {p: _tree(p) for p in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    dead = [
        "%s.%s" % (path.stem, node.name)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not dead, "private definitions nothing references: %s" % dead


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter its body never reads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Load, ast.Del))
        }
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, name, a.arg) for a in params if a.arg not in read]
    return out


def test_parameters_are_read():
    unread = [
        "%s:%d %s(%s)" % (path.name, line, func, arg)
        for path in MODULES
        for line, func, arg in _unread_parameters(_tree(path))
    ]
    assert not unread, "parameters never read in their function: %s" % unread


def test_unread_parameter_check_sees_a_dropped_argument():
    tree = ast.parse(
        "def f(ws, a, b, seed):\n    del seed\n    return a\n"
        "g = lambda x, y: x\n"
    )
    assert [(f, a) for _, f, a in _unread_parameters(tree)] == [
        ("f", "ws"),
        ("f", "b"),
        ("<lambda>", "y"),
    ]


def _dataclass_fields(tree, name):
    """Names of the annotated fields of the module-level class name."""
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)
    return [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]


def _namedtuple_fields(tree, name):
    """Field names of the module-level namedtuple name, made by collections.namedtuple."""
    for node in tree.body:
        func = getattr(node, "value", None) if isinstance(node, ast.Assign) else None
        func = func.func if isinstance(func, ast.Call) else None
        if (
            func is not None
            and [getattr(t, "id", None) for t in node.targets] == [name]
            and getattr(func, "attr", getattr(func, "id", None)) == "namedtuple"
        ):
            spec = ast.literal_eval(node.value.args[1])
            return spec.replace(",", " ").split() if isinstance(spec, str) else list(spec)
    raise LookupError(name)


def _module_aliases(tree):
    """Names that plain imports bind to modules (import numpy as np binds np)."""
    return {
        (a.asname or a.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
    }


def _read_attributes(trees):
    """Every attribute name loaded (not only assigned) in the trees, off imported modules."""
    out = set()
    for tree in trees:
        modules = _module_aliases(tree)
        out |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id in modules)
        }
    return out


def _unread_fields(fields):
    read = _read_attributes(_tree(p) for p in MODULES + BENCH)
    return [f for f in fields if f not in read]


@pytest.mark.parametrize("name", ["ModeOperator", "FieldOperator"])
def test_stokesop_dataclass_fields_are_read(name):
    fields = _dataclass_fields(_tree(SRC / "stokesop.py"), name)
    assert fields
    unread = _unread_fields(fields)
    assert not unread, "stokesop.%s fields nothing reads: %s" % (name, unread)


@pytest.mark.parametrize("name", ["_ChannelStacks"])
def test_discretization_namedtuple_fields_are_read(name):
    fields = _namedtuple_fields(_tree(SRC / "discretization.py"), name)
    assert fields
    unread = _unread_fields(fields)
    assert not unread, "discretization.%s fields nothing reads: %s" % (name, unread)


def test_unread_field_check_sees_a_dead_field():
    tree = ast.parse(
        "class C:\n    a: int\n    b: int\n    c: int\n"
        "def f(x):\n    x.b = x.a\n    return C(c=1)\n"
    )
    read = _read_attributes([tree])
    assert [f for f in _dataclass_fields(tree, "C") if f not in read] == ["b", "c"]


def test_unread_field_check_sees_a_dead_namedtuple_field():
    # a field read only as a module attribute (np.stack) counts as unread
    tree = ast.parse(
        "import collections\nimport numpy as np\nfrom collections import namedtuple\n"
        "T = collections.namedtuple('T', 'a b stack')\n"
        "U = namedtuple('U', ['c', 'd'])\n"
        "def f(x):\n    x.b = x.a\n    return np.stack([x.d]), T(*x)\n"
    )
    read = _read_attributes([tree])
    assert [f for f in _namedtuple_fields(tree, "T") if f not in read] == ["b", "stack"]
    assert [f for f in _namedtuple_fields(tree, "U") if f not in read] == ["c"]


# the modules that may open files
FILE_OWNERS = ("fieldio.py", "config.py")
# method names that open a file (io.open, os.open and pathlib's shortcuts)
_OPEN_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_opens(tree):
    """(line, name) of each use of the builtin open and each call of a file-opening method."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "open":
            out.append((node.lineno, "open"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _OPEN_METHODS
        ):
            out.append((node.lineno, node.func.attr))
    return sorted(out)


def test_only_fieldio_and_config_open_files():
    opens = [
        "%s:%d %s" % (path.name, line, name)
        for path in MODULES
        if path.name not in FILE_OWNERS
        for line, name in _file_opens(_tree(path))
    ]
    assert not opens, "files opened outside %s: %s" % (FILE_OWNERS, opens)


def test_file_open_check_sees_every_opener():
    tree = ast.parse(
        "import io, pathlib\n"
        "with open('a') as fh:\n    fh.read()\n"
        "io.open('b')\n"
        "pathlib.Path('c').write_text('x')\n"
        "reader = open\n"
        "fh.close()\n"
    )
    assert _file_opens(tree) == [(2, "open"), (4, "open"), (5, "write_text"), (6, "open")]


def _json_dumps_calls(tree):
    """Line of each call of json.dumps, or of a dumps imported from json."""
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for a in node.names
        if a.name == "dumps"
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "dumps"
            and isinstance(func.value, ast.Name)
            and func.value.id == "json"
        ) or (isinstance(func, ast.Name) and func.id in imported):
            out.append(node.lineno)
    return sorted(out)


def test_only_fieldio_serializes_json():
    calls = [
        "%s:%d" % (path.name, line)
        for path in MODULES
        if path.name != "fieldio.py"
        for line in _json_dumps_calls(_tree(path))
    ]
    assert not calls, "json.dumps called outside fieldio: %s" % calls


def test_json_dumps_check_sees_every_call():
    tree = ast.parse(
        "import json\n"
        "from json import dumps as to_text\n"
        "a = json.dumps({})\n"
        "b = json.loads('1')\n"
        "c = to_text([1])\n"
        "d = json.dumps(\n    [2]\n)\n"
    )
    assert _json_dumps_calls(tree) == [3, 5, 6]


def _imported_modules(tree):
    """(line, dotted module) of each absolute import anywhere in the tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module))
    return out


def _scipy_imports(tree):
    return [(line, name) for line, name in _imported_modules(tree) if name.split(".")[0] == "scipy"]


def test_package_imports_no_scipy():
    found = [
        "%s:%d %s" % (path.name, line, name)
        for path in MODULES
        for line, name in _scipy_imports(_tree(path))
    ]
    assert not found, "scipy imported in the package: %s" % found


def test_scipy_import_check_sees_every_form():
    tree = ast.parse(
        "import numpy, scipy.linalg as sl\n"
        "from scipy import special\n"
        "from . import scipy_local\n"
        "def f():\n    import scipy\n"
    )
    assert _scipy_imports(tree) == [(1, "scipy.linalg"), (2, "scipy"), (5, "scipy")]


def test_package_import_loads_no_scipy():
    code = (
        "import sys, jetstokes, jetstokes.cli; "
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    )
    path = [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]", "importing jetstokes loads %s" % out.stdout.strip()


def test_mode_operator_stores_no_pencil_blocks():
    fields = _dataclass_fields(_tree(SRC / "stokesop.py"), "ModeOperator")
    assert "M" not in fields and "G" not in fields
    named = [p.name for p in MODULES if "field_product" in p.read_text(encoding="utf-8")]
    assert not named, "field_product named in %s" % named


def test_no_module_defines_a_second_synthesis():
    # _synthesize is the one map from packed coordinates to fields
    gone = ("synthesize", "_eye", "packed_product", "field_pencil")
    named = [
        "%s: %s" % (p.name, node.name)
        for p in MODULES
        for node in ast.walk(_tree(p))
        if isinstance(node, ast.FunctionDef) and node.name in gone
    ]
    assert not named, "second synthesis path defined in %s" % named


@pytest.mark.parametrize("name", ["ModeOperator", "FieldOperator"])
def test_operators_hold_no_slot_table(name):
    # the slot table is built once per workspace (stokesop._slot_tables)
    fields = _dataclass_fields(_tree(SRC / "stokesop.py"), name)
    assert "slots" not in fields and "inverse" not in fields


def test_requests_synthesize_once_per_expand(monkeypatch):
    # a resolve and a real and a complex forced evolve synthesize their
    # fields through _synthesize, once per expand_slice call
    import jetstokes as js
    from jetstokes import evolution, spectral, stokesop
    from jetstokes.fields import random_smooth_vector
    from jetstokes.rng import stream

    ws = js.Workspace(js.DomainConfig(n_r=12, n_theta=3, n_z=2))
    for n in range(3):
        js.mode_operator(ws, n)
    rng = stream(47, "tests")
    g = random_smooth_vector(ws.config, rng, real=False)
    real = random_smooth_vector(ws.config, rng)
    calls = []

    def recording(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    monkeypatch.setattr(stokesop, "_synthesize", recording("_synthesize", stokesop._synthesize))
    expand = recording("expand_slice", stokesop.expand_slice)
    for owner in (stokesop, spectral, evolution):
        monkeypatch.setattr(owner, "expand_slice", expand)
    js.resolve(ws, 2j, g)
    # a complex forcing runs both sides, a real one side 0 only
    for f in (g, real):
        js.evolve(ws, js.EvolutionConfig(t_final=0.04, dt=0.02, forcing=lambda t, f=f: f * t))
    assert calls and calls == ["expand_slice", "_synthesize"] * (len(calls) // 2)


def test_per_mode_request_loops_are_gone():
    named = [
        "%s: %s" % (p.name, name)
        for p in MODULES
        for name in ("_sides", "_mode_ops")
        if re.search(r"\b%s\b" % name, p.read_text(encoding="utf-8"))
    ]
    assert not named, "per-mode request helpers named in %s" % named


def test_forced_runs_do_each_snapshots_work_once(monkeypatch):
    # evolve's per-mode sums run once per block, not once per step; the
    # estimate reads increments and pressure gradients from word outputs
    import jetstokes as js
    from jetstokes import evolution, fields
    from jetstokes.rng import stream

    ws = js.Workspace(js.DomainConfig(n_r=12, n_theta=3, n_z=2))
    profile = fields.random_smooth_vector(ws.config, stream(48, "tests"))
    calls = []

    def recording(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    def forcing(t):
        return profile * t

    dt, steps = 0.01, evolution.STEP_BLOCK + 3
    monkeypatch.setattr(evolution, "_block_terms", recording("block", evolution._block_terms))
    res = js.evolve(ws, js.EvolutionConfig(t_final=steps * dt, dt=dt, forcing=forcing))
    assert calls == ["block", "block"]
    forcings = [forcing(float(t)) for t in res.trace.t]
    pressures = [js.recover_pressure(ws, v, f) for v, f in zip(res.fields, forcings)]
    del calls[:]
    # every package module that holds grad, fields included
    grad = fields.grad
    for name in dir(js):
        mod = getattr(js, name)
        if type(mod) is type(js) and getattr(mod, "grad", None) is grad:
            monkeypatch.setattr(mod, "grad", recording("grad", grad))
    monkeypatch.setattr(
        fields.VectorField, "__sub__", recording("__sub__", fields.VectorField.__sub__)
    )
    # the recorders see the field operations the estimate used to take
    res.fields[1] - res.fields[0]
    fields.grad(pressures[1])
    assert calls == ["__sub__", "grad"]
    del calls[:]
    js.estimate_report(ws, res.fields, pressures, forcings, dt, steps * dt)
    assert calls == []


def test_set_up_reads_no_pole_rows(monkeypatch):
    import jetstokes as js
    from jetstokes.discretization import RadialTables

    calls = []
    rows = RadialTables.pole_rows

    def recorded(self, m_abs):
        calls.append(m_abs)
        return rows(self, m_abs)

    monkeypatch.setattr(RadialTables, "pole_rows", recorded)
    ws = js.Workspace(js.DomainConfig(n_r=24, n_theta=6, n_z=4))
    for n in range(5):
        js.mode_operator(ws, n)
    assert calls == []
    # the recorder sees a direct call
    ws.tables.pole_rows(3)
    assert calls == [3]


def test_no_module_defines_the_pencil_reduction():
    named = [
        p.name
        for p in MODULES
        for node in ast.walk(_tree(p))
        if isinstance(node, ast.FunctionDef) and node.name == "_pencil_eigh"
    ]
    assert not named, "_pencil_eigh defined in %s" % named


def test_no_module_defines_a_rank_cutoff():
    # each sector's constraint rows have full row rank, so its nullspace
    # dimension is their count and no singular-value cutoff decides it
    named = [
        p.name
        for p in MODULES
        for node in ast.walk(_tree(p))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id == "SVD_TOL"
    ]
    assert not named, "SVD_TOL defined in %s" % named


def test_no_module_resamples_for_the_gram():
    # the disk Gram is factor^T factor, the factor the inverse of the
    # parity's unit-norm Zernike profiles: no quadrature and no resampling
    found = []
    for p in MODULES:
        for node in ast.walk(_tree(p)):
            if isinstance(node, ast.FunctionDef) and node.name == "lagrange_eval_matrix":
                found.append("%s defines lagrange_eval_matrix" % p.name)
            if isinstance(node, ast.Call):
                f = node.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "leggauss":
                    found.append("%s calls leggauss" % p.name)
    assert not found, found


def test_cleared_caches_release_the_radial_tables():
    # a fresh interpreter, so the suite's own workspaces hold no tables
    code = (
        "import gc, importlib.util, sys, weakref\n"
        "import jetstokes as js\n"
        "spec = importlib.util.spec_from_file_location('workloads', sys.argv[1])\n"
        "workloads = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(workloads)\n"
        "ws = js.Workspace(js.DomainConfig(n_r=12, n_theta=3, n_z=1))\n"
        "for n in range(2):\n"
        "    js.mode_operator(ws, n)\n"
        "ws.tables.pole_rows(3)\n"
        "ref = weakref.ref(ws.tables)\n"
        "del ws\n"
        "gc.collect()\n"
        "alive = ref() is not None\n"
        "workloads.clear_caches()\n"
        "gc.collect()\n"
        "print(alive, ref() is None)\n"
    )
    path = [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "bench" / "workloads.py")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    # the module caches held the tables until they were cleared
    assert out.stdout.split() == ["True", "True"]
