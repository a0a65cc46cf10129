import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import jetstokes as js
import oracles
from jetstokes.fields import (
    _axial_factors,
    constant_vector,
    random_smooth_vector,
    rigid_rotation,
    zeros_vector,
)
from jetstokes import fields, helmholtz, spectral, stokesop
from jetstokes.discretization import RadialTables
from jetstokes.rng import stream
from jetstokes.stokesop import (
    _apply_A_slice,
    _apply_weight,
    assemble_A,
    expand_slice,
    project_constrained,
    random_constrained_vector,
    strong_blocks,
)


def _apply_A_on_slice(ws, v, n):
    """A applied to the mode-n slice of v, the slice kernel the blocks use."""
    cfg = ws.config
    out = zeros_vector(cfg)
    out.coeffs[:, cfg.n_z + n] = _apply_A_slice(ws, n, v.coeffs[:, cfg.n_z + n])
    out.real_flag = False
    return out


def _traction(ws, v):
    """Viscous surface traction of v as one (3, n_modes_z, band + 2) array."""
    cfg = ws.config
    varr = np.moveaxis(v.coeffs, 0, 1)
    return np.stack(oracles.cartesian_traction(ws.tables, varr, _axial_factors(cfg).imag, cfg.mu))


def _twisted_rotation(cfg):
    """e^{i beta_1 z} (-y, x, 0): an exact eigenfield with eigenvalue mu beta^2."""
    rot = rigid_rotation(cfg)
    v = zeros_vector(cfg)
    v.coeffs[:, cfg.n_z + 1] = rot.coeffs[:, cfg.n_z]
    v.real_flag = False
    return v


def test_kernel_columns_are_exact(ws_small):
    cfg = ws_small.config
    op = js.mode_operator(ws_small, 0)
    # every packed entry but the four lowest, the kernel, stays empty
    rest = np.ones(op.w.size, dtype=bool)
    rest[op.order[:4]] = False
    for vals in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        v = constant_vector(cfg, vals)
        proj, coords = project_constrained(ws_small, v)
        assert js.norm_L2(proj - v) / js.norm_L2(v) < 1e-12
        assert np.max(np.abs(coords[0, : op.w.size, 0][rest])) < 1e-10
    rot = rigid_rotation(cfg)
    proj, coords = project_constrained(ws_small, rot)
    assert js.norm_L2(proj - rot) / js.norm_L2(rot) < 1e-12
    assert np.max(np.abs(coords[0, : op.w.size, 0][rest])) < 1e-10


def test_eigen_cache_holds_kernel_columns_exactly(ws_small):
    cfg = ws_small.config
    op = js.mode_operator(ws_small, 0)
    w, _ = op.eigen
    # each leading column is one installed kernel field as it stands, with
    # no leak into the rest of the nullspace; e1 + i e2 and e1 - i e2 share
    # their support, so a match needs the support and a constant ratio
    kern = [
        constant_vector(cfg, vals).coeffs[:, cfg.n_z].reshape(-1)
        for vals in ((1.0, 1j, 0.0), (1.0, -1j, 0.0), (0.0, 0.0, 1.0))
    ]
    kern.append(rigid_rotation(cfg).coeffs[:, cfg.n_z].reshape(-1))
    matched = set()
    for j in range(4):
        col = op.basis[:, j]
        hits = []
        for i in range(4):
            support = kern[i] != 0.0
            if np.array_equal(col != 0.0, support):
                ratio = col[support] / kern[i][support]
                if np.max(np.abs(ratio - ratio[0])) < 1e-13 * abs(ratio[0]):
                    hits.append(i)
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == {0, 1, 2, 3}
    m, _ = oracles.dense_blocks(op)
    assert np.max(np.abs(m[:4, :4] - np.eye(4))) < 1e-13
    assert np.all(w[:4] >= 0.0)
    assert np.all(w[:4] <= 1e-20 * w[-1])
    assert w[4] > 1e-8 * w[-1]


def test_blocks_are_diagonal_in_eigen_coordinates(ws_small):
    for n in range(ws_small.config.n_z + 1):
        op = js.mode_operator(ws_small, n)
        w, residual = op.eigen
        k = w.size
        assert op.basis.shape[1] == k
        assert np.all(np.diff(w) >= 0.0)
        # the blocks rebuilt from the stacks are I and diag(w) to roundoff
        m, g = oracles.dense_blocks(op)
        assert np.max(np.abs(m - np.eye(k))) < 1e-12
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) < 1e-12 * w[-1]
        assert np.max(np.abs(np.diag(g) - w)) < 1e-12 * w[-1]
        # and the stored views are exactly that
        assert np.array_equal(op.M_block, np.eye(k)) and np.array_equal(op.G_block, np.diag(w))
        assert np.max(residual) < 1e-10


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_wide"])
def test_basis_columns_match_the_per_sector_reference(ws_name, request):
    # column order and the mirror sectors, against the per-sector complex
    # synthesis of each column's unit coordinates
    ws = request.getfixturevalue(ws_name)
    for n in range(ws.config.n_z + 1):
        op = js.mode_operator(ws, n)
        unit = np.zeros((op.w.size, op.order.size))
        unit[op.order, np.arange(op.order.size)] = 1.0
        ref = oracles.PerSectorMaps(ws, n).expand(unit).reshape(op.order.size, -1).T
        err = np.linalg.norm(op.basis - ref, axis=0) / np.linalg.norm(ref, axis=0)
        assert np.max(err) <= 1e-13


def test_basis_columns_lie_in_one_sector(ws_small):
    cfg = ws_small.config
    nm, nr = cfg.n_modes_theta, cfg.n_r
    for n in range(cfg.n_z + 1):
        op = js.mode_operator(ws_small, n)
        arr = op.basis.T.reshape(-1, 3, nm, nr)
        # coefficient energy per sector j = -n_theta-1..n_theta+1: u+ at m
        # counts in j = m - 1, u_z at m in j = m, u- at m in j = m + 1
        energy = np.zeros((arr.shape[0], nm + 2))
        energy[:, :-2] += 0.5 * np.sum(np.abs(arr[:, 0] + 1j * arr[:, 1]) ** 2, axis=-1)
        energy[:, 1:-1] += np.sum(np.abs(arr[:, 2]) ** 2, axis=-1)
        energy[:, 2:] += 0.5 * np.sum(np.abs(arr[:, 0] - 1j * arr[:, 1]) ** 2, axis=-1)
        off = np.sort(energy, axis=1)[:, :-1].sum(axis=1)
        assert np.all(np.sqrt(off / energy.sum(axis=1)) < 1e-12)
        # the sectors together span the dense single-SVD nullspace
        null = oracles.dense_constrained_nullspace(ws_small, n)
        assert null.shape[1] == op.basis.shape[1]
        leak = op.basis - null @ (null.conj().T @ op.basis)
        assert np.linalg.norm(leak) < 1e-10 * np.linalg.norm(op.basis)


def test_strong_block_stays_off_the_solve_path(cfg_small, monkeypatch):
    ws = js.Workspace(cfg_small)

    def refuse(*args, **kwargs):
        raise AssertionError("strong operator evaluated")

    monkeypatch.setattr(stokesop, "_apply_A_slice", refuse)
    # the dense views are for checks and export; no solve reads them
    for name in ("basis", "M_block", "G_block", "A_block"):
        monkeypatch.setattr(stokesop.ModeOperator, name, property(refuse))
    for n in range(cfg_small.n_z + 1):
        js.mode_operator(ws, n)
    g = random_smooth_vector(cfg_small, stream(47, "tests"), real=False)
    _, info = js.resolve(ws, 2j, g)
    assert info["max_rel_residual"] < 1e-8
    u = random_constrained_vector(ws, stream(48, "tests"))
    evo = js.EvolutionConfig(t_final=0.04, dt=0.02, initial=u, forcing=lambda t: g * t)
    assert js.evolve(ws, evo).trace.t.size == 3
    monkeypatch.undo()
    for n in range(cfg_small.n_z + 1):
        op = js.mode_operator(ws, n)
        a, _ = strong_blocks(op)
        for p in oracles.sector_parts(op):
            k = p.index.size
            assert np.linalg.norm(a[p.entry, :k, :k] - p.G) / np.linalg.norm(p.G) < 1e-8


def test_kernel_rayleigh_quotients(ws_small):
    op = js.mode_operator(ws_small, 0)
    a, _ = strong_blocks(op)
    parts = oracles.sector_parts(op)
    quotients = [abs(a[p.entry, c, c]) / p.M[c, c] for p in parts for c in range(p.nk)]
    assert len(quotients) == 4
    # the norm over every sector, each mirror counted on its own
    scale = math.sqrt(sum(np.linalg.norm(a[p.entry]) ** 2 for p in parts))
    assert op.sector_norm(a) == pytest.approx(scale, rel=1e-14)
    assert max(quotients) < 1e-10 * scale


def test_strong_blocks_refuse_an_imaginary_part(cfg_small, monkeypatch):
    ws = js.Workspace(cfg_small)
    op = js.mode_operator(ws, 1)
    apply_a = stokesop._apply_A_slice
    monkeypatch.setattr(stokesop, "_apply_A_slice", lambda *args: apply_a(*args) * (1.0 + 1e-6j))
    # the widest reach, the last stack entry, is assembled first
    j = op.info[-1]["j"]
    with pytest.raises(RuntimeError, match="mode 1 sector %d strong block is not real" % j):
        strong_blocks(op)


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_medium"])
def test_strong_operator_stays_in_its_sector(ws_name, request):
    ws = request.getfixturevalue(ws_name)
    for n in range(ws.config.n_z + 1):
        op = js.mode_operator(ws, n)
        blocks, leak = strong_blocks(op)
        assert np.max(leak) < 1e-12
        # the dense view is the per-sector blocks: exact zeros off-sector
        a = op.A_block
        rank = oracles.ascending_rank(op)
        parts = oracles.sector_parts(op)
        for p in parts:
            k = p.index.size
            assert np.array_equal(a[np.ix_(rank[p.index], rank[p.index])], blocks[p.entry, :k, :k])
        assert np.count_nonzero(a) <= sum(p.index.size**2 for p in parts)


def _cached_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for val in obj.values():
            yield from _cached_arrays(val)
    elif isinstance(obj, (tuple, list)):
        for val in obj:
            yield from _cached_arrays(val)
    elif isinstance(obj, stokesop.ModeOperator):
        yield from _cached_arrays(vars(obj))


def test_mode_operator_caches_no_dense_block(cfg_small):
    ws = js.Workspace(cfg_small)
    for n in range(cfg_small.n_z + 1):
        op = js.mode_operator(ws, n)
        before = dict(vars(op))
        # the reads of criteria 03 and 06 and of the block export store
        # nothing on the operator, which is frozen
        strong_blocks(op)
        for name in ("basis", "M_block", "G_block", "A_block"):
            getattr(op, name)
        assert vars(op).keys() == before.keys()
        assert all(vars(op)[key] is val for key, val in before.items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.Z = op.ZW
    for op in ws.mode_ops.values():
        k = op.eigen[0].size
        assert max(a.size for a in _cached_arrays(op)) < k * k


def _direct_columns(ws, n, j):
    """Sector j of mode n built directly, as full Cartesian columns, and its info."""
    cfg = ws.config
    z, info = stokesop.build_constrained_basis(ws, n, j)
    out = np.zeros((3 * cfg.n_modes_theta * cfg.n_r, z.shape[1]), dtype=complex)
    fields = stokesop._sector_fields(cfg, j, z)
    null = fields.reshape(z.shape[1], math.prod(fields.shape[1:])).T
    out[stokesop._window_rows(cfg, *stokesop._sector_window(cfg, j))] = null
    return out, info


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_medium"])
def test_mirrored_sectors_match_direct_builds(ws_name, request):
    # set-up builds j >= 0 and mirrors them; sector -j built directly must
    # span the same space with the same pencil spectrum
    ws = request.getfixturevalue(ws_name)
    for n in range(3):
        op = js.mode_operator(ws, n)
        w = op.eigen[0]
        mirrored = [p for p in oracles.sector_parts(op) if p.mirrored]
        built = [info["j"] for info in op.info]
        assert sorted(-p.info["j"] for p in mirrored) == [j for j in built if j > 0]
        for p in mirrored:
            j, index = p.info["j"], p.index
            assert op.info[p.entry]["j"] == -j
            direct, dinfo = _direct_columns(ws, n, j)
            assert direct.shape[1] == index.size
            nk = len(dinfo["kernel_columns"])
            assert p.nk == nk
            m, g = oracles.pencil_all_channels(ws, n, direct)
            wd = scipy.linalg.eigh(g[nk:, nk:], m[nk:, nk:], eigvals_only=True)
            assert np.max(np.abs(wd - op.w[index[nk:]])) <= 1e-12 * w[-1]
            # both sets meet sector -j's stacked div/traction/pole rows to
            # roundoff of the same rows
            cmat, embed = oracles.sector_constraints_all_channels(ws, n, j)

            def worst(cols):
                res = np.linalg.norm(cmat @ (embed.conj().T @ cols), axis=0)
                return np.max(res / np.linalg.norm(cols, axis=0))

            mirror = oracles.sector_columns(op, index)
            assert worst(mirror) <= 2.0 * worst(direct) + 1e-14
            q, _ = np.linalg.qr(direct)
            leak = mirror - q @ (q.conj().T @ mirror)
            assert np.linalg.norm(leak) < 1e-10 * np.linalg.norm(mirror)


def test_mirrored_kernel_column_is_checked(cfg_small, monkeypatch):
    # a mirror that forgets the sign of u_y keeps u+ as u+ instead of
    # swapping it with u-: its slot table maps e1 + i e2 onto itself, not
    # onto e1 - i e2, and mode 0's set-up must refuse it
    monkeypatch.setattr(stokesop, "_mirror_piece", lambda kind, m: (kind, -m))
    with pytest.raises(RuntimeError, match="mirrored sector -1"):
        assemble_A(js.Workspace(cfg_small), 0)
    # mode 1 has no kernel check, but its mirrored columns leave the
    # sectors that sector -j built directly spans
    ws = js.Workspace(cfg_small)
    op = assemble_A(ws, 1)
    index = next(p.index for p in oracles.sector_parts(op) if p.info["j"] == -2)
    q, _ = np.linalg.qr(_direct_columns(ws, 1, -2)[0])
    mirror = oracles.sector_columns(op, index)
    leak = mirror - q @ (q.conj().T @ mirror)
    assert np.linalg.norm(leak) > 0.1 * np.linalg.norm(mirror)


def test_mirrored_sectors_are_views_of_their_sources(cfg_small):
    ws = js.Workspace(cfg_small)
    pad = 3 * cfg_small.n_modes_theta * cfg_small.n_r
    slots = stokesop._slot_tables(ws)[0]
    for n in range(cfg_small.n_z + 1):
        op = js.mode_operator(ws, n)
        # mirrored sectors store nothing: the stacks hold one entry per
        # complete sector j = 0..n_theta-1, entry i holding sector j = i,
        # and sector -j is side 1 of entry j, read through the slot table
        # on the mirrored pieces
        built = [info["j"] for info in op.info]
        assert built == list(range(cfg_small.n_theta))
        assert op.Z.shape[0] == op.ZW.shape[0] == len(built)
        w = op.w.reshape(len(built), -1, 2)
        for i, j in enumerate(built):
            # every piece of a complete sector lies in the band
            rows = np.count_nonzero(slots[i, :, 0] != pad)
            assert rows == 3 * cfg_small.n_r
            if j > 0:
                assert np.array_equal(w[i, :, 1], w[i, :, 0])
                mirror = stokesop._piece_slots(cfg_small, j, True)
                assert np.array_equal(slots[i, :rows, 1], mirror)
            else:
                assert not np.any(w[i, :, 1]) and np.all(slots[i, :, 1] == pad)


@pytest.fixture(scope="module")
def ws_n_z0():
    return js.Workspace(js.DomainConfig(n_r=12, n_theta=3, n_z=0))


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_wide", "ws_n_z0"])
def test_packed_maps_match_the_per_sector_reference(ws_name, request):
    # the whole-field maps against the per-sector complex path with its
    # slice-level mirror, mode by mode, for one field and a stack of 10
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    rng = stream(49, "tests")
    lam = -1.0 + 2.0j
    refs = {n: oracles.PerSectorMaps(ws, n) for n in range(-cfg.n_z, cfg.n_z + 1)}
    live = {n: oracles.ascending_rank(ref.op) >= 0 for n, ref in refs.items()}
    pad = oracles.field_coords(ws, {n: m.astype(complex) for n, m in live.items()}) == 0.0
    for lead in ((), (10,)):
        shape = lead + (3, cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        r = stokesop.reduce_slice(ws, g)
        y, rel = spectral._pencil_solve(ws, lam, r)
        assert r.shape == pad.shape + lead
        # the padding, side 1 of |n| = 0 included, is exactly zero
        assert not np.any(r[pad]) and not np.any(y[pad])
        assert not np.any(r[0, :, 1]) and not np.any(y[0, :, 1])
        got_r, got_y = oracles.mode_coords(ws, r), oracles.mode_coords(ws, y)
        for n, ref in refs.items():
            want = ref.reduce(g[..., cfg.n_z + n, :, :])
            assert _rel(got_r[n], want) <= 1e-13
            assert _rel(got_y[n], ref.pencil_solve(lam, want)) <= 1e-13
            # the reported bound holds against the rebuilt blocks
            shift = np.conj(lam) if n < 0 else lam
            res = got_r[n] - ref.apply("G", got_y[n]) + shift * ref.apply("M", got_y[n])
            assert np.linalg.norm(res) <= rel[n + cfg.n_z] * np.linalg.norm(got_r[n])
        # c fills the padding too, which the expansion may not read
        c = rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
        v = expand_slice(ws, c)
        assert v.shape == shape
        for n, c_n in oracles.mode_coords(ws, c).items():
            assert _rel(v[..., cfg.n_z + n, :, :], refs[n].expand(c_n)) <= 1e-13
    # resolve over every mode, against the reference's reduce, solve and expand
    g = random_smooth_vector(cfg, rng, real=False)
    v, _ = js.resolve(ws, lam, g)
    want = np.zeros_like(g.coeffs)
    for n, ref in refs.items():
        want[:, cfg.n_z + n] = ref.expand(ref.pencil_solve(lam, ref.reduce(g.coeffs[:, cfg.n_z + n])))
    assert _rel(v.coeffs, want) <= 1e-13
    # both schemes keep side 1 of |n| = 0 at zero, from a state and a forcing
    # on every mode
    u = random_constrained_vector(ws, rng)
    for scheme in js.evolution.SCHEMES:
        evo = js.EvolutionConfig(t_final=0.05, dt=0.01, scheme=scheme, initial=u, forcing=lambda t: g)
        res = js.evolve(ws, evo)
        assert np.any(res.coords[0, :, 0]) and not np.any(res.coords[pad])
    # real fields on one side: the slices n >= 0 reduce to side 0, and side 0
    # expands to modes n >= 0 and, mirrored, to n < 0
    for count in (1, 10):
        g = np.stack([random_smooth_vector(cfg, rng).coeffs for _ in range(count)])
        g = g[0] if count == 1 else g
        lead = g.shape[:-4]
        r = stokesop.reduce_slice(ws, g, real=True)
        assert r.shape == pad.shape[:2] + (1,) + lead
        assert not np.any(r[pad[:, :, :1]])
        c = rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
        v = expand_slice(ws, c)
        assert v.shape == g.shape
        for n, ref in refs.items():
            if n >= 0:
                want = ref.reduce(g[..., cfg.n_z + n, :, :])
                assert _rel(r[n, : ref.op.w.size, 0], want) <= 1e-13
            want = ref.expand(c[abs(n), : ref.op.w.size, 0])
            assert _rel(v[..., cfg.n_z + n, :, :], want) <= 1e-13


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_n_z0"])
def test_one_side_reduce_is_bitwise_side_0_of_the_two_sided_one(ws_name, request):
    # every (mode, side) is its own product of one shape, whatever the width
    ws = request.getfixturevalue(ws_name)
    rng = stream(51, "tests")
    u = random_smooth_vector(ws.config, rng)
    stack = np.stack([random_smooth_vector(ws.config, rng).coeffs for _ in range(7)])
    for g in (u.coeffs, stack):
        one, two = stokesop.reduce_slice(ws, g, real=True), stokesop.reduce_slice(ws, g)
        assert np.array_equal(one[:, :, 0], two[:, :, 0])


def test_mode_stacks_are_views_of_the_field_operator():
    ws = js.Workspace(js.DomainConfig(n_r=12, n_theta=3, n_z=2))
    ops = [js.mode_operator(ws, n) for n in range(3)]
    assert ws.field_op is None
    fop = stokesop.field_operator(ws)
    w, eps_m, eps_g = fop.w, fop.eps_M, fop.eps_G
    assert stokesop.field_operator(ws) is fop and ws.field_op is fop
    for n, op in enumerate(ops):
        now = js.mode_operator(ws, n)
        assert now is not op and now.info is op.info and now.eigen is op.eigen
        for name in ("Z", "ZW"):
            view = getattr(now, name)
            assert view.base is getattr(fop, name) and np.array_equal(view, getattr(op, name))
        assert np.array_equal(w[n, : op.w.size, 0], op.w)
    for a in (fop.Z, fop.ZW, w, eps_m, eps_g, fop.spectrum, fop.scale):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


@pytest.mark.parametrize("field", ["Z"])
def test_stacking_names_a_mode_off_the_shared_layout(field):
    ws = js.Workspace(js.DomainConfig(n_r=12, n_theta=3, n_z=2))
    for n in range(3):
        js.mode_operator(ws, n)
    op = ws.mode_ops[2]
    ws.mode_ops[2] = dataclasses.replace(op, **{field: getattr(op, field)[:, :-1]})
    with pytest.raises(RuntimeError, match="mode 2 does not share mode 0's packed layout"):
        stokesop.reduce_slice(ws, random_smooth_vector(ws.config, stream(52, "tests")).coeffs)


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_n_z0"])
def test_resolve_of_one_mode_leaves_the_others_zero(ws_name, request):
    # modes whose right-hand side is zero have no residual to report
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    g = random_smooth_vector(cfg, stream(50, "tests"), real=False)
    lam = -1.0 + 2.0j
    for n in sorted({0, 1, -1, cfg.n_z, -cfg.n_z}):
        if abs(n) > cfg.n_z:
            continue
        one = zeros_vector(cfg)
        one.coeffs[:, cfg.n_z + n] = g.coeffs[:, cfg.n_z + n]
        v, info = js.resolve(ws, lam, one)
        assert math.isfinite(info["max_rel_residual"]) and info["max_rel_residual"] < 1e-8
        assert info["warnings"] == []
        others = np.delete(v.coeffs, cfg.n_z + n, axis=1)
        assert not np.any(others)
        ref = oracles.PerSectorMaps(ws, n)
        want = ref.expand(ref.pencil_solve(lam, ref.reduce(one.coeffs[:, cfg.n_z + n])))
        assert _rel(v.coeffs[:, cfg.n_z + n], want) <= 1e-13
    v, info = js.resolve(ws, lam, zeros_vector(cfg))
    assert info == {"max_rel_residual": 0.0, "warnings": []} and not np.any(v.coeffs)


def test_order_ranks_the_packed_eigenvalues(ws_small):
    for n in range(ws_small.config.n_z + 1):
        op = js.mode_operator(ws_small, n)
        w = op.eigen[0]
        assert np.array_equal(op.w.flat[op.order], w)
        live = np.zeros(op.w.size, dtype=bool)
        parts = oracles.sector_parts(op)
        for p in parts:
            # the live entries of a sector hold its pencil's eigenvalues
            want = scipy.linalg.eigh(p.G, p.M, eigvals_only=True)
            assert np.max(np.abs(np.sort(op.w[p.index]) - want)) <= 1e-12 * w[-1]
            live[p.index] = True
        assert np.array_equal(np.sort(op.order), np.flatnonzero(live))
        assert not np.any(op.w[~live])
        if n == 0:
            # the four kernel entries are the four lowest
            kernel = [q for p in parts for q in p.index[: p.nk]]
            assert sorted(oracles.ascending_rank(op)[kernel]) == [0, 1, 2, 3]


def test_stored_sector_arrays_are_real(cfg_small):
    # set-up stores real stacks and integer index tables only; the strong
    # blocks are never stored (strong_blocks computes them on each call)
    ws = js.Workspace(cfg_small)
    for n in range(cfg_small.n_z + 1):
        op = js.mode_operator(ws, n)
        arrays = list(_cached_arrays(op))
        assert arrays
        for a in arrays:
            assert a.dtype == np.float64 or a.dtype.kind == "i", a.dtype


def test_strong_assembly_stays_on_each_sector_reach(cfg_medium, monkeypatch):
    # A acts on each built sector's reach, its window [lo, hi] widened by 2
    # and clipped to the band; the pressure solve and its gradient stacks
    # sit one channel wider, and no kernel asks for the whole band
    ws = js.Workspace(cfg_medium)
    nt = cfg_medium.n_theta
    ops = [js.mode_operator(ws, n) for n in range(cfg_medium.n_z + 1)]
    ranges, solves, building = [], [], []
    stacks = RadialTables.stacks
    dirichlet = RadialTables.dirichlet
    solve = helmholtz.laplace_solve_channels

    def recorded_stacks(self, lo, hi):
        if not building:
            ranges.append((lo, hi))
        return stacks(self, lo, hi)

    def recorded_dirichlet(self, lo, hi):
        # the tables read the band stacks they slice the range from
        building.append(lo)
        try:
            return dirichlet(self, lo, hi)
        finally:
            building.pop()

    def recorded_solve(ws_, n, f_arr, bc_arr, lo):
        solves.append((n, lo, lo + f_arr.shape[-2] - 1))
        return solve(ws_, n, f_arr, bc_arr, lo)

    monkeypatch.setattr(RadialTables, "stacks", recorded_stacks)
    monkeypatch.setattr(RadialTables, "dirichlet", recorded_dirichlet)
    monkeypatch.setattr(helmholtz, "laplace_solve_channels", recorded_solve)
    windows = set()
    for op in ops:
        strong_blocks(op)
        reach = set()
        for info in op.info:
            lo, hi = stokesop._sector_window(cfg_medium, info["j"])
            windows.add((lo, hi))
            reach.add((max(lo - 2, -nt), min(hi + 2, nt)))
        assert {key for key in solves if key[0] == op.n} == {
            (op.n, lo - 1, hi + 1) for lo, hi in reach
        }
    assert ranges
    for lo, hi in [key[1:] for key in solves] + ranges:
        assert any(wlo - 3 <= lo and hi <= whi + 3 for wlo, whi in windows)
        assert hi - lo <= 8 < 2 * nt


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_medium"])
def test_windowed_strong_blocks_match_full_band_reference(ws_name, request):
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    for n in range(cfg.n_z + 1):
        op = js.mode_operator(ws, n)
        blocks, leaks = strong_blocks(op)
        for p in oracles.sector_parts(op):
            k = p.index.size
            cols = oracles.sector_columns(op, p.index)
            a, leak = oracles.strong_block_full_band(ws, n, cols, p.info["j"])
            assert np.linalg.norm(blocks[p.entry, :k, :k] - a) <= 1e-12 * np.linalg.norm(a)
            assert abs(leaks[p.entry] - leak) <= 1e-12


@pytest.mark.parametrize("grid", [(12, 3, 2), (24, 6, 4)], ids=["12-3-2", "24-6-4"])
def test_pencil_eigh_matches_scipy_on_every_sector(grid, monkeypatch):
    # a sector's columns are L^2-orthonormal, so the plain eigh of G that
    # set-up runs solves its pencil (G, M): scipy's sygvd on the sector's
    # actual M is an independent reference for the eigenvalues, and the
    # eigenvectors are M-orthonormal
    n_r, n_theta, n_z = grid
    ws = js.Workspace(js.DomainConfig(n_r=n_r, n_theta=n_theta, n_z=n_z))
    cfg, t = ws.config, ws.tables
    seen = []
    eigh = np.linalg.eigh

    def recorded(a):
        w, v = eigh(a)
        seen.append((a, w, v))
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    for n in range(n_z + 1):
        js.mode_operator(ws, n)
    monkeypatch.undo()
    sectors = [(n, j) for n in range(n_z + 1) for j in range(n_theta)]
    assert len(seen) == len(sectors)
    for (g, w, v), (n, j) in zip(seen, sectors):
        z, info = stokesop.build_constrained_basis(ws, n, j)
        nk = len(info["kernel_columns"])
        m = z.T @ stokesop._unit_weight(t, cfg, j, z)
        m = 0.5 * (m + m.T)[nk:, nk:]
        f = stokesop._dissipation_factor(t, cfg, j, z, cfg.beta(n))
        assert np.array_equal(g, f[nk:] @ f[nk:].T)
        want = scipy.linalg.eigh(g, m, eigvals_only=True)
        assert np.max(np.abs(w - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.linalg.norm(v.T @ m @ v - np.eye(w.size)) <= 1e-12


def test_set_up_builds_nonnegative_sectors_on_their_windows(cfg_small, monkeypatch):
    ws = js.Workspace(cfg_small)
    calls, ranges = [], []
    build = stokesop.build_constrained_basis
    stacks = RadialTables.stacks

    def counted_build(ws_, n, j):
        calls.append((n, j))
        return build(ws_, n, j)

    def recorded_stacks(self, lo, hi):
        ranges.append((lo, hi))
        return stacks(self, lo, hi)

    def refuse(*args, **kwargs):
        raise AssertionError("set-up reached scipy.linalg")

    monkeypatch.setattr(stokesop, "build_constrained_basis", counted_build)
    monkeypatch.setattr(RadialTables, "stacks", recorded_stacks)
    # set-up runs on numpy's LAPACK alone
    for name in ("eigh", "svd", "qr", "block_diag"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    for n in range(cfg_small.n_z + 1):
        js.mode_operator(ws, n)
    nt = cfg_small.n_theta
    assert calls == [(n, j) for n in range(cfg_small.n_z + 1) for j in range(nt)]
    # each kernel ran on a sector window [j - 1, j + 1], j >= 0, widened by
    # at most one channel on each side for the strain entries; sector -1's
    # window [-2, 0] is read once at mode 0 for its kernel check
    assert ranges
    assert all(hi - lo <= 4 and lo >= -2 for lo, hi in ranges)


# the all-channel reference is the complex construction (complex rows,
# SVD, samples and eigh), so this also holds the real set-up to it
@pytest.mark.parametrize("ws_name", ["ws_small", "ws_medium", "ws_wide"])
def test_windowed_sectors_match_all_channel_reference(ws_name, request):
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    # a sector the band clips is not built
    with pytest.raises(ValueError, match="j = %d is not complete" % cfg.n_theta):
        _direct_columns(ws, 0, cfg.n_theta)
    for n in range(cfg.n_z + 1):
        # the windowed constraint SVD on the sector's Zernike coefficients
        # has the dimension and the nullspace of the Cartesian and nodal
        # pole rows over all channels, from fewer rows
        for j in range(1 - cfg.n_theta, cfg.n_theta):
            cols, info = _direct_columns(ws, n, j)
            null, kept, _ = oracles.sector_nullspace_all_channels(ws, n, j)
            assert info["dim"] == cols.shape[1] == null.shape[1]
            assert info["rows_kept"] < kept
            leak = cols - null @ (null.conj().T @ cols)
            assert np.linalg.norm(leak) <= 1e-10 * np.linalg.norm(cols)
        op = js.mode_operator(ws, n)
        w = op.eigen[0]
        basis = op.basis
        for p in oracles.sector_parts(op):
            m, g = oracles.pencil_all_channels(ws, n, oracles.sector_columns(op, p.index))
            assert np.max(np.abs(m - p.M)) <= 1e-12 * np.max(np.abs(m))
            assert np.max(np.abs(g - p.G)) <= 1e-12 * np.max(np.abs(g))
            null, _, _ = oracles.sector_nullspace_all_channels(ws, n, p.info["j"])
            mo, go = oracles.pencil_all_channels(ws, n, null)
            wo = scipy.linalg.eigh(go, mo, eigvals_only=True)
            assert np.max(np.abs(wo - np.sort(op.w[p.index]))) <= 1e-12 * w[-1]
        null = oracles.dense_constrained_nullspace(ws, n)
        assert null.shape[1] == w.size
        leak = basis - null @ (null.conj().T @ basis)
        assert np.linalg.norm(leak) < 1e-10 * np.linalg.norm(basis)


@pytest.mark.parametrize(
    "n_r, n_theta",
    [(12, 3), (24, 6), (32, 8), (40, 10), (48, 16), (64, 32)],
    ids=["12-3", "24-6", "32-8", "40-10", "48-16", "64-32"],
)
def test_sector_dimension_is_a_count(n_r, n_theta):
    # the Galerkin divergence and traction rows have full row rank, so K_j
    # is the count in every sector; the nodal rows with a relative cutoff
    # left K_j one short in 6 sectors per mode at 48/16 and 22 at 64/32
    ws = js.Workspace(js.DomainConfig(n_r=n_r, n_theta=n_theta, n_z=1))
    for n in (0, 1):
        for j in range(n_theta):
            info = stokesop.build_constrained_basis(ws, n, j)[1]
            assert info["dim"] == oracles.sector_dimension(n_r, n, j), (n, j)
            assert info["row_conditioning"] >= 1e-4, (n, j, info["row_conditioning"])


def test_zernike_cholesky_pass_keeps_the_pencil_orthonormal():
    # each sector's eigh assumes M = I; the Cholesky pass in zernike takes
    # the recurrence's roundoff out of the tables' orthonormality (max
    # eps_M over mode 0 measured 1.86e-14 with it, about 5.4e-14 without)
    ws = js.Workspace(js.DomainConfig(n_r=48, n_theta=16, n_z=0))
    eps_m = max(info["eps_M"] for info in stokesop.mode_operator(ws, 0).info)
    assert eps_m <= 3e-14, eps_m


def test_rank_loss_names_its_sector(cfg_small):
    ws = js.Workspace(cfg_small)
    r0, r1 = stokesop._sector_rows(ws, 2)
    ws.sector_rows[2] = (np.concatenate([r0, r0[:1]]), np.concatenate([r1, r1[:1]]))
    with pytest.raises(RuntimeError, match="mode 1 sector 2 constraint rows lost rank"):
        stokesop.build_constrained_basis(ws, 1, 2)


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_wide"])
def test_sector_rows_are_real_and_split_in_beta(ws_name, request):
    # with the z piece times i, every constraint row of every (n, j) is a
    # phase times a real row, and the cached r0 + beta r1 is that row
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    with pytest.raises(ValueError, match="j = %d is not complete" % -cfg.n_theta):
        oracles.row_phase_defects(ws, 0, -cfg.n_theta)
    for n in range(-cfg.n_z, cfg.n_z + 1):
        for j in range(1 - cfg.n_theta, cfg.n_theta):
            imag, split = oracles.row_phase_defects(ws, n, j)
            assert imag <= 1e-14 and split <= 1e-14, (n, j, imag, split)


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_wide"])
def test_sector_grams_have_no_imaginary_part(ws_name, request):
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    t = ws.tables
    with pytest.raises(ValueError, match="j = %d is not complete" % cfg.n_theta):
        stokesop._sector_units(cfg, cfg.n_theta)
    for j in range(1 - cfg.n_theta, cfg.n_theta):
        # the unit Gram is real and block diagonal, as _unit_weight forms it
        units = stokesop._sector_units(cfg, j)
        lo = stokesop._sector_window(cfg, j)[0]
        k = units.shape[0]
        mu = np.conj(units.reshape(k, -1)) @ _apply_weight(t, cfg.ell, units, lo).reshape(k, -1).T
        assert np.max(np.abs(mu.imag)) <= 1e-14 * np.max(np.abs(mu))
        want = stokesop._unit_weight(t, cfg, j, np.eye(k))
        assert np.max(np.abs(mu.real - want)) <= 1e-14 * np.max(np.abs(want))
        # M and G of each real basis, sampled in complex arithmetic
        for n in range(cfg.n_z + 1):
            cols, _ = _direct_columns(ws, n, j)
            m, g = oracles.pencil_all_channels(ws, n, cols)
            assert np.max(np.abs(m.imag)) <= 1e-14 * np.max(np.abs(m))
            assert np.max(np.abs(g.imag)) <= 1e-14 * np.max(np.abs(g))


def _expand_mode(ws, n, y):
    """Field coefficients of packed mode-n coordinates y, zero on every other mode."""
    return expand_slice(ws, oracles.field_coords(ws, {n: y}))


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_wide"])
def test_h2_gram_is_sector_diagonal(ws_name, request):
    # the H^2_p word outputs of a mode's eigenvector fields, stacked as
    # columns, give its H^2_p Gram in eigen coordinates; the form commutes
    # with rotations about the axis, so no entry couples two sectors j
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    words = ws.tables.sobolev_words(cfg.n_theta, 2)
    for n in range(-cfg.n_z, cfg.n_z + 1):
        op = js.mode_operator(ws, abs(n))
        live = op.order
        scales = fields._order_scales(cfg.ell, cfg.n_z, 2)[:, cfg.n_z + n]
        cols = []
        for chunk in np.array_split(live, -(-live.size // 128)):
            eye = np.zeros((op.w.size, chunk.size))
            eye[chunk, np.arange(chunk.size)] = 1.0
            v = _expand_mode(ws, n, eye)[:, :, cfg.n_z + n]
            x = v.transpose(2, 3, 1, 0).reshape(cfg.n_modes_theta, cfg.n_r, -1)
            ys = [s * (stack @ x) for stack, s in zip(words, scales)]
            cols.append(np.concatenate([y.reshape(-1, chunk.size) for y in ys]))
        y = np.concatenate(cols, axis=1)
        gram = y.conj().T @ y
        # its diagonal holds the squared H^2_p norms of the eigenvector fields
        first = js.VectorField(cfg, _expand_mode(ws, n, np.eye(op.w.size)[:, live[0]]))
        assert gram[0, 0].real == pytest.approx(js.norm_Hkp(first, 2) ** 2, rel=1e-12)
        # packed index (stack entry j, column, [sector j, mirror -j])
        entry = live // (op.w.size // len(op.info))
        sector = np.where(live % 2 == 0, entry, -entry)
        off = sector[:, None] != sector
        assert np.abs(gram[off]).max() <= 1e-14 * np.abs(gram).max(), n


def test_mass_matrix_matches_inner_product(ws_small):
    cfg = ws_small.config
    op = js.mode_operator(ws_small, 1)
    rng = stream(41, "tests")
    k = op.basis.shape[1]
    y1 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    y2 = rng.standard_normal(k) + 1j * rng.standard_normal(k)

    u = js.VectorField(cfg, _expand_mode(ws_small, 1, oracles.packed(op, y1)), False)
    v = js.VectorField(cfg, _expand_mode(ws_small, 1, oracles.packed(op, y2)), False)
    want = js.inner_product_Hkp(u, v, 0)
    got = np.conj(y2) @ (oracles.dense_blocks(op)[0] @ y1)
    assert got == pytest.approx(want, rel=1e-11)


def test_dissipation_matches_weak_block(ws_small):
    op = js.mode_operator(ws_small, 1)
    rng = stream(42, "tests")
    k = op.basis.shape[1]
    y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    quad = float(np.real(np.conj(y) @ (oracles.dense_blocks(op)[1] @ y)))
    slice_1 = _expand_mode(ws_small, 1, oracles.packed(op, y))[:, ws_small.config.n_z + 1]
    diss = oracles.dissipation_slice(ws_small, 1, slice_1)
    assert diss == pytest.approx(quad, rel=1e-11)


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_medium"])
def test_near_zero_eigenvalues_are_dissipation_quotients(ws_name, request):
    # every eigenvalue is |F v|^2 / M_vv of its eigenvector; below
    # 1e-8 lam_max that is a positive roundoff-level number, the quadrature
    # dissipation quotient of the same field, not the 0 or the eps ||G||
    # jitter of the pencil eigh
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    op = js.mode_operator(ws, 0)
    w = op.eigen[0]
    pinned = 0
    for p in oracles.sector_parts(op):
        own = op.info[p.entry]
        for c in np.flatnonzero(op.w[p.index] < 1e-8 * w[-1]):
            col = stokesop._sector_fields(cfg, own["j"], p.z[:, c : c + 1])[0]
            lo = stokesop._sector_window(cfg, own["j"])[0]
            want = oracles.dissipation_slice(ws, 0, col, lo) / p.M[c, c]
            got = op.w[p.index[c]]
            assert 0.0 < got <= 1e-20 * w[-1]
            assert got == pytest.approx(want, rel=1e-12)
            pinned += 1
    assert pinned == 4


@pytest.mark.parametrize(
    "grid", [(12, 3, 2), (24, 6, 4), (32, 8, 8)], ids=["12-3-2", "24-6-4", "32-8-8"]
)
def test_helical_factor_matches_the_cartesian_strain(grid):
    # the six real helical blocks carry the form of the Cartesian strain
    # entries: the same G on every sector, and |F y|^2 the quadrature
    # dissipation of the sector field of coordinates y
    cfg = js.DomainConfig(n_r=grid[0], n_theta=grid[1], n_z=grid[2])
    ws = js.Workspace(cfg)
    rng = stream(61, "tests")
    for n in (0, 1, cfg.n_z):
        beta = cfg.beta(n)
        for j in range(cfg.n_theta):
            z, _ = stokesop.build_constrained_basis(ws, n, j)
            f = stokesop._dissipation_factor(ws.tables, cfg, j, z, beta)
            assert f.dtype == np.float64 and f.shape == (z.shape[1], 6 * cfg.n_r)
            want = oracles.cartesian_dissipation_factor(ws, j, z, beta)
            g, g_want = f @ f.T, want @ want.T
            assert np.linalg.norm(g - g_want) <= 1e-13 * np.linalg.norm(g_want)
            y = rng.standard_normal(z.shape[1])
            field = stokesop._sector_fields(cfg, j, z @ y[:, None])[0]
            diss = oracles.dissipation_slice(ws, n, field, j - 1)
            assert np.sum((y @ f) ** 2) == pytest.approx(diss, rel=1e-12)


def test_lowest_eigenvalue_is_accurate_to_its_own_size():
    # mode 1's lowest eigenvalue at 32/8 is 0.15035260570934 to the digits
    # shown (a 40-digit solve of its sector pencil); read off the pencil
    # eigh it would carry an error of about eps * lam_max, 1e-10 relative
    cfg = js.DomainConfig(n_r=32, n_theta=8, n_z=1)
    w = js.mode_operator(js.Workspace(cfg), 1).eigen[0]
    assert w[0] == pytest.approx(0.15035260570934, rel=5e-11)


def test_per_mode_set_up_stays_real(cfg_small, monkeypatch):
    # mode 0 builds and caches every sector's constraint rows; past it a
    # mode's set-up forms no complex sector field and no Cartesian derivative
    ws = js.Workspace(cfg_small)
    js.mode_operator(ws, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("complex sector field in the per-mode set-up")

    for module, name in (
        (stokesop, "_sector_fields"),
        (stokesop, "_dxy"),
        (fields, "_dxy"),
        (fields, "_up_down"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for n in range(1, cfg_small.n_z + 1):
        assert js.mode_operator(ws, n).n == n


def test_form_sector_coercivity(ws_small):
    # the sector estimate of the form: with D(v) >= 0 the dissipation,
    # |D(v) - lam ||v||^2| >= |lam| ||v||^2 / sqrt(2) whenever |Im lam| > Re lam
    cfg = ws_small.config
    v = random_constrained_vector(ws_small, stream(44, "tests"))
    nv2 = js.norm_L2(v) ** 2
    diss = sum(
        oracles.dissipation_slice(ws_small, n, v.coeffs[:, cfg.n_z + n])
        for n in range(-cfg.n_z, cfg.n_z + 1)
    )
    for lam in (1j, -1.0 + 2.0j, 4j):
        val = abs(diss - lam * nv2)
        assert val >= abs(lam) / math.sqrt(2.0) * nv2 - 1e-8


def test_hermiticity_and_agreement(ws_small):
    for n in range(ws_small.config.n_z + 1):
        op = js.mode_operator(ws_small, n)
        blocks, _ = strong_blocks(op)
        for p in oracles.sector_parts(op):
            k = p.index.size
            a = blocks[p.entry, :k, :k]
            assert np.linalg.norm(a - a.T) / np.linalg.norm(a) < 1e-10
            assert np.linalg.norm(a - p.G) / np.linalg.norm(p.G) < 1e-8
        assert op.eigen[0].size == op.basis.shape[1]
        # every sector's rows have full row rank: its nullspace is the count
        for info in op.info:
            assert info["row_conditioning"] >= 1e-4
            assert info["dim"] == oracles.sector_dimension(ws_small.config.n_r, n, info["j"])


def test_apply_A_kills_rotation(ws_small):
    rot = rigid_rotation(ws_small.config)
    out = _apply_A_on_slice(ws_small, rot, 0)
    assert js.norm_L2(out) < 1e-9 * js.norm_L2(rot)


def test_twisted_rotation_is_exact_eigenfield(ws_small):
    cfg = ws_small.config
    v = _twisted_rotation(cfg)
    lam = cfg.mu * cfg.beta(1) ** 2
    out = _apply_A_on_slice(ws_small, v, 1)
    err = js.norm_L2(out - v * lam) / js.norm_L2(v)
    assert err < 1e-9
    # it satisfies the constraints: no divergence, no tangential traction
    assert js.norm_L2(js.div(v)) < 1e-13
    tt = js.tangential_traction(ws_small, v)
    assert np.max(np.abs(tt)) < 1e-12
    assert np.max(np.abs(_traction(ws_small, v))) < 1e-12


def test_traction_closed_form(ws_small):
    cfg = ws_small.config
    # v = (x, y, 0): E = 2 I_2, so S = -2 mu (cos, sin, 0): purely normal
    r = ws_small.tables.r
    v = zeros_vector(cfg)
    v.coeffs[0, cfg.n_z, cfg.n_theta + 1, :] = 0.5 * r
    v.coeffs[0, cfg.n_z, cfg.n_theta - 1, :] = 0.5 * r
    v.coeffs[1, cfg.n_z, cfg.n_theta + 1, :] = -0.5j * r
    v.coeffs[1, cfg.n_z, cfg.n_theta - 1, :] = 0.5j * r
    tr = _traction(ws_small, v)
    b = cfg.n_theta + 2
    assert tr.shape == (3, cfg.n_modes_z, 2 * b + 1)
    want = np.zeros_like(tr)
    mu = cfg.mu
    want[0, cfg.n_z, b + 1] = -mu
    want[0, cfg.n_z, b - 1] = -mu
    want[1, cfg.n_z, b + 1] = 1j * mu
    want[1, cfg.n_z, b - 1] = -1j * mu
    assert np.max(np.abs(tr - want)) < 1e-12
    tt = js.tangential_traction(ws_small, v)
    assert tt.shape == (2, cfg.n_modes_z, 2 * cfg.n_theta + 3)
    assert np.max(np.abs(tt)) < 1e-12
    # the shear (x, -y, 0): u_r = r cos(2 theta), u_theta = -r sin(2 theta),
    # so tau_rtheta = -2 mu sin(2 theta) and tau_rz = 0
    v.coeffs[1] *= -1.0
    tt = js.tangential_traction(ws_small, v)
    want = np.zeros_like(tt)
    b = cfg.n_theta + 1
    want[0, cfg.n_z, b + 2] = 1j * mu
    want[0, cfg.n_z, b - 2] = -1j * mu
    assert np.max(np.abs(tt - want)) < 1e-12


def test_negative_mode_spectra_match(ws_small):
    op_p = js.mode_operator(ws_small, 1)
    op_m = assemble_A(ws_small, -1)
    mp, gp = oracles.dense_blocks(op_p)
    mm, gm = oracles.dense_blocks(op_m)
    wp = scipy.linalg.eigh(gp, mp, eigvals_only=True)
    wm = scipy.linalg.eigh(gm, mm, eigvals_only=True)
    assert wp.shape == wm.shape
    assert np.max(np.abs(wp - wm)) < 1e-8 * max(wp[-1], 1.0)


def test_negative_mode_projection_matches_direct(ws_small):
    cfg = ws_small.config
    t = ws_small.tables
    u = random_smooth_vector(cfg, stream(45, "tests"), real=False)
    proj, _ = project_constrained(ws_small, u)
    op_m = assemble_A(ws_small, -1)
    i_n = cfg.n_z - 1
    uw = _apply_weight(t, cfg.ell, u.coeffs[:, i_n]).reshape(-1)
    r = op_m.basis.conj().T @ uw
    y = scipy.linalg.solve(oracles.dense_blocks(op_m)[0], r, assume_a="pos")
    direct = (op_m.basis @ y).reshape(proj.coeffs[:, i_n].shape)
    err = np.linalg.norm(direct - proj.coeffs[:, i_n])
    assert err < 1e-10 * max(np.linalg.norm(direct), 1e-30)


def test_real_field_shares_coordinates_across_signs(ws_small):
    cfg = ws_small.config
    u = random_smooth_vector(cfg, stream(49, "tests"), real=True)
    coords = stokesop.reduce_slice(ws_small, u.coeffs)
    # side 1 of |n| holds mode -|n|, read on its conjugate m-reversal
    for n in range(1, cfg.n_z + 1):
        err = np.linalg.norm(coords[n, :, 1] - coords[n, :, 0])
        assert err < 1e-12 * np.linalg.norm(coords[n, :, 0])


def test_mode_operator_rejects_negative(ws_small):
    with pytest.raises(ValueError, match="mode blocks"):
        js.mode_operator(ws_small, -1)


def test_random_constrained_vector_properties(ws_small):
    v = random_constrained_vector(ws_small, stream(46, "tests"))
    assert js.norm_L2(v) == pytest.approx(1.0, rel=1e-10)
    assert js.norm_L2(js.div(v)) < 1e-7
    tt = js.tangential_traction(ws_small, v)
    assert np.max(np.abs(tt)) < 1e-6
    again = random_constrained_vector(ws_small, stream(46, "tests"))
    assert np.array_equal(v.coeffs, again.coeffs)


@pytest.mark.parametrize("n_r, n_theta", [(12, 3), (16, 4)])
def test_built_sectors_do_not_see_the_band_edge(n_r, n_theta):
    # every built sector holds all three pieces, so two more channels on
    # each side of the band leave its pencil as it is
    ws = js.Workspace(js.DomainConfig(n_r=n_r, n_theta=n_theta, n_z=2))
    wide = js.Workspace(js.DomainConfig(n_r=n_r, n_theta=n_theta + 2, n_z=2))
    for n in range(3):
        op, op2 = js.mode_operator(ws, n), js.mode_operator(wide, n)
        lam_max = op.eigen[0][-1]
        assert len(op.info) == n_theta and len(op2.info) == n_theta + 2
        w = op.w.reshape(n_theta, -1, 2)
        w2 = op2.w.reshape(n_theta + 2, -1, 2)
        for j, info in enumerate(op.info):
            k = info["dim"]
            assert op2.info[j]["dim"] == k
            assert np.max(np.abs(w[j, :k, 0] - w2[j, :k, 0])) <= 1e-12 * lam_max


def test_no_reported_eigenvalue_comes_from_a_clipped_sector():
    # at 12/3/2 the clipped sectors +-3 put 70.6, 68.8938 and 65.2089 twice
    # each among the 20 lowest eigenvalues of modes 0, 1 and 2
    ws = js.Workspace(js.DomainConfig(n_r=12, n_theta=3, n_z=2))
    for n, clipped in ((0, 70.59995), (1, 68.8938), (2, 65.2089)):
        got = np.array([e.lam.real for e in js.eigensolve(ws, n, 20)])
        assert got.size == 20
        assert np.min(np.abs(got - clipped)) > 1e-3
