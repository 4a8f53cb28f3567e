"""Boundary link tables and coefficients against their reference
construction: one shifted fluid mask per direction, and one coefficient
per condition and direction.  ``BoundaryHandling`` builds the same
tables from one padded mask and a per-condition coefficient row; every
array must come out equal, dtype included."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.core.flags import FlagField
from repro.lbm.boundary import BoundaryHandling, NoSlip, PressureABB, UBB
from repro.lbm.lattice import D2Q9, D3Q19

from test_boundary import CONDITIONS, make_channel_flags, mixed_flags
from test_boundary_update import lid_sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _shift_mask(mask, e):
    """``out[w] = mask[w + e]`` with out-of-range treated as False."""
    out = np.zeros_like(mask)
    src_sl, dst_sl = [], []
    for n, ec in zip(mask.shape, e):
        ec = int(ec)
        if ec >= 0:
            dst_sl.append(slice(0, n - ec))
            src_sl.append(slice(ec, n))
        else:
            dst_sl.append(slice(-ec, n))
            src_sl.append(slice(0, n + ec))
    out[tuple(dst_sl)] = mask[tuple(src_sl)]
    return out


def reference_tables(model, flag_field, conditions):
    """``(wall, fluid, off, coef)`` built one direction at a time."""
    padded = flag_field.data.shape
    strides = [1] * model.dim
    for d in range(model.dim - 2, -1, -1):
        strides[d] = strides[d + 1] * padded[d + 1]
    fluid = (flag_field.data & fl.FLUID) != 0
    q, n_cond = model.q, len(conditions)
    near = np.zeros((q - 1,) + padded, dtype=bool)
    for a in range(1, q):
        near[a - 1] = _shift_mask(fluid, model.velocities[a])
    walls = np.zeros((n_cond, 1) + padded, dtype=bool)
    for k, c in enumerate(conditions):
        walls[k, 0] = (flag_field.data & np.uint8(c.flag)) != 0
    hits = np.flatnonzero(walls & near[None])
    pair, wall = np.divmod(hits, fluid.size)
    step = np.array([int(np.dot(e, strides)) for e in model.velocities], dtype=np.int64)
    start = np.zeros(n_cond * (q - 1) + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair, minlength=n_cond * (q - 1)), out=start[1:])
    first = np.maximum(np.arange(q + 1) - 1, 0)
    off = start[np.arange(n_cond)[:, None] * (q - 1) + first]
    w = model.weights
    coef = np.zeros((n_cond, q), dtype=np.float64)
    for k, cond in enumerate(conditions):
        for a in range(1, q):
            if isinstance(cond, UBB):
                e = model.velocities[a].astype(np.float64)
                uw = np.asarray(cond.velocity, dtype=np.float64)
                coef[k, a] = 6.0 * float(w[a]) * cond.rho0 * float(np.dot(e, uw))
            elif isinstance(cond, PressureABB):
                coef[k, a] = 2.0 * float(w[a]) * cond.rho_w
    return wall, wall + step[pair % (q - 1) + 1], off, coef


def assert_reference_tables(handler):
    expected = reference_tables(handler.model, handler.flag_field, handler.conditions)
    got = (handler._wall, handler._fluid, handler._off, handler._coef)
    for name, a, b in zip(("wall", "fluid", "off", "coef"), got, expected):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
        if name == "coef":  # the signs of zero coefficients too
            assert np.array_equal(np.signbit(a), np.signbit(b)), name


def _load_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
        from tracing import NullRecorder
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, NullRecorder


@pytest.mark.parametrize("name", ["cavity-dense", "coronary", "channel-overlap"])
def test_every_block_of_the_benchmark_workloads(name):
    workloads, NullRecorder = _load_workloads()
    spec = json.loads((PERFBENCH / "spec.json").read_text())
    sim, _ = workloads.build(
        workloads.params_for(spec, name, 0, smoke=True), NullRecorder()
    )
    try:
        assert sim.runtimes
        for rt in sim.runtimes.values():
            assert_reference_tables(rt.handler)
    finally:
        sim.close()


def _single_enclosed_cell():
    ff = FlagField((1, 1, 1))
    ff.fill(fl.FLUID)
    ff.data[ff.data == 0] = fl.NO_SLIP
    return ff


def _fluid_box():
    ff = FlagField((3, 3, 3))
    ff.fill(fl.FLUID)
    return ff


@pytest.mark.parametrize(
    "flags, conditions",
    [
        (mixed_flags, CONDITIONS),
        (mixed_flags, CONDITIONS[::-1]),
        (mixed_flags, [CONDITIONS[1]]),
        (lambda: mixed_flags((3, 9, 4)), CONDITIONS),
        (lambda: make_channel_flags((4, 5, 6)), CONDITIONS),
        (lambda: make_channel_flags((3, 3, 3)), []),
        (_single_enclosed_cell, [NoSlip()]),
        (_fluid_box, [NoSlip()]),
    ],
    ids=["mixed", "mixed-reversed", "mixed-ubb", "mixed-thin", "channel",
         "no-conditions", "enclosed-cell", "no-walls"],
)
def test_boundary_test_fixtures(flags, conditions):
    assert_reference_tables(BoundaryHandling(D3Q19, flags(), conditions))


def test_lid_driven_simulation_and_its_update():
    sim, lid = lid_sim()
    handler = sim.runtimes[0].handler
    assert_reference_tables(handler)
    sim.update_boundary(lid, UBB(velocity=(-0.05, 0.0, 0.0)))
    assert_reference_tables(handler)


def test_two_dimensional_lattice():
    ff = FlagField((5, 4))
    ff.fill(fl.FLUID)
    ff.data[0], ff.data[-1] = fl.NO_SLIP, fl.PRESSURE_BC
    ff.data[:, 0], ff.data[:, -1] = fl.VELOCITY_BC, fl.NO_SLIP
    ff.data[2, 2] = fl.NO_SLIP
    conditions = [NoSlip(), UBB(velocity=(0.03, -0.01)), PressureABB(rho_w=0.99)]
    assert_reference_tables(BoundaryHandling(D2Q9, ff, conditions))


def test_coefficients_follow_the_exact_condition():
    """Conditions equal under ``==`` but with different bits (a signed
    zero) get their own rows; a list velocity works too."""
    conditions = [
        [PressureABB(rho_w=0.0)], [PressureABB(rho_w=-0.0)],
        [UBB(velocity=(0.01, 0, 0))], [UBB(velocity=[0.01, 0.0, -0.0])],
    ]
    for conds in conditions:
        assert_reference_tables(BoundaryHandling(D3Q19, mixed_flags(), conds))
