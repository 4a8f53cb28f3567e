"""Tests for VTK output, OBJ mesh I/O, and checkpoint/restore."""

import io

import numpy as np
import pytest

from repro import flagdefs as fl
from repro.balance import balance_forest
from repro.blocks import SetupBlockForest
from repro.comm import DistributedSimulation
from repro.core import Simulation
from repro.errors import GeometryError, ReproError
from repro.geometry import AABB, capped_tube, icosphere
from repro.io import (
    load_checkpoint,
    read_obj,
    save_checkpoint,
    write_obj,
    write_simulation_vtk,
    write_vtk,
)
from repro.lbm import NoSlip, TRT, UBB


class TestObj:
    def test_roundtrip_with_colors(self):
        m = capped_tube(
            (0, 0, 0), (0, 0, 3), 1.0, segments=8,
            start_cap_color=1, end_cap_color=2,
        )
        buf = io.StringIO()
        write_obj(m, buf)
        buf.seek(0)
        m2 = read_obj(buf)
        assert np.allclose(m.vertices, m2.vertices)
        assert np.array_equal(m.triangles, m2.triangles)
        assert np.array_equal(m.vertex_colors, m2.vertex_colors)

    def test_roundtrip_on_disk(self, tmp_path):
        m = icosphere((1, 2, 3), 0.5, 1)
        p = str(tmp_path / "sphere.obj")
        write_obj(m, p)
        m2 = read_obj(p)
        assert m2.n_triangles == m.n_triangles
        assert m2.is_watertight()

    def test_quad_faces_triangulated(self):
        obj = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        m = read_obj(io.StringIO(obj))
        assert m.n_triangles == 2

    def test_slash_references(self):
        obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2/2 3//3\n"
        m = read_obj(io.StringIO(obj))
        assert m.n_triangles == 1

    def test_negative_indices(self):
        obj = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
        m = read_obj(io.StringIO(obj))
        assert np.array_equal(m.triangles[0], [0, 1, 2])

    def test_errors(self):
        with pytest.raises(GeometryError):
            read_obj(io.StringIO("v 0 0 0\n"))  # no faces
        with pytest.raises(GeometryError):
            read_obj(io.StringIO("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n"))
        with pytest.raises(GeometryError):
            read_obj(io.StringIO("v 0 0\nf 1 1 1\n"))


class TestVtk:
    def test_header_and_counts(self, tmp_path):
        p = str(tmp_path / "out.vtk")
        write_vtk(p, {"rho": np.ones((3, 4, 5))})
        lines = open(p).read().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "DIMENSIONS 3 4 5" in lines
        assert "POINT_DATA 60" in lines
        data = [v for line in lines[9:] for v in line.split()]
        # header contains "SCALARS rho..." + "LOOKUP_TABLE"; count floats
        floats = [v for v in data if v not in ("default",)]
        assert len([v for v in floats if _is_float(v)]) == 60

    def test_vector_field(self, tmp_path):
        p = str(tmp_path / "vec.vtk")
        u = np.zeros((2, 2, 2, 3))
        u[..., 1] = 7.0
        write_vtk(p, {"velocity": u})
        content = open(p).read()
        assert "VECTORS velocity double" in content
        assert "0 7 0" in content

    def test_nan_replaced(self, tmp_path):
        p = str(tmp_path / "nan.vtk")
        arr = np.full((2, 2, 2), np.nan)
        write_vtk(p, {"rho": arr})
        assert "nan" not in open(p).read()

    def test_shape_mismatch_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            write_vtk(
                str(tmp_path / "x.vtk"),
                {"a": np.ones((2, 2, 2)), "b": np.ones((3, 3, 3))},
            )
        with pytest.raises(ReproError):
            write_vtk(str(tmp_path / "y.vtk"), {})

    def test_simulation_export(self, tmp_path):
        sim = Simulation(cells=(4, 4, 4), collision=TRT.from_tau(0.8))
        sim.flags.fill(fl.FLUID)
        sim.finalize()
        sim.run(2)
        p = str(tmp_path / "sim.vtk")
        write_simulation_vtk(p, sim)
        content = open(p).read()
        assert "density" in content and "velocity" in content and "fluid" in content


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def _cavity(steps=0):
    forest = SetupBlockForest.create(AABB((0, 0, 0), (2, 1, 1)), (2, 1, 1), (4, 4, 4))
    balance_forest(forest, 2, strategy="round_robin")

    def lid(blk, ff):
        d = ff.data
        i = blk.grid_index[0]
        if i == 0:
            d[0] = fl.NO_SLIP
        if i == 1:
            d[-1] = fl.NO_SLIP
        d[:, 0], d[:, -1] = fl.NO_SLIP, fl.NO_SLIP
        d[:, :, 0] = fl.NO_SLIP
        d[:, :, -1] = fl.VELOCITY_BC

    sim = DistributedSimulation(
        forest,
        TRT.from_tau(0.8),
        flag_setter=lid,
        boundaries=[NoSlip(), UBB(velocity=(0.05, 0.0, 0.0))],
    )
    if steps:
        sim.run(steps)
    return sim


class TestCheckpoint:
    def test_resume_is_bit_exact(self, tmp_path):
        p = str(tmp_path / "ckpt.npz")
        # Reference: 30 uninterrupted steps.
        ref = _cavity(30)
        # Checkpointed: 12 steps, save, restore into a new sim, 18 more.
        first = _cavity(12)
        save_checkpoint(first, p)
        resumed = _cavity(0)
        steps = load_checkpoint(resumed, p)
        assert steps == 12
        resumed.run(18)
        assert np.nanmax(np.abs(ref.gather_density() - resumed.gather_density())) == 0.0
        assert np.nanmax(np.abs(ref.gather_velocity() - resumed.gather_velocity())) == 0.0

    def test_wrong_forest_rejected(self, tmp_path):
        p = str(tmp_path / "ckpt.npz")
        save_checkpoint(_cavity(1), p)
        other = SetupBlockForest.create(
            AABB((0, 0, 0), (3, 1, 1)), (3, 1, 1), (4, 4, 4)
        )
        balance_forest(other, 3, strategy="round_robin")
        sim = DistributedSimulation(other, TRT.from_tau(0.8))
        with pytest.raises(ReproError):
            load_checkpoint(sim, p)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        p = str(tmp_path / "junk.npz")
        np.savez(p, a=np.zeros(3))
        with pytest.raises(ReproError):
            load_checkpoint(_cavity(0), p)


# ---------------------------------------------------------------------------
# Checkpoint format v2: round-trips for every state shape, corruption
# detection, atomicity, and RNG-state persistence (docs/resilience.md).
# ---------------------------------------------------------------------------

import os  # noqa: E402
import zipfile  # noqa: E402

from repro.errors import CheckpointError  # noqa: E402
from repro.io import (  # noqa: E402
    load_solver_checkpoint,
    read_state,
    save_solver_checkpoint,
    write_state,
)
from repro.lbm.cellstructured import CellStructuredSolver  # noqa: E402


def _single_block(steps=0):
    sim = Simulation(cells=(6, 6, 6), collision=TRT.from_tau(0.7))
    sim.flags.fill(fl.FLUID)
    d = sim.flags.data
    d[0] = d[-1] = fl.NO_SLIP
    d[:, 0] = d[:, -1] = fl.NO_SLIP
    d[:, :, 0] = fl.NO_SLIP
    d[:, :, -1] = fl.VELOCITY_BC
    sim.add_boundary(NoSlip())
    sim.add_boundary(UBB(velocity=(0.05, 0.0, 0.0)))
    sim.finalize()
    if steps:
        sim.run(steps)
    return sim


def _solver(steps=0):
    flags = np.full((6, 6, 6), fl.NO_SLIP, dtype=np.uint8)
    flags[1:-1, 1:-1, 1:-1] = fl.FLUID
    flags[:, :, -1] = fl.VELOCITY_BC
    s = CellStructuredSolver(
        flags, TRT.from_tau(0.7), wall_velocity=(0.05, 0.0, 0.0)
    )
    if steps:
        s.step(steps)
    return s


class TestCheckpointV2:
    def test_distributed_roundtrip_includes_flags(self, tmp_path):
        p = str(tmp_path / "c.npz")
        first = _cavity(9)
        save_checkpoint(first, p)
        resumed = _cavity(0)
        assert load_checkpoint(resumed, p) == 9
        for bid, rt_flags in resumed.flags.items():
            assert np.array_equal(rt_flags.data, first.flags[bid].data)
        for bid, f in resumed.fields.items():
            assert np.array_equal(f.src, first.fields[bid].src)

    def test_single_block_roundtrip(self, tmp_path):
        p = str(tmp_path / "c.npz")
        ref = _single_block(25)
        first = _single_block(10)
        save_checkpoint(first, p)
        resumed = _single_block(0)
        assert load_checkpoint(resumed, p) == 10
        resumed.run(15)
        a, b = ref.velocity(), resumed.velocity()
        assert np.array_equal(np.nan_to_num(a), np.nan_to_num(b))

    def test_single_block_timeloop_hook(self, tmp_path):
        """enable_checkpointing() writes on schedule; restart() resumes
        bit-identically."""
        p = str(tmp_path / "auto.npz")
        ref = _single_block(20)
        sim = _single_block(0)
        sim.enable_checkpointing(p, every=6)
        sim.run(14)          # checkpoints after steps 6 and 12
        _, step, _ = read_state(p)
        assert step == 12
        resumed = _single_block(0)
        assert resumed.restart(p) == 12
        resumed.run(8)
        a, b = ref.velocity(), resumed.velocity()
        assert np.array_equal(np.nan_to_num(a), np.nan_to_num(b))

    def test_single_block_keys_are_block_zero(self, tmp_path):
        """A Simulation is block 0 of the shared block runtime: its files
        carry ``pdf:0``/``flags:0``, and files with those keys written
        before it ran the shared schedule still load."""
        p = str(tmp_path / "c.npz")
        first = _single_block(4)
        save_checkpoint(first, p)
        arrays, step, _ = read_state(p)
        assert sorted(arrays) == ["flags:0", "pdf:0"]
        assert step == 4
        legacy = str(tmp_path / "legacy.npz")
        write_state(
            legacy, {"pdf:0": first.pdfs.src, "flags:0": first.flags.data}, step=4
        )
        resumed = _single_block(0)
        assert load_checkpoint(resumed, legacy) == 4
        assert np.array_equal(resumed.pdfs.src, first.pdfs.src)
        assert np.array_equal(resumed.pdfs.dst, first.pdfs.src)

    def test_crc_of_non_contiguous_input_is_crc_of_c_order_bytes(self, tmp_path):
        """The CRC is taken without a tobytes() copy, but its value is
        unchanged: older v2 files still verify."""
        import json
        import zlib

        p = str(tmp_path / "c.npz")
        base = np.arange(4 * 5 * 6, dtype=np.float64).reshape(4, 5, 6)
        arrays = {"view": base[:, 1:4, ::2], "fortran": np.asfortranarray(base)}
        assert not arrays["view"].flags.c_contiguous
        write_state(p, arrays, step=3)
        with np.load(p) as data:
            meta = json.loads(bytes(data["__meta_json__"]).decode("utf-8"))
        for key, arr in arrays.items():
            assert meta["crc"][key] == zlib.crc32(arr.tobytes(order="C"))
        loaded, step, _ = read_state(p)
        assert step == 3
        for key, arr in arrays.items():
            assert np.array_equal(loaded[key], arr)

    def test_cellstructured_roundtrip(self, tmp_path):
        p = str(tmp_path / "cs.npz")
        ref = _solver(20)
        first = _solver(8)
        save_solver_checkpoint(first, p)
        resumed = _solver(0)
        assert load_solver_checkpoint(resumed, p) == 8
        resumed.step(12)
        assert np.array_equal(ref.f, resumed.f)

    def test_cellstructured_structure_mismatch(self, tmp_path):
        p = str(tmp_path / "cs.npz")
        save_solver_checkpoint(_solver(1), p)
        flags = np.full((7, 6, 6), fl.NO_SLIP, dtype=np.uint8)
        flags[1:-1, 1:-1, 1:-1] = fl.FLUID
        other = CellStructuredSolver(flags, TRT.from_tau(0.7))
        with pytest.raises(CheckpointError):
            load_solver_checkpoint(other, p)

    def test_rng_state_roundtrip(self, tmp_path):
        p = str(tmp_path / "c.npz")
        sim = _cavity(3)
        rng = np.random.default_rng(1234)
        rng.random(17)                       # advance the stream
        save_checkpoint(sim, p, rng=rng)
        expected = rng.random(5)             # continues past the save
        rng2 = np.random.default_rng(0)      # different state
        load_checkpoint(_cavity(0), p, rng=rng2)
        assert np.array_equal(rng2.random(5), expected)

    @staticmethod
    def _write_v1(path, sim, step):
        """A pre-resilience (v1) file of ``sim``: bare block keys, no
        flags, an int-triple ``__meta__``."""
        data = {"__meta__": np.array([1, step, len(sim.fields)], dtype=np.int64)}
        for bid, field in sim.fields.items():
            data[str(bid)] = field.src
        np.savez(path, **data)

    def test_v1_checkpoints_still_load(self, tmp_path):
        """Backwards compatibility with the pre-resilience format."""
        p = str(tmp_path / "v1.npz")
        first = _cavity(5)
        self._write_v1(p, first, 5)
        resumed = _cavity(0)
        assert load_checkpoint(resumed, p) == 5
        for bid, f in resumed.fields.items():
            assert np.array_equal(f.src, first.fields[bid].src)


    def test_read_state_reads_v1(self, tmp_path):
        """``read_state`` maps a v1 file's bare block keys to ``pdf:``."""
        p = str(tmp_path / "v1.npz")
        sim = _cavity(3)
        self._write_v1(p, sim, 3)
        arrays, step, rng = read_state(p)
        assert step == 3 and rng is None
        assert sorted(arrays) == sorted(f"pdf:{bid}" for bid in sim.fields)
        for bid, field in sim.fields.items():
            assert np.array_equal(arrays[f"pdf:{bid}"], field.src)


class TestCheckpointCorruption:
    def test_truncated_file_detected(self, tmp_path):
        p = str(tmp_path / "c.npz")
        save_checkpoint(_cavity(2), p)
        raw = open(p, "rb").read()
        open(p, "wb").write(raw[: len(raw) // 2])
        with pytest.raises((CheckpointError, FileNotFoundError)) as ei:
            load_checkpoint(_cavity(0), p)
        assert isinstance(ei.value, CheckpointError)

    def test_flipped_payload_bytes_fail_crc(self, tmp_path):
        """A bit flip inside a stored array is caught by the per-array
        CRC even when the zip container still parses."""
        p = str(tmp_path / "c.npz")
        save_checkpoint(_cavity(2), p)
        # Rewrite the archive, corrupting one pdf member's payload.
        corrupted = str(tmp_path / "bad.npz")
        with zipfile.ZipFile(p) as zin, zipfile.ZipFile(
            corrupted, "w", zipfile.ZIP_STORED
        ) as zout:
            for info in zin.infolist():
                buf = bytearray(zin.read(info.filename))
                if info.filename.startswith("pdf"):
                    buf[len(buf) // 2] ^= 0xFF
                zout.writestr(info.filename, bytes(buf))
        with pytest.raises(CheckpointError, match="checksum|corrupt"):
            load_checkpoint(_cavity(0), corrupted)

    def test_junk_npz_rejected_typed(self, tmp_path):
        p = str(tmp_path / "junk.npz")
        np.savez(p, a=np.zeros(3))
        with pytest.raises(CheckpointError):
            load_checkpoint(_cavity(0), p)
        with pytest.raises(CheckpointError):
            read_state(p)

    def test_not_a_zip_rejected_typed(self, tmp_path):
        p = str(tmp_path / "garbage.npz")
        open(p, "wb").write(b"this is not a zip archive")
        with pytest.raises(CheckpointError):
            read_state(p)

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_state(str(tmp_path / "absent.npz"))

    def test_checkpoint_error_is_typed(self):
        from repro.errors import FileFormatError

        assert issubclass(CheckpointError, FileFormatError)
        assert issubclass(CheckpointError, ReproError)


class TestCheckpointAtomicity:
    def test_no_tmp_residue_after_save(self, tmp_path):
        p = str(tmp_path / "c.npz")
        save_checkpoint(_cavity(1), p)
        save_checkpoint(_cavity(2), p)      # overwrite is atomic too
        assert os.listdir(str(tmp_path)) == ["c.npz"]

    def test_failed_write_leaves_previous_checkpoint_intact(self, tmp_path):
        p = str(tmp_path / "c.npz")
        write_state(p, {"x": np.arange(4.0)}, step=7)
        with pytest.raises(CheckpointError):
            write_state(p, {"__meta_json__": np.zeros(1)}, step=8)
        arrays, step, _ = read_state(p)
        assert step == 7 and np.array_equal(arrays["x"], np.arange(4.0))
        assert sorted(os.listdir(str(tmp_path))) == ["c.npz"]
