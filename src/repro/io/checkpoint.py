"""Simulation checkpointing (format v2: atomic, versioned, checksummed).

Saves and restores the complete state of a simulation — every block's
PDF ``src`` grid, the flag fields, the time-step counter, and optionally
an RNG state — in a single ``.npz`` file.  Restoring into a freshly
constructed simulation with the same forest continues the run
bit-exactly, which is the foundation of the chaos harness's
crash-recovery guarantee (``tests/chaos/``).

Format v2 (see ``docs/resilience.md`` for the full layout):

* arrays are keyed ``pdf:<block-id>`` and ``flags:<block-id>`` and
  stored uncompressed (compressed files load as well);
* a JSON metadata record (``__meta_json__``) carries the format
  version, the step counter, the sorted key list, a CRC-32 per array,
  and the serialized RNG state;
* files are written to ``<path>.tmp`` and atomically renamed into
  place, so a crash mid-write can never corrupt the previous
  checkpoint;
* any truncation, bit corruption (CRC mismatch), or missing metadata
  raises the typed :class:`~repro.errors.CheckpointError`.

Format v1 (PDF grids + ``__meta__`` int triple, no flags/CRC) is still
readable: :func:`read_state` maps its bare block keys to ``pdf:``.

Two state shapes are supported: every simulation driver
(:class:`~repro.core.driver.BlockDriver` — its ``runtimes`` map and
``timeloop``; the single-block
:class:`~repro.core.simulation.Simulation` is block ``0``), and the
indirect-addressing :class:`~repro.lbm.cellstructured.CellStructuredSolver`
via :func:`save_solver_checkpoint` / :func:`load_solver_checkpoint`.
:func:`save_checkpoint` / :func:`load_checkpoint` are the one path for
every driver, in-process or SPMD: on a driver that steps one rank
(``sim.comm`` set) both are collective — every rank's
:func:`block_arrays` record is gathered to rank 0, which writes one
file, and a load is read on rank 0 and broadcast, each rank restoring
its own blocks.  Either layout restarts the other's file.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..errors import CheckpointError

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_solver_checkpoint",
    "load_solver_checkpoint",
    "write_state",
    "read_state",
    "block_arrays",
    "restore_block",
    "restore_blocks",
]

_META_KEY = "__meta__"            # v1
_META_JSON_KEY = "__meta_json__"  # v2
_FORMAT_VERSION = 2


def _block_key(block_id) -> str:
    return str(block_id)


def _crc(arr: np.ndarray) -> int:
    """CRC-32 of ``arr``'s C-order bytes.  A C-contiguous array is
    hashed through the buffer protocol, without the copy ``tobytes()``
    would make; only a non-contiguous one is copied (to C order)."""
    return zlib.crc32(np.ascontiguousarray(arr))


# ---------------------------------------------------------------------------
# Low-level state container
# ---------------------------------------------------------------------------
def write_state(
    path: str,
    arrays: Dict[str, np.ndarray],
    step: int,
    rng_state: Optional[str] = None,
) -> None:
    """Atomically write named arrays + step counter as a v2 checkpoint.

    The file is first written to ``<path>.tmp`` and then renamed over
    ``path`` (``os.replace``), so readers either see the complete old
    checkpoint or the complete new one — never a torn write.
    """
    if not arrays:
        raise CheckpointError("refusing to write an empty checkpoint")
    for key in (_META_KEY, _META_JSON_KEY):
        if key in arrays:
            raise CheckpointError(f"array key {key!r} is reserved")
    meta = {
        "version": _FORMAT_VERSION,
        "step": int(step),
        "keys": sorted(arrays),
        "crc": {k: _crc(v) for k, v in arrays.items()},
        "rng": rng_state or "",
    }
    meta_arr = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **{_META_JSON_KEY: meta_arr}, **arrays)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_state(path: str) -> Tuple[Dict[str, np.ndarray], int, Optional[str]]:
    """Read a checkpoint; returns ``(arrays, step, rng_state)``.

    A legacy v1 file reads as its PDF grids keyed ``pdf:<block-id>``,
    its step counter and no RNG state.

    Raises :class:`~repro.errors.CheckpointError` on truncated or
    corrupted files (bad zip structure, missing members, CRC mismatch)
    and on non-checkpoint ``.npz`` files.
    """
    try:
        with np.load(path) as data:
            if _META_JSON_KEY not in data:
                if _META_KEY in data:
                    return _read_v1(data, path)
                raise CheckpointError(f"{path}: not a repro checkpoint file")
            try:
                meta = json.loads(bytes(data[_META_JSON_KEY]).decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise CheckpointError(
                    f"{path}: corrupt checkpoint metadata"
                ) from exc
            version = int(meta.get("version", -1))
            if version != _FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version {version}"
                )
            arrays: Dict[str, np.ndarray] = {}
            crcs = meta.get("crc", {})
            for key in meta.get("keys", []):
                if key not in data:
                    raise CheckpointError(
                        f"{path}: truncated checkpoint — missing array {key!r}"
                    )
                arr = data[key]
                want = crcs.get(key)
                if want is not None:
                    got = _crc(arr)
                    if got != int(want):
                        raise CheckpointError(
                            f"{path}: corrupted checkpoint — CRC mismatch "
                            f"on {key!r}"
                        )
                arrays[key] = arr
            rng = meta.get("rng") or None
            return arrays, int(meta.get("step", 0)), rng
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, EOFError) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise CheckpointError(
            f"{path}: truncated or corrupted checkpoint ({exc})"
        ) from exc
    except Exception as exc:  # zipfile.BadZipFile and friends
        raise CheckpointError(
            f"{path}: truncated or corrupted checkpoint ({exc})"
        ) from exc


def _read_v1(data, path: str) -> Tuple[Dict[str, np.ndarray], int, None]:
    """The ``read_state`` result of a legacy v1 file (bare block keys,
    an int-triple ``__meta__``: version, step, block count)."""
    version, step, n_blocks = (int(v) for v in data[_META_KEY])
    if version != 1:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    arrays = {f"pdf:{key}": data[key] for key in data.files if key != _META_KEY}
    if len(arrays) != n_blocks:
        raise CheckpointError(
            f"{path}: v1 checkpoint lists {n_blocks} blocks, holds {len(arrays)}"
        )
    return arrays, step, None


# ---------------------------------------------------------------------------
# RNG state (de)serialization
# ---------------------------------------------------------------------------
def _rng_state_dump(rng: Optional[np.random.Generator]) -> Optional[str]:
    if rng is None:
        return None
    return json.dumps(rng.bit_generator.state)


def _rng_state_load(rng: Optional[np.random.Generator], state: Optional[str]) -> None:
    if rng is None or not state:
        return
    try:
        rng.bit_generator.state = json.loads(state)
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(f"invalid RNG state in checkpoint: {exc}") from exc


# ---------------------------------------------------------------------------
# Simulation-level wrappers
# ---------------------------------------------------------------------------
def block_arrays(runtimes: Mapping[object, object]) -> Dict[str, np.ndarray]:
    """The checkpoint record of ``runtimes`` (block id ->
    :class:`~repro.core.schedule.BlockRuntime`): ``pdf:<id>`` (the
    ``src`` grid) and ``flags:<id>`` for each block, whichever driver or
    rank owns it."""
    arrays: Dict[str, np.ndarray] = {}
    for block_id, rt in runtimes.items():
        key = _block_key(block_id)
        arrays[f"pdf:{key}"] = rt.field.src
        arrays[f"flags:{key}"] = rt.flags.data
    return arrays


def restore_block(
    arrays: Mapping[str, np.ndarray], key: str, targets, source: str
) -> None:
    """Copy the checkpointed array ``arrays[key]`` into each array of
    ``targets``.

    Raises :class:`~repro.errors.CheckpointError` when ``source`` (named
    in the message) lacks the key or holds it at another shape.
    """
    if key not in arrays:
        raise CheckpointError(f"{source}: checkpoint lacks block {key!r}")
    arr = arrays[key]
    for target in targets:
        if arr.shape != target.shape:
            raise CheckpointError(
                f"{source}: block {key!r} has checkpoint shape {arr.shape}, "
                f"field shape {target.shape}"
            )
        target[...] = arr


def restore_blocks(
    arrays: Mapping[str, np.ndarray], runtimes: Mapping[object, object], source: str
) -> None:
    """Restore every block of ``runtimes`` from a :func:`block_arrays`
    record: the PDFs into both grids, and the flags when the record
    carries them (files written before flags were recorded lack them)."""
    for block_id, rt in runtimes.items():
        key = _block_key(block_id)
        restore_block(arrays, f"pdf:{key}", (rt.field.src, rt.field.dst), source)
        if f"flags:{key}" in arrays:
            restore_block(arrays, f"flags:{key}", (rt.flags.data,), source)


def save_checkpoint(
    sim, path: str, rng: Optional[np.random.Generator] = None
) -> None:
    """Write all block PDF states, flag fields, and the step counter.

    The write is atomic (temp file + rename); pass ``rng`` to persist a
    NumPy generator's state alongside (restored by
    :func:`load_checkpoint`).  On a rank driver (``sim.comm`` set) this
    is a collective: every rank's blocks are gathered to rank 0, which
    writes the one file (with rank 0's ``rng``).
    """
    arrays = block_arrays(sim.runtimes)
    if sim.comm is not None:
        shards = sim.comm.gather(arrays, root=0)
        if sim.comm.rank != 0:
            return
        arrays = {key: arr for shard in shards for key, arr in shard.items()}
    write_state(
        path, arrays, step=sim.timeloop.steps_run, rng_state=_rng_state_dump(rng)
    )


def load_checkpoint(
    sim, path: str, rng: Optional[np.random.Generator] = None
) -> int:
    """Restore block PDF states (and flags) into ``sim``; returns the
    step count.

    ``sim`` must have been built from the same balanced forest (same
    block ids and shapes); the file may come from any driver.  Reads
    both the current v2 format and legacy v1 files.  On a rank driver
    (``sim.comm`` set) this is a collective: rank 0 reads the file and
    broadcasts it, every rank restores its own blocks.  Raises
    :class:`~repro.errors.CheckpointError` on mismatched structure — a
    file lacking one of the forest's blocks or holding a block it lacks,
    or a block at another shape — or corrupted/truncated files.
    """
    if sim.comm is None:
        arrays, steps, rng_state = read_state(path)
        block_ids = sim.runtimes
    else:
        payload = read_state(path) if sim.comm.rank == 0 else None
        arrays, steps, rng_state = sim.comm.bcast(payload, root=0)
        block_ids = [blk.id for blk in sim.forest.blocks]
    held = {key for key in arrays if key.startswith("pdf:")}
    wanted = {f"pdf:{_block_key(block_id)}" for block_id in block_ids}
    missing, extra = sorted(wanted - held), sorted(held - wanted)
    if missing:
        raise CheckpointError(f"{path}: checkpoint lacks block {missing[0]!r}")
    if extra:
        raise CheckpointError(f"{path}: checkpoint holds blocks the forest lacks: {extra}")
    restore_blocks(arrays, sim.runtimes, path)
    _rng_state_load(rng, rng_state)
    _restored(sim, steps)
    return steps


def _restored(sim, steps: int) -> None:
    """Set the step counter after a load, and have the ghost exchange
    copy every cell again: the load rewrote both grids, ghost layers and
    OUTSIDE cells included."""
    sim.timeloop.steps_run = steps
    if sim.schedule is not None:
        sim.schedule.exchange.resync()


# ---------------------------------------------------------------------------
# Cell-structured (indirect addressing) solver
# ---------------------------------------------------------------------------
def save_solver_checkpoint(
    solver, path: str, rng: Optional[np.random.Generator] = None
) -> None:
    """Checkpoint a :class:`~repro.lbm.cellstructured.CellStructuredSolver`
    (packed PDF array + fluid-cell coordinates + step counter)."""
    write_state(
        path,
        {
            "cs:f": solver.f,
            "cs:coords": solver.coords,
            "cs:shape": np.asarray(solver.shape, dtype=np.int64),
        },
        step=solver.steps_run,
        rng_state=_rng_state_dump(rng),
    )


def load_solver_checkpoint(
    solver, path: str, rng: Optional[np.random.Generator] = None
) -> int:
    """Restore a cell-structured solver checkpoint; returns the step count.

    The solver must have been built from the same flag array (same fluid
    cells in the same order)."""
    arrays, steps, rng_state = read_state(path)
    for key in ("cs:f", "cs:coords", "cs:shape"):
        if key not in arrays:
            raise CheckpointError(f"not a cell-structured checkpoint: {path}")
    if tuple(arrays["cs:shape"]) != tuple(solver.shape):
        raise CheckpointError(
            f"checkpoint grid shape {tuple(arrays['cs:shape'])} != "
            f"solver shape {tuple(solver.shape)}"
        )
    if arrays["cs:f"].shape != solver.f.shape or not np.array_equal(
        arrays["cs:coords"], solver.coords
    ):
        raise CheckpointError(
            "checkpoint fluid-cell structure does not match the solver"
        )
    solver.f[...] = arrays["cs:f"]
    _rng_state_load(rng, rng_state)
    solver.steps_run = steps
    return steps
