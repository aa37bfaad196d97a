"""Content-addressed persistent store for sweep results and blocks.

Layout on disk (one directory, shareable between replicas)::

    <root>/
      sweeps/<digest>.frame   one whole SweepResult per entry
      blocks/<digest>.frame   one vectorized block per entry

Every entry is one :mod:`repro.transport` frame — the container the
wire already speaks: a sweep frame's meta carries its schema version,
grid axes and engine label, a block frame's meta is empty, and the
columns are the result's compact timing columns plus the cost arrays.
Entries are **content-addressed**: the filename is the SHA-256 of the
canonical fingerprint (:func:`~repro.core.dse.sweep_fingerprint` for
sweeps, :func:`~repro.core.dse.block_fingerprint` for blocks), which
already hashes the normalized grid/axes slice, the base config, and the
calibration constants.  Invalidation is therefore free: perturbing the
calibration changes every fingerprint, so stale entries are simply
never addressed again.  Two replicas racing to persist the same entry
write identical bytes and converge via atomic ``os.replace``.

The **file tree is the index**: an entry is readable on its own, and
``stats()`` counts the ``.frame`` files of each directory.  A legacy
``.npz`` entry under the same digest is never addressed, so the sweep
or block it held is re-evaluated and persisted as a frame.

A load maps the file read-only and runs the frame's structural parse
(:func:`~repro.transport.parse_frame`), so the columns are views over
the map; the CRC the wire checks is skipped, because computing it would
fault in every page of an entry a query may only partly read.  Corrupt
or truncated entries degrade, never fail: the store emits a
:class:`StoreCorruptionWarning`, quarantines the file (renamed to
``*.corrupt``), and reports a miss so the caller re-evaluates and
re-persists a clean copy.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import tempfile
import warnings
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.core.dse import (
    _BLOCK_FIELDS,
    PAYLOAD_SCHEMA_VERSION,
    SweepGrid,
    SweepResult,
    block_columns,
    check_schema_version,
)
from repro.transport import encode_frame, parse_frame

#: array fields persisted per block (the shard-task evaluation output)
BLOCK_ARRAY_FIELDS = _BLOCK_FIELDS

#: file suffix of a persisted entry
_SUFFIX = ".frame"


class StoreCorruptionWarning(UserWarning):
    """A persisted entry was corrupt and dropped."""


def fingerprint_digest(key: Hashable) -> str:
    """Stable content address of a fingerprint tuple.

    Fingerprints are nested tuples of strings, ints, floats and None;
    ``repr`` of those is deterministic across processes (float repr is
    the shortest round-trip form), so its SHA-256 is a stable on-disk
    name for the entry every replica agrees on.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _write_atomic(path: str, data) -> None:
    """Write ``data`` to ``path`` so no reader sees a partial file.

    The temp file lives in the target directory so ``os.replace`` stays
    a same-filesystem rename (atomic on POSIX); it is fsynced before
    the rename so a crash cannot leave the final name pointing at
    unsynced pages.
    """
    fd, tmp_path = tempfile.mkstemp(prefix=".tmp-", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _read_entry(path: str):
    """``(meta, columns)`` of the frame at ``path``, or None if absent.

    One read-only map per entry; the columns are views over it (which
    keep it alive).  Raises :class:`~repro.transport.FrameError` (a
    ``ValueError``) on a malformed frame, ``ValueError`` on an empty file.
    """
    try:
        with open(path, "rb") as handle:
            buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError:
        return None
    return parse_frame(buffer)


class ResultStore:
    """Persistent second cache tier under the service's in-RAM LRU.

    Thread-safe and process-safe on a shared directory: entries are
    immutable files written by atomic rename, and nothing else is
    shared.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(str(root))
        self._sweep_dir = os.path.join(self.root, "sweeps")
        self._block_dir = os.path.join(self.root, "blocks")
        os.makedirs(self._sweep_dir, exist_ok=True)
        os.makedirs(self._block_dir, exist_ok=True)
        self.counters = {
            "sweep_hits": 0,
            "sweep_misses": 0,
            "sweep_saves": 0,
            "block_hits": 0,
            "block_misses": 0,
            "block_saves": 0,
            "corrupt_dropped": 0,
        }

    def _quarantine(self, kind: str, path: str, exc: Exception) -> None:
        """Move a corrupt entry aside so the next save replaces it."""
        warnings.warn(
            f"result store entry {path} is corrupt ({exc}); dropping it — "
            f"the {kind} will be re-evaluated and re-persisted",
            StoreCorruptionWarning,
            stacklevel=3,
        )
        self.counters["corrupt_dropped"] += 1
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- sweeps --------------------------------------------------------------
    def sweep_path(self, key: Hashable) -> str:
        return os.path.join(
            self._sweep_dir, fingerprint_digest(key) + _SUFFIX
        )

    def save_sweep(self, key: Hashable, result: SweepResult) -> str:
        """Persist a whole :class:`SweepResult` under its fingerprint.

        Content addressing makes the write idempotent: an entry already
        on disk (this replica's or another's) is left untouched.
        """
        path = self.sweep_path(key)
        if not os.path.exists(path):
            meta = {
                "schema_version": PAYLOAD_SCHEMA_VERSION,
                "grid": result.grid.to_dict(),
                "engine": result.engine,
            }
            columns = {
                name: np.asarray(column, dtype=np.float64)
                for name, column in result.columns.items()
            }
            _write_atomic(path, encode_frame(meta, columns))
            self.counters["sweep_saves"] += 1
        return path

    def load_sweep(self, key: Hashable) -> Optional[SweepResult]:
        """Reconstruct a persisted sweep, or None (miss / corrupt entry).

        Arrays are read-only views over the mapped frame, so the load
        cost is the frame's header and column table, not a copy;
        validation is :meth:`~repro.core.dse.SweepResult.from_arrays`
        (compact timing columns, or the dense ones older entries hold),
        so a truncated entry is caught here and quarantined.
        """
        path = self.sweep_path(key)
        try:
            entry = _read_entry(path)
            if entry is None:
                self.counters["sweep_misses"] += 1
                return None
            meta, columns = entry
            if not isinstance(meta, dict):
                raise ValueError("store entry metadata is not a JSON object")
            check_schema_version(meta.get("schema_version"))
            grid = SweepGrid.from_dict(meta["grid"]).resolve()
            for name, array in columns.items():
                if array.dtype != np.float64:
                    raise ValueError(
                        f"array {name!r} has dtype {array.dtype}, "
                        f"expected float64"
                    )
            result = SweepResult.from_arrays(
                grid, str(meta.get("engine", "store")), columns
            )
        except (ValueError, KeyError) as exc:
            self._quarantine("sweep", path, exc)
            self.counters["sweep_misses"] += 1
            return None
        self.counters["sweep_hits"] += 1
        return result

    # -- blocks --------------------------------------------------------------
    def _block_path(self, key: Hashable) -> str:
        return os.path.join(
            self._block_dir, fingerprint_digest(key) + _SUFFIX
        )

    def save_block(self, key: Hashable, arrays: Dict[str, np.ndarray]) -> str:
        """Persist one evaluated block (timing columns + Amdahl bound).

        The columns go to disk at the rank the block holds them —
        compact from :func:`~repro.core.dse.evaluate_block`.
        """
        path = self._block_path(key)
        if not os.path.exists(path):
            columns = {
                name: np.asarray(arrays[name], dtype=np.float64)
                for name in BLOCK_ARRAY_FIELDS
            }
            _write_atomic(path, encode_frame({}, columns))
            self.counters["block_saves"] += 1
        return path

    def load_block(
        self, key: Hashable, expected_shape: Tuple[int, ...]
    ) -> Optional[Dict[str, np.ndarray]]:
        """Load one persisted block, or None (miss / corrupt entry).

        ``expected_shape`` is the block's
        :func:`~repro.core.dse.task_shape`; each timing column is read
        by :func:`~repro.core.dse.block_columns`, compact or dense.
        """
        path = self._block_path(key)
        try:
            entry = _read_entry(path)
            if entry is None:
                self.counters["block_misses"] += 1
                return None
            _, columns = entry
            block = block_columns(columns, tuple(expected_shape))
            block["amdahl_bound"] = columns["amdahl_bound"]
        except (ValueError, KeyError) as exc:
            self._quarantine("block", path, exc)
            self.counters["block_misses"] += 1
            return None
        self.counters["block_hits"] += 1
        return block

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict:
        """Entry counts/bytes by kind plus this instance's hit counters.

        Read from the directories: every ``*.frame`` file is an entry;
        temp files, quarantined ``*.corrupt`` files and legacy ``.npz``
        entries are not.
        """
        return {
            "root": self.root,
            "sweeps": _scan(self._sweep_dir),
            "blocks": _scan(self._block_dir),
            **dict(self.counters),
        }

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r})"


def _scan(directory: str) -> Dict[str, int]:
    count = n_bytes = 0
    with os.scandir(directory) as entries:
        for entry in entries:
            if not entry.name.endswith(_SUFFIX):
                continue
            try:
                n_bytes += entry.stat().st_size
            except FileNotFoundError:  # quarantined by another replica
                continue
            count += 1
    return {"count": count, "bytes": n_bytes}
