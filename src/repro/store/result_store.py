"""Content-addressed persistent store for sweep results and blocks.

Layout on disk (one directory, shareable between replicas)::

    <root>/
      index.db                sqlite catalogue (rebuildable, see below)
      sweeps/<digest>.npz     one whole SweepResult per entry
      blocks/<digest>.npz     one vectorized block per entry

Entries are **content-addressed**: the filename is the SHA-256 of the
canonical fingerprint (:func:`~repro.core.dse.sweep_fingerprint` for
sweeps, :func:`~repro.core.dse.block_fingerprint` for blocks), which
already hashes the normalized grid/axes slice, the base config, and the
calibration constants.  Invalidation is therefore free: perturbing the
calibration changes every fingerprint, so stale entries are simply
never addressed again.  Two replicas racing to persist the same entry
write identical bytes and converge via atomic ``os.replace``.

The **filesystem is the source of truth**; the sqlite index is a
catalogue for ``stats()``/listing that is repaired on the fly (a file
present without a row is re-registered on load) and rebuilt from a
directory scan when the index file itself is corrupt.  A sweep npz is
self-describing — a ``__meta__`` member carries the grid axes, engine
label, and payload schema version — so no entry depends on the index
to be readable.

Corrupt or truncated entries degrade, never fail: the store emits a
:class:`StoreCorruptionWarning`, quarantines the file (renamed to
``*.corrupt``), drops its index row, and reports a miss so the caller
re-evaluates and re-persists a clean copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
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
from repro.store.npz_io import (
    StoreIntegrityError,
    read_arrays,
    write_arrays_atomic,
)

#: array fields persisted per block (the shard-task evaluation output)
BLOCK_ARRAY_FIELDS = _BLOCK_FIELDS

#: the npz member carrying the entry's JSON metadata
_META_MEMBER = "__meta__"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    kind TEXT NOT NULL CHECK (kind IN ('sweep', 'block')),
    digest TEXT NOT NULL,
    n_points INTEGER NOT NULL,
    n_bytes INTEGER NOT NULL,
    engine TEXT,
    grid_json TEXT,
    created_s REAL NOT NULL,
    PRIMARY KEY (kind, digest)
)
"""


class StoreCorruptionWarning(UserWarning):
    """A persisted entry (or the index itself) was corrupt and dropped."""


def fingerprint_digest(key: Hashable) -> str:
    """Stable content address of a fingerprint tuple.

    Fingerprints are nested tuples of strings, ints, floats and None;
    ``repr`` of those is deterministic across processes (float repr is
    the shortest round-trip form), so its SHA-256 is a stable on-disk
    name for the entry every replica agrees on.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


def _meta_array(meta: Dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


class ResultStore:
    """Persistent second cache tier under the service's in-RAM LRU.

    Thread-safe (one lock around the sqlite connection; npz reads and
    writes are lock-free) and process-safe on a shared directory
    (atomic renames + sqlite's own file locking).  ``mmap=False``
    forces eager reads — useful when the store directory is about to
    disappear (tests) or lives on a filesystem with poor mmap behavior.
    """

    def __init__(self, root: str, mmap: bool = True):
        self.root = os.path.abspath(str(root))
        self.mmap = mmap
        self._sweep_dir = os.path.join(self.root, "sweeps")
        self._block_dir = os.path.join(self.root, "blocks")
        os.makedirs(self._sweep_dir, exist_ok=True)
        os.makedirs(self._block_dir, exist_ok=True)
        self._index_path = os.path.join(self.root, "index.db")
        self._lock = threading.Lock()
        self._db: Optional[sqlite3.Connection] = None
        self.counters = {
            "sweep_hits": 0,
            "sweep_misses": 0,
            "sweep_saves": 0,
            "block_hits": 0,
            "block_misses": 0,
            "block_saves": 0,
            "corrupt_dropped": 0,
        }
        self._open_index()

    # -- index lifecycle -----------------------------------------------------
    def _open_index(self) -> None:
        try:
            self._db = self._connect()
        except sqlite3.DatabaseError as exc:
            # the catalogue is derivable from the files: quarantine the
            # bad database, start a fresh one, and re-register entries
            warnings.warn(
                f"result store index {self._index_path} is corrupt "
                f"({exc}); rebuilding it from the store directory",
                StoreCorruptionWarning,
                stacklevel=2,
            )
            self.counters["corrupt_dropped"] += 1
            try:
                os.replace(self._index_path, self._index_path + ".corrupt")
            except OSError:
                try:
                    os.unlink(self._index_path)
                except OSError:
                    pass
            self._db = self._connect()
            self.reindex()

    def _connect(self) -> sqlite3.Connection:
        db = sqlite3.connect(
            self._index_path, timeout=30.0, check_same_thread=False
        )
        try:
            db.execute(_SCHEMA)
            db.commit()
        except sqlite3.DatabaseError:
            db.close()
            raise
        return db

    def close(self) -> None:
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- catalogue -----------------------------------------------------------
    def _record(
        self,
        kind: str,
        digest: str,
        n_points: int,
        n_bytes: int,
        engine: Optional[str] = None,
        grid_json: Optional[str] = None,
    ) -> None:
        """Best-effort index upsert; serving never fails on a bad index."""
        with self._lock:
            if self._db is None:
                return
            try:
                self._db.execute(
                    "INSERT OR REPLACE INTO entries "
                    "(kind, digest, n_points, n_bytes, engine, grid_json, "
                    "created_s) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (kind, digest, int(n_points), int(n_bytes), engine,
                     grid_json, time.time()),
                )
                self._db.commit()
            except sqlite3.Error as exc:
                warnings.warn(
                    f"result store index write failed ({exc}); the entry "
                    f"stays readable (files are the source of truth)",
                    StoreCorruptionWarning,
                    stacklevel=3,
                )

    def _catalogued(self, kind: str, digest: str) -> bool:
        with self._lock:
            if self._db is None:
                return False
            try:
                row = self._db.execute(
                    "SELECT 1 FROM entries WHERE kind = ? AND digest = ?",
                    (kind, digest),
                ).fetchone()
            except sqlite3.Error:
                return False
            return row is not None

    def _forget(self, kind: str, digest: str) -> None:
        with self._lock:
            if self._db is None:
                return
            try:
                self._db.execute(
                    "DELETE FROM entries WHERE kind = ? AND digest = ?",
                    (kind, digest),
                )
                self._db.commit()
            except sqlite3.Error:
                pass

    def reindex(self) -> int:
        """Rebuild the sqlite catalogue from a directory scan.

        Every readable entry is re-registered (corrupt ones are
        quarantined as during normal reads); returns the number of
        entries now catalogued.
        """
        n_entries = 0
        for kind, directory in (
            ("sweep", self._sweep_dir), ("block", self._block_dir)
        ):
            for name in sorted(os.listdir(directory)):
                if not name.endswith(".npz"):
                    continue
                digest = name[:-len(".npz")]
                path = os.path.join(directory, name)
                try:
                    arrays = read_arrays(path, mmap=self.mmap)
                    meta = self._read_meta(arrays)
                    n_points = int(
                        np.prod(arrays["accelerated_ms"].shape, dtype=np.int64)
                    )
                except (StoreIntegrityError, ValueError, KeyError) as exc:
                    self._quarantine(kind, digest, path, exc)
                    continue
                self._record(
                    kind, digest, n_points, os.path.getsize(path),
                    engine=meta.get("engine"),
                    grid_json=json.dumps(meta["grid"]) if "grid" in meta
                    else None,
                )
                n_entries += 1
        return n_entries

    # -- corruption handling -------------------------------------------------
    def _quarantine(
        self, kind: str, digest: str, path: str, exc: Exception
    ) -> None:
        """Move a corrupt entry aside and drop it from the catalogue."""
        warnings.warn(
            f"result store entry {path} is corrupt ({exc}); dropping it — "
            f"the {kind} will be re-evaluated and re-persisted",
            StoreCorruptionWarning,
            stacklevel=4,
        )
        self.counters["corrupt_dropped"] += 1
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._forget(kind, digest)

    @staticmethod
    def _read_meta(arrays: Dict[str, np.ndarray]) -> Dict:
        raw = arrays.pop(_META_MEMBER, None)
        if raw is None:
            return {}
        meta = json.loads(np.asarray(raw).tobytes().decode("utf-8"))
        if not isinstance(meta, dict):
            raise ValueError("store entry metadata is not a JSON object")
        return meta

    # -- sweeps --------------------------------------------------------------
    def sweep_path(self, key: Hashable) -> str:
        return os.path.join(self._sweep_dir, fingerprint_digest(key) + ".npz")

    def save_sweep(self, key: Hashable, result: SweepResult) -> str:
        """Persist a whole :class:`SweepResult` under its fingerprint.

        Content addressing makes the write idempotent: an entry already
        on disk (this replica's or another's) is left untouched.
        """
        digest = fingerprint_digest(key)
        path = os.path.join(self._sweep_dir, digest + ".npz")
        grid_json = json.dumps(result.grid.to_dict())
        if not os.path.exists(path):
            meta = {
                "schema_version": PAYLOAD_SCHEMA_VERSION,
                "grid": result.grid.to_dict(),
                "engine": result.engine,
            }
            # the stored columns (timings compact); np.savez copies
            # each to contiguous itself
            arrays = {
                name: np.asarray(column, dtype=np.float64)
                for name, column in result.columns.items()
            }
            arrays[_META_MEMBER] = _meta_array(meta)
            write_arrays_atomic(path, arrays)
            self.counters["sweep_saves"] += 1
        self._record(
            "sweep", digest, result.grid.size, os.path.getsize(path),
            engine=result.engine, grid_json=grid_json,
        )
        return path

    def load_sweep(self, key: Hashable) -> Optional[SweepResult]:
        """Reconstruct a persisted sweep, or None (miss / corrupt entry).

        Arrays are memory-mapped read-only views over the npz, so the
        load cost is header parsing, not a copy; validation is
        :meth:`~repro.core.dse.SweepResult.from_arrays` (compact timing
        columns, or the dense ones older entries hold), so a truncated
        entry is caught here and quarantined.
        """
        digest = fingerprint_digest(key)
        path = os.path.join(self._sweep_dir, digest + ".npz")
        if not os.path.exists(path):
            self.counters["sweep_misses"] += 1
            return None
        try:
            arrays = read_arrays(path, mmap=self.mmap)
            meta = self._read_meta(arrays)
            check_schema_version(meta.get("schema_version"))
            grid = SweepGrid.from_dict(meta["grid"]).resolve()
            for name, array in arrays.items():
                if array.dtype != np.float64:
                    raise ValueError(
                        f"array {name!r} has dtype {array.dtype}, "
                        f"expected float64"
                    )
            result = SweepResult.from_arrays(
                grid, str(meta.get("engine", "store")), arrays
            )
        except (StoreIntegrityError, ValueError, KeyError) as exc:
            self._quarantine("sweep", digest, path, exc)
            self.counters["sweep_misses"] += 1
            return None
        self.counters["sweep_hits"] += 1
        if not self._catalogued("sweep", digest):
            # repair an orphan (file landed, index write lost): cheap
            # SELECT on the hot path, INSERT+fsync only when needed
            self._record(
                "sweep", digest, grid.size, os.path.getsize(path),
                engine=result.engine, grid_json=json.dumps(grid.to_dict()),
            )
        return result

    # -- blocks --------------------------------------------------------------
    def save_block(self, key: Hashable, arrays: Dict[str, np.ndarray]) -> str:
        """Persist one evaluated block (timing columns + Amdahl bound).

        The columns go to disk at the rank the block holds them —
        compact from :func:`~repro.core.dse.evaluate_block`.
        """
        digest = fingerprint_digest(key)
        path = os.path.join(self._block_dir, digest + ".npz")
        if not os.path.exists(path):
            payload = {
                name: np.asarray(arrays[name], dtype=np.float64)
                for name in BLOCK_ARRAY_FIELDS
            }
            write_arrays_atomic(path, payload)
            self.counters["block_saves"] += 1
        n_points = int(
            np.prod(np.asarray(arrays["accelerated_ms"]).shape, dtype=np.int64)
        )
        self._record("block", digest, n_points, os.path.getsize(path))
        return path

    def load_block(
        self, key: Hashable, expected_shape: Tuple[int, ...]
    ) -> Optional[Dict[str, np.ndarray]]:
        """Load one persisted block, or None (miss / corrupt entry).

        ``expected_shape`` is the block's
        :func:`~repro.core.dse.task_shape`; each timing column is read
        by :func:`~repro.core.dse.block_columns`, compact or dense.
        """
        digest = fingerprint_digest(key)
        path = os.path.join(self._block_dir, digest + ".npz")
        if not os.path.exists(path):
            self.counters["block_misses"] += 1
            return None
        try:
            arrays = read_arrays(path, mmap=self.mmap)
            self._read_meta(arrays)
            for name in BLOCK_ARRAY_FIELDS:
                if name not in arrays:
                    raise ValueError(f"entry is missing array {name!r}")
            block = block_columns(arrays, tuple(expected_shape))
        except (StoreIntegrityError, ValueError, KeyError) as exc:
            self._quarantine("block", digest, path, exc)
            self.counters["block_misses"] += 1
            return None
        self.counters["block_hits"] += 1
        block["amdahl_bound"] = arrays["amdahl_bound"]
        return block

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict:
        """Entry counts/bytes by kind plus this instance's hit counters."""
        by_kind = {
            "sweep": {"count": 0, "bytes": 0},
            "block": {"count": 0, "bytes": 0},
        }
        with self._lock:
            if self._db is not None:
                try:
                    rows = self._db.execute(
                        "SELECT kind, COUNT(*), COALESCE(SUM(n_bytes), 0) "
                        "FROM entries GROUP BY kind"
                    ).fetchall()
                except sqlite3.Error:
                    rows = []
                for kind, count, n_bytes in rows:
                    if kind in by_kind:
                        by_kind[kind] = {
                            "count": int(count), "bytes": int(n_bytes)
                        }
        return {
            "root": self.root,
            "mmap": self.mmap,
            "sweeps": by_kind["sweep"],
            "blocks": by_kind["block"],
            **dict(self.counters),
        }

    def __repr__(self) -> str:
        return f"ResultStore({self.root!r})"
