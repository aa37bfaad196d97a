"""Versioned binary columnar frame — the one wire format for arrays.

A frame is a self-describing, integrity-checked container for a small
JSON-safe metadata object plus any number of dense numeric columns::

    +--------------------------------------------------------------+
    | header   <4sHHIQI  little-endian, 24 bytes                   |
    |   magic        b"RPRF"                                       |
    |   version      FRAME_VERSION (currently 1)                   |
    |   ncols        number of columns in the table                |
    |   meta_len     byte length of the JSON meta section          |
    |   payload_len  byte length of the column payload             |
    |   crc32        zlib.crc32 over meta bytes + payload bytes    |
    +--------------------------------------------------------------+
    | meta     UTF-8 JSON: {"meta": ..., "columns": [...]}         |
    |   each column entry: {"name", "dtype", "shape",              |
    |                       "offset", "nbytes"}                    |
    +--------------------------------------------------------------+
    | payload  raw C-contiguous little-endian column buffers,      |
    |          each starting on an 8-byte boundary                 |
    +--------------------------------------------------------------+

Decoding never copies column data: each column is an
``np.frombuffer`` view straight into the received buffer, reshaped and
marked read-only.  Only numeric/bool dtypes (NumPy kinds ``b i u f``)
are accepted — there is no object path, so a frame can never execute
code on decode (unlike the pickle protocol this module retires).

Every malformed input raises :class:`FrameError` (a ``ValueError``)
with a one-line reason; the service layer maps it to a structured
HTTP 400 ``bad-frame`` response.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, Iterable, Mapping, Tuple, Union

import numpy as np

__all__ = [
    "FRAME_CONTENT_TYPE",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "FrameError",
    "decode_frame",
    "encode_frame",
    "parse_frame",
]

#: Content-Type header announcing a binary frame body.
FRAME_CONTENT_TYPE = "application/x-repro-frame"

FRAME_MAGIC = b"RPRF"
FRAME_VERSION = 1

#: header layout: magic, version, ncols, meta_len, payload_len, crc32
_HEADER = struct.Struct("<4sHHIQI")

#: dtype kinds allowed on the wire (bool, signed, unsigned, float)
_ALLOWED_KINDS = frozenset("biuf")

_ALIGN = 8


class FrameError(ValueError):
    """A frame failed to encode or decode (corrupt, truncated, or unsafe)."""


def _wire_ready(array: np.ndarray, name: str) -> np.ndarray:
    """Return ``array`` as C-contiguous little-endian, or raise."""
    array = np.asarray(array)
    if array.dtype.kind not in _ALLOWED_KINDS:
        raise FrameError(
            f"column {name!r} has non-numeric dtype {array.dtype!s}; "
            f"only bool/int/uint/float columns go on the wire"
        )
    if array.dtype.byteorder == ">":
        array = array.astype(array.dtype.newbyteorder("<"))
    # ascontiguousarray promotes a 0-d array to shape (1,)
    return np.ascontiguousarray(array).reshape(array.shape)


def encode_frame(
    meta: Any,
    columns: Union[Mapping[str, np.ndarray],
                   Iterable[Tuple[str, np.ndarray]]] = (),
) -> bytearray:
    """Pack ``meta`` (JSON-safe) and named arrays into one frame.

    The frame is built in one preallocated buffer: each column is copied
    into it once, and nothing is concatenated.
    """
    if isinstance(columns, Mapping):
        columns = columns.items()
    table = []
    arrays = []
    offset = 0
    for name, array in columns:
        array = _wire_ready(array, name)
        offset += (-offset) % _ALIGN
        table.append({
            "name": str(name),
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": array.nbytes,
        })
        arrays.append(array)
        offset += array.nbytes
    try:
        meta_bytes = json.dumps(
            {"meta": meta, "columns": table},
            separators=(",", ":"),
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError(f"frame meta is not JSON-serializable: {exc}")
    start = _HEADER.size + len(meta_bytes)
    frame = bytearray(start + offset)  # zero-filled: the padding
    view = memoryview(frame)
    view[_HEADER.size:start] = meta_bytes
    for entry, array in zip(table, arrays):
        at = start + entry["offset"]
        view[at:at + entry["nbytes"]] = array.reshape(-1).view(np.uint8)
    crc = zlib.crc32(view[start:], zlib.crc32(meta_bytes))
    _HEADER.pack_into(
        frame, 0, FRAME_MAGIC, FRAME_VERSION, len(table),
        len(meta_bytes), offset, crc,
    )
    return frame


def decode_frame(data: Union[bytes, bytearray, memoryview]):
    """Unpack one frame into ``(meta, columns)``, verifying its CRC.

    ``columns`` is an ordered ``{name: ndarray}`` of read-only
    zero-copy views into ``data``.  Raises :class:`FrameError` on any
    corruption: bad magic, unsupported version, length mismatch, CRC
    failure, out-of-bounds column, or a disallowed dtype.  Every frame
    received from a socket goes through here.
    """
    ncols, meta_bytes, payload, crc = _split(data)
    actual_crc = zlib.crc32(payload, zlib.crc32(meta_bytes))
    if actual_crc != crc:
        raise FrameError(
            f"frame CRC mismatch (expected {crc:#010x}, got {actual_crc:#010x})"
        )
    return _parse_sections(ncols, meta_bytes, payload)


def parse_frame(data):
    """:func:`decode_frame`'s structural parse, without the CRC.

    Every check but the checksum runs, so a truncated or malformed frame
    still raises :class:`FrameError`; the columns are views into
    ``data``.  For a memory-mapped file (the result store's entries)
    this touches only the header and the column table, where the CRC
    would fault in every page of the map.
    """
    ncols, meta_bytes, payload, _ = _split(data)
    return _parse_sections(ncols, meta_bytes, payload)


def _split(data):
    """Check the header and length: (ncols, meta, payload, crc)."""
    view = memoryview(data)
    if len(view) < _HEADER.size:
        raise FrameError(
            f"truncated frame: {len(view)} bytes < {_HEADER.size}-byte header"
        )
    magic, version, ncols, meta_len, payload_len, crc = _HEADER.unpack_from(view)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic {bytes(magic)!r}")
    if version != FRAME_VERSION:
        raise FrameError(
            f"unsupported frame version {version} (this side speaks "
            f"{FRAME_VERSION})"
        )
    expected = _HEADER.size + meta_len + payload_len
    if len(view) != expected:
        raise FrameError(
            f"frame length mismatch: header promises {expected} bytes, "
            f"got {len(view)}"
        )
    meta_bytes = view[_HEADER.size:_HEADER.size + meta_len]
    payload = view[_HEADER.size + meta_len:]
    return ncols, meta_bytes, payload, crc


def _parse_sections(ncols: int, meta_bytes: memoryview, payload: memoryview):
    try:
        decoded = json.loads(bytes(meta_bytes).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"frame meta is not valid JSON: {exc}")
    if not isinstance(decoded, dict) or "meta" not in decoded \
            or not isinstance(decoded.get("columns"), list):
        raise FrameError("frame meta missing 'meta'/'columns' sections")
    table = decoded["columns"]
    if len(table) != ncols:
        raise FrameError(
            f"column count mismatch: header says {ncols}, table has "
            f"{len(table)}"
        )
    columns: Dict[str, np.ndarray] = {}
    for entry in table:
        name, array = _decode_column(entry, payload)
        if name in columns:
            raise FrameError(f"duplicate column name {name!r}")
        columns[name] = array
    return decoded["meta"], columns


def _decode_column(entry, payload: memoryview) -> Tuple[str, np.ndarray]:
    if not isinstance(entry, dict):
        raise FrameError("column table entry is not an object")
    try:
        name = entry["name"]
        dtype_token = entry["dtype"]
        shape = entry["shape"]
        offset = entry["offset"]
        nbytes = entry["nbytes"]
    except KeyError as exc:
        raise FrameError(f"column table entry missing field {exc}")
    if not isinstance(name, str):
        raise FrameError("column name is not a string")
    try:
        dtype = np.dtype(dtype_token)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"column {name!r} has unparseable dtype: {exc}")
    if dtype.kind not in _ALLOWED_KINDS or dtype.hasobject:
        raise FrameError(
            f"column {name!r} has disallowed dtype {dtype!s}; only "
            f"bool/int/uint/float columns are accepted"
        )
    if (not isinstance(shape, list)
            or not all(isinstance(n, int) and n >= 0 for n in shape)):
        raise FrameError(f"column {name!r} has invalid shape {shape!r}")
    count = 1
    for n in shape:
        count *= n
    if not isinstance(offset, int) or not isinstance(nbytes, int) \
            or offset < 0 or nbytes != count * dtype.itemsize:
        raise FrameError(f"column {name!r} has inconsistent offset/nbytes")
    if offset + nbytes > len(payload):
        raise FrameError(
            f"column {name!r} overruns the payload "
            f"({offset}+{nbytes} > {len(payload)})"
        )
    array = np.frombuffer(
        payload, dtype=dtype, count=count, offset=offset,
    ).reshape(shape)
    array.flags.writeable = False
    return name, array
