"""Cluster protocol messages over the binary frame.

:func:`encode_message` / :func:`decode_message` carry the exact Python
payloads the ``/cluster/*`` protocol used to pickle — nested dicts and
tuples, :class:`~repro.core.config.NGPCConfig` objects, calibration
fingerprints, and dense float64 result blocks — without ever executing
code on decode.  The JSON-unfriendly shapes travel as small type tags
inside the frame's meta section:

``{"__t": [...]}``
    a tuple (distinguished from a list, so value-keyed task tuples and
    calibration fingerprints compare equal after a round trip)
``{"__a": i}``
    the *i*-th binary column of the frame (any :class:`numpy.ndarray`,
    hoisted out of the payload so block data stays zero-copy)
``{"__ngpc": {...}}``
    an :class:`NGPCConfig` (reconstructed field-by-field, with its
    nested :class:`NFPConfig`)

Dict keys beginning with ``__`` are reserved for these tags; encoding a
payload that uses one raises :class:`FrameError` rather than producing
a frame that would decode to something else.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List

import numpy as np

from repro.core.config import NFPConfig, NGPCConfig
from repro.transport.frame import FrameError, decode_frame, encode_frame

__all__ = ["decode_message", "encode_message"]

_TAGS = ("__t", "__a", "__ngpc")


def _to_wire(value: Any, columns: List[np.ndarray]) -> Any:
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise FrameError(
                    f"message dict key {key!r} is not a string"
                )
            if key.startswith("__"):
                raise FrameError(
                    f"message dict key {key!r} collides with the "
                    f"reserved wire-tag namespace"
                )
            out[key] = _to_wire(item, columns)
        return out
    if isinstance(value, tuple):
        return {"__t": [_to_wire(item, columns) for item in value]}
    if isinstance(value, list):
        return [_to_wire(item, columns) for item in value]
    if isinstance(value, np.ndarray):
        columns.append(value)
        return {"__a": len(columns) - 1}
    if isinstance(value, NGPCConfig):
        return {"__ngpc": dataclasses.asdict(value)}
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise FrameError(
        f"message value of type {type(value).__name__} has no wire form"
    )


def _from_wire(value: Any, columns: List[np.ndarray]) -> Any:
    if isinstance(value, dict):
        tagged = [tag for tag in _TAGS if tag in value]
        if tagged:
            if len(value) != 1:
                raise FrameError(
                    f"tagged wire object has extra keys: {sorted(value)}"
                )
            tag = tagged[0]
            if tag == "__t":
                items = value["__t"]
                if not isinstance(items, list):
                    raise FrameError("__t tag does not wrap a list")
                return tuple(_from_wire(item, columns) for item in items)
            if tag == "__a":
                index = value["__a"]
                if not isinstance(index, int) \
                        or not 0 <= index < len(columns):
                    raise FrameError(f"__a tag references column {index!r}")
                return columns[index]
            return _decode_ngpc(value["__ngpc"])
        return {key: _from_wire(item, columns) for key, item in value.items()}
    if isinstance(value, list):
        return [_from_wire(item, columns) for item in value]
    return value


def _decode_ngpc(fields: Any) -> NGPCConfig:
    if not isinstance(fields, dict):
        raise FrameError("__ngpc tag does not wrap an object")
    known = {f.name for f in dataclasses.fields(NGPCConfig)}
    if set(fields) != known:
        raise FrameError(
            f"__ngpc fields {sorted(fields)} do not match NGPCConfig"
        )
    nfp = fields["nfp"]
    nfp_known = {f.name for f in dataclasses.fields(NFPConfig)}
    if not isinstance(nfp, dict) or set(nfp) != nfp_known:
        raise FrameError("__ngpc.nfp fields do not match NFPConfig")
    try:
        kwargs = dict(fields, nfp=NFPConfig(**nfp))
        return NGPCConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise FrameError(f"__ngpc payload rejected: {exc}")


def encode_message(payload: Any) -> bytearray:
    """Serialize one cluster protocol message into a binary frame."""
    columns: List[np.ndarray] = []
    meta = _to_wire(payload, columns)
    return encode_frame(
        meta, [(str(i), array) for i, array in enumerate(columns)]
    )


def decode_message(body: bytes) -> Any:
    """Decode one cluster protocol message (empty body -> ``{}``).

    Array values come back as read-only zero-copy views into ``body``.
    Raises :class:`FrameError` on any malformed input.
    """
    if not body:
        return {}
    meta, columns = decode_frame(body)
    return _from_wire(meta, list(columns.values()))
