"""Safe binary wire transport for dense sweep data.

``repro.transport`` owns the versioned columnar frame format
(:mod:`repro.transport.frame`) and the tagged message codec built on it
(:mod:`repro.transport.messages`).  The shard cluster's ``/cluster/*``
endpoints, the streaming sweep service, and any future bulk-array
endpoint all share this one format; nothing in the tree pickles bytes
received from a socket.
"""

from repro.transport.frame import (
    FRAME_CONTENT_TYPE,
    FRAME_MAGIC,
    FRAME_VERSION,
    FrameError,
    decode_frame,
    encode_frame,
    parse_frame,
)
from repro.transport.messages import decode_message, encode_message

__all__ = [
    "FRAME_CONTENT_TYPE",
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "FrameError",
    "decode_frame",
    "decode_message",
    "encode_frame",
    "encode_message",
    "parse_frame",
]
