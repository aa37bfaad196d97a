"""The binary frame transport: round trips, parity, corruption rejection.

The frame codec (:mod:`repro.transport`) replaced pickle on the
``/cluster/*`` wire; these tests pin three properties:

- every payload shape the cluster protocol ships round-trips exactly
  (including the pickle-equality parity the migration promised),
- decoding is zero-copy and read-only,
- every corruption — flipped bits, truncation, bad magic/version,
  hostile column tables — raises :class:`FrameError`, never decodes to
  garbage, and never executes code.
"""

import json
import pickle  # the retired wire format: the parity reference only
import struct
import zlib

import numpy as np
import pytest

from repro.core.config import NGPCConfig
from repro.transport import (
    FRAME_CONTENT_TYPE,
    FRAME_MAGIC,
    FRAME_VERSION,
    FrameError,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    parse_frame,
)
from repro.transport.frame import _HEADER


def sample_message():
    rng = np.random.default_rng(3)
    return {
        "job_id": "j-17",
        "task_id": 4,
        "placement": ((0, 1), (0, 1), (2, 4), (0, 3), (0, 2), (1, 2)),
        "ngpc": NGPCConfig(scale_factor=32),
        "fingerprint": ("calib", 1.25, ("nested", 7)),
        "block": {
            "baseline_ms": rng.random((2, 3, 4)),
            "accelerated_ms": rng.random((2, 3, 4)),
            "iterations": rng.integers(0, 100, (2, 3, 4)),
            "flags": rng.random((2, 3, 4)) > 0.5,
        },
        "note": None,
        "ratio": 0.75,
        "names": ["a", "b"],
    }


class TestFrameRoundTrip:
    def test_meta_and_columns(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        b = np.array([1, 2, 3], dtype=np.int32)
        meta, columns = decode_frame(
            encode_frame({"k": "v"}, {"a": a, "b": b})
        )
        assert meta == {"k": "v"}
        assert list(columns) == ["a", "b"]
        np.testing.assert_array_equal(columns["a"], a)
        assert columns["a"].dtype == a.dtype
        np.testing.assert_array_equal(columns["b"], b)
        assert columns["b"].dtype == b.dtype

    def test_columns_are_read_only_views(self):
        data = encode_frame(None, {"x": np.arange(8.0)})
        _, columns = decode_frame(data)
        assert not columns["x"].flags.writeable
        # zero-copy: the array's buffer lives inside the received bytes
        assert columns["x"].base is not None
        with pytest.raises((ValueError, RuntimeError)):
            columns["x"][0] = 99.0

    def test_empty_columns_and_rich_meta(self):
        meta, columns = decode_frame(
            encode_frame({"nested": [1, {"deep": True}], "f": 0.5})
        )
        assert meta == {"nested": [1, {"deep": True}], "f": 0.5}
        assert columns == {}

    def test_zero_length_column(self):
        _, columns = decode_frame(
            encode_frame(None, {"empty": np.zeros((0, 4))})
        )
        assert columns["empty"].shape == (0, 4)

    def test_zero_dim_column_keeps_its_shape(self):
        _, columns = decode_frame(encode_frame(None, {"s": np.float64(2.5)}))
        assert columns["s"].shape == ()
        assert float(columns["s"]) == 2.5

    def test_big_endian_input_normalized(self):
        big = np.arange(5, dtype=">f8")
        _, columns = decode_frame(encode_frame(None, {"x": big}))
        np.testing.assert_array_equal(columns["x"], big)

    def test_object_dtype_refused_on_encode(self):
        with pytest.raises(FrameError, match="non-numeric"):
            encode_frame(None, {"bad": np.array([object()])})

    def test_unserializable_meta_refused(self):
        with pytest.raises(FrameError, match="JSON"):
            encode_frame({"oops": object()})

    def test_content_type_constant(self):
        assert FRAME_CONTENT_TYPE == "application/x-repro-frame"


class TestMessageRoundTrip:
    def test_cluster_message_shapes(self):
        message = sample_message()
        decoded = decode_message(encode_message(message))
        assert decoded["job_id"] == message["job_id"]
        assert decoded["placement"] == message["placement"]
        assert isinstance(decoded["placement"], tuple)
        assert isinstance(decoded["placement"][0], tuple)
        assert decoded["ngpc"] == message["ngpc"]
        assert isinstance(decoded["ngpc"], NGPCConfig)
        assert decoded["fingerprint"] == message["fingerprint"]
        assert decoded["note"] is None
        assert decoded["names"] == ["a", "b"]
        for name, array in message["block"].items():
            got = decoded["block"][name]
            assert got.dtype == array.dtype, name
            np.testing.assert_array_equal(got, array)

    def test_pickle_parity(self):
        """The frame path reproduces the retired pickle path bit for bit."""
        message = sample_message()
        from_frame = decode_message(encode_message(message))
        from_pickle = pickle.loads(pickle.dumps(message))
        assert from_frame["placement"] == from_pickle["placement"]
        assert from_frame["ngpc"] == from_pickle["ngpc"]
        assert from_frame["fingerprint"] == from_pickle["fingerprint"]
        for name in message["block"]:
            a, b = from_frame["block"][name], from_pickle["block"][name]
            assert a.dtype == b.dtype
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_empty_body_decodes_to_empty_dict(self):
        assert decode_message(b"") == {}

    def test_numpy_scalars_become_python(self):
        decoded = decode_message(
            encode_message({"n": np.int64(7), "x": np.float64(0.5)})
        )
        assert decoded == {"n": 7, "x": 0.5}
        assert type(decoded["n"]) is int

    def test_reserved_key_refused(self):
        with pytest.raises(FrameError, match="reserved"):
            encode_message({"__t": 1})

    def test_non_string_key_refused(self):
        with pytest.raises(FrameError, match="not a string"):
            encode_message({3: "x"})

    def test_unencodable_value_refused(self):
        with pytest.raises(FrameError, match="no wire form"):
            encode_message({"f": object()})


class TestCorruptionRejection:
    def test_truncated_header(self):
        with pytest.raises(FrameError, match="truncated"):
            decode_frame(b"RPRF\x01")

    def test_bad_magic(self):
        data = bytearray(encode_frame({"k": 1}))
        data[:4] = b"EVIL"
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(encode_frame({"k": 1}))
        struct.pack_into("<H", data, 4, FRAME_VERSION + 1)
        with pytest.raises(FrameError, match="version"):
            decode_frame(bytes(data))

    def test_truncated_payload(self):
        data = encode_frame(None, {"x": np.arange(16.0)})
        with pytest.raises(FrameError, match="length mismatch"):
            decode_frame(data[:-8])

    def test_flipped_payload_bit_fails_crc(self):
        data = bytearray(encode_frame(None, {"x": np.arange(16.0)}))
        data[-1] ^= 0x40
        with pytest.raises(FrameError, match="CRC"):
            decode_frame(bytes(data))

    def test_flipped_meta_bit_fails_crc(self):
        data = bytearray(encode_frame({"key": "value"}))
        data[_HEADER.size + 3] ^= 0x01
        with pytest.raises(FrameError, match="CRC"):
            decode_frame(bytes(data))

    def test_parse_frame_skips_only_the_crc(self):
        data = bytearray(encode_frame({"k": 1}, {"x": np.arange(16.0)}))
        data[-1] ^= 0x40
        meta, columns = parse_frame(data)
        assert meta == {"k": 1}
        assert columns["x"].shape == (16,)
        with pytest.raises(FrameError, match="length mismatch"):
            parse_frame(data[:-8])
        data[:4] = b"EVIL"
        with pytest.raises(FrameError, match="magic"):
            parse_frame(data)

    def _forged(self, table, payload=b"", meta=None):
        """A frame with a hand-written column table (valid CRC/header)."""
        meta_bytes = json.dumps(
            {"meta": meta, "columns": table}, separators=(",", ":")
        ).encode()
        crc = zlib.crc32(payload, zlib.crc32(meta_bytes))
        header = _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, len(table),
                              len(meta_bytes), len(payload), crc)
        return header + meta_bytes + payload

    def test_object_dtype_refused_on_decode(self):
        table = [{"name": "x", "dtype": "|O", "shape": [1],
                  "offset": 0, "nbytes": 8}]
        with pytest.raises(FrameError, match="dtype"):
            decode_frame(self._forged(table, b"\x00" * 8))

    def test_column_overrun_refused(self):
        table = [{"name": "x", "dtype": "<f8", "shape": [64],
                  "offset": 0, "nbytes": 512}]
        with pytest.raises(FrameError, match="overruns"):
            decode_frame(self._forged(table, b"\x00" * 8))

    def test_inconsistent_nbytes_refused(self):
        table = [{"name": "x", "dtype": "<f8", "shape": [2],
                  "offset": 0, "nbytes": 8}]
        with pytest.raises(FrameError, match="inconsistent"):
            decode_frame(self._forged(table, b"\x00" * 16))

    def test_negative_shape_refused(self):
        table = [{"name": "x", "dtype": "<f8", "shape": [-1],
                  "offset": 0, "nbytes": 8}]
        with pytest.raises(FrameError, match="shape"):
            decode_frame(self._forged(table, b"\x00" * 8))

    def test_duplicate_column_refused(self):
        entry = {"name": "x", "dtype": "<f8", "shape": [1],
                 "offset": 0, "nbytes": 8}
        with pytest.raises(FrameError, match="duplicate"):
            decode_frame(self._forged([entry, dict(entry)], b"\x00" * 8))

    def test_column_count_mismatch_refused(self):
        data = bytearray(encode_frame(None, {"x": np.arange(4.0)}))
        struct.pack_into("<H", data, 6, 5)  # header ncols forged to 5
        with pytest.raises(FrameError, match="column count"):
            decode_frame(bytes(data))

    def test_tagged_object_with_extra_keys_refused(self):
        data = self._forged([], meta={"__t": [1], "extra": 2})
        with pytest.raises(FrameError, match="extra keys"):
            decode_message(data)

    def test_array_tag_out_of_range_refused(self):
        data = self._forged([], meta={"__a": 3})
        with pytest.raises(FrameError, match="__a"):
            decode_message(data)

    def test_forged_ngpc_fields_refused(self):
        data = self._forged([], meta={"__ngpc": {"scale_factor": 8}})
        with pytest.raises(FrameError, match="__ngpc"):
            decode_message(data)

    def test_frame_error_is_value_error(self):
        assert issubclass(FrameError, ValueError)

    def test_pickle_bytes_are_not_a_frame(self):
        """Old-protocol bodies fail loudly instead of half-decoding."""
        with pytest.raises(FrameError):
            decode_frame(pickle.dumps({"job_id": "x"}))


class TestNoPickleOnTheWire:
    def test_service_package_does_not_import_pickle(self):
        """The wire-protocol modules must not import or call pickle.

        Prose mentions (docstrings explaining what the frames replaced)
        are fine; ``import pickle`` or a ``pickle.`` call is not.
        """
        import pathlib
        import re

        import repro.service

        package_dir = pathlib.Path(repro.service.__file__).parent
        pattern = re.compile(r"^\s*(import pickle|from pickle)|pickle\.",
                             re.MULTILINE)
        offenders = [
            str(path)
            for path in package_dir.rglob("*.py")
            if pattern.search(path.read_text())
        ]
        assert offenders == []
