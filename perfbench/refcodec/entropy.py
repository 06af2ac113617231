"""Adaptive arithmetic coding front end.

The hot per-symbol loop lives in a compiled extension when available
(``meshpress._coder_c``); a pure-Python twin is selected at import time
otherwise, or when ``MESHPRESS_PURE_PYTHON=1`` is set. Both produce
byte-identical streams.
"""

from __future__ import annotations

import os

if os.environ.get("MESHPRESS_PURE_PYTHON") == "1":
    from . import _coder_py as _backend
else:
    try:
        from . import _coder_c as _backend  # type: ignore[attr-defined]
    except ImportError:
        from . import _coder_py as _backend

AdaptiveModel = _backend.AdaptiveModel
RangeEncoder = _backend.RangeEncoder
RangeDecoder = _backend.RangeDecoder
BACKEND_NAME = _backend.BACKEND_NAME

__all__ = ["AdaptiveModel", "RangeEncoder", "RangeDecoder", "BACKEND_NAME",
           "BitSink", "BitSource", "SignedIntCoder",
           "encode_symbol", "decode_symbol"]


def encode_symbol(model, sink, sym: int) -> None:
    sink.encode_symbol(model, sym)


def decode_symbol(model, source) -> int:
    return source.decode_symbol(model)


class BitSink:
    """MSB-first bit writer; flush pads the last byte with zero bits."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    def write_bit(self, bit: int) -> None:
        self._acc = (self._acc << 1) | (bit & 1)
        self._nbits += 1
        if self._nbits == 8:
            self._buf.append(self._acc)
            self._acc = 0
            self._nbits = 0

    def write_bits(self, value: int, nbits: int) -> None:
        for i in range(nbits - 1, -1, -1):
            self.write_bit((value >> i) & 1)

    @property
    def bit_length(self) -> int:
        return 8 * len(self._buf) + self._nbits

    def getvalue(self) -> bytes:
        out = bytearray(self._buf)
        if self._nbits:
            out.append(self._acc << (8 - self._nbits))
        return bytes(out)


class BitSource:
    """MSB-first bit reader over a byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read_bit(self) -> int:
        byte, off = divmod(self._pos, 8)
        if byte >= len(self._data):
            raise EOFError("bit source exhausted")
        self._pos += 1
        return (self._data[byte] >> (7 - off)) & 1

    def read_bits(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value


class SignedIntCoder:
    """Signed integers as magnitude bucket + sign.

    Magnitudes 0..15 are direct symbols of an 18-symbol adaptive model;
    symbol 16 escapes to a fixed-width raw magnitude; symbol 17 is
    reserved. The sign is a separate adaptive binary model, coded only
    for nonzero values.
    """

    ESCAPE = 16

    def __init__(self, raw_bits: int = 32, rescale_limit: int = 1 << 14,
                 increment: int = 32):
        self.raw_bits = raw_bits
        self.magnitude = AdaptiveModel(18, rescale_limit, increment)
        self.sign = AdaptiveModel(2, rescale_limit, increment)

    def encode(self, enc, value: int) -> None:
        mag = abs(int(value))
        if mag < 16:
            enc.encode_symbol(self.magnitude, mag)
        else:
            if mag >= (1 << self.raw_bits):
                raise ValueError(f"magnitude {mag} exceeds {self.raw_bits} raw bits")
            enc.encode_symbol(self.magnitude, self.ESCAPE)
            enc.encode_raw(mag, self.raw_bits)
        if mag:
            enc.encode_symbol(self.sign, 1 if value < 0 else 0)

    def decode(self, dec) -> int:
        sym = dec.decode_symbol(self.magnitude)
        mag = dec.decode_raw(self.raw_bits) if sym == self.ESCAPE else sym
        if mag == 0:
            return 0
        return -mag if dec.decode_symbol(self.sign) else mag
