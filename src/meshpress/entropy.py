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
           "SignedIntCoder"]


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
