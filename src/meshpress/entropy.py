"""Adaptive range coding: the coder core and the signed-integer front end.

Carry-aware 32-bit range coder with byte renormalization and order-0
adaptive frequency models. All arithmetic is integer, so output is
byte-identical across platforms.
"""

from __future__ import annotations

__all__ = ["AdaptiveModel", "RangeEncoder", "RangeDecoder", "BACKEND_NAME",
           "SignedIntCoder"]

# The coder is pure Python; the name is kept public so that reports can
# record which coder produced their timings.
BACKEND_NAME = "python"

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
_INCREMENT = 32             # count added per coded symbol
_RESCALE_LIMIT = 1 << 14    # total past which all counts are halved


class AdaptiveModel:
    """Order-0 adaptive frequencies: counts start at 1, grow by
    _INCREMENT, and are halved (rounding up) past _RESCALE_LIMIT."""

    __slots__ = ("n", "freq", "total")

    def __init__(self, alphabet_size: int):
        if alphabet_size < 1:
            raise ValueError("alphabet must be non-empty")
        self.n = alphabet_size
        self.freq = [1] * alphabet_size
        self.total = alphabet_size

    def cum_below(self, sym: int) -> int:
        return sum(self.freq[:sym])

    def find(self, dv: int) -> tuple[int, int]:
        """Symbol whose cumulative interval contains dv, with its cum."""
        cum = 0
        for sym, f in enumerate(self.freq):
            if cum + f > dv:
                return sym, cum
            cum += f
        return self.n - 1, cum - self.freq[-1]

    def update(self, sym: int) -> None:
        self.freq[sym] += _INCREMENT
        self.total += _INCREMENT
        if self.total > _RESCALE_LIMIT:
            total = 0
            freq = self.freq
            for i in range(self.n):
                freq[i] = (freq[i] + 1) >> 1
                total += freq[i]
            self.total = total


class RangeEncoder:
    __slots__ = ("_low", "_range", "_cache", "_cache_size", "_out")

    def __init__(self):
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._cache_size = 1
        self._out = bytearray()

    def _shift_low(self) -> None:
        low = self._low
        if low < 0xFF000000 or low > _MASK32:
            carry = low >> 32
            out = self._out
            out.append((self._cache + carry) & 0xFF)
            filler = (0xFF + carry) & 0xFF
            for _ in range(self._cache_size - 1):
                out.append(filler)
            self._cache = (low >> 24) & 0xFF
            self._cache_size = 0
        self._cache_size += 1
        self._low = (low << 8) & _MASK32

    def encode_symbol(self, model: AdaptiveModel, sym: int) -> None:
        if not 0 <= sym < model.n:
            raise ValueError(f"symbol {sym} outside alphabet of {model.n}")
        r = self._range // model.total
        self._low += r * model.cum_below(sym)
        self._range = r * model.freq[sym]
        while self._range < _TOP:
            self._range <<= 8
            self._shift_low()
        model.update(sym)

    def encode_raw(self, value: int, nbits: int) -> None:
        for i in range(nbits - 1, -1, -1):
            r = self._range >> 1
            if (value >> i) & 1:
                self._low += r
                self._range -= r
            else:
                self._range = r
            while self._range < _TOP:
                self._range <<= 8
                self._shift_low()

    def finish(self) -> bytes:
        # Any code point in [low, low + range) decodes to the same symbol
        # sequence, and the decoder zero-pads past the end of the stream;
        # pick the point with the most trailing zero bytes and drop them.
        low, rng = self._low, self._range
        for k in range(4, 0, -1):
            mod = 1 << (8 * k)
            c = (low + mod - 1) // mod * mod
            if c - low < rng:
                self._low = c
                break
        for _ in range(5):
            self._shift_low()
        return bytes(self._out).rstrip(b"\x00")


class RangeDecoder:
    __slots__ = ("_data", "_pos", "_range", "_code")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._range = _MASK32
        self._code = 0
        for _ in range(5):
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32

    def _next_byte(self) -> int:
        p = self._pos
        self._pos = p + 1
        return self._data[p] if p < len(self._data) else 0

    def decode_symbol(self, model: AdaptiveModel) -> int:
        r = self._range // model.total
        dv = self._code // r
        if dv >= model.total:
            dv = model.total - 1
        sym, cum = model.find(dv)
        self._code -= r * cum
        self._range = r * model.freq[sym]
        while self._range < _TOP:
            self._range <<= 8
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
        model.update(sym)
        return sym

    def decode_raw(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            r = self._range >> 1
            if self._code >= r:
                bit = 1
                self._code -= r
                self._range -= r
            else:
                bit = 0
                self._range = r
            while self._range < _TOP:
                self._range <<= 8
                self._code = ((self._code << 8) | self._next_byte()) & _MASK32
            value = (value << 1) | bit
        return value


class SignedIntCoder:
    """Signed integers as magnitude bucket + sign.

    Magnitudes 0..15 are direct symbols of an 18-symbol adaptive model;
    symbol 16 escapes to a fixed-width raw magnitude; symbol 17 is
    reserved. The sign is a separate adaptive binary model, coded only
    for nonzero values.
    """

    ESCAPE = 16

    def __init__(self, raw_bits: int = 32):
        self.raw_bits = raw_bits
        self.magnitude = AdaptiveModel(18)
        self.sign = AdaptiveModel(2)

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
