"""Adaptive range coding: the coder core and the signed-integer front end.

Carry-aware 32-bit range coder with byte renormalization and order-0
adaptive frequency models. All arithmetic is integer, so output is
byte-identical across platforms.

Decoding runs in two batch kernels, :meth:`RangeDecoder.decode_symbols`
(one adaptive model) and :meth:`SignedIntCoder.decode_many` (magnitude
symbol, raw escape bits and sign inlined; raw bits are decoded nowhere
else). Each decodes a whole run of
values with the coder state (`code`, `range`, read position, data) and
the models' counts held in local variables, because in pure Python the
attribute accesses and method calls of a per-symbol decoder cost more
than the arithmetic itself. The per-value methods `decode_symbol` and
`SignedIntCoder.decode` are wrappers over the kernels; the halving of
the counts stays in :meth:`AdaptiveModel.rescale`. The encoder is coded
symbol by symbol.
"""

from __future__ import annotations

from itertools import repeat

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

    def update(self, sym: int) -> None:
        self.freq[sym] += _INCREMENT
        self.total += _INCREMENT
        if self.total > _RESCALE_LIMIT:
            self.rescale()

    def rescale(self) -> int:
        """Halve every count in place (rounding up); returns the new
        total. The decoder kernels hold `freq` in a local, so the list
        object must stay the same."""
        freq = self.freq
        for i in range(self.n):
            freq[i] = (freq[i] + 1) >> 1
        self.total = sum(freq)
        return self.total


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
    """Decoder state: the chunk's bytes, the read position (reads past the
    end return zero bytes), the range and the code value. The batch
    kernels copy the state into locals and write it back on return."""

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

    def decode_symbols(self, model: AdaptiveModel, count: int) -> list[int]:
        """Kernel: the next `count` symbols of one adaptive model."""
        data, pos, rng, code = self._data, self._pos, self._range, self._code
        end = len(data)
        freq, total = model.freq, model.total
        out = []
        append = out.append
        for _ in repeat(None, count):
            r = rng // total
            dv = code // r
            if dv >= total:
                dv = total - 1
            sym = cum = 0
            f = freq[0]
            while cum + f <= dv:
                cum += f
                sym += 1
                f = freq[sym]
            code -= r * cum
            rng = r * f
            while rng < _TOP:
                rng <<= 8
                code = ((code << 8) | (data[pos] if pos < end else 0)) & _MASK32
                pos += 1
            freq[sym] = f + _INCREMENT
            total += _INCREMENT
            if total > _RESCALE_LIMIT:
                total = model.rescale()
            append(sym)
        self._pos, self._range, self._code = pos, rng, code
        model.total = total
        return out

    def decode_symbol(self, model: AdaptiveModel) -> int:
        return self.decode_symbols(model, 1)[0]


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

    def decode_many(self, dec: RangeDecoder, count: int) -> list[int]:
        """Kernel: the next `count` signed integers. The steps of
        :meth:`RangeDecoder.decode_symbols`, inlined for the magnitude
        symbol and the sign, and the inverse of
        :meth:`RangeEncoder.encode_raw` for the raw escape bits."""
        data, pos, rng, code = dec._data, dec._pos, dec._range, dec._code
        end = len(data)
        mag_model, sign_model = self.magnitude, self.sign
        mfreq, mtotal = mag_model.freq, mag_model.total
        sfreq, stotal = sign_model.freq, sign_model.total
        escape, raw_bits = self.ESCAPE, self.raw_bits
        out = []
        append = out.append
        for _ in repeat(None, count):
            r = rng // mtotal
            dv = code // r
            if dv >= mtotal:
                dv = mtotal - 1
            mag = cum = 0
            f = mfreq[0]
            while cum + f <= dv:
                cum += f
                mag += 1
                f = mfreq[mag]
            code -= r * cum
            rng = r * f
            while rng < _TOP:
                rng <<= 8
                code = ((code << 8) | (data[pos] if pos < end else 0)) & _MASK32
                pos += 1
            mfreq[mag] = f + _INCREMENT
            mtotal += _INCREMENT
            if mtotal > _RESCALE_LIMIT:
                mtotal = mag_model.rescale()
            if mag == escape:
                mag = 0
                for _ in repeat(None, raw_bits):
                    r = rng >> 1
                    if code >= r:
                        code -= r
                        rng -= r
                        mag = (mag << 1) | 1
                    else:
                        rng = r
                        mag <<= 1
                    while rng < _TOP:
                        rng <<= 8
                        code = (((code << 8)
                                 | (data[pos] if pos < end else 0)) & _MASK32)
                        pos += 1
            if not mag:
                append(0)
                continue
            r = rng // stotal
            f = sfreq[0]
            if code // r < f:           # sign 0: cum 0, nothing to subtract
                negative = 0
                rng = r * f
            else:
                negative = 1
                code -= r * f
                f = sfreq[1]
                rng = r * f
            while rng < _TOP:
                rng <<= 8
                code = ((code << 8) | (data[pos] if pos < end else 0)) & _MASK32
                pos += 1
            sfreq[negative] = f + _INCREMENT
            stotal += _INCREMENT
            if stotal > _RESCALE_LIMIT:
                stotal = sign_model.rescale()
            append(-mag if negative else mag)
        dec._pos, dec._range, dec._code = pos, rng, code
        mag_model.total, sign_model.total = mtotal, stotal
        return out

    def decode(self, dec: RangeDecoder) -> int:
        return self.decode_many(dec, 1)[0]
