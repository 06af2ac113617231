"""Adaptive range coding: the coder core and the signed-integer front end.

32-bit range coder with byte renormalization and order-0 adaptive
frequency models. All arithmetic is integer, so output is byte-identical
across platforms. The output is an in-memory bytearray, so a carry out
of `low` is added in place into the bytes already written, through any
run of 0xFF, rather than held back in a cache as a streaming coder must.

Both directions run in batch kernels of one shape: one adaptive model
(:meth:`RangeEncoder.encode_symbols`, :meth:`RangeDecoder.decode_symbols`)
and signed integers (:meth:`SignedIntCoder.encode_many` and
:meth:`SignedIntCoder.decode_many`: magnitude symbol, raw escape bits and
sign inlined; raw bits are coded nowhere else). Each holds the coder
state and the models' counts in locals, because in pure Python the
attribute accesses and calls of a per-symbol coder cost more than the
arithmetic. The halving of the counts stays in
:meth:`AdaptiveModel.rescale` and the carry in
:meth:`RangeEncoder._shift_low`. The signed kernels find the escape from
the top of the cumulative counts, without a scan.

A symbol decode reads `dv = code // r` with `r = range // total` and
takes the symbol whose cumulative interval holds it; a `dv` at or past
`total` (a corrupt stream) reads the last symbol. The decoder kernels
take symbol 0, and the sign, by one multiply: `code < r * f0` equals
`dv < f0` for every `code >= 0`, so only the other symbols divide, and
their scan starts past symbol 0. Most values a codec stream carries are
zeros, small magnitudes, signs and split flags.

A raw bit is a floor halving: with `r = range >> 1`, bit 0 keeps
`[low, low + r)` and bit 1 takes `[low + r, low + range)`, MSB first, and
the coder renormalises after each bit. Both directions take a raw field
a step at a time by fact (a): the k = `range.bit_length() - 24`
halvings before a renormalisation (fewer if fewer bits are left) split
`range = q * 2**k + s` into 2**k leaves of size q or q + 1, and which
leaves get the + 1 depends on (k, s) alone (`_SPLIT`), so leaf v of the
next k bits is `[v * q + c[v], (v + 1) * q + c[v + 1])` in any state.
The encoder adds the leaf's start to `low`; the decoder finds v with one
division by q. Both then use fact (b): if bits are left after such a
step, its leaf size L is below 2**24, and every renormalisation after it
makes `range` `L << 8`: all later bits split by L. The decoder reads
them as one long division of the code and the next bytes by L; the
encoder adds `v * L` for each whole byte v and shifts, and `v * (L << t)`
for the last n % 8 bits, t = 8 - n % 8, which leaves `range = L << t`
(`L << 8` when n % 8 = 0).
"""

from __future__ import annotations

from itertools import accumulate, repeat

__all__ = ["AdaptiveModel", "RangeEncoder", "RangeDecoder", "BACKEND_NAME",
           "SignedIntCoder"]

# The coder is pure Python; the name is kept public so that reports can
# record which coder produced their timings.
BACKEND_NAME = "python"

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF
_INCREMENT = 32             # count added per coded symbol
_RESCALE_LIMIT = 1 << 14    # total past which all counts are halved


def _split_table() -> list[list[bytes]]:
    """`_SPLIT[k][s][v]` for k <= 8, s < 2**k and v <= 2**k: how many of
    the first v leaves of k floor halvings of `q * 2**k + s` have size
    q + 1 (the rest have size q), so leaf v is
    `[v * q + c[v], (v + 1) * q + c[v + 1])` with `c = _SPLIT[k][s]`.
    A halving gives `q * 2**(k-1) + (s >> 1)` to bit 0 and the rest,
    `s - (s >> 1)`, to bit 1, so the + 1 flags of (k, s) are those of
    (k - 1, s >> 1) followed by those of (k - 1, s - (s >> 1))."""
    flags = [b"\x00", b"\x01"]    # k = 0, s = 0 and s = 1
    table = [[bytes(2)]]
    for k in range(1, 9):
        flags = [flags[s >> 1] + flags[s - (s >> 1)]
                 for s in range((1 << k) + 1)]
        table.append([bytes(accumulate(f, initial=0)) for f in flags[:-1]])
    return table


_SPLIT = _split_table()


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
    """Encoder state: `low`, `range` and the bytes written, which start
    with the byte above the first byte of `low`."""

    __slots__ = ("_low", "_range", "_out")

    def __init__(self):
        self._low = 0
        self._range = _MASK32
        # zero, as the interval never passes 2**32; the decoder skips it
        self._out = bytearray(1)

    def _shift_low(self, low: int) -> int:
        """The one carry path: adds bit 32 of `low` into the bytes already
        written (through any run of 0xFF), appends the top byte of `low`
        and returns `low` shifted up one byte."""
        out = self._out
        if low > _MASK32:
            i = -1
            while out[i] == 0xFF:
                out[i] = 0
                i -= 1
            out[i] += 1
        out.append((low >> 24) & 0xFF)
        return (low << 8) & _MASK32

    def encode_symbols(self, model: AdaptiveModel, syms: list[int]) -> None:
        """Kernel: code each symbol of `syms` with one adaptive model."""
        lo, hi = min(syms, default=0), max(syms, default=0)
        if lo < 0 or hi >= model.n:
            raise ValueError(f"symbols {lo}..{hi} outside alphabet {model.n}")
        low, rng = self._low, self._range
        freq, total = model.freq, model.total
        for sym in syms:
            r = rng // total
            if sym:
                low += r * sum(freq[:sym])
            f = freq[sym]
            rng = r * f
            while rng < _TOP:
                rng <<= 8
                low = self._shift_low(low)
            freq[sym] = f + _INCREMENT
            total += _INCREMENT
            if total > _RESCALE_LIMIT:
                total = model.rescale()
        self._low, self._range = low, rng
        model.total = total

    def finish(self) -> bytes:
        # Any code point in [low, low + range) decodes to the same symbol
        # sequence, and the decoder zero-pads past the end of the stream;
        # pick the point with the most trailing zero bytes and drop them.
        low, rng = self._low, self._range
        for k in range(4, 0, -1):
            mod = 1 << (8 * k)
            c = (low + mod - 1) // mod * mod
            if c - low < rng:
                low = c
                break
        for _ in range(4):
            low = self._shift_low(low)
        return bytes(self._out).rstrip(b"\x00")


class RangeDecoder:
    """Decoder state: the chunk's bytes, the read position (reads past the
    end return zero bytes), the range and the code value. The batch
    kernels copy the state into locals and write it back on return."""

    __slots__ = ("_data", "_pos", "_range", "_code")

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 5
        self._range = _MASK32
        self._code = int.from_bytes(data[:5].ljust(5, b"\x00"),
                                    "big") & _MASK32

    def decode_symbols(self, model: AdaptiveModel, count: int) -> list[int]:
        """Kernel: the next `count` symbols of one adaptive model.
        Symbol 0 is `code < (range // total) * f0`, without `code // r`;
        past it, `dv >= total` reads the last symbol (symbol 0 of a
        one-symbol alphabet), and any other `dv` scans from symbol 1."""
        data, pos, rng, code = self._data, self._pos, self._range, self._code
        end = len(data)
        freq, total, last = model.freq, model.total, model.n - 1
        out = []
        append = out.append
        for _ in repeat(None, count):
            r = rng // total
            f = freq[0]
            rng = r * f
            if code < rng:              # symbol 0: cum 0, no division
                sym = 0
            else:
                dv = code // r
                if dv < total:          # scan past symbol 0
                    sym, cum = 1, f
                    f = freq[1]
                    while cum + f <= dv:
                        cum += f
                        sym += 1
                        f = freq[sym]
                else:                   # corrupt: the last symbol
                    sym = last
                    f = freq[last]
                    cum = total - f
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

    def encode_many(self, enc: RangeEncoder, values: list[int]) -> None:
        """Kernel: code each int of `values`. The steps of
        :meth:`RangeEncoder.encode_symbols`, inlined for the magnitude
        symbol and the sign, and the raw escape bits by facts (a) and (b)
        of the module docstring; the mirror of :meth:`decode_many`."""
        escape, raw_bits = self.ESCAPE, self.raw_bits
        top = max(map(abs, values), default=0)
        if top >= max(escape, 1 << raw_bits):
            raise ValueError(f"magnitude {top} exceeds {raw_bits} raw bits")
        low, rng = enc._low, enc._range
        mag_model, sign_model = self.magnitude, self.sign
        mfreq, mtotal = mag_model.freq, mag_model.total
        sfreq, stotal = sign_model.freq, sign_model.total
        tail = mfreq[escape] + mfreq[escape + 1]    # counts from the escape up
        for value in values:
            mag = -value if value < 0 else value
            r = rng // mtotal
            if mag >= escape:
                sym = escape
                low += r * (mtotal - tail)
                tail += _INCREMENT
            else:
                sym = mag
                if mag:
                    low += r * sum(mfreq[:mag])
            f = mfreq[sym]
            rng = r * f
            while rng < _TOP:
                rng <<= 8
                low = enc._shift_low(low)
            mfreq[sym] = f + _INCREMENT
            mtotal += _INCREMENT
            if mtotal > _RESCALE_LIMIT:
                mtotal = mag_model.rescale()
                tail = mfreq[escape] + mfreq[escape + 1]
            if sym == escape:
                left = raw_bits
                while left:
                    k = rng.bit_length() - 24   # halvings before renormalising
                    if k > left:
                        k = left
                    left -= k
                    q = rng >> k                # leaves of size q or q + 1
                    cum = _SPLIT[k][rng & ((1 << k) - 1)]
                    v = (mag >> left) & ((1 << k) - 1)
                    low += v * q + cum[v]
                    rng = q + cum[v + 1] - cum[v]
                    if left and rng < _TOP:     # the rest: bytes of L
                        low = enc._shift_low(low)
                        for i in range(left - 8, -1, -8):
                            low = enc._shift_low(
                                low + ((mag >> i) & 0xFF) * rng)
                        t = 8 - (left & 7)
                        rng <<= t
                        low += (mag & (0xFF >> t)) * rng
                        break           # L << t >= 2**24: no renormalising
                    while rng < _TOP:
                        rng <<= 8
                        low = enc._shift_low(low)
            if not mag:
                continue
            negative = 1 if value < 0 else 0
            r = rng // stotal
            if negative:
                low += r * sfreq[0]
            f = sfreq[negative]
            rng = r * f
            while rng < _TOP:
                rng <<= 8
                low = enc._shift_low(low)
            sfreq[negative] = f + _INCREMENT
            stotal += _INCREMENT
            if stotal > _RESCALE_LIMIT:
                stotal = sign_model.rescale()
        enc._low, enc._range = low, rng
        mag_model.total, sign_model.total = mtotal, stotal

    # perfbench's `replay_completion` codes one value per call
    def encode(self, enc: RangeEncoder, value: int) -> None:
        self.encode_many(enc, (int(value),))

    def decode_many(self, dec: RangeDecoder, count: int) -> list[int]:
        """Kernel: the next `count` signed integers. The steps of
        :meth:`RangeDecoder.decode_symbols`, inlined for the magnitude
        symbol and the sign, and the raw escape bits; the mirror of
        :meth:`encode_many`. Magnitude 0 and sign 0 are
        `code < (range // total) * f0`, without `code // r`. A `code // r`
        at or past the escape's cumulative count (a running local: + 32
        after each symbol below the escape, recomputed at a rescale) is
        the escape, or the reserved 17 above it; any other scans from
        magnitude 1. A raw field takes a step of facts (a) and (b) of the
        module docstring: k bits as `v = code // q`, lowered by one when
        `v * q + c[v] > code`, then, if bits are left, the n left as
        `divmod` of `(code << n)` and the top bits of the next
        `n // 8 + 1` bytes (zero past the end) by the leaf size L, which
        leaves `range = L << (8 - n % 8) >= 2**24`: the field ends there
        without a renormalisation (an (a)-only field ends with one). The
        escape's interval ends below `range`, so `code < range` holds when
        the field starts, even on a corrupt stream; the leaves of a step
        tile `[0, range)` and a renormalisation maps `code < range` to
        `code < range << 8`, so it holds through the field. Every quotient
        therefore fits its bits unclamped: `code // q <= 2**k` (`c` has
        2**k + 1 entries) and `(code << n | top bits) // L < 2**n`."""
        data, pos, rng, code = dec._data, dec._pos, dec._range, dec._code
        end = len(data)
        mag_model, sign_model = self.magnitude, self.sign
        mfreq, mtotal = mag_model.freq, mag_model.total
        sfreq, stotal = sign_model.freq, sign_model.total
        escape, raw_bits = self.ESCAPE, self.raw_bits
        start = mtotal - mfreq[escape] - mfreq[escape + 1]  # the escape's cum
        out = []
        append = out.append
        for _ in repeat(None, count):
            r = rng // mtotal
            f = mfreq[0]
            rng = r * f
            if code < rng:              # magnitude 0: no division, no sign
                while rng < _TOP:
                    rng <<= 8
                    code = (((code << 8)
                             | (data[pos] if pos < end else 0)) & _MASK32)
                    pos += 1
                mfreq[0] = f + _INCREMENT
                mtotal += _INCREMENT
                start += _INCREMENT
                if mtotal > _RESCALE_LIMIT:
                    mtotal = mag_model.rescale()
                    start = mtotal - mfreq[escape] - mfreq[escape + 1]
                append(0)
                continue
            dv = code // r
            if dv >= start:             # the escape, found without a scan
                cum = start
                mag, f = escape, mfreq[escape]
                if dv >= cum + f:       # reserved 17 or dv >= mtotal: corrupt
                    cum += f
                    mag += 1
                    f = mfreq[mag]
            else:                       # scan past magnitude 0
                mag, cum = 1, f
                f = mfreq[1]
                while cum + f <= dv:
                    cum += f
                    mag += 1
                    f = mfreq[mag]
                start += _INCREMENT
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
                start = mtotal - mfreq[escape] - mfreq[escape + 1]
            if mag == escape:
                mag = 0
                left = raw_bits
                while left:
                    k = rng.bit_length() - 24   # halvings before renormalising
                    if k > left:
                        k = left
                    q = rng >> k                # leaves of size q or q + 1
                    cum = _SPLIT[k][rng & ((1 << k) - 1)]
                    v = code // q
                    if v * q + cum[v] > code:
                        v -= 1
                    code -= v * q + cum[v]
                    rng = q + cum[v + 1] - cum[v]
                    mag = (mag << k) | v
                    left -= k
                    if left and rng < _TOP:     # the rest: one division
                        m, t = (left >> 3) + 1, 8 - (left & 7)
                        block = data[pos:pos + m]   # zero past the end
                        b = (int.from_bytes(block, "big")
                             << 8 * (m - len(block)))
                        v, code = divmod((code << left) | (b >> t), rng)
                        mag = (mag << left) | v
                        code = (code << t) | (b & ((1 << t) - 1))
                        rng <<= t
                        pos += m
                        break           # L << t >= 2**24: no renormalising
                else:
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
            rng = r * f
            if code < rng:              # sign 0: cum 0, no division
                negative = 0
            else:
                negative = 1
                code -= rng
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

    # perfbench's `replay_completion` codes one value per call
    def decode(self, dec: RangeDecoder) -> int:
        return self.decode_many(dec, 1)[0]
