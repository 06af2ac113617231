import itertools
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshpress.entropy import (_SPLIT, BACKEND_NAME, AdaptiveModel,
                               RangeDecoder, RangeEncoder, SignedIntCoder)


def roundtrip(symbols, alphabet):
    enc = RangeEncoder()
    enc.encode_symbols(AdaptiveModel(alphabet), symbols)
    data = enc.finish()
    dec = RangeDecoder(data)
    return data, dec.decode_symbols(AdaptiveModel(alphabet), len(symbols))


# -- adaptive model --------------------------------------------------------


def test_model_counts_stay_positive_through_rescale():
    enc, model = RangeEncoder(), AdaptiveModel(4)
    rescales = 0
    for _ in range(2000):
        before = model.total
        enc.encode_symbols(model, [1])
        rescales += model.total < before
        assert all(f >= 1 for f in model.freq)
        assert model.total == sum(model.freq) <= 1 << 14
    assert rescales >= 3


def test_model_rejects_empty_alphabet():
    with pytest.raises(ValueError):
        AdaptiveModel(0)


def test_symbol_out_of_alphabet_rejected():
    enc = RangeEncoder()
    for syms in ([4], [0, 3, 4, 1], [2, -1]):
        with pytest.raises(ValueError):
            enc.encode_symbols(AdaptiveModel(4), syms)


# -- round trips -----------------------------------------------------------


@pytest.mark.parametrize("alphabet", [2, 5, 17, 256])
def test_random_round_trip(alphabet):
    rng = np.random.default_rng(alphabet)
    symbols = rng.integers(0, alphabet, size=10_000).tolist()
    _, back = roundtrip(symbols, alphabet)
    assert back == symbols


def test_empty_sequence():
    data, back = roundtrip([], 5)
    assert back == []
    assert len(data) <= 8  # flush bytes only


def test_single_symbol_alphabet_costs_nothing_per_symbol():
    data, back = roundtrip([0] * 5000, 1)
    assert back == [0] * 5000
    assert len(data) <= 8


def test_raw_bits_round_trip():
    """Escapes at every raw width, coded by the kernel's grouped raw bits
    and read back one bit at a time."""
    for raw_bits in _RAW_WIDTHS:
        top = (1 << raw_bits) - 1
        values = [16, top, 0x5555_5555 & top, -(0xAAAA_AAAA & top), -16]
        assert min(map(abs, values)) >= SignedIntCoder.ESCAPE
        enc = RangeEncoder()
        SignedIntCoder(raw_bits).encode_many(enc, values)
        ref, coder = _Reference(enc.finish()), SignedIntCoder(raw_bits)
        assert [ref.signed(coder) for _ in values] == values


def test_mixed_models_round_trip():
    rng = np.random.default_rng(0)
    plan = [(rng.integers(0, 2), int(rng.integers(0, [2, 17][i % 2])))
            for i in range(2000)]
    enc = RangeEncoder()
    m2, m17 = AdaptiveModel(2), AdaptiveModel(17)
    for which, sym in plan:
        enc.encode_symbols(m17 if which else m2, [sym % (17 if which else 2)])
    dec = RangeDecoder(enc.finish())
    m2, m17 = AdaptiveModel(2), AdaptiveModel(17)
    for which, sym in plan:
        assert dec.decode_symbols(m17 if which else m2, 1) == [
            sym % (17 if which else 2)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 16), max_size=300))
def test_round_trip_property(symbols):
    _, back = roundtrip(symbols, 17)
    assert back == symbols


# -- signed integer layer --------------------------------------------------


def test_signed_exhaustive_small_range():
    enc = RangeEncoder()
    coder = SignedIntCoder()
    values = list(range(-1000, 1001))
    for v in values:
        coder.encode(enc, v)
    dec = RangeDecoder(enc.finish())
    coder = SignedIntCoder()
    assert [coder.decode(dec) for _ in values] == values


def test_signed_extremes_and_escape():
    values = [0, 15, 16, -16, (1 << 31) - 1, -(1 << 31) + 1]
    enc = RangeEncoder()
    coder = SignedIntCoder(raw_bits=32)
    for v in values:
        coder.encode(enc, v)
    dec = RangeDecoder(enc.finish())
    coder = SignedIntCoder(raw_bits=32)
    assert [coder.decode(dec) for _ in values] == values


def test_signed_magnitude_overflow_rejected():
    enc = RangeEncoder()
    coder = SignedIntCoder(raw_bits=8)
    with pytest.raises(ValueError):
        coder.encode(enc, 1 << 9)
    with pytest.raises(ValueError):
        coder.encode_many(enc, [3, -(1 << 8), 7])


# -- batch kernels ---------------------------------------------------------

# every raw escape width the codec uses: 32 (base connectivity), q_max + 2
# (base geometry, completion) and q_max + 8 (details), q_max in [4, 16]
_RAW_WIDTHS = sorted({32} | {q + k for q in (4, 12, 16) for k in (2, 8)})
_PAST_END = 40      # values decoded beyond the stream, from zero padding


_MASK32 = 0xFFFFFFFF


def _count(model, sym):
    """The count rule of docs/format.md, applied without the code it
    checks: +32 for the symbol coded, and every count halved (rounding
    up) once the total passes 2**14."""
    model.freq[sym] += 32
    model.total += 32
    if model.total > 1 << 14:
        model.freq[:] = [(f + 1) >> 1 for f in model.freq]
        model.total = sum(model.freq)


class _Reference:
    """Value-at-a-time decoding through attributes, as the decoder ran
    before the batch kernels, with the counts kept by `_count`: their
    oracle, value for value and state for state."""

    def __init__(self, data):
        self.data, self._pos, self._range, self._code = data, 0, _MASK32, 0
        for _ in range(5):
            self._code = ((self._code << 8) | self.byte()) & _MASK32

    def byte(self):
        p = self._pos
        self._pos = p + 1
        return self.data[p] if p < len(self.data) else 0

    def renormalize(self):
        while self._range < 1 << 24:
            self._range <<= 8
            self._code = ((self._code << 8) | self.byte()) & _MASK32

    def symbol(self, model):
        r = self._range // model.total
        dv = min(self._code // r, model.total - 1)
        cum = 0
        for sym, f in enumerate(model.freq):
            if cum + f > dv:
                break
            cum += f
        self._code -= r * cum
        self._range = r * f
        self.renormalize()
        _count(model, sym)
        return sym

    def raw(self, nbits):
        value = 0
        for _ in range(nbits):
            r = self._range >> 1
            bit = int(self._code >= r)
            if bit:
                self._code -= r
                self._range -= r
            else:
                self._range = r
            self.renormalize()
            value = (value << 1) | bit
        return value

    def signed(self, coder):
        sym = self.symbol(coder.magnitude)
        mag = self.raw(coder.raw_bits) if sym == coder.ESCAPE else sym
        if mag == 0:
            return 0
        return -mag if self.symbol(coder.sign) else mag


class _ReferenceEncoder(RangeEncoder):
    """Symbol-at-a-time encoding through attributes, raw bits one floor
    halving at a time, as the encoder ran before its batch kernels, with
    the counts kept by `_count`: their oracle, byte for byte and count
    for count. The carry path and `finish` are shared."""

    def encode_symbol(self, model, sym):
        if not 0 <= sym < model.n:
            raise ValueError(f"symbol {sym} outside alphabet of {model.n}")
        r = self._range // model.total
        self._low += r * sum(model.freq[:sym])
        self._range = r * model.freq[sym]
        while self._range < 1 << 24:
            self._range <<= 8
            self._low = self._shift_low(self._low)
        _count(model, sym)

    def encode_raw(self, value, nbits):
        for i in range(nbits - 1, -1, -1):
            r = self._range >> 1
            if (value >> i) & 1:
                self._low += r
                self._range -= r
            else:
                self._range = r
            while self._range < 1 << 24:
                self._range <<= 8
                self._low = self._shift_low(self._low)

    def signed(self, coder, value):
        mag = abs(int(value))
        if mag < 16:
            self.encode_symbol(coder.magnitude, mag)
        else:
            if mag >= (1 << coder.raw_bits):
                raise ValueError(
                    f"magnitude {mag} exceeds {coder.raw_bits} raw bits")
            self.encode_symbol(coder.magnitude, coder.ESCAPE)
            self.encode_raw(mag, coder.raw_bits)
        if mag:
            self.encode_symbol(coder.sign, 1 if value < 0 else 0)


class _WideEncoder(_ReferenceEncoder):
    """`_ReferenceEncoder` with `low` an unbounded int over every byte
    written, the leading one included, and `finish` by the rule of
    docs/format.md: no carry is ever propagated, as each byte is read off
    the final `low`. The carry oracle of `RangeEncoder._shift_low`."""

    def __init__(self, out=b"\x00", low=0, rng=_MASK32):
        super().__init__()
        self._low = (int.from_bytes(out, "big") << 32) + low
        self._range, self._shifts = rng, len(out) - 1

    def _shift_low(self, low):
        self._shifts += 1
        return low << 8

    def finish(self):
        low = self._low
        for k in range(4, 0, -1):   # the most trailing zero bytes
            c = -(-low >> 8 * k) << 8 * k
            if c - low < self._range:
                low = c
                break
        return low.to_bytes(self._shifts + 5, "big").rstrip(b"\x00")


def _counts(*models):
    return [(list(m.freq), m.total) for m in models]


def _state(dec, *models):
    """Decoder position, range and code, then each model's counts."""
    return dec._pos, dec._range, dec._code, _counts(*models)


def _count_rescales(monkeypatch):
    calls = []
    rescale = AdaptiveModel.rescale
    monkeypatch.setattr(AdaptiveModel, "rescale",
                        lambda m: calls.append(m.n) or rescale(m))
    return calls


def _signed_values(raw_bits, n, seed):
    rng = np.random.default_rng(seed)
    top = (1 << raw_bits) - 1
    small = rng.integers(-15, 16, size=n)
    large = rng.integers(16, top, size=n, endpoint=True) \
        * rng.choice([-1, 1], size=n)
    values = np.where(rng.random(n) < 0.3, large, small).tolist()
    return [16, -16, top, -top, 0] + values


@pytest.mark.parametrize("raw_bits", _RAW_WIDTHS)
def test_decode_many_matches_reference_in_any_split(monkeypatch, raw_bits):
    values = _signed_values(raw_bits, 3000, raw_bits)
    enc = RangeEncoder()
    coder = SignedIntCoder(raw_bits)
    for v in values:
        coder.encode(enc, v)
    data = enc.finish()
    rescales = _count_rescales(monkeypatch)
    n = len(values) + _PAST_END
    ref, coder = _Reference(data), SignedIntCoder(raw_bits)
    want = [ref.signed(coder) for _ in range(n)]
    assert want[:len(values)] == values
    assert ref._pos > len(data)             # read into the zero padding
    want_state = _state(ref, coder.magnitude, coder.sign)
    for split in (1, 7, n):
        dec, coder = RangeDecoder(data), SignedIntCoder(raw_bits)
        got = []
        while len(got) < n:
            got += coder.decode_many(dec, min(split, n - len(got)))
        assert got == want
        assert _state(dec, coder.magnitude, coder.sign) == want_state
    assert rescales.count(18) >= 4 * 3 and rescales.count(2) >= 4 * 3


@pytest.mark.parametrize("alphabet", [2, 18, 256])
def test_decode_symbols_matches_reference_in_any_split(monkeypatch,
                                                        alphabet):
    rng = np.random.default_rng(alphabet)
    symbols = np.minimum(rng.geometric(0.3, size=4000) - 1,
                         alphabet - 1).tolist()
    enc = RangeEncoder()
    enc.encode_symbols(AdaptiveModel(alphabet), symbols)
    data = enc.finish()
    rescales = _count_rescales(monkeypatch)
    n = len(symbols) + _PAST_END
    ref, model = _Reference(data), AdaptiveModel(alphabet)
    want = [ref.symbol(model) for _ in range(n)]
    assert want[:len(symbols)] == symbols
    assert ref._pos > len(data)
    want_state = _state(ref, model)
    for split in (1, 7, n):
        dec, model = RangeDecoder(data), AdaptiveModel(alphabet)
        got = []
        while len(got) < n:
            got += dec.decode_symbols(model, min(split, n - len(got)))
        assert got == want
        assert _state(dec, model) == want_state
    assert len(rescales) >= 4 * 3


def _any_bytes():
    """Byte strings of 1-200 bytes no encoder wrote: seeded random, all
    0xFF, and mixes of 0x00, 0x7F, 0x80 and 0xFF."""
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 5, 8, 13, 31, 64, 128, 200):
        yield rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        yield b"\xff" * n
        yield bytes(rng.choice([0x00, 0x7F, 0x80, 0xFF], size=n).tolist())


@pytest.mark.parametrize("raw_bits", _RAW_WIDTHS)
def test_decode_many_matches_reference_on_any_bytes(raw_bits):
    n, reserved = 300, 0
    for data in _any_bytes():
        ref, coder = _Reference(data), SignedIntCoder(raw_bits)
        want = [ref.signed(coder) for _ in range(n)]
        want_state = _state(ref, coder.magnitude, coder.sign)
        reserved += coder.magnitude.freq[17] > 1
        for split in (1, 7, n):
            dec, coder = RangeDecoder(data), SignedIntCoder(raw_bits)
            got = []
            while len(got) < n:
                got += coder.decode_many(dec, min(split, n - len(got)))
            assert got == want
            assert _state(dec, coder.magnitude, coder.sign) == want_state
    assert reserved                         # the reserved symbol 17 is read


@pytest.mark.parametrize("alphabet", [1, 2, 3, 18])
def test_decode_symbols_matches_reference_on_any_bytes(alphabet):
    """Symbols and state equal `_Reference.symbol`'s on bytes no encoder
    wrote, including the code points at or past `(range // total) *
    total`, which read the last symbol (symbol 0 of a one-symbol
    alphabet)."""
    n, clamped = 300, 0
    for data in _any_bytes():
        ref, model = _Reference(data), AdaptiveModel(alphabet)
        want = []
        for _ in range(n):
            clamped += ref._code // (ref._range // model.total) >= model.total
            want.append(ref.symbol(model))
        want_state = _state(ref, model)
        for split in (1, 7, n):
            dec, model = RangeDecoder(data), AdaptiveModel(alphabet)
            got = []
            while len(got) < n:
                got += dec.decode_symbols(model, min(split, n - len(got)))
            assert got == want
            assert _state(dec, model) == want_state
    assert clamped                          # the `dv >= total` case is read


def _signed_case(values):
    """`values` coded as SignedInt(14), a fresh coder and its models, and
    its readers: `_Reference`'s one value and the kernel's k values."""
    enc = RangeEncoder()
    SignedIntCoder(14).encode_many(enc, values)

    def fresh():
        coder = SignedIntCoder(14)
        return coder, (coder.magnitude, coder.sign)

    return (enc.finish(), fresh, lambda ref, coder: ref.signed(coder),
            lambda dec, coder, k: coder.decode_many(dec, k))


def _symbol_case(values):
    """`values` coded with one binary model; as `_signed_case`."""
    enc = RangeEncoder()
    enc.encode_symbols(AdaptiveModel(2), values)

    def fresh():
        model = AdaptiveModel(2)
        return model, (model,)

    return (enc.finish(), fresh, lambda ref, model: ref.symbol(model),
            lambda dec, model, k: dec.decode_symbols(model, k))


# each short path: the values coded, and the (model index, value) of a
# decode on which that model's total passes 2**14 (model 0 is the
# magnitude model or the binary model, 1 the sign model)
_SHORT_PATHS = {
    "magnitude 0": (_signed_case, [0] * 520, (0, 0)),
    "sign 0": (_signed_case, [0] * 100 + [1] * 520, (1, 1)),
    "symbol 0": (_symbol_case, [0] * 520, (0, 0)),
}


@pytest.mark.parametrize("path", _SHORT_PATHS)
def test_rescale_on_each_short_path(path):
    """A model's total passes 2**14 on a decode that the kernels take by
    `code < (range // total) * f0`: magnitude 0 or sign 0 in
    `decode_many`, symbol 0 of a binary model in `decode_symbols`, with
    escapes and other symbols after it. Values and state (counts,
    totals, range, code, position) equal `_Reference`'s after every
    call, in calls of 1, 7 and all values. Then the same from the counts
    just before that decode, on bytes no encoder wrote, where a code at
    or past `(range // total) * total` after the rescale reads the
    reserved magnitude 17 or the last symbol."""
    case, prefix, halving = _SHORT_PATHS[path]
    values = prefix + (_signed_values(14, 200, 14) if case is _signed_case
                       else [1, 0, 1, 1] * 50)
    data, fresh, ref_read, read = case(values)
    ref, (state, models) = _Reference(data), fresh()
    states, halvings = [], []
    for v in values:
        before = [m.total for m in models]
        assert ref_read(ref, state) == v
        halvings += [(len(states), (i, v)) for i, m in enumerate(models)
                     if m.total < before[i]]
        states.append(_state(ref, *models))
    at = next(k for k, event in halvings if event == halving)
    n = len(values)
    for split in (1, 7, n):
        dec, (state, models) = RangeDecoder(data), fresh()
        got = []
        while len(got) < n:
            got += read(dec, state, min(split, n - len(got)))
            assert _state(dec, *models) == states[len(got) - 1]
        assert got == values

    def near_rescale():
        state, models = fresh()
        for m, (freq, total) in zip(models, states[at - 1][3]):
            m.freq[:], m.total = freq, total
        return state, models

    n, clamped = 300, 0
    for data in _any_bytes():
        ref, (state, models) = _Reference(data), near_rescale()
        want = [ref_read(ref, state)]       # the decode that rescales
        for _ in range(n - 1):
            m = models[0]
            clamped += ref._code // (ref._range // m.total) >= m.total
            want.append(ref_read(ref, state))
        want_state = _state(ref, *models)
        for split in (1, 7, n):
            dec, (state, models) = RangeDecoder(data), near_rescale()
            got = []
            while len(got) < n:
                got += read(dec, state, min(split, n - len(got)))
            assert got == want
            assert _state(dec, *models) == want_state
    assert clamped                  # model 0 reads a `dv >= total`


def _at_bound(kind, offset):
    """A range, the counts and a code `offset` from the bound
    `(range // total) * f0` of the first `kind` decode (for the sign,
    after a magnitude 1 that leaves `range` above 2**24)."""
    rng = 0xF123_4567
    if kind == "symbol":
        freq, code = [5, 3], (rng // 8) * 5
    elif kind == "magnitude":
        freq, code = [40] + [1] * 17, (rng // 57) * 40
    else:                   # magnitude 1 (cum 1), then the sign
        r = rng // 1017
        freq, code = [1, 1000] + [1] * 16, r + (r * 1000 // 9) * 7
    return rng, freq, code + offset


@pytest.mark.parametrize("kind", ["magnitude", "sign", "symbol"])
def test_short_paths_at_their_bound(kind):
    """A code one below `(range // total) * f0` reads symbol 0 and a
    code at it the next symbol, for the magnitude, the sign and a binary
    model, value for value and state for state with `_Reference`. Set by
    hand, as streams meet the bound about once in `range // total`
    decodes."""
    data = bytes(range(7, 250, 13))
    for offset in (-1, 0):
        rng, freq, code = _at_bound(kind, offset)
        got = []
        for dec in (_Reference(data), RangeDecoder(data)):
            dec._range, dec._code = rng, code
            if kind == "symbol":
                model = AdaptiveModel(2)
                model.freq[:], model.total = freq, sum(freq)
                values = ([dec.symbol(model) for _ in range(3)]
                          if isinstance(dec, _Reference)
                          else dec.decode_symbols(model, 3))
                models = (model,)
            else:
                coder = SignedIntCoder(14)
                coder.magnitude.freq[:] = freq
                coder.magnitude.total = sum(freq)
                coder.sign.freq, coder.sign.total = [7, 2], 9
                values = ([dec.signed(coder) for _ in range(3)]
                          if isinstance(dec, _Reference)
                          else coder.decode_many(dec, 3))
                models = (coder.magnitude, coder.sign)
            got.append((values, _state(dec, *models)))
        assert got[0] == got[1]
        first, below = got[0][0][0], offset < 0
        if kind == "symbol":
            assert first == (0 if below else 1)
        elif kind == "sign":
            assert first == (1 if below else -1)
        else:
            assert (first == 0) == below


def test_split_table_matches_floor_halving():
    """Leaf v of k raw bits is `[v * q + c[v], (v + 1) * q + c[v + 1])`
    with `c = _SPLIT[k][s]`: the interval k bit-by-bit floor halvings of
    `q * 2**k + s` give the bits of v, MSB first, as `_Reference.raw`
    takes them."""
    for k in range(1, 9):
        assert len(_SPLIT[k]) == 1 << k
        for s in range(1 << k):
            c = _SPLIT[k][s]
            assert len(c) == (1 << k) + 1
            for q in (1 << 23, (1 << 23) + 1, (1 << 24) - 1):
                leaves = [(0, q << k | s)]      # (low, range), v order
                for _ in range(k):
                    leaves = [half for low, rng in leaves for half in (
                        (low, rng >> 1), (low + (rng >> 1), rng - (rng >> 1)))]
                assert leaves == [(v * q + c[v], q + c[v + 1] - c[v])
                                  for v in range(1 << k)]


@pytest.mark.parametrize("raw_bits", (14, 20, 32))
def test_raw_field_across_chunk_end(raw_bits):
    """A stream of escapes cut at every byte: each raw field whose bulk
    read runs past the end reads zero bytes there, value for value and
    state for state with `_Reference`."""
    rng = np.random.default_rng(raw_bits)
    top = (1 << raw_bits) - 1
    values = (rng.integers(16, top, size=24, endpoint=True)
              * rng.choice([-1, 1], size=24)).tolist()
    enc = RangeEncoder()
    SignedIntCoder(raw_bits).encode_many(enc, values)
    data = enc.finish()
    n = len(values) + 4
    for cut in range(len(data) + 1):
        ref, coder = _Reference(data[:cut]), SignedIntCoder(raw_bits)
        want = [ref.signed(coder) for _ in range(n)]
        want_state = _state(ref, coder.magnitude, coder.sign)
        dec, coder = RangeDecoder(data[:cut]), SignedIntCoder(raw_bits)
        assert coder.decode_many(dec, n) == want
        assert _state(dec, coder.magnitude, coder.sign) == want_state
    assert want[:len(values)] == values     # the last cut: whole stream


def test_raw_field_after_a_leaf_of_full_range():
    """A raw step can leave `range` at exactly 2**24 (q = 2**24 - 1 and a
    + 1 leaf); then nothing renormalises, and the field takes another
    table step before its long division. Streams reach that about once
    in 2**24 escapes, so the state is set by hand: the escape leaves
    `range = 2**25 - 1`, one halving into leaves q and q + 1. A long
    division by 2**24 right away would read the same bits but end the
    field at `range = 2**32` when the bits left are a multiple of 8,
    which a sign model total of 34 carries into the state."""
    r, f = 31 * 601, 1801                   # r * f == 2**25 - 1
    q = (1 << 24) - 1
    data = bytes(range(7, 250, 13))
    for raw_bits in (9, 14, 17, 32):        # 8 or 16 bits after the first
        for code in (0, q - 1, q, q + 1, q + 12345, 2 * q):
            got = []
            for dec in (_Reference(data), RangeDecoder(data)):
                coder = SignedIntCoder(raw_bits)
                coder.magnitude.freq[16] = f
                coder.magnitude.total = 16 + f + 1
                coder.sign.freq, coder.sign.total = [33, 1], 34
                dec._range = r * coder.magnitude.total
                dec._code = 16 * r + code   # `code` into the escape
                values = ([dec.signed(coder) for _ in range(3)]
                          if isinstance(dec, _Reference)
                          else coder.decode_many(dec, 3))
                got.append((values,
                            _state(dec, coder.magnitude, coder.sign)))
            assert got[0] == got[1]
            mag = abs(got[0][0][0])         # its first bit: the leaf
            assert mag >> (raw_bits - 1) == (code >= q)


def test_encoder_raw_field_after_a_leaf_of_full_range():
    """The encoder's side of the state above: the escape leaves
    `range = 2**25 - 1`, whose first raw bit takes leaf q = 2**24 - 1
    (bit 0) or the full-range leaf 2**24 (bit 1), after which nothing
    renormalises and the field takes another split step. Set by hand, as
    streams reach it about once in 2**24 escapes; bytes, coder state and
    counts must equal `_ReferenceEncoder`'s, which halves bit by bit."""
    r, f = 31 * 601, 1801                   # r * f == 2**25 - 1
    for raw_bits in (9, 14, 17, 32):
        rest = (1 << (raw_bits - 1)) - 1
        for first in (0, 1):
            mag = (first << (raw_bits - 1)) | (0x5A5A_5A5A & rest) | 16
            values = [-mag, 7, rest]        # escape, direct, escape
            for low in (0, 0xFEFF_FFFF):
                got = []
                for enc in (_ReferenceEncoder(), RangeEncoder()):
                    coder = SignedIntCoder(raw_bits)
                    coder.magnitude.freq[16] = f
                    coder.magnitude.total = 16 + f + 1
                    coder.sign.freq, coder.sign.total = [33, 1], 34
                    enc._low, enc._range = low, r * coder.magnitude.total
                    if isinstance(enc, _ReferenceEncoder):
                        for v in values:
                            enc.signed(coder, v)
                    else:
                        coder.encode_many(enc, values)
                    got.append((bytes(enc._out), enc._low, enc._range,
                                _counts(coder.magnitude, coder.sign),
                                enc.finish()))
                assert got[0] == got[1]


@pytest.mark.parametrize("raw_bits", _RAW_WIDTHS)
def test_encode_many_matches_reference_encoder(monkeypatch, raw_bits):
    values = _signed_values(raw_bits, 3000, raw_bits)
    ref, coder = _ReferenceEncoder(), SignedIntCoder(raw_bits)
    for v in values:
        ref.signed(coder, v)
    want, want_counts = ref.finish(), _counts(coder.magnitude, coder.sign)
    rescales = _count_rescales(monkeypatch)
    for split in (1, 7, len(values)):
        enc, coder = RangeEncoder(), SignedIntCoder(raw_bits)
        for i in range(0, len(values), split):
            coder.encode_many(enc, values[i:i + split])
        assert enc.finish() == want
        assert _counts(coder.magnitude, coder.sign) == want_counts
    assert rescales.count(18) >= 4 * 3 and rescales.count(2) >= 4 * 3


@pytest.mark.parametrize("alphabet", [2, 18, 256])
def test_encode_symbols_matches_reference_encoder(monkeypatch, alphabet):
    rng = np.random.default_rng(alphabet)
    symbols = np.minimum(rng.geometric(0.3, size=4000) - 1,
                         alphabet - 1).tolist()
    ref, model = _ReferenceEncoder(), AdaptiveModel(alphabet)
    for sym in symbols:
        ref.encode_symbol(model, sym)
    want, want_counts = ref.finish(), _counts(model)
    rescales = _count_rescales(monkeypatch)
    for split in (1, 7, len(symbols)):
        enc, model = RangeEncoder(), AdaptiveModel(alphabet)
        for i in range(0, len(symbols), split):
            enc.encode_symbols(model, symbols[i:i + split])
        assert enc.finish() == want
        assert _counts(model) == want_counts
    assert len(rescales) >= 4 * 3


class _CarryCount(RangeEncoder):
    """`RangeEncoder` that counts the shifts that carry."""

    def __init__(self):
        super().__init__()
        self.carries = 0

    def _shift_low(self, low):
        self.carries += low > _MASK32
        return super()._shift_low(low)


def _mixed_plan(seed, n=200):
    """Runs of signed values (escapes of 14 and 32 bits among them) and
    symbols of 2 and 256: (kind, values) per kernel call."""
    rng = np.random.default_rng(seed)
    plan = []
    for _ in range(n):
        kind = int(rng.integers(0, 4))
        size = int(rng.integers(1, 30))
        if kind < 2:
            top = (1 << (14, 32)[kind]) - 1
            values = np.where(rng.random(size) < 0.4,
                              rng.integers(-top, top, size=size,
                                           endpoint=True),
                              rng.integers(-15, 16, size=size))
        else:
            values = rng.integers(0, (2, 256)[kind - 2], size=size)
        plan.append((kind, values.tolist()))
    return plan


def _encode_plan(enc, plan, coders=None):
    """Codes `plan` by the kernels on a `RangeEncoder`, value at a time on
    a `_ReferenceEncoder`, with `coders` (as returned) or fresh ones;
    returns them."""
    if coders is None:
        coders = [SignedIntCoder(14), SignedIntCoder(32),
                  AdaptiveModel(2), AdaptiveModel(256)]
    models = coders[2:]
    for kind, values in plan:
        if isinstance(enc, _ReferenceEncoder):
            for v in values:
                if kind < 2:
                    enc.signed(coders[kind], v)
                else:
                    enc.encode_symbol(models[kind - 2], v)
        elif kind < 2:
            coders[kind].encode_many(enc, values)
        else:
            enc.encode_symbols(models[kind - 2], values)
    return coders


@pytest.mark.parametrize("seed", range(4))
def test_carries_match_wide_oracle(seed):
    """`finish()` of random symbol and escape streams equals the bytes of
    `_WideEncoder`, which keeps `low` whole and never carries."""
    plan = _mixed_plan(seed)
    enc, wide = _CarryCount(), _WideEncoder()
    _encode_plan(enc, plan)
    _encode_plan(wide, plan)
    assert enc.finish() == wide.finish()
    assert enc.carries > 50


# (bytes written, low, range) a first binary symbol 1 carries out of:
# low + range // 2 == 2**32, through three or more 0xFF bytes, through
# every byte into the leading one, or into the leading byte right away
_CARRY_STATES = [
    (bytes([0, 0x5A, 0xFF, 0xFF, 0xFF]), 0xFF80_0000, 1 << 24),
    (bytes([0, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]), 0xFF00_0001,
     (1 << 25) - 2),
    (bytes([0, 0xFF, 0xFF, 0xFF]), 0xFF80_0000, 1 << 24),
    (bytes([0]), 0xFF80_0000, 1 << 24),
]


@pytest.mark.parametrize("state", _CARRY_STATES)
def test_carry_through_set_state_matches_wide_oracle(state):
    """Hand-set states whose next symbol carries through a run of 0xFF
    bytes, or into the leading byte that `RangeEncoder` starts with: the
    bytes written, the state and `finish()` equal `_WideEncoder`'s, on
    the symbol kernel and, after it, the signed kernel with escapes."""
    out, low, rng = state
    plan = [(2, [1]), (2, [0, 1, 1]), (1, [1 << 31, -7, 0, 123456789]),
            (0, [-(1 << 13), 15, 16])]
    enc, wide = _CarryCount(), _WideEncoder(out, low, rng)
    enc._out, enc._low, enc._range = bytearray(out), low, rng
    coders = _encode_plan(enc, plan[:1])
    assert enc.carries == 1
    assert enc._out[:len(out)] != out
    _encode_plan(enc, plan[1:], coders)
    _encode_plan(wide, plan)
    whole = wide._low >> 32
    assert enc._out == whole.to_bytes(wide._shifts + 1, "big")
    assert (enc._low, enc._range) == (wide._low & _MASK32, wide._range)
    assert enc.finish() == wide.finish()


def _escape_range(k):
    """A fresh coder's encoder range after which the escape leaves a
    range of bit length 24 + k, so the first raw step takes k bits."""
    x = (3 << (22 + k)) + 12345
    if 18 * x > _MASK32:
        x >>= 8                 # renormalised once after the escape
    rng = 18 * x + 7
    assert 1 << 24 <= rng <= _MASK32
    after = rng // 18
    while after < 1 << 24:
        after <<= 8
    assert after.bit_length() == 24 + k
    return rng


@pytest.mark.parametrize("raw_bits", range(5, 33))
def test_encoder_raw_field_by_bytes_of_the_leaf(raw_bits):
    """The encoder's fact (b): once a first raw step of k bits leaves a
    leaf L below 2**24 with n bits left, the whole bytes add `v * L` and
    shift, and the last n % 8 bits end at `range = L << (8 - n % 8)`, or
    at `L << 8` when n % 8 = 0. Every width, every first step k from 1
    to 8 (k >= n takes the field in one step), lows that carry or not:
    bytes, state, counts and `finish()` equal `_ReferenceEncoder`'s,
    which halves bit by bit."""
    top = (1 << raw_bits) - 1
    rng = np.random.default_rng(raw_bits)
    mags = [16, top, *rng.integers(16, top, size=3, endpoint=True).tolist()]
    ends = set()
    for k in range(1, 9):
        if k < raw_bits:
            ends.add((raw_bits - k) % 8 == 0)
        for mag in mags:
            values = [mag, -mag, 5, top]
            for low in (0, 0x7FFF_FFFF, 0xFFFF_FFFF):
                got = []
                for enc in (_ReferenceEncoder(), RangeEncoder()):
                    coder = SignedIntCoder(raw_bits)
                    enc._low, enc._range = low, _escape_range(k)
                    if isinstance(enc, _ReferenceEncoder):
                        for v in values:
                            enc.signed(coder, v)
                    else:
                        coder.encode_many(enc, values)
                    got.append((bytes(enc._out), enc._low, enc._range,
                                _counts(coder.magnitude, coder.sign),
                                enc.finish()))
                assert got[0] == got[1]
    # n % 8 = 0 needs n >= 8 bits after a step of k >= 1
    assert ends == ({True, False} if raw_bits > 8 else {False})


def test_per_symbol_and_batch_calls_interleave():
    """One stream of runs of signed values and symbols, one kernel call
    per run, read back on one decoder in calls of 1-4 values, a single
    signed value through the per-value `SignedIntCoder.decode`."""
    rng = np.random.default_rng(5)
    plan = []                   # (kind, value)
    for run in range(60):
        kind = ("signed", "symbol")[run % 2]
        for _ in range(int(rng.integers(1, 40))):
            if kind == "signed":
                plan.append((kind, int(rng.integers(-300, 301))))
            else:
                plan.append((kind, int(rng.integers(0, 5))))
    enc = RangeEncoder()
    coder, model = SignedIntCoder(raw_bits=14), AdaptiveModel(5)
    for kind, run in itertools.groupby(plan, key=lambda step: step[0]):
        values = [value for _, value in run]
        if kind == "signed":
            coder.encode_many(enc, values)
        else:
            enc.encode_symbols(model, values)
    dec = RangeDecoder(enc.finish())
    coder, model = SignedIntCoder(raw_bits=14), AdaptiveModel(5)
    got = []
    for kind, run in itertools.groupby(plan, key=lambda step: step[0]):
        left = len(list(run))
        while left:
            n = min(left, int(rng.integers(1, 5)))
            if kind == "signed":
                got += coder.decode_many(dec, n) if n > 1 else [
                    coder.decode(dec)]
            else:
                got += dec.decode_symbols(model, n)
            left -= n
    assert got == [value for _, value in plan]


# -- compression quality ----------------------------------------------------


def test_skewed_source_compresses_hard():
    data, back = roundtrip([1] * 1000, 2)
    assert back == [1] * 1000
    assert 8 * len(data) < 40


def test_alternating_bits_cost_about_one_bit_each():
    symbols = [i % 2 for i in range(4000)]
    data, back = roundtrip(symbols, 2)
    assert back == symbols
    assert 8 * len(data) >= len(symbols) * 0.98


def test_rate_tracks_entropy_within_five_percent():
    rng = np.random.default_rng(42)
    p = np.array([0.6, 0.25, 0.1, 0.05])
    n = 100_000
    symbols = rng.choice(4, size=n, p=p).tolist()
    entropy = -float(np.sum(p * np.log2(p)))
    data, back = roundtrip(symbols, 4)
    assert back == symbols
    rate = 8 * len(data) / n
    assert rate <= entropy * 1.05 + 0.01


# -- pinned output ---------------------------------------------------------

_FIXTURE_SCRIPT = """
import hashlib
import numpy as np
from meshpress.entropy import AdaptiveModel, RangeEncoder
rng = np.random.default_rng(1234)
enc = RangeEncoder()
models = [AdaptiveModel(a) for a in (2, 5, 17, 256)]
for a, m in zip((2, 5, 17, 256), models):
    enc.encode_symbols(m, rng.integers(0, a, size=2000).tolist())
print(hashlib.sha256(enc.finish()).hexdigest())
"""

# SHA-256 of the fixture's 4043-byte stream; any change to the coder's
# arithmetic or to finish() shows up here.
_FIXTURE_SHA256 = \
    "af94ff896f075749468618e024d61fe44fd588683448e65e758fa74ac0d4d1b2"


def _run_fixture() -> str:
    proc = subprocess.run([sys.executable, "-c", _FIXTURE_SCRIPT],
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_repeated_runs_are_byte_identical():
    assert [_run_fixture(), _run_fixture()] == [_FIXTURE_SHA256] * 2


def test_backend_name_exported():
    assert BACKEND_NAME == "python"
