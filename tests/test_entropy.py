import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshpress.entropy import (BACKEND_NAME, AdaptiveModel, RangeDecoder,
                               RangeEncoder, SignedIntCoder)


def roundtrip(symbols, alphabet):
    enc = RangeEncoder()
    model = AdaptiveModel(alphabet)
    for s in symbols:
        enc.encode_symbol(model, s)
    data = enc.finish()
    dec = RangeDecoder(data)
    model = AdaptiveModel(alphabet)
    return data, [dec.decode_symbol(model) for _ in symbols]


# -- adaptive model --------------------------------------------------------


def test_model_counts_stay_positive_through_rescale():
    model = AdaptiveModel(4)
    rescales = 0
    for _ in range(2000):
        before = model.total
        model.update(1)
        rescales += model.total < before
        assert all(f >= 1 for f in model.freq)
        assert model.total == sum(model.freq) <= 1 << 14
    assert rescales >= 3


def test_model_rejects_empty_alphabet():
    with pytest.raises(ValueError):
        AdaptiveModel(0)


def test_symbol_out_of_alphabet_rejected():
    enc = RangeEncoder()
    with pytest.raises(ValueError):
        enc.encode_symbol(AdaptiveModel(4), 4)


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
    enc = RangeEncoder()
    values = [(0, 1), (1, 1), (0xDEAD, 16), (123456789, 32), (5, 3)]
    for value, nbits in values:
        enc.encode_raw(value, nbits)
    dec = RangeDecoder(enc.finish())
    for value, nbits in values:
        assert dec.decode_raw(nbits) == value


def test_mixed_models_round_trip():
    rng = np.random.default_rng(0)
    plan = [(rng.integers(0, 2), int(rng.integers(0, [2, 17][i % 2])))
            for i in range(2000)]
    enc = RangeEncoder()
    m2, m17 = AdaptiveModel(2), AdaptiveModel(17)
    for which, sym in plan:
        enc.encode_symbol(m17 if which else m2, sym % (17 if which else 2))
    dec = RangeDecoder(enc.finish())
    m2, m17 = AdaptiveModel(2), AdaptiveModel(17)
    for which, sym in plan:
        assert dec.decode_symbol(m17 if which else m2) == sym % (17 if which else 2)


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
    for s in rng.integers(0, a, size=2000):
        enc.encode_symbol(m, int(s))
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
