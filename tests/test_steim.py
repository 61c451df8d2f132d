"""Unit and property tests for the Steim1-style codec."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mseed import SteimError, steim_decode, steim_encode


def reference_decode(payload: bytes, nsamples: int) -> list[int]:
    """Word-at-a-time Steim decode in plain Python integers — the loop the
    batch kernel replaces, kept as its oracle. Raises ``ValueError`` where
    the kernel must raise :class:`SteimError`."""
    if nsamples == 0:
        if payload:
            raise ValueError("non-empty payload for zero samples")
        return []
    if len(payload) % 64 or not payload:
        raise ValueError("not whole frames")
    words = struct.unpack(f">{len(payload) // 4}I", payload)
    slots = []  # (code, word) of every non-control word, in order
    for frame in range(0, len(words), 16):
        control = words[frame]
        for slot in range(15):
            code = (control >> (2 * (14 - slot))) & 3
            slots.append((code, words[frame + 1 + slot]))

    def signed(value: int, bits: int) -> int:
        return value - (1 << bits) if value >> (bits - 1) else value

    x0, xn = signed(slots[0][1], 32), signed(slots[1][1], 32)
    deltas = []
    for code, word in slots[2:]:
        if code == 1:
            deltas += [signed((word >> s) & 0xFF, 8) for s in (24, 16, 8, 0)]
        elif code == 2:
            deltas += [signed((word >> s) & 0xFFFF, 16) for s in (16, 0)]
        elif code == 3:
            deltas.append(signed(word, 32))
    if len(deltas) < nsamples:
        raise ValueError("too few deltas")
    samples, value = [], x0
    for delta in deltas[:nsamples]:
        value += delta
        samples.append(value)
    if samples[-1] != xn:
        raise ValueError("reverse integration constant mismatch")
    if min(samples) < -(2**31) or max(samples) > 2**31 - 1:
        raise ValueError("samples leave int32")
    return samples


class TestRoundtrip:
    def test_small_deltas(self):
        x = np.cumsum(np.ones(100, dtype=np.int64)).astype(np.int32)
        assert np.array_equal(steim_decode(steim_encode(x), 100), x)

    def test_single_sample(self):
        x = np.array([42], dtype=np.int32)
        assert np.array_equal(steim_decode(steim_encode(x), 1), x)

    def test_constant_signal(self):
        x = np.full(1000, -7, dtype=np.int32)
        assert np.array_equal(steim_decode(steim_encode(x), 1000), x)

    def test_mixed_magnitudes(self):
        rng = np.random.default_rng(1)
        parts = [
            rng.integers(-5, 5, 100),
            rng.integers(-30000, 30000, 100),
            rng.integers(-2**29, 2**29, 50),
        ]
        x = np.cumsum(np.concatenate(parts) // 2).astype(np.int32)
        x = np.clip(x, -2**30, 2**30).astype(np.int32)
        assert np.array_equal(steim_decode(steim_encode(x), len(x)), x)

    def test_empty(self):
        assert steim_encode(np.array([], dtype=np.int32)) == b""
        assert len(steim_decode(b"", 0)) == 0

    def test_negative_start(self):
        x = np.array([-1000000, -999999, -999998], dtype=np.int32)
        assert np.array_equal(steim_decode(steim_encode(x), 3), x)

    def test_length_not_multiple_of_four(self):
        x = np.arange(13, dtype=np.int32)
        assert np.array_equal(steim_decode(steim_encode(x), 13), x)


class TestCompression:
    def test_smooth_signal_compresses(self):
        x = np.cumsum(np.random.default_rng(0).integers(-3, 3, 10000))
        payload = steim_encode(x.astype(np.int32))
        assert len(payload) < 0.4 * x.size * 4

    def test_payload_is_whole_frames(self):
        for n in (1, 5, 63, 64, 200):
            payload = steim_encode(np.arange(n, dtype=np.int32))
            assert len(payload) % 64 == 0

    def test_noisy_signal_does_not_explode(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-2**28, 2**28, 5000).astype(np.int32)
        # Worst case ~ 4/3 overhead for full 32-bit deltas plus headers.
        payload = steim_encode(x)
        assert len(payload) < 1.25 * x.size * 4


class TestErrors:
    def test_two_dimensional_rejected(self):
        with pytest.raises(SteimError):
            steim_encode(np.zeros((2, 2), dtype=np.int32))

    def test_out_of_range_samples_rejected(self):
        with pytest.raises(SteimError):
            steim_encode(np.array([2**33], dtype=np.int64))

    def test_oversized_jump_rejected(self):
        x = np.array([-2**31 + 1, 2**31 - 1], dtype=np.int64)
        with pytest.raises(SteimError):
            steim_encode(x)

    def test_truncated_payload(self):
        payload = steim_encode(np.arange(100, dtype=np.int32))
        with pytest.raises(SteimError):
            steim_decode(payload[:-10], 100)

    def test_wrong_nsamples(self):
        payload = steim_encode(np.arange(16, dtype=np.int32))
        with pytest.raises(SteimError):
            steim_decode(payload, 10_000)

    def test_corrupted_payload_detected(self):
        """Flipping a data word breaks the reverse integration constant."""
        payload = bytearray(steim_encode(np.arange(100, dtype=np.int32)))
        payload[20] ^= 0xFF
        with pytest.raises(SteimError):
            steim_decode(bytes(payload), 100)

    def test_nonempty_payload_for_zero_samples(self):
        payload = steim_encode(np.arange(4, dtype=np.int32))
        with pytest.raises(SteimError):
            steim_decode(payload, 0)


    def test_samples_leaving_int32_rejected(self):
        """x0 = xn = 2**31-6 with full-width deltas 0, +10, -10, 0: the
        running sum leaves int32 in the middle and comes back, so the reverse
        integration constant matches. That is corruption (the encoder refuses
        such input), not data to wrap into [..., -2147483644, ...]."""
        start = 2**31 - 6
        control = 0b11_11_11_11 << 18  # slots 2-5 hold one 32-bit delta each
        frame = struct.pack(
            ">I15i", control, start, start, 0, 10, -10, 0, *([0] * 9)
        )
        with pytest.raises(SteimError, match="int32"):
            steim_decode(frame, 4)
        with pytest.raises(ValueError):
            reference_decode(frame, 4)


def synthetic_record(nsamples: int, seed: int) -> np.ndarray:
    """Samples whose deltas come in runs of one width class (8-, 16- or
    32-bit words), with run boundaries unaligned to the encoder's groups of
    four — so one record holds every class and groups that mix them."""
    rng = np.random.default_rng(seed)
    run = int(rng.integers(1, 24))
    bits = np.repeat(rng.choice([7, 15, 20], nsamples // run + 1), run)
    deltas = rng.integers(-(2 ** bits[:nsamples]) + 1, 2 ** bits[:nsamples])
    return np.cumsum(deltas).astype(np.int32)  # < 800 * 2**20: no wrap


# Lengths are free, so most are not a multiple of four and the payload ends
# in pad deltas the kernel must trim per record; zero-sample records have
# empty payloads and no frames at all.
record_shapes = st.lists(
    st.tuples(st.integers(0, 800), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=40,
)


@settings(deadline=None, max_examples=60)
@given(record_shapes, st.data())
def test_batch_equals_per_record_decodes(shapes, data):
    records = [synthetic_record(n, seed) for n, seed in shapes]
    payloads = [steim_encode(r) for r in records]
    counts = [len(r) for r in records]
    decoded = steim_decode(payloads, counts)
    assert decoded.dtype == np.int32
    assert decoded.tolist() == [int(v) for r in records for v in r]
    singles = [steim_decode(p, n) for p, n in zip(payloads, counts)]
    assert decoded.tolist() == np.concatenate(singles).tolist()
    # The same records where a volume holds them: a 64-byte header before
    # each payload, or a gap off the frame grid.
    gap = data.draw(st.sampled_from([64, 64, 3]))
    buffer, offsets = bytearray(), []
    for payload in payloads:
        buffer += bytes(range(gap))
        offsets.append(len(buffer))
        buffer += payload
    lengths = [len(p) for p in payloads]
    in_place = steim_decode(
        bytes(buffer), counts, (offsets, lengths), dtype=np.float64
    )
    assert in_place.dtype == np.float64
    assert in_place.tolist() == decoded.tolist()
    for payload, count in zip(payloads, counts):
        assert reference_decode(payload, count) == steim_decode(
            payload, count
        ).tolist()

    # Any single flipped bit: the kernel and the reference loop agree on
    # whether that record is still decodable and, if so, on every sample.
    victims = [k for k, p in enumerate(payloads) if p]
    if not victims:
        return
    k = data.draw(st.sampled_from(victims))
    damaged = bytearray(payloads[k])
    bit = data.draw(st.integers(0, 8 * len(damaged) - 1))
    damaged[bit // 8] ^= 1 << (bit % 8)
    payloads[k] = bytes(damaged)
    buffer[offsets[k]:offsets[k] + lengths[k]] = payloads[k]
    try:
        records[k] = reference_decode(payloads[k], counts[k])
    except ValueError:
        for call in (
            lambda: steim_decode(payloads, counts),
            lambda: steim_decode(bytes(buffer), counts, (offsets, lengths)),
        ):
            with pytest.raises(SteimError) as excinfo:
                call()
            assert excinfo.value.record == k
    else:
        assert steim_decode(payloads, counts).tolist() == [
            int(v) for r in records for v in r
        ]


def _flip_bit(payload):
    damaged = bytearray(payload)
    damaged[20] ^= 0x10  # inside the first data word
    return bytes(damaged), None


DEFECTS = {
    "bit flip": _flip_bit,
    "short payload": lambda payload: (payload[:-10], None),
    "wrong nsamples": lambda payload: (payload, 10_000),
    "payload for zero samples": lambda payload: (payload, 0),
}


@pytest.mark.parametrize("k", [0, 3, 6])
@pytest.mark.parametrize("defect", DEFECTS)
def test_defect_in_record_k_names_k(defect, k):
    rng = np.random.default_rng(5)
    records = [
        np.cumsum(rng.integers(-40, 40, n)).astype(np.int32)
        for n in (50, 0, 7, 64, 1, 0, 33)
    ]
    records[k] = np.arange(30, dtype=np.int32)
    payloads = [steim_encode(r) for r in records]
    counts = [len(r) for r in records]
    payloads[k], nsamples = DEFECTS[defect](payloads[k])
    if nsamples is not None:
        counts[k] = nsamples
    with pytest.raises(SteimError) as batch_error:
        steim_decode(payloads, counts)
    assert batch_error.value.record == k
    with pytest.raises(SteimError) as single_error:
        steim_decode(payloads[k], counts[k])
    assert single_error.value.record == 0
    assert single_error.value.message == batch_error.value.message
    # A later defect of any kind does not mask this one.
    payloads[-1] = payloads[-1][:-3]
    with pytest.raises(SteimError) as first_error:
        steim_decode(payloads, counts)
    assert first_error.value.record == k


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=300)
)
def test_roundtrip_property(values):
    x = np.asarray(values, dtype=np.int32)
    # int32 is asymmetric: a delta of exactly -2**31 is encodable, +2**31
    # is not, so mirror the encoder's range check rather than abs().
    diffs = np.diff(x.astype(np.int64))
    if len(x) > 1 and (diffs.min() < -(2**31) or diffs.max() > 2**31 - 1):
        with pytest.raises(SteimError):
            steim_encode(x)
        return
    decoded = steim_decode(steim_encode(x), len(x))
    assert np.array_equal(decoded, x)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 500), st.integers(0, 2**32 - 1))
def test_roundtrip_random_walk(n, seed):
    rng = np.random.default_rng(seed)
    steps = rng.integers(-1000, 1000, n)
    x = np.cumsum(steps).astype(np.int32)
    assert np.array_equal(steim_decode(steim_encode(x), n), x)
