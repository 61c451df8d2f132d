"""Steim1-style delta compression for int32 waveform samples.

SEED waveform payloads are Steim-compressed: samples become first
differences, packed into 64-byte *frames* of sixteen 32-bit words. Word 0 of
each frame is a control word holding fifteen 2-bit codes describing the other
words:

==== ======================================
code meaning
==== ======================================
00   special (integration constants / pad)
01   four 8-bit deltas
10   two 16-bit deltas
11   one 32-bit delta
==== ======================================

The first frame reserves words 1 and 2 for the forward and reverse
integration constants ``x0`` and ``xn`` (the first and last sample), exactly
as Steim1 does; the reverse constant doubles as an integrity check on decode.

One simplification keeps encoding fully vectorizable: deltas are packed in
aligned groups of four, and the group's class is chosen by its largest
magnitude (a true Steim1 encoder re-chunks greedily). This costs a little
compression on mixed content but none of the format's structure, and both
encode and decode run as numpy kernels — important because eager ingestion
decodes every payload in the repository.

:func:`steim_decode` is the one decode kernel: one record, a list of
records, or — what a mount passes — one buffer holding many records'
payloads between their headers, decoded in the same numpy calls whatever
the record count. The samples are summed once in int64, range-checked, and
cast once to the dtype the caller asks for (a mount asks for the float64
that ``D.sample_value`` holds).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np
import numpy.typing as npt

from ..db.errors import CorruptFileError

_WORDS_PER_FRAME = 16
_SLOTS_PER_FRAME = _WORDS_PER_FRAME - 1  # word 0 is the control word
_FRAME_BYTES = 4 * _WORDS_PER_FRAME

_CODE_SPECIAL = 0
_CODE_BYTE = 1
_CODE_HALF = 2
_CODE_FULL = 3

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

# Decode tables: the shift that brings each slot's 2-bit code to the bottom
# of the control word, and how many deltas a word of each code holds.
_CODE_SHIFTS = (2 * np.arange(_SLOTS_PER_FRAME)[::-1]).astype(np.uint32)
_LANES_PER_CODE = np.array([0, 4, 2, 1])
_LANE_USED = np.arange(4) < _LANES_PER_CODE[:, None]


class SteimError(CorruptFileError, ValueError):
    """Raised for unencodable input or corrupt payloads.

    Subclasses :class:`~repro.db.errors.CorruptFileError` so payload
    corruption surfaced here is part of the file-ingest taxonomy (the mount
    pool's ``except IngestError`` fail-fast path catches it), and
    :class:`ValueError` for backward compatibility. Callers that know the
    file context re-raise via :meth:`with_uri` / keyword arguments to attach
    the URI and byte offset. ``record`` is the index, within the decoded
    batch, of the first record that failed (``None`` for encode errors).
    """

    def __init__(
        self, message: str, *, record: int | None = None, **context: object
    ) -> None:
        super().__init__(message, **context)  # type: ignore[arg-type]
        self.record = record


def steim_encode(samples: np.ndarray) -> bytes:
    """Compress int32 samples into a Steim1-style frame sequence."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise SteimError("samples must be one-dimensional")
    if len(samples) == 0:
        return b""
    samples = samples.astype(np.int64)
    if samples.min() < _INT32_MIN or samples.max() > _INT32_MAX:
        raise SteimError("samples exceed int32 range")

    deltas = np.empty(len(samples), dtype=np.int64)
    deltas[0] = 0  # decoder starts from the forward integration constant
    np.subtract(samples[1:], samples[:-1], out=deltas[1:])
    if deltas.min() < _INT32_MIN or deltas.max() > _INT32_MAX:
        raise SteimError("sample-to-sample jump exceeds int32 range")

    # Pad to a multiple of four and group.
    n = len(deltas)
    padded_len = -(-n // 4) * 4
    padded = np.zeros(padded_len, dtype=np.int64)
    padded[:n] = deltas
    groups = padded.reshape(-1, 4)
    magnitude = np.abs(groups).max(axis=1)
    klass = np.where(
        magnitude <= 127, _CODE_BYTE, np.where(magnitude <= 32767, _CODE_HALF, _CODE_FULL)
    )
    words_per_group = np.select(
        [klass == _CODE_BYTE, klass == _CODE_HALF], [1, 2], default=4
    )
    group_offsets = np.concatenate([[0], np.cumsum(words_per_group)[:-1]])
    total_words = int(words_per_group.sum())

    words = np.zeros(total_words, dtype=np.int64)
    codes = np.zeros(total_words, dtype=np.int8)

    mask_byte = klass == _CODE_BYTE
    if mask_byte.any():
        g = groups[mask_byte] & 0xFF
        packed = (g[:, 0] << 24) | (g[:, 1] << 16) | (g[:, 2] << 8) | g[:, 3]
        idx = group_offsets[mask_byte]
        words[idx] = packed
        codes[idx] = _CODE_BYTE

    mask_half = klass == _CODE_HALF
    if mask_half.any():
        g = groups[mask_half] & 0xFFFF
        idx = group_offsets[mask_half]
        words[idx] = (g[:, 0] << 16) | g[:, 1]
        words[idx + 1] = (g[:, 2] << 16) | g[:, 3]
        codes[idx] = _CODE_HALF
        codes[idx + 1] = _CODE_HALF

    mask_full = klass == _CODE_FULL
    if mask_full.any():
        g = groups[mask_full] & 0xFFFFFFFF
        idx = group_offsets[mask_full]
        for k in range(4):
            words[idx + k] = g[:, k]
            codes[idx + k] = _CODE_FULL

    # Frame assembly: [x0, xn] + data words, 15 slots per frame.
    x0 = int(samples[0]) & 0xFFFFFFFF
    xn = int(samples[-1]) & 0xFFFFFFFF
    slots = np.concatenate([[x0, xn], words])
    slot_codes = np.concatenate([[0, 0], codes]).astype(np.int64)
    nframes = -(-len(slots) // _SLOTS_PER_FRAME)
    padded_slots = np.zeros(nframes * _SLOTS_PER_FRAME, dtype=np.int64)
    padded_slots[: len(slots)] = slots
    padded_codes = np.zeros(nframes * _SLOTS_PER_FRAME, dtype=np.int64)
    padded_codes[: len(slot_codes)] = slot_codes

    frame_codes = padded_codes.reshape(nframes, _SLOTS_PER_FRAME)
    shifts = 2 * (np.arange(_SLOTS_PER_FRAME)[::-1])
    control = (frame_codes << shifts).sum(axis=1)

    frames = np.empty((nframes, _WORDS_PER_FRAME), dtype=np.uint32)
    frames[:, 0] = control.astype(np.uint32)
    frames[:, 1:] = padded_slots.reshape(nframes, _SLOTS_PER_FRAME).astype(np.uint32)
    return frames.astype(">u4").tobytes()


def steim_decode(
    data: bytes | Sequence[bytes],
    nsamples: int | Sequence[int],
    payloads: Optional[tuple[np.ndarray, np.ndarray]] = None,
    *,
    dtype: npt.DTypeLike = np.int32,
) -> np.ndarray:
    """Decompress Steim1-style payloads back into samples.

    ``steim_decode(payload, nsamples)`` decodes one record;
    ``steim_decode(payloads, counts)`` a sequence of records; and
    ``steim_decode(buffer, counts, (offsets, lengths))`` the records whose
    payloads lie in one buffer, record ``k``'s at ``offsets[k]`` for
    ``lengths[k]`` bytes, whatever lies between them (a volume's record
    headers). Records are decoded in the same numpy calls and their samples
    returned concatenated in order — what a file mount uses, because the
    per-call overhead of ~40 small numpy operations dwarfs the arithmetic
    on a 720-sample record.

    Every record's frame-length rule, delta count and reverse integration
    constant are verified, and decoded samples must fit int32. Any
    inconsistency raises :class:`SteimError` whose ``record`` is the index
    of the *first* defective record. The samples are summed in int64 and
    cast to ``dtype`` once.
    """
    if payloads is None:
        if isinstance(data, (bytes, bytearray, memoryview)):
            data, nsamples = [data], [nsamples]  # type: ignore[list-item]
        lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
        raw = np.frombuffer(b"".join(data), dtype=np.uint8)
    else:
        offsets, lengths = (np.asarray(a, dtype=np.int64) for a in payloads)
        raw = _laid_end_to_end(
            np.frombuffer(data, dtype=np.uint8), offsets, lengths
        )
    return _decode_records(
        raw, lengths, np.asarray(nsamples, dtype=np.int64), np.dtype(dtype)
    )


def _laid_end_to_end(
    data: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """The payloads ``data[offsets[k]:offsets[k] + lengths[k]]``, one after
    the other: gathered a frame at a time, or a byte at a time when one is
    off the frame grid."""
    aligned = not ((offsets | lengths) % _FRAME_BYTES).any()
    unit = _FRAME_BYTES if aligned else 1
    units = lengths // unit
    index = np.repeat(offsets // unit - (np.cumsum(units) - units), units)
    index += np.arange(len(index))
    rows = data[: len(data) // unit * unit].reshape(-1, unit)
    return np.take(rows, index, axis=0).reshape(-1)


def _defect(
    raw: np.ndarray, lengths: np.ndarray, counts: np.ndarray, record: int,
    message: str,
) -> SteimError:
    """The error for ``record`` — unless an earlier record is defective too.

    The checks run batch-wide one kind at a time, so the first hit of one
    kind may sit behind a defect of a later kind; decoding the records
    before it surfaces that one instead.
    """
    _decode_records(
        raw[: lengths[:record].sum()], lengths[:record], counts[:record],
        np.dtype(np.int32),
    )
    return SteimError(message, record=record)


def _decode_records(
    raw: np.ndarray, lengths: np.ndarray, counts: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    live = counts > 0  # zero-sample records hold no frames, not even x0/xn
    malformed = np.where(
        live, (lengths % _FRAME_BYTES != 0) | (lengths == 0), lengths != 0
    )
    if malformed.any():
        k = int(malformed.argmax())
        if not live[k]:
            message = "non-empty payload for zero samples"
        elif lengths[k] == 0:
            message = "payload too short for integration constants"
        else:
            message = (
                f"payload length {lengths[k]} is not a multiple of "
                f"{_FRAME_BYTES}"
            )
        raise _defect(raw, lengths, counts, k, message)
    if not live.any():
        return np.empty(0, dtype=dtype)

    # All frames of all records as one (F, 16) array of big-endian words.
    frames = raw.view(">i4").reshape(-1, _WORDS_PER_FRAME)
    nframes = lengths // _FRAME_BYTES
    first = (np.cumsum(nframes) - nframes)[live]  # each record's first frame
    codes = (raw.view(">u4")[::_WORDS_PER_FRAME, None] >> _CODE_SHIFTS) & 3
    codes[first, :2] = _CODE_SPECIAL  # the x0/xn slots, whatever they claim
    x0 = frames[first, 1].astype(np.int64)
    xn = frames[first, 2].astype(np.int64)

    # Expand every data word into four candidate lanes — the signed bytes,
    # halves or full word its code selects, read straight off the buffer —
    # and keep the lanes the code uses, in word order.
    flat_codes = codes.reshape(-1)
    lanes = (
        raw.view(np.int8)
        .reshape(-1, _WORDS_PER_FRAME, 4)[:, 1:]
        .reshape(-1, 4)
        .astype(np.int32)
    )
    halves = np.flatnonzero(flat_codes == _CODE_HALF)
    if len(halves):
        lanes[halves, :2] = (
            raw.view(">i2")
            .reshape(-1, _WORDS_PER_FRAME, 2)[:, 1:]
            .reshape(-1, 2)[halves]
        )
    fulls = np.flatnonzero(flat_codes == _CODE_FULL)
    if len(fulls):
        lanes[fulls, 0] = frames[:, 1:].reshape(-1)[fulls]
    # (np.take: far cheaper than fancy indexing by a uint32 code array.)
    deltas = lanes[np.take(_LANE_USED, flat_codes, axis=0)]

    held = np.zeros(len(counts), dtype=np.int64)  # deltas each record holds
    held[live] = np.add.reduceat(
        np.take(_LANES_PER_CODE, codes).sum(axis=1), first
    )
    short = held < counts
    if short.any():
        k = int(short.argmax())
        raise _defect(
            raw, lengths, counts, k,
            f"payload holds {held[k]} deltas but {counts[k]} samples expected",
        )
    ends = np.cumsum(counts)
    starts = ends - counts
    if (held != counts).any():
        # Trim each record's trailing pad deltas.
        pad = np.cumsum(held) - held - starts
        deltas = deltas[np.repeat(pad, counts) + np.arange(ends[-1])]

    # One running sum over the batch, rebased per record on its own x0.
    samples = np.cumsum(deltas, dtype=np.int64)
    starts = starts[live]
    x0[1:] -= samples[starts[1:] - 1]
    samples += np.repeat(x0, counts[live])
    last = samples[ends[live] - 1]
    wrong = last != xn
    if wrong.any():
        j = int(wrong.argmax())
        raise _defect(
            raw, lengths, counts, int(np.flatnonzero(live)[j]),
            f"reverse integration constant mismatch: got {last[j]}, "
            f"expected {xn[j]}",
        )
    if samples.min() < _INT32_MIN or samples.max() > _INT32_MAX:
        outside = (samples < _INT32_MIN) | (samples > _INT32_MAX)
        raise SteimError(
            "decoded samples exceed int32 range",
            record=int(np.searchsorted(ends, outside.argmax(), side="right")),
        )
    return samples.astype(dtype)
