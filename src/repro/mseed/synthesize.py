"""Deterministic synthetic seismic waveforms and repository generation.

The ORFEUS substitution: instead of copying mSEED files from a seismograph
network, we synthesize them — AR(1)-colored background noise (small deltas,
compresses well) plus occasional seismic events modeled as exponentially
decaying sinusoid bursts (large deltas). Every file is a deterministic
function of ``(seed, network, station, channel, day)``, so repositories are
reproducible across runs and machines.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .record import XSeedRecord
from .volume import write_volume

_DAY_US = 86_400 * 1_000_000


@dataclass(frozen=True)
class WaveformSpec:
    """Statistical shape of a synthetic waveform."""

    noise_scale: float = 6.0  # std-dev of background noise innovations
    ar_coefficient: float = 0.6  # AR(1) coloring of the noise
    events_per_hour: float = 0.35  # Poisson rate of seismic bursts
    event_amplitude: float = 12_000.0  # typical burst peak (counts)
    event_frequency_hz: float = 1.4  # burst oscillation frequency
    event_decay_s: float = 25.0  # burst amplitude e-folding time


class SpecError(ValueError):
    """A ``RepositorySpec`` that describes no repository."""


@dataclass(frozen=True)
class RepositorySpec:
    """Shape of a synthetic file repository (stations × channels × days)."""

    stations: tuple[str, ...] = ("ISK", "ANK", "IZM", "EDC", "KDZ")
    network: str = "KO"
    channels: tuple[str, ...] = ("BHE", "BHN", "BHZ")
    start_day: str = "2010-01-10"  # first day, ISO date
    days: int = 8
    sample_rate: float = 1.0  # Hz; scaled down from real 20-50 Hz BH rates
    samples_per_record: int = 3600  # one record per hour at 1 Hz
    seed: int = 2013
    waveform: WaveformSpec = field(default_factory=WaveformSpec)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise SpecError(
                f"sample_rate must be a positive, finite number, got "
                f"{self.sample_rate!r}"
            )
        for name in ("samples_per_record", "days"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("stations", "channels"):
            if not getattr(self, name):
                raise SpecError(f"{name} must name at least one")
        try:
            dt.date.fromisoformat(self.start_day)
        except (TypeError, ValueError):
            raise SpecError(
                f"start_day must be an ISO date (YYYY-MM-DD), got "
                f"{self.start_day!r}"
            ) from None

    @property
    def file_count(self) -> int:
        return len(self.stations) * len(self.channels) * self.days


def _day_start_us(start_day: str, day_index: int) -> int:
    from ..db.types import parse_timestamp

    return parse_timestamp(start_day) + day_index * _DAY_US


def _rng_for(seed: int, *parts: str) -> np.random.Generator:
    digest = hashlib.sha256(
        ("|".join(parts) + f"|{seed}").encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def synthesize_waveform(
    rng: np.random.Generator,
    nsamples: int,
    sample_rate: float,
    spec: WaveformSpec,
) -> np.ndarray:
    """One synthetic waveform as int32 counts."""
    innovations = rng.normal(0.0, spec.noise_scale, size=nsamples)
    noise = _ar1(innovations, spec.ar_coefficient)

    duration_hours = nsamples / sample_rate / 3600.0
    n_events = int(rng.poisson(spec.events_per_hour * duration_hours))
    signal = noise
    for _ in range(n_events):
        start = int(rng.integers(0, max(nsamples - 1, 1)))
        amplitude = spec.event_amplitude * float(rng.lognormal(0.0, 0.6))
        length = min(
            nsamples - start,
            max(int(6 * spec.event_decay_s * sample_rate), 4),
        )
        t = np.arange(length) / sample_rate
        phase = float(rng.uniform(0, 2 * np.pi))
        burst = amplitude * np.exp(-t / spec.event_decay_s) * np.sin(
            2 * np.pi * spec.event_frequency_hz * t + phase
        )
        signal = signal.copy()
        signal[start: start + length] += burst
    return np.clip(np.round(signal), -(2**30), 2**30 - 1).astype(np.int32)


def _ar1(innovations: np.ndarray, coefficient: float) -> np.ndarray:
    """AR(1) filter; scipy's lfilter when available, else a cumulative loop."""
    try:
        from scipy.signal import lfilter

        return lfilter([1.0], [1.0, -coefficient], innovations)
    except ImportError:  # pragma: no cover - scipy is an installed dependency
        out = np.empty_like(innovations)
        acc = 0.0
        for i, x in enumerate(innovations):
            acc = coefficient * acc + x
            out[i] = acc
        return out


def day_of_year(start_day: str, day_index: int) -> tuple[int, int]:
    """(year, ordinal day) of a repository day — used in file names."""
    first = dt.date.fromisoformat(start_day)
    date = first + dt.timedelta(days=day_index)
    return date.year, date.timetuple().tm_yday


def file_relpath(spec: RepositorySpec, station: str, channel: str, day_index: int) -> str:
    year, ordinal = day_of_year(spec.start_day, day_index)
    return (
        f"{year}/{spec.network}.{station}/"
        f"{spec.network}.{station}..{channel}.{year}.{ordinal:03d}.xseed"
    )


def build_records(
    spec: RepositorySpec, station: str, channel: str, day_index: int
) -> list[XSeedRecord]:
    """All records of one (station, channel, day) file, deterministically."""
    rng = _rng_for(spec.seed, spec.network, station, channel, str(day_index))
    nsamples = int(86_400 * spec.sample_rate)
    waveform = synthesize_waveform(rng, nsamples, spec.sample_rate, spec.waveform)
    day_start = _day_start_us(spec.start_day, day_index)
    step_us = 1_000_000 / spec.sample_rate
    records = []
    for sequence, start in enumerate(range(0, nsamples, spec.samples_per_record)):
        chunk = waveform[start: start + spec.samples_per_record]
        records.append(
            XSeedRecord.create(
                sequence=sequence,
                network=spec.network,
                station=station,
                location="",
                channel=channel,
                start_time=day_start + round(start * step_us),
                sample_rate=spec.sample_rate,
                samples=chunk,
            )
        )
    return records


def generate_repository(root: str | Path, spec: RepositorySpec) -> list[str]:
    """Materialize the repository under ``root``; returns relative URIs."""
    root = Path(root)
    uris: list[str] = []
    for day_index in range(spec.days):
        for station in spec.stations:
            for channel in spec.channels:
                relpath = file_relpath(spec, station, channel, day_index)
                records = build_records(spec, station, channel, day_index)
                write_volume(root / relpath, records)
                uris.append(relpath)
    return sorted(uris)
