"""Audio rendering: oscillator synthesis, WAV output, event listings.

Synthesis is deliberately plain.  Each event is an oscillator at its
resolved frequency, shaped by a linear attack/release envelope, summed
into a mono float64 mix in event order; rendering the same events with
the same settings is bit-reproducible.  Every oscillator starts at phase
0, so one wave per distinct frequency, as long as that frequency's
longest event, serves every event at it as a prefix: exact rational
pitches repeat, and synthesis costs one oscillator per distinct pitch
rather than per event.  The "additive-4" waveform stacks partials at 2f,
3f and 4f (amplitudes 1/2, 1/3, 1/4) on the fundamental so that rational
interval consonance is audible; partials at or above the Nyquist
frequency are left out rather than aliased.

numpy is imported on the first synthesis or WAV write, not with the
module, so commands that never render do not load it.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .resolve import ResolvedEvent

if TYPE_CHECKING:
    import numpy as np

WAVEFORMS = ("sine", "additive-4")

EVENT_HEADER = "instrument\tfactor\tfrequency_hz\tstart_sec\tduration_sec\tvelocity"

# A 16-bit mono WAV header stores the byte rate, 2 * rate, and the RIFF
# size, 36 + 2 * samples, as unsigned 32-bit fields.
MAX_SAMPLE_RATE = 2**31 - 1
MAX_SAMPLES = (2**32 - 37) // 2


@dataclass(frozen=True)
class RenderSettings:
    sample_rate: int = 44100
    waveform: str = "sine"
    attack_sec: float = 0.010
    release_sec: float = 0.050
    master_gain: float = 0.8

    def __post_init__(self):
        if (not isinstance(self.sample_rate, int)
                or not 1 <= self.sample_rate <= MAX_SAMPLE_RATE):
            raise ValueError(f"sample rate must be an integer in [1, {MAX_SAMPLE_RATE}]: "
                             f"{self.sample_rate!r}")
        if self.waveform not in WAVEFORMS:
            raise ValueError(f"unknown waveform {self.waveform!r}; choose from {WAVEFORMS}")
        if self.attack_sec < 0 or self.release_sec < 0:
            raise ValueError("attack and release must be non-negative")
        if not 0 < self.master_gain <= 1:
            raise ValueError(f"master gain must be in (0, 1]: {self.master_gain!r}")


@dataclass(eq=False)
class AudioBuffer:
    """Mono float64 samples in [-1, 1] after mastering."""

    sample_rate: int
    samples: np.ndarray


def _oscillator(frequency_hz: float, n: int, settings: RenderSettings) -> np.ndarray:
    """``n`` samples of the waveform at ``frequency_hz``, from phase 0."""
    import numpy as np

    sr = settings.sample_rate
    t = np.arange(n, dtype=np.float64) / sr
    phase = 2.0 * np.pi * frequency_hz * t
    out = np.sin(phase)
    if settings.waveform == "additive-4":
        for k in (2, 3, 4):
            if k * frequency_hz < sr / 2:
                out += np.sin(k * phase) / k
    return out


def synthesize(events: Sequence[ResolvedEvent],
               settings: RenderSettings | None = None) -> AudioBuffer:
    """Mix every event into one buffer.

    Per event: amplitude velocity/127, linear attack inside the note,
    linear release extending past its nominal end.  Notes shorter than
    attack + release get both scaled proportionally to fit, so there is
    never an envelope discontinuity.  After summation the mix is scaled
    down to ``master_gain`` peak only if it exceeds it.  Raises ValueError,
    before allocating, when the mix is longer than a WAV file can hold.

    One oscillator is built per distinct frequency, at the first event
    that sounds it and as long as its longest event; every event at that
    frequency takes a prefix of it, and it is dropped after the last
    one.  Events are added to the mix in the order given, so the result
    equals rendering each event's oscillator on its own.
    """
    import numpy as np

    settings = settings or RenderSettings()
    sr = settings.sample_rate

    spans: list[tuple[int, int, int, int, ResolvedEvent]] = []
    # frequency -> (longest event in samples, index of its last event)
    plan: dict[float, tuple[int, int]] = {}
    total = 0
    for i, ev in enumerate(events):
        attack, release = settings.attack_sec, settings.release_sec
        if attack + release > ev.duration_sec > 0:
            squeeze = ev.duration_sec / (attack + release)
            attack *= squeeze
            release *= squeeze
        first = round(ev.start_sec * sr)
        n_note = round(ev.duration_sec * sr)
        n_attack = min(round(attack * sr), n_note)
        n_release = round(release * sr)
        spans.append((first, n_note, n_attack, n_release, ev))
        n = n_note + n_release
        total = max(total, first + n)
        if n:
            longest = plan.get(ev.frequency_hz, (0, i))[0]
            plan[ev.frequency_hz] = (max(longest, n), i)
    if total > MAX_SAMPLES:
        raise ValueError(f"render needs {total} samples; a WAV file holds at most "
                         f"{MAX_SAMPLES}")

    mix = np.zeros(total, dtype=np.float64)
    waves: dict[float, np.ndarray] = {}
    for i, (first, n_note, n_attack, n_release, ev) in enumerate(spans):
        n = n_note + n_release
        if n == 0:
            continue
        freq = ev.frequency_hz
        longest, last = plan[freq]
        wave = waves.get(freq)
        if wave is None:
            wave = waves[freq] = _oscillator(freq, longest, settings)
        if i == last:
            del waves[freq]
        signal = wave[:n]
        gain = ev.velocity / 127.0
        chunk = gain * signal
        if n_attack:
            ramp = np.arange(n_attack) / n_attack
            chunk[:n_attack] = (gain * ramp) * signal[:n_attack]
        if n_release:
            ramp = 1.0 - np.arange(1, n_release + 1) / n_release
            chunk[n_note:] = (gain * ramp) * signal[n_note:]
        mix[first:first + n] += chunk

    peak = max(float(mix.max()), -float(mix.min())) if total else 0.0
    if peak > settings.master_gain:
        mix *= settings.master_gain / peak
    return AudioBuffer(sr, mix)


def write_wav(buffer: AudioBuffer, path) -> None:
    """Write 16-bit mono PCM with the plain 44-byte RIFF/WAVE header.

    Samples are rounded from value * 32767 and clamped to the int16 range,
    so identical buffers produce bit-identical files.
    """
    import numpy as np

    samples = buffer.samples
    quantized = np.empty(len(samples), dtype="<i2")
    step = 1 << 16  # in blocks, so there is never a float copy of the whole mix
    for lo in range(0, len(samples), step):
        scaled = samples[lo:lo + step] * 32767.0
        np.rint(scaled, out=scaled)
        np.clip(scaled, -32768, 32767, out=scaled)
        quantized[lo:lo + step] = scaled
    with open(path, "wb") as fh:
        with wave.open(fh, "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(buffer.sample_rate)
            wav.writeframes(quantized)


def export_events(events: Iterable[ResolvedEvent]) -> str:
    """Tab-separated event listing, one line per event after a header.

    Factors print reduced as ``num/den``; the float columns use 6
    significant digits.  Event order is kept as given (the resolver's
    order is already deterministic).
    """
    lines = [EVENT_HEADER]
    for ev in events:
        lines.append(
            f"{ev.instrument}\t{ev.factor.numerator}/{ev.factor.denominator}\t"
            f"{ev.frequency_hz:.6g}\t{ev.start_sec:.6g}\t{ev.duration_sec:.6g}\t"
            f"{ev.velocity}"
        )
    return "\n".join(lines) + "\n"
