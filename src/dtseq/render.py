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
interval consonance is audible.

One band limit holds for every partial, the fundamental included: a
partial at or above the Nyquist frequency, half the sample rate, is left
out rather than aliased, and an event whose own frequency is there is
left silent.  Its span still counts in the length of the mix, and
``AudioBuffer`` reports how many events and distinct frequencies were
silenced.  A score's validity therefore does not depend on the rate, and
no oscillator is ever built for a frequency above 2**30 Hz.

The oscillator is a block phasor.  With ``w = 2πf / sr`` and blocks of
``B`` samples, ``sin(w(bB + k)) = sin(wbB)·cos(wk) + cos(wbB)·sin(wk)``:
a table of block-start angles and a table of in-block angles, about
``2B + 2n/B`` sines and cosines, give all ``n`` samples by one outer
product.  The additive partials come from the same tables through
multiple-angle identities.  The wave stays within 1e-9 of ``np.sin`` of
``2πf·(i / sr)`` for a quarter of a million samples.

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

# Samples per row of the oscillator's block grid: an n-sample wave costs
# at most 2 * _BLOCK + 2 * ceil(n / _BLOCK) sines and cosines.
_BLOCK = 512


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
    """Mono float64 samples in [-1, 1] after mastering.

    ``silent_events`` events, at ``silent_frequencies`` distinct
    frequencies, sounded at or above half the sample rate and were left
    out of the mix; their spans still count in its length.
    """

    sample_rate: int
    samples: np.ndarray
    silent_events: int = 0
    silent_frequencies: int = 0


def _oscillator(frequency_hz: float, n: int, settings: RenderSettings) -> np.ndarray:
    """``n`` samples of the waveform at ``frequency_hz``, from phase 0.

    Built by the block phasor the module docstring describes, with both
    angle tables computed as ``2π·f·(i / sr)``, as a direct ``np.sin``
    would.  No sample depends on another, so no error builds up along the
    note.  The caller keeps ``frequency_hz`` below ``sr / 2``.
    """
    import numpy as np

    sr = settings.sample_rate
    step = 2.0 * np.pi * frequency_hz
    blocks = -(-n // _BLOCK)
    inner = step * (np.arange(min(n, _BLOCK), dtype=np.float64) / sr)
    outer = step * (np.arange(0, blocks * _BLOCK, _BLOCK, dtype=np.float64) / sr)
    sin_k, cos_k = np.sin(inner), np.cos(inner)
    sin_b, cos_b = np.sin(outer)[:, None], np.cos(outer)[:, None]

    s = sin_b * cos_k
    s += cos_b * sin_k
    if settings.waveform == "sine" or 2 * frequency_hz >= sr / 2:
        return s.reshape(-1)[:n]
    # additive-4: partial k is left out when k·f is at or above sr / 2.
    # The sum goes into s, the first full-length array allocated, so the
    # wave that outlives this call lies below the freed temporaries in the
    # heap (summing into a later array raised peak RSS up to 6%).
    third = 3 * frequency_hz < sr / 2
    c = cos_b * cos_k
    c -= sin_b * sin_k
    s2 = s * c
    s2 *= 2.0                                 # sin 2t = 2sc
    if third:
        c2 = s * s
        c2 *= -2.0
        c2 += 1.0                             # cos 2t = 1 - 2s²
        c *= s2
        c += c2 * s                           # sin 3t = sin 2t·c + cos 2t·s
        c /= 3.0
    s2 /= 2.0
    s += s2
    if third:
        s += c
        if 4 * frequency_hz < sr / 2:
            s2 *= c2                          # sin 4t / 4 = (sin 2t / 2)·cos 2t
            s += s2
    return s.reshape(-1)[:n]


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

    Events at or above half the sample rate add nothing to the mix; the
    buffer counts them and their distinct frequencies.
    """
    import numpy as np

    settings = settings or RenderSettings()
    sr = settings.sample_rate

    spans: list[tuple[int, int, int, int, ResolvedEvent]] = []
    # frequency -> (longest event in samples, index in spans of its last event)
    plan: dict[float, tuple[int, int]] = {}
    silent: dict[float, int] = {}  # frequency at or above sr / 2 -> its events
    total = 0
    for ev in events:
        attack, release = settings.attack_sec, settings.release_sec
        if attack + release > ev.duration_sec > 0:
            squeeze = ev.duration_sec / (attack + release)
            attack *= squeeze
            release *= squeeze
        first = round(ev.start_sec * sr)
        n_note = round(ev.duration_sec * sr)
        n_attack = min(round(attack * sr), n_note)
        n_release = round(release * sr)
        n = n_note + n_release
        total = max(total, first + n)
        freq = ev.frequency_hz
        if freq >= sr / 2:
            silent[freq] = silent.get(freq, 0) + 1
        elif n:
            plan[freq] = (max(plan.get(freq, (0,))[0], n), len(spans))
            spans.append((first, n_note, n_attack, n_release, ev))
    if total > MAX_SAMPLES:
        raise ValueError(f"render needs {total} samples; a WAV file holds at most "
                         f"{MAX_SAMPLES}")

    mix = np.zeros(total, dtype=np.float64)
    waves: dict[float, np.ndarray] = {}
    for i, (first, n_note, n_attack, n_release, ev) in enumerate(spans):
        n = n_note + n_release
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
    return AudioBuffer(sr, mix, sum(silent.values()), len(silent))


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
