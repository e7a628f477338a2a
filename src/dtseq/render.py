"""Audio rendering: oscillator synthesis and WAV output.

The text listings belong to :mod:`dtseq.resolve`; ``export_events`` is
still importable from here, and reading it imports that module.
``dtseq render`` exits 1 when :func:`synthesize` refuses a mix too long
for a WAV file (ValueError) or too large for memory (MemoryError), and 3
when :func:`write_wav` fails.

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
partial at or beyond ±half the sample rate, the Nyquist frequency, is
left out rather than aliased, and an event whose own frequency is there
is left silent.  Its span still counts in the length of the mix, and
``AudioBuffer`` reports how many events and distinct frequencies were
silenced.  A score's validity therefore does not depend on the rate, and
no oscillator is ever built for a frequency above 2**30 Hz.

The oscillator is a block phasor.  With ``w = 2πf / sr`` and blocks of
``B`` samples, ``sin(w(bB + k)) = sin(wbB)·cos(wk) + cos(wbB)·sin(wk)``:
a table of block-start angles and a table of in-block angles, about
``2B + 2n/B`` sines and cosines, give all ``n`` samples.  The grid of
those sums is one ``np.einsum`` of the stacked tables rather than two
broadcast outer products and an add, which numpy runs through its
buffered iterator at several times the cost and with a full-length
temporary; it rounds the same products and sums, so the samples are
the same.  The additive partials come from the same tables through
multiple-angle identities.  The wave stays within 1e-9 of ``np.sin`` of
``2πf·(i / sr)`` for a quarter of a million samples.  One synthesis
builds the tables' sample times, the envelope ramps, the additive-4
kernel's work grids and a buffer for an event's gain-scaled samples
once, and every wave and event uses them.

:func:`write_wav` packs the 44-byte header itself and writes the frames
as little-endian int16, whatever the host's byte order.  It refuses a
buffer the header cannot describe, a sample rate outside
``[1, MAX_SAMPLE_RATE]`` or more than ``MAX_SAMPLES`` samples, with
ValueError before it opens the path, so an existing file is left as it
was.

numpy is imported on the first synthesis or WAV write, not with the
module, so commands that never render do not load it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import WAVEFORMS

if TYPE_CHECKING:
    import numpy as np

    from .resolve import ResolvedEvent

# A 16-bit mono WAV header stores the byte rate, 2 * rate, and the RIFF
# size, 36 + 2 * samples, as unsigned 32-bit fields.
MAX_SAMPLE_RATE = 2**31 - 1
MAX_SAMPLES = (2**32 - 37) // 2

# Samples per row of the oscillator's block grid: an n-sample wave costs
# at most 2 * _BLOCK + 2 * ceil(n / _BLOCK) sines and cosines.
_BLOCK = 512


def __getattr__(name: str):
    """``export_events``, read from :mod:`dtseq.resolve` on each access,
    so that importing this module does not import the resolver."""
    if name == "export_events":
        from .resolve import export_events
        return export_events
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_header(sample_rate, samples: float) -> None:
    """Raise ValueError unless a 16-bit mono WAV header can describe
    ``samples`` samples at ``sample_rate``."""
    if not isinstance(sample_rate, int) or not 1 <= sample_rate <= MAX_SAMPLE_RATE:
        raise ValueError(f"sample rate must be an integer in [1, {MAX_SAMPLE_RATE}]: "
                         f"{sample_rate!r}")
    if not samples <= MAX_SAMPLES:
        raise ValueError(f"render needs {samples} samples; a WAV file holds at most "
                         f"{MAX_SAMPLES}")


@dataclass(frozen=True)
class RenderSettings:
    sample_rate: int = 44100
    waveform: str = "sine"
    attack_sec: float = 0.010
    release_sec: float = 0.050
    master_gain: float = 0.8

    def __post_init__(self):
        _check_header(self.sample_rate, 0)
        if self.waveform not in WAVEFORMS:
            raise ValueError(f"unknown waveform {self.waveform!r}; choose from {WAVEFORMS}")
        if not (0 <= self.attack_sec < math.inf and 0 <= self.release_sec < math.inf):
            raise ValueError("attack and release must be non-negative and finite")
        if not 0 < self.master_gain <= 1:
            raise ValueError(f"master gain must be in (0, 1]: {self.master_gain!r}")


@dataclass(eq=False)
class AudioBuffer:
    """Mono float64 samples in [-1, 1] after mastering.

    ``silent_events`` events, at ``silent_frequencies`` distinct
    frequencies, sounded at or beyond ±half the sample rate (or at NaN)
    and were left out of the mix; their spans still count in its length.
    ``peak`` is the largest absolute sample before mastering, ``gain``
    the scale mastering applied (1.0 when the mix was left as it was),
    and ``oscillators`` the number of distinct waves built.
    """

    sample_rate: int
    samples: np.ndarray
    silent_events: int = 0
    silent_frequencies: int = 0
    peak: float = 0.0
    gain: float = 1.0
    oscillators: int = 0


def _times(n: int, sr: int) -> tuple[np.ndarray, np.ndarray]:
    """In-block and block-start sample times, ``i / sr``, for waves of up
    to ``n`` samples; a shorter wave takes a prefix of each."""
    import numpy as np

    blocks = -(-n // _BLOCK)
    return (np.arange(min(n, _BLOCK), dtype=np.float64) / sr,
            np.arange(0, blocks * _BLOCK, _BLOCK, dtype=np.float64) / sr)


def _work(n: int) -> np.ndarray:
    """Four grids' worth of scratch for ``_oscillator``'s additive-4
    temporaries, for waves of up to ``n`` samples."""
    import numpy as np

    return np.empty((4, -(-n // _BLOCK) * _BLOCK))


def _oscillator(frequency_hz: float, n: int, settings: RenderSettings,
                times: tuple[np.ndarray, np.ndarray] | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """``n`` samples of the waveform at ``frequency_hz``, from phase 0.

    Built by the block phasor the module docstring describes, with both
    angle tables computed as ``2π·f·(i / sr)``, as a direct ``np.sin``
    would.  No sample depends on another, so no error builds up along the
    note.  ``times`` are the grids of ``_times`` and ``work`` the scratch
    of ``_work`` for at least ``n`` samples, built here when not given;
    nothing is read from ``work`` before it is written.  The caller keeps
    ``abs(frequency_hz)`` below ``sr / 2``.
    """
    import numpy as np

    sr = settings.sample_rate
    inner_t, outer_t = times or _times(n, sr)
    step = 2.0 * np.pi * frequency_hz
    width, blocks = min(n, _BLOCK), -(-n // _BLOCK)
    inner = step * inner_t[:width]
    outer = step * outer_t[:blocks]
    k = np.empty((2, width))                  # cos_k, sin_k
    np.cos(inner, out=k[0])
    np.sin(inner, out=k[1])
    b = np.empty((3, blocks))                 # sin_b, cos_b, -sin_b
    np.sin(outer, out=b[0])
    np.cos(outer, out=b[1])

    # One einsum per grid, s[b, k] = sin_b·cos_k + cos_b·sin_k: not a
    # (rows, 1) * (B,) broadcast, which goes through numpy's buffered
    # iterator, and no temporary.  It rounds each product and then their
    # sum, as the broadcast products and add did (tests/test_render.py
    # keeps that version and checks the samples against it); only its
    # sum starts from +0.0, so a negative frequency's first sample is
    # +0.0 where the broadcast gave -0.0, which the mix absorbs.  s is the
    # one full-length array allocated, and the additive-4 sum goes into
    # it; the other grids are views of ``work``, so a wave costs no
    # temporaries and no fresh pages.
    s = np.einsum("ki,kj->ij", b[:2], k)
    if settings.waveform == "sine" or 2 * abs(frequency_hz) >= sr / 2:
        return s.reshape(-1)[:n]
    # additive-4: partial k is left out when k·|f| is at or above sr / 2.
    third = 3 * abs(frequency_hz) < sr / 2
    c, s2, c2, c2s = (grid[:blocks * width].reshape(blocks, width)
                      for grid in (_work(n) if work is None else work))
    np.negative(b[0], out=b[2])
    np.einsum("ki,kj->ij", b[1:], k, out=c)   # cos_b·cos_k - sin_b·sin_k
    np.multiply(s, c, out=s2)
    s2 *= 2.0                                 # sin 2t = 2sc
    if third:
        np.multiply(s, s, out=c2)
        c2 *= -2.0
        c2 += 1.0                             # cos 2t = 1 - 2s²
        c *= s2
        np.multiply(c2, s, out=c2s)
        c += c2s                              # sin 3t = sin 2t·c + cos 2t·s
        c /= 3.0
    s2 /= 2.0
    s += s2
    if third:
        s += c
        if 4 * abs(frequency_hz) < sr / 2:
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
    before allocating, when an event starts or lasts a negative or
    non-finite time, or the mix is longer than a WAV file can hold,
    sample positions beyond the float range included; raises MemoryError
    naming the sample count when the mix does not fit in memory.

    One oscillator is built per distinct frequency, at the first event
    that sounds it and as long as its longest event; every event at that
    frequency takes a prefix of it, and it is dropped after the last
    one.  Events are added to the mix in the order given, so the result
    equals rendering each event's oscillator on its own.

    Events at or beyond ±half the sample rate, or at NaN, add nothing
    to the mix; the buffer counts them and their distinct frequencies,
    all NaNs as one.
    """
    import numpy as np

    settings = settings or RenderSettings()
    sr = settings.sample_rate

    spans: list[tuple[int, int, int, int, ResolvedEvent]] = []
    # frequency -> (longest event in samples, index in spans of its last event)
    plan: dict[float, tuple[int, int]] = {}
    silent: dict[float, int] = {}  # frequency with |f| not below sr / 2 -> its events
    total = 0
    for ev in events:
        if not (0 <= ev.start_sec < math.inf and 0 <= ev.duration_sec < math.inf):
            raise ValueError(f"event start and duration must be non-negative and finite: "
                             f"{ev.start_sec!r}, {ev.duration_sec!r}")
        attack, release = settings.attack_sec, settings.release_sec
        if attack + release > ev.duration_sec > 0:
            squeeze = ev.duration_sec / (attack + release)
            attack *= squeeze
            release *= squeeze
        end = (ev.start_sec + ev.duration_sec + release) * sr
        if not math.isfinite(end):  # round() would raise; no WAV file holds it
            _check_header(sr, end)
        first = round(ev.start_sec * sr)
        n_note = round(ev.duration_sec * sr)
        n_attack = round(min(attack * sr, n_note))
        n_release = round(release * sr)
        n = n_note + n_release
        total = max(total, first + n)
        freq = ev.frequency_hz
        if not abs(freq) < sr / 2:
            if math.isnan(freq):
                freq = math.nan  # one key for every NaN
            silent[freq] = silent.get(freq, 0) + 1
        elif n:
            plan[freq] = (max(plan.get(freq, (0,))[0], n), len(spans))
            spans.append((first, n_note, n_attack, n_release, ev))
    _check_header(sr, total)

    try:
        mix = np.zeros(total, dtype=np.float64)
    except MemoryError:
        raise MemoryError(f"render needs {total} samples; the mix does not fit in "
                          f"memory") from None
    # Shared by every event: the angle grids, the additive-4 kernel's work
    # grids, the gain-scaled chunk of the longest one and the envelope
    # ramps by length.  All are allocated before the first wave, so the
    # waves freed by the end of the loop lie at the top of the heap and go
    # back to the system before write_wav allocates (a ramp memoised
    # inside the loop kept them, and raised peak RSS up to 8% on some
    # layouts).
    longest_event = max((longest for longest, _ in plan.values()), default=0)
    times = _times(longest_event, sr)
    work = _work(longest_event) if settings.waveform == "additive-4" else None
    scratch = np.empty(longest_event, dtype=np.float64)
    attacks = {a: np.arange(a) / a for a in {span[2] for span in spans}}
    releases = {r: 1.0 - np.arange(1, r + 1) / r for r in {span[3] for span in spans}}
    waves: dict[float, np.ndarray] = {}
    for i, (first, n_note, n_attack, n_release, ev) in enumerate(spans):
        n = n_note + n_release
        freq = ev.frequency_hz
        longest, last = plan[freq]
        wave = waves.get(freq)
        if wave is None:
            wave = waves[freq] = _oscillator(freq, longest, settings, times, work)
        if i == last:
            del waves[freq]
        gain = ev.velocity / 127.0
        chunk = scratch[:n]
        np.multiply(gain * attacks[n_attack], wave[:n_attack], out=chunk[:n_attack])
        np.multiply(wave[n_attack:n_note], gain, out=chunk[n_attack:n_note])
        np.multiply(gain * releases[n_release], wave[n_note:n], out=chunk[n_note:])
        mix[first:first + n] += chunk

    peak = max(float(mix.max()), -float(mix.min())) if total else 0.0
    gain = 1.0
    if peak > settings.master_gain:
        gain = settings.master_gain / peak
        mix *= gain
    return AudioBuffer(sr, mix, sum(silent.values()), len(silent), peak, gain, len(plan))


def write_wav(buffer: AudioBuffer, path) -> None:
    """Write 16-bit mono PCM with the plain 44-byte RIFF/WAVE header.

    Samples are rounded from value * 32767 and clamped to the int16 range,
    so identical buffers produce bit-identical files.  Raises ValueError,
    before ``path`` is opened, for a sample rate that
    :class:`RenderSettings` refuses or more than ``MAX_SAMPLES`` samples.
    """
    import numpy as np

    n, rate = len(buffer.samples), buffer.sample_rate
    _check_header(rate, n)
    step = 1 << 16  # in blocks, so there is never a full-length copy of the mix
    block = np.empty(step, dtype="<i2")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 2 * n, b"WAVE", b"fmt ",
                             16, 1, 1, rate, 2 * rate, 2, 16, b"data", 2 * n))
        for lo in range(0, n, step):
            scaled = buffer.samples[lo:lo + step] * 32767.0
            np.rint(scaled, out=scaled)
            out = block[:len(scaled)]
            np.clip(scaled, -32768, 32767, out=out, casting="unsafe")
            fh.write(out)
