import math
import sys
import tracemalloc
import warnings
import wave
from fractions import Fraction

import numpy as np
import pytest

from dtseq import (
    RenderSettings,
    ResolvedEvent,
    export_events,
    parse,
    resolve_composition,
    synthesize,
    write_wav,
)
from dtseq.render import _BLOCK, MAX_SAMPLES, _oscillator, _times, _work
from support import REFERENCE_SCORE


def event(freq=440.0, start=0.0, dur=1.0, vel=127, factor=Fraction(1)):
    return ResolvedEvent("test", factor, freq, start, dur, vel)


def zero_crossing_rate(samples: np.ndarray, sample_rate: int) -> float:
    crossings = int(np.count_nonzero(np.diff(np.signbit(samples))))
    return crossings * sample_rate / len(samples)


def dft_peak_hz(samples: np.ndarray, sample_rate: int, size: int = 32768) -> float:
    segment = samples[:size] * np.hanning(min(len(samples), size))
    spectrum = np.abs(np.fft.rfft(segment, n=size))
    return int(np.argmax(spectrum)) * sample_rate / size


def steady_segment(buffer, settings, duration):
    a = round(settings.attack_sec * settings.sample_rate)
    b = round(duration * settings.sample_rate)
    return buffer.samples[a:b]


def per_event_synthesize(events, settings):
    """Reference mix: a fresh oscillator and envelope for every event.

    It shares the kernel with ``synthesize``, so the two must agree bit for
    bit; ``TestOscillator`` checks the kernel against ``np.sin`` on its own.
    """
    sr = settings.sample_rate
    spans = []
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
        spans.append((first, n_note, n_attack, n_release, ev))
        total = max(total, first + n_note + n_release)

    mix = np.zeros(total, dtype=np.float64)
    for first, n_note, n_attack, n_release, ev in spans:
        n = n_note + n_release
        if n == 0:
            continue
        signal = _oscillator(ev.frequency_hz, n, settings)
        envelope = np.ones(n)
        if n_attack:
            envelope[:n_attack] = np.arange(n_attack) / n_attack
        if n_release:
            envelope[n_note:] = 1.0 - np.arange(1, n_release + 1) / n_release
        mix[first:first + n] += (ev.velocity / 127.0) * envelope * signal

    peak = float(np.max(np.abs(mix))) if total else 0.0
    if peak > settings.master_gain:
        mix *= settings.master_gain / peak
    return mix


def random_events(seed, count, freqs):
    rng = np.random.default_rng(seed)
    return [event(float(rng.choice(freqs)), start=float(rng.uniform(0, 2.0)),
                  dur=float(rng.choice([0.0, 0.004, 0.03, 0.25, 0.7])),
                  vel=int(rng.integers(1, 128)))
            for _ in range(count)]


class TestSynthesize:
    def test_sine_zero_crossings(self):
        settings = RenderSettings()
        buf = synthesize([event(440.0)], settings)
        assert len(buf.samples) == round((1.0 + settings.release_sec) * 44100)
        steady = steady_segment(buf, settings, 1.0)
        assert zero_crossing_rate(steady, 44100) == pytest.approx(880, abs=2)

    def test_equal_events_sum_then_normalize(self):
        e = event(440.0, vel=127)
        one = synthesize([e], RenderSettings(master_gain=0.8))
        two = synthesize([e, e], RenderSettings(master_gain=0.8))
        # a single full-velocity sine already peaks just under 1.0, so the
        # doubled mix must have been scaled back to the master gain
        assert float(np.max(np.abs(two.samples))) == pytest.approx(0.8, abs=1e-9)
        peak_one = float(np.max(np.abs(one.samples)))
        assert peak_one == pytest.approx(0.8, abs=1e-9)

    def test_below_gain_mix_is_untouched(self):
        quiet = synthesize([event(vel=32)], RenderSettings(master_gain=0.9))
        peak = float(np.max(np.abs(quiet.samples)))
        assert 0 < peak < 0.9

    def test_empty_events(self):
        buf = synthesize([])
        assert len(buf.samples) == 0
        assert buf.sample_rate == 44100

    def test_no_sample_exceeds_master_gain(self):
        events = [event(440.0 * k, start=0.1 * k, vel=127) for k in range(1, 6)]
        buf = synthesize(events, RenderSettings(master_gain=0.5))
        assert float(np.max(np.abs(buf.samples))) <= 0.5 + 1e-12

    def test_envelope_continuity_no_clicks(self):
        settings = RenderSettings()
        f = 440.0
        buf = synthesize([event(f)], settings)
        n_attack = round(settings.attack_sec * settings.sample_rate)
        n_release = round(settings.release_sec * settings.sample_rate)
        oscillator_step = 2 * np.pi * f / settings.sample_rate
        envelope_step = max(1 / n_attack, 1 / n_release)
        bound = oscillator_step + envelope_step + 1e-9
        assert float(np.max(np.abs(np.diff(buf.samples)))) <= bound
        # and the rendering starts/ends at silence
        assert buf.samples[0] == 0.0
        assert buf.samples[-1] == pytest.approx(0.0, abs=1e-6)

    def test_short_note_scales_envelope_to_fit(self):
        settings = RenderSettings(attack_sec=0.1, release_sec=0.1)
        buf = synthesize([event(dur=0.05)], settings)
        # attack and release squeezed into 0.05 s plus the scaled release tail
        assert len(buf.samples) == round(0.05 * 44100) + round(0.025 * 44100)
        assert float(np.max(np.abs(buf.samples))) <= 1.0

    def test_dominant_frequency_sine_and_additive(self):
        settings_add = RenderSettings(waveform="additive-4")
        for settings in (RenderSettings(), settings_add):
            buf = synthesize([event(440.0)], settings)
            steady = steady_segment(buf, settings, 1.0)
            peak = dft_peak_hz(steady, 44100)
            assert abs(peak - 440.0) <= 44100 / 32768

    @pytest.mark.parametrize("freq,dur", [(550.0, 0.5), (660.0, 0.75), (990.0, 0.5)])
    def test_dominant_frequency_half_second_notes(self, freq, dur):
        settings = RenderSettings()
        buf = synthesize([event(freq, dur=dur)], settings)
        steady = steady_segment(buf, settings, dur)
        assert abs(dft_peak_hz(steady, 44100) - freq) <= 44100 / 32768

    def test_additive_changes_waveform(self):
        sine = synthesize([event()], RenderSettings())
        add4 = synthesize([event()], RenderSettings(waveform="additive-4"))
        assert len(sine.samples) == len(add4.samples)
        assert not np.array_equal(sine.samples, add4.samples)

    def test_longer_than_a_wav_file_raises_before_allocating(self):
        with pytest.raises(ValueError, match="samples"):
            synthesize([event(start=1e9, dur=0.1)])
        one_hz = RenderSettings(sample_rate=1, attack_sec=0.0, release_sec=0.0)
        with pytest.raises(ValueError, match=f"needs {MAX_SAMPLES + 1} samples"):
            synthesize([event(start=float(MAX_SAMPLES), dur=1.0)], one_hz)
        # finite seconds whose sample position is not: refused, not rounded
        with pytest.raises(ValueError, match="needs inf samples"):
            synthesize([event(start=6e304, dur=1.0)])
        # a zero-length event is not squeezed, so its release is not either
        for long_tail in (RenderSettings(release_sec=1e306),
                          RenderSettings(attack_sec=1e306, release_sec=1e306)):
            with pytest.raises(ValueError, match="needs inf samples"):
                synthesize([event(dur=0.0)], long_tail)
        with pytest.raises(ValueError, match="samples; a WAV file"):
            synthesize([event(dur=0.0)], RenderSettings(release_sec=1e300))
        buffer = synthesize([event(dur=0.0)], RenderSettings(attack_sec=1e306))
        assert len(buffer.samples) == round(0.05 * 44100)  # the release alone

    @pytest.mark.parametrize("start,dur", [
        (-0.1, 0.0375), (-1e-9, 0.5), (math.nan, 0.5), (math.inf, 0.5),
        (0.5, -0.01), (0.5, math.nan), (0.5, math.inf), (-math.inf, math.inf)])
    def test_out_of_range_event_is_refused(self, start, dur):
        settings = RenderSettings(sample_rate=8000)
        events = [event(start=0.0, dur=2.0), event(start=start, dur=dur)]
        with pytest.raises(ValueError, match="non-negative and finite"):
            synthesize(events, settings)

    def test_nan_frequency_is_silent_and_counted(self, tmp_path):
        settings = RenderSettings(sample_rate=8000, release_sec=0.0)
        events = [event(math.nan), event(440.0, vel=64), event(float("nan"), start=0.5),
                  event(-math.nan, dur=1.5)]
        buf = synthesize(events, settings)
        assert (buf.silent_events, buf.silent_frequencies) == (3, 1)
        assert not np.isnan(buf.samples).any()
        # the in-band note alone, padded to 1.5 s by an empty event there
        alone = synthesize([event(440.0, vel=64), event(1.0, start=1.5, dur=0.0)], settings)
        assert np.array_equal(buf.samples, alone.samples)
        write_wav(buf, tmp_path / "nan.wav")  # a NaN in the mix would warn in the cast

    def test_facts_of_a_mastered_mix(self):
        events = [event(440.0), event(660.0, start=1.5, vel=20), event(6000.0, dur=0.2)]
        settings = RenderSettings(sample_rate=8000, master_gain=0.8)
        buf = synthesize(events, settings)
        # the same mix below a master gain of 1.0 is left as it was
        raw = per_event_synthesize(events[:2], RenderSettings(sample_rate=8000, master_gain=1.0))
        assert buf.peak == float(np.max(np.abs(raw))) > 0.8
        assert buf.gain == 0.8 / buf.peak
        assert buf.oscillators == 2
        assert float(np.max(np.abs(buf.samples))) == pytest.approx(0.8, abs=1e-12)

    def test_facts_of_a_quiet_mix(self):
        buf = synthesize([event(440.0, vel=32), event(550.0, vel=20, start=0.5)],
                         RenderSettings(master_gain=0.9))
        assert 0 < buf.peak == float(np.max(np.abs(buf.samples))) < 0.9
        assert (buf.gain, buf.oscillators) == (1.0, 2)
        empty = synthesize([])
        assert (empty.peak, empty.gain, empty.oscillators) == (0.0, 1.0, 0)

    def test_deterministic(self):
        events = resolve_composition(parse(REFERENCE_SCORE))
        a = synthesize(events)
        b = synthesize(events)
        assert np.array_equal(a.samples, b.samples)

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            RenderSettings(waveform="square")
        with pytest.raises(ValueError):
            RenderSettings(master_gain=0.0)
        with pytest.raises(ValueError):
            RenderSettings(sample_rate=0)
        with pytest.raises(ValueError):  # 2 * rate overflows the WAV byte-rate field
            RenderSettings(sample_rate=2**31)
        assert RenderSettings(sample_rate=2**31 - 1).sample_rate == 2**31 - 1
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                RenderSettings(attack_sec=bad)
            with pytest.raises(ValueError):
                RenderSettings(release_sec=bad)


class TestSynthesizeMatchesPerEventMix:
    """One oscillator per distinct frequency must not change a sample."""

    # every partial stays below 4 kHz, so the reference needs no band limit
    CASES = {
        # the longest event at 440 Hz is the second one, not the first
        "longest-not-first": [event(440.0, 0.0, 0.2), event(440.0, 0.1, 1.0),
                              event(440.0, 0.5, 0.3, vel=64)],
        "overlapping": [event(440.0, 0.0, 0.5), event(660.0, 0.25, 0.5, vel=90),
                        event(440.0, 0.3, 0.4, vel=30), event(550.0, 0.3, 0.1)],
        "zero-length": [event(440.0, 0.0, 0.0), event(440.0, 0.1, 0.2),
                        event(330.0, 0.2, 0.0), event(440.0, 0.4, 0.0)],
        "squeezed": [event(440.0, 0.0, 0.01), event(440.0, 0.02, 0.03),
                     event(880.0, 0.05, 0.001), event(440.0, 0.1, 0.5)],
        "random": random_events(1, 60, [220.0, 275.0, 330.0, 440.0, 495.0]),
        "random-unique": random_events(7, 40, np.linspace(200.0, 900.0, 37)),
    }

    @pytest.mark.parametrize("waveform", ["sine", "additive-4"])
    @pytest.mark.parametrize("release", [0.05, 0.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_per_event_reference(self, case, release, waveform):
        settings = RenderSettings(sample_rate=8000, waveform=waveform,
                                  release_sec=release)
        events = self.CASES[case]
        got = synthesize(events, settings).samples
        assert np.array_equal(got, per_event_synthesize(events, settings))

    @pytest.mark.parametrize("waveform", ["sine", "additive-4"])
    def test_reference_score_at_44100(self, waveform):
        settings = RenderSettings(waveform=waveform)
        events = resolve_composition(parse(REFERENCE_SCORE))
        got = synthesize(events, settings).samples
        assert np.array_equal(got, per_event_synthesize(events, settings))


def direct_wave(freq, n, settings):
    """The waveform from one ``np.sin`` per partial, kept below ``sr / 2``."""
    sr = settings.sample_rate
    phase = 2.0 * np.pi * freq * (np.arange(n, dtype=np.float64) / sr)
    wave = np.sin(phase)
    if settings.waveform == "additive-4":
        for k in (2, 3, 4):
            if k * freq < sr / 2:
                wave += np.sin(k * phase) / k
    return wave


class TestOscillator:
    """The block phasor against a direct ``np.sin`` of every partial."""

    @pytest.mark.parametrize("waveform", ["sine", "additive-4"])
    @pytest.mark.parametrize("sr", [8000, 44100])
    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000, 2**18])
    def test_matches_direct_sines(self, n, sr, waveform):
        settings = RenderSettings(sample_rate=sr, waveform=waveform)
        rng = np.random.default_rng([n, sr])
        freqs = [*rng.uniform(0.0, sr / 2, 4), 0.999999 * sr / 2, sr / 8 * 0.999]
        for freq in freqs:
            got = _oscillator(freq, n, settings)
            expected = direct_wave(freq, n, settings)
            assert got.shape == (n,)
            assert np.max(np.abs(got - expected), initial=0.0) <= 1e-9, freq
            # at full scale (the largest additive-4 peak is below 25/12),
            # quantisation moves no sample by more than one step
            scale = 32767.0 * 12 / 25
            assert np.max(np.abs(np.rint(got * scale) - np.rint(expected * scale)),
                          initial=0.0) <= 1

    @pytest.mark.parametrize("waveform", ["sine", "additive-4"])
    @pytest.mark.parametrize("sr", [8000, 44100])
    def test_negative_frequency_is_the_negated_wave(self, sr, waveform):
        settings = RenderSettings(sample_rate=sr, waveform=waveform)
        rng = np.random.default_rng(sr)
        # additive-4 keeps every partial below sr/8, and above it drops
        # partial 4, partials 3-4 or partials 2-4
        nyquist = sr / 2
        freqs = [rng.uniform(0.0, nyquist / 4), rng.uniform(nyquist / 4, nyquist / 3),
                 rng.uniform(nyquist / 3, nyquist / 2), rng.uniform(nyquist / 2, nyquist),
                 0.999999 * nyquist]
        for freq in freqs:
            for n in (1, _BLOCK + 1, 5000):
                assert np.array_equal(_oscillator(-freq, n, settings),
                                      -_oscillator(freq, n, settings)), (freq, n)

    def test_no_drift_along_a_long_note(self):
        settings = RenderSettings(sample_rate=44100)
        n = 2**20
        got = _oscillator(1234.5, n, settings)
        # the block-start samples are sines of exactly the reference's angles
        starts = np.arange(0, n, _BLOCK)
        expected = np.sin(2.0 * np.pi * 1234.5 * (starts / 44100))
        assert np.array_equal(got[starts], expected)
        assert np.max(np.abs(got - direct_wave(1234.5, n, settings))) <= 2e-9


def reference_oscillator(frequency_hz, n, settings):
    """A frozen copy of ``render._oscillator`` as it stood when each grid
    was two broadcast products and an add; ``TestKernelBitIdentity``
    checks that the kernel still returns exactly these samples."""
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
    third = 3 * frequency_hz < sr / 2
    c = cos_b * cos_k
    c -= sin_b * sin_k
    s2 = s * c
    s2 *= 2.0
    if third:
        c2 = s * s
        c2 *= -2.0
        c2 += 1.0
        c *= s2
        c += c2 * s
        c /= 3.0
    s2 /= 2.0
    s += s2
    if third:
        s += c
        if 4 * frequency_hz < sr / 2:
            s2 *= c2
            s += s2
    return s.reshape(-1)[:n]


class TestKernelBitIdentity:
    """The kernel gives the frozen reference's samples, bit for bit and
    sign of zero included, whether it builds its angle grids or takes
    longer ones from ``synthesize``."""

    @pytest.mark.parametrize("waveform", ["sine", "additive-4"])
    @pytest.mark.parametrize("sr", [8000, 44100])
    @pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 5000, 2**18])
    def test_equals_frozen_reference(self, n, sr, waveform):
        settings = RenderSettings(sample_rate=sr, waveform=waveform)
        rng = np.random.default_rng([n, sr, 9])
        # just below the rates where additive-4 drops 2f, 3f and 4f, and at them
        edges = [edge for k in (4, 6, 8) for edge in (np.nextafter(sr / k, 0.0), sr / k)]
        freqs = [0.0, *rng.uniform(0.0, sr / 2, 6), *edges, np.nextafter(sr / 2, 0.0)]
        longer = _times(n + 3 * _BLOCK, sr)
        for freq in freqs:
            expected = reference_oscillator(freq, n, settings)
            for got in (_oscillator(freq, n, settings), _oscillator(freq, n, settings, longer)):
                assert got.shape == (n,)
                assert np.array_equal(got, expected), freq
                assert np.array_equal(np.signbit(got), np.signbit(expected)), freq

    @pytest.mark.parametrize("sr", [8000, 44100])
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK + 1, 5000])
    def test_reused_dirty_work_grids(self, n, sr):
        settings = RenderSettings(sample_rate=sr, waveform="additive-4")
        longer = n + 3 * _BLOCK
        times, work = _times(longer, sr), _work(longer)
        work.fill(np.nan)
        rng = np.random.default_rng([n, sr, 10])
        # all four partials, then fewer: each wave leaves the grids dirty for the next
        for freq in [*rng.uniform(0.0, sr / 8, 4), *rng.uniform(sr / 8, sr / 2, 4)]:
            expected = reference_oscillator(freq, n, settings)
            got = _oscillator(freq, n, settings, times, work)
            assert np.array_equal(got, expected), freq
            assert np.array_equal(np.signbit(got), np.signbit(expected)), freq


class TestBandLimit:
    @pytest.mark.parametrize("freq,kept", [(6000.0, []), (4000.0, [8000.0])])
    def test_additive_partials_above_nyquist_do_not_alias(self, freq, kept):
        sr = 22050
        settings = RenderSettings(sample_rate=sr, waveform="additive-4")
        buf = synthesize([event(freq)], settings)
        steady = steady_segment(buf, settings, 1.0)
        size = 16384
        spectrum = np.abs(np.fft.rfft(steady[:size] * np.hanning(size)))

        def level(hz):
            return float(spectrum[round(hz * size / sr)])

        fundamental = level(freq)
        assert abs(dft_peak_hz(steady, sr, size) - freq) <= sr / size
        for hz in kept:
            assert level(hz) > 0.1 * fundamental
        for k in (2, 3, 4):
            if k * freq >= sr / 2:
                assert level(abs(sr - k * freq)) < 1e-4 * fundamental

    def test_fundamental_above_nyquist_is_silent_not_aliased(self):
        sr = 8000
        settings = RenderSettings(sample_rate=sr)
        buf = synthesize([event(6000.0), event(1000.0, vel=64)], settings)
        steady = steady_segment(buf, settings, 1.0)
        size = 4096
        spectrum = np.abs(np.fft.rfft(steady[:size] * np.hanning(size)))
        # a 6 kHz sine sampled at 8 kHz would alias to 2 kHz
        assert spectrum[round(2000 * size / sr)] < 1e-6 * spectrum[round(1000 * size / sr)]

    def test_silent_events_are_counted_and_keep_their_span(self):
        settings = RenderSettings(sample_rate=8000, release_sec=0.0)
        events = [event(6000.0), event(4000.0, start=0.5, dur=2.0), event(6000.0, start=1.0),
                  event(3999.0, dur=0.5), event(float("inf"), dur=0.0)]
        buf = synthesize(events, settings)
        assert (buf.silent_events, buf.silent_frequencies) == (4, 3)
        assert len(buf.samples) == round(2.5 * 8000)
        # the in-band note alone, padded to 2.5 s by an empty event there
        alone = [event(3999.0, dur=0.5), event(1.0, start=2.5, dur=0.0)]
        assert np.array_equal(buf.samples, synthesize(alone, settings).samples)
        in_band = synthesize([event(3999.0)], settings)
        assert (in_band.silent_events, in_band.silent_frequencies) == (0, 0)

    def test_band_limit_is_on_the_absolute_frequency(self):
        settings = RenderSettings(sample_rate=4000, release_sec=0.0)
        buf = synthesize([event(-3000.0), event(-2000.0, start=0.5)], settings)
        assert (buf.silent_events, buf.silent_frequencies) == (2, 2)
        assert len(buf.samples) == round(1.5 * 4000) and not buf.samples.any()
        in_band = synthesize([event(-1999.0)], settings)
        assert (in_band.silent_events, in_band.oscillators) == (0, 1)

    def test_negative_infinity_is_silent_without_a_warning(self):
        settings = RenderSettings(sample_rate=8000, release_sec=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            buf = synthesize([event(-math.inf), event(440.0, vel=64)], settings)
        assert (buf.silent_events, buf.silent_frequencies) == (1, 1)
        alone = synthesize([event(440.0, vel=64)], settings)
        assert np.array_equal(buf.samples, alone.samples)


class TestWriteWav:
    def test_header_layout_and_size(self, tmp_path):
        path = tmp_path / "one_second.wav"
        write_wav(synthesize([event()], RenderSettings(release_sec=0.0)), path)
        data = path.read_bytes()
        assert len(data) == 44 + 2 * 44100
        assert data[0:4] == b"RIFF"
        assert int.from_bytes(data[4:8], "little") == len(data) - 8
        assert data[8:12] == b"WAVE"
        assert data[12:16] == b"fmt "
        assert int.from_bytes(data[16:20], "little") == 16
        assert int.from_bytes(data[20:22], "little") == 1          # PCM
        assert int.from_bytes(data[22:24], "little") == 1          # mono
        assert int.from_bytes(data[24:28], "little") == 44100
        assert int.from_bytes(data[28:32], "little") == 44100 * 2  # byte rate
        assert int.from_bytes(data[32:34], "little") == 2          # block align
        assert int.from_bytes(data[34:36], "little") == 16         # bits
        assert data[36:40] == b"data"
        assert int.from_bytes(data[40:44], "little") == 2 * 44100

    def test_quantization_extremes(self, tmp_path):
        from dtseq import AudioBuffer
        path = tmp_path / "extremes.wav"
        write_wav(AudioBuffer(8000, np.array([1.0, -1.0, 0.0])), path)
        with wave.open(str(path)) as wav:
            frames = np.frombuffer(wav.readframes(3), dtype="<i2")
        assert list(frames) == [32767, -32767, 0]

    def test_quantizer_matches_clip_of_rint(self, tmp_path):
        from dtseq import AudioBuffer
        halves = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 32766.5, -32767.5]) / 32767.0
        samples = np.concatenate([
            [1.0, -1.0, 0.0, 1.0000001, -1.0000001, 1.5, -2.0, 1e6, -1e6],
            halves,
            np.random.default_rng(3).uniform(-1.2, 1.2, 150_000),  # several blocks
        ])
        assert np.count_nonzero(np.abs(np.modf(samples * 32767.0)[0]) == 0.5) >= 8
        expected = np.clip(np.rint(samples * 32767.0), -32768, 32767).astype("<i2")
        path = tmp_path / "quantized.wav"
        write_wav(AudioBuffer(8000, samples), path)
        with wave.open(str(path)) as wav:
            frames = wav.readframes(len(samples))
        assert frames == expected.tobytes()

    def test_bit_identical_across_runs(self, tmp_path):
        events = resolve_composition(parse(REFERENCE_SCORE))
        p1, p2 = tmp_path / "a.wav", tmp_path / "b.wav"
        write_wav(synthesize(events), p1)
        write_wav(synthesize(events), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_buffer_is_a_bare_header(self, tmp_path):
        from dtseq import AudioBuffer
        path = tmp_path / "empty.wav"
        write_wav(AudioBuffer(8000, np.zeros(0)), path)
        data = path.read_bytes()
        assert len(data) == 44 and int.from_bytes(data[40:44], "little") == 0
        assert int.from_bytes(data[4:8], "little") == 36

    def test_memory_is_bounded_by_a_block(self, tmp_path):
        from dtseq import AudioBuffer
        buf = AudioBuffer(44100, np.random.default_rng(5).uniform(-1, 1, 2_000_000))
        tracemalloc.start()
        try:
            write_wav(buf, tmp_path / "long.wav")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full-length int16 copy alone would be 4 MB
        assert peak < 2_000_000
        assert (tmp_path / "long.wav").stat().st_size == 44 + 2 * 2_000_000

    def test_unwritable_path_raises_with_path(self, tmp_path):
        buf = synthesize([])
        with pytest.raises(OSError) as exc:
            write_wav(buf, tmp_path / "no" / "such" / "dir.wav")
        assert "dir.wav" in str(exc.value)

    def test_bytes_do_not_depend_on_host_byte_order(self, tmp_path, monkeypatch):
        from dtseq import AudioBuffer
        buf = AudioBuffer(8000, np.array([0.5, -0.25]))
        little, big = tmp_path / "little.wav", tmp_path / "big.wav"
        write_wav(buf, little)
        monkeypatch.setattr(sys, "byteorder", "big")
        write_wav(buf, big)
        assert little.read_bytes()[44:] == bytes.fromhex("004000e0")
        assert big.read_bytes() == little.read_bytes()

    @pytest.mark.parametrize("rate", [0, -5, 2**31, 2**32, 44100.4, None])
    def test_rate_the_header_cannot_hold_is_refused_before_opening(self, tmp_path, rate):
        from dtseq import AudioBuffer
        path = tmp_path / "kept.wav"
        path.write_bytes(bytes(range(250)) * 4)
        with pytest.raises(ValueError) as exc:
            write_wav(AudioBuffer(rate, np.zeros(3)), path)
        with pytest.raises(ValueError) as settings_exc:
            RenderSettings(sample_rate=rate)
        assert str(exc.value) == str(settings_exc.value)
        assert path.read_bytes() == bytes(range(250)) * 4

    def test_length_the_header_cannot_hold_is_refused_before_opening(self, tmp_path):
        from dtseq import AudioBuffer

        class TooLong:
            def __len__(self):
                return MAX_SAMPLES + 1

        path = tmp_path / "kept.wav"
        path.write_bytes(bytes(range(250)) * 4)
        with pytest.raises(ValueError) as exc:
            write_wav(AudioBuffer(8000, TooLong()), path)
        assert str(exc.value) == (f"render needs {MAX_SAMPLES + 1} samples; a WAV file "
                                  f"holds at most {MAX_SAMPLES}")
        assert path.read_bytes() == bytes(range(250)) * 4


class TestExportEvents:
    def test_reference_listing(self):
        events = resolve_composition(parse(REFERENCE_SCORE))
        text = export_events(events)
        lines = text.splitlines()
        assert lines[0].startswith("instrument\t")
        assert len(lines) == 4
        final = lines[3]
        assert "9/4" in final and "990" in final

    def test_importable_from_render_and_resolve_alike(self):
        import dtseq.render
        import dtseq.resolve
        assert dtseq.render.export_events is dtseq.resolve.export_events is export_events

    def test_empty_events_only_header(self):
        assert export_events([]).splitlines() == [
            "instrument\tfactor\tfrequency_hz\tstart_sec\tduration_sec\tvelocity"]

    def test_factor_column_roundtrips_exactly(self):
        from dtseq import ratio
        events = resolve_composition(parse(REFERENCE_SCORE))
        for line in export_events(events).splitlines()[1:]:
            printed = line.split("\t")[1]
            num, den = printed.split("/")
            ev = next(e for e in events if e.factor == ratio(int(num), int(den)))
            assert f"{ev.factor.numerator}/{ev.factor.denominator}" == printed

    def test_each_distinct_factor_is_written_once(self, monkeypatch):
        import dtseq.resolve
        events = [event(factor=Fraction(k % 3 + 1, 2)) for k in range(12)]
        expected = export_events(events)
        written = []
        ratio_text = dtseq.resolve.ratio_text
        monkeypatch.setattr(dtseq.resolve, "ratio_text",
                            lambda r: written.append(r) or ratio_text(r))
        assert export_events(iter(events)) == expected
        assert sorted(written) == [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
        assert [line.split("\t")[1] for line in expected.splitlines()[1:4]] == [
            "1/2", "1/1", "3/2"]
