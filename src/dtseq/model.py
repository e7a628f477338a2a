"""Composition data model: tick timelines, notes, harmonies, instruments.

Time is measured in integer ticks and every interval is half-open,
``[start, start + duration)``, so contiguity and overlap checks are exact
integer comparisons.  All types are immutable values after construction,
scores with their notes in canonical order; structural problems that span
objects (dangling names, broken timelines) are reported by
:func:`validate_composition` rather than raised.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .rational import Scale, check_name

DEFAULT_VELOCITY = 96

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class TimeInterval:
    """Half-open span of ticks: covers ``start <= t < start + duration``."""

    start: int
    duration: int

    def __post_init__(self):
        if not isinstance(self.start, int) or self.start < 0:
            raise ValueError(f"interval start must be a non-negative tick: {self.start!r}")
        if not isinstance(self.duration, int) or self.duration < 1:
            raise ValueError(f"interval duration must be a positive tick count: {self.duration!r}")

    @property
    def end(self) -> int:
        return self.start + self.duration

    def contains(self, tick: int) -> bool:
        return self.start <= tick < self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class Note:
    """One playable event: a scale key held over an interval, with dynamics."""

    key_index: int
    interval: TimeInterval
    velocity: int = DEFAULT_VELOCITY

    def __post_init__(self):
        if not isinstance(self.key_index, int) or self.key_index < 0:
            raise ValueError(f"key index must be a non-negative integer: {self.key_index!r}")
        if not isinstance(self.velocity, int) or not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity must be in [1, 127]: {self.velocity!r}")


@dataclass(frozen=True)
class TranspositionTone:
    """One (key, interval) entry of a harmonic sequence."""

    key_index: int
    interval: TimeInterval

    def __post_init__(self):
        if not isinstance(self.key_index, int) or self.key_index < 0:
            raise ValueError(f"key index must be a non-negative integer: {self.key_index!r}")


@dataclass(frozen=True)
class InstrumentScore:
    """The note timeline of one instrument.  Overlaps (chords) are allowed.

    Canonical from construction: exact duplicates dropped, then sorted by
    (start, key_index, duration, velocity), so equal note sets compare
    equal and every layer numbers the notes alike."""

    notes: tuple[Note, ...]

    def __init__(self, notes: Iterable[Note] = ()):
        ordered = sorted(dict.fromkeys(notes), key=lambda n: (
            n.interval.start, n.key_index, n.interval.duration, n.velocity))
        object.__setattr__(self, "notes", tuple(ordered))

    def normalized(self) -> "InstrumentScore":
        """The score itself, which is canonical from construction."""
        return self

    def __len__(self) -> int:
        return len(self.notes)

    def __iter__(self):
        return iter(self.notes)


@dataclass(frozen=True)
class HarmonicSequence:
    """A level-n transposition timeline.

    Valid sequences are non-overlapping, contiguous, and span the whole
    composition, which makes the tone at any tick unique
    (:meth:`tone_at`).  Chords are meaningless here, unlike in an
    instrument score.
    """

    name: str
    level: int
    scale_name: str
    tones: tuple[TranspositionTone, ...]

    def __init__(self, name: str, level: int, scale_name: str,
                 tones: Iterable[TranspositionTone] = ()):
        check_name(name, "harmony name")
        check_name(scale_name, "scale name")
        if not isinstance(level, int) or level < 1:
            raise ValueError(f"harmony level must be an integer >= 1: {level!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "scale_name", scale_name)
        object.__setattr__(self, "tones", tuple(tones))

    @cached_property
    def _starts(self) -> list[int]:
        return [t.interval.start for t in self.tones]

    def tone_at(self, tick: int) -> TranspositionTone:
        """The unique tone whose interval contains ``tick``.

        Assumes the sequence passed validation; raises ValueError when the
        tick falls outside the covered span (or in a gap of a broken
        sequence).
        """
        i = bisect_right(self._starts, tick) - 1
        if i >= 0 and self.tones[i].interval.contains(tick):
            return self.tones[i]
        raise ValueError(f"tick {tick} is not covered by harmony {self.name!r}")


@dataclass(frozen=True)
class Instrument:
    """A named voice: its scale, the harmonies it follows, and its score.

    ``harmony_names`` is ordered lowest level first; validation checks the
    referenced levels form the consecutive range 1..n.
    """

    name: str
    scale_name: str
    harmony_names: tuple[str, ...]
    score: InstrumentScore

    def __init__(self, name: str, scale_name: str,
                 harmony_names: Iterable[str] = (),
                 score: InstrumentScore | Iterable[Note] = ()):
        check_name(name, "instrument name")
        check_name(scale_name, "scale name")
        names = tuple(harmony_names)
        for h in names:
            check_name(h, "harmony name")
        if not isinstance(score, InstrumentScore):
            score = InstrumentScore(score)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "scale_name", scale_name)
        object.__setattr__(self, "harmony_names", names)
        object.__setattr__(self, "score", score)


@dataclass(frozen=True)
class Composition:
    """Root of a piece: base frequency, time grid, scales, harmonies, voices."""

    base_frequency_hz: float
    ticks_per_beat: int
    tempo_bpm: float
    length_ticks: int
    scales: Mapping[str, Scale]
    harmonies: Mapping[str, HarmonicSequence]
    instruments: tuple[Instrument, ...]

    def __init__(self, base_frequency_hz: float, ticks_per_beat: int,
                 tempo_bpm: float, length_ticks: int,
                 scales: Mapping[str, Scale] | Iterable[Scale] = (),
                 harmonies: Mapping[str, HarmonicSequence] | Iterable[HarmonicSequence] = (),
                 instruments: Iterable[Instrument] = ()):
        base = float(base_frequency_hz)
        tempo = float(tempo_bpm)
        if not base > 0:
            raise ValueError(f"base frequency must be positive: {base_frequency_hz!r}")
        if not isinstance(ticks_per_beat, int) or ticks_per_beat < 1:
            raise ValueError(f"ticks per beat must be a positive integer: {ticks_per_beat!r}")
        if not tempo > 0:
            raise ValueError(f"tempo must be positive: {tempo_bpm!r}")
        if not isinstance(length_ticks, int) or length_ticks < 1:
            raise ValueError(f"length must be a positive tick count: {length_ticks!r}")
        object.__setattr__(self, "base_frequency_hz", base)
        object.__setattr__(self, "ticks_per_beat", ticks_per_beat)
        object.__setattr__(self, "tempo_bpm", tempo)
        object.__setattr__(self, "length_ticks", length_ticks)
        object.__setattr__(self, "scales", _named(scales, "scale"))
        object.__setattr__(self, "harmonies", _named(harmonies, "harmony"))
        object.__setattr__(self, "instruments", tuple(instruments))

    def seconds(self, ticks: int) -> float:
        """Convert a tick count to seconds under this composition's tempo."""
        return ticks * 60.0 / (self.tempo_bpm * self.ticks_per_beat)

    def instrument(self, name: str) -> Instrument:
        for inst in self.instruments:
            if inst.name == name:
                return inst
        raise KeyError(name)


def _named(items, what: str) -> dict:
    """Normalize a mapping or iterable of named objects to a name-keyed dict."""
    if isinstance(items, Mapping):
        pairs = items.items()
    else:
        pairs = [(obj.name, obj) for obj in items]
    out: dict = {}
    for key, obj in pairs:
        if key != obj.name:
            raise ValueError(f"{what} {obj.name!r} keyed under mismatched name {key!r}")
        if key in out:
            raise ValueError(f"duplicate {what} name: {key!r}")
        out[key] = obj
    return out


@dataclass(frozen=True)
class Violation:
    """One problem found by validation.

    Kinds: ``bad-reference``, ``duplicate-name``, ``range``, ``order``,
    ``overlap``, ``gap``, ``span``, ``level-gap``, ``overflow`` (a
    frequency too large for a float); plus the
    ``boundary-crossing`` warning (a note sustaining across a transposition
    boundary keeps its onset pitch, which may or may not be intended).
    """

    kind: str
    path: str
    message: str
    severity: str = ERROR


def validate_composition(composition: Composition) -> list[Violation]:
    """Check every cross-object rule and report all problems found.

    Violations are data, not exceptions; a composition is playable when the
    report contains no ``severity == ERROR`` entries.  Frequencies beyond
    the float range are looked for once no other error is found.  Pure
    function: validating the same composition twice yields identical reports.
    """
    report: list[Violation] = []
    add = report.append
    length = composition.length_ticks
    spanning_ok: dict[str, bool] = {}

    for harmony in composition.harmonies.values():
        path = f"harmony {harmony.name}"
        scale = composition.scales.get(harmony.scale_name)
        if scale is None:
            add(Violation("bad-reference", path,
                          f"unknown scale {harmony.scale_name!r}"))
        timeline_ok = True
        if not harmony.tones:
            add(Violation("span", path, "harmony has no tones; it must span the composition"))
            spanning_ok[harmony.name] = False
            continue
        for i, tone in enumerate(harmony.tones):
            tpath = f"{path} tone {i}"
            if scale is not None and tone.key_index >= len(scale):
                add(Violation("range", tpath,
                              f"key index {tone.key_index} outside scale "
                              f"{scale.name!r} of {len(scale)} keys"))
            if tone.interval.end > length:
                add(Violation("range", tpath,
                              f"interval [{tone.interval.start}, {tone.interval.end}) "
                              f"exceeds composition length {length}"))
                timeline_ok = False
            if i == 0:
                continue
            prev = harmony.tones[i - 1]
            if tone.interval.start < prev.interval.start:
                add(Violation("order", tpath, "tones are not sorted by start tick"))
                timeline_ok = False
            elif tone.interval.start < prev.interval.end:
                add(Violation("overlap", tpath,
                              f"tone starts at {tone.interval.start} before the previous "
                              f"tone ends at {prev.interval.end}"))
                timeline_ok = False
            elif tone.interval.start > prev.interval.end:
                add(Violation("gap", f"{path} tones {i - 1}..{i}",
                              f"gap between {prev.interval.end} and {tone.interval.start}"))
                timeline_ok = False
        if harmony.tones[0].interval.start != 0:
            add(Violation("span", f"{path} tone 0",
                          f"first tone starts at {harmony.tones[0].interval.start}, not 0"))
            timeline_ok = False
        if harmony.tones[-1].interval.end != length:
            add(Violation("span", f"{path} tone {len(harmony.tones) - 1}",
                          f"last tone ends at {harmony.tones[-1].interval.end}, "
                          f"not at composition length {length}"))
            timeline_ok = False
        spanning_ok[harmony.name] = timeline_ok

    seen_instruments: set[str] = set()
    for inst in composition.instruments:
        path = f"instrument {inst.name}"
        if inst.name in seen_instruments:
            add(Violation("duplicate-name", path, "instrument name already used"))
        seen_instruments.add(inst.name)

        scale = composition.scales.get(inst.scale_name)
        if scale is None:
            add(Violation("bad-reference", path, f"unknown scale {inst.scale_name!r}"))

        bound: list[HarmonicSequence] = []
        for pos, hname in enumerate(inst.harmony_names):
            harmony = composition.harmonies.get(hname)
            if harmony is None:
                add(Violation("bad-reference", f"{path} harmony {hname}",
                              f"unknown harmony {hname!r}"))
                continue
            bound.append(harmony)
            if harmony.level != pos + 1:
                add(Violation("level-gap", f"{path} harmony {hname}",
                              f"expected level {pos + 1} at position {pos}, "
                              f"got level {harmony.level}"))

        # A spanning timeline's starts strictly increase from 0, so the
        # first boundary after the onset is one bisect away.
        timelines = [(h.name, h._starts) for h in bound if spanning_ok.get(h.name)]
        for i, note in enumerate(inst.score.notes):
            onset, end = note.interval.start, note.interval.end
            if scale is not None and note.key_index >= len(scale):
                add(Violation("range", f"{path} note {i}",
                              f"key index {note.key_index} outside scale "
                              f"{scale.name!r} of {len(scale)} keys"))
            if end > length:
                add(Violation("range", f"{path} note {i}",
                              f"interval [{onset}, {end}) "
                              f"exceeds composition length {length}"))
                continue
            for name, starts in timelines:
                j = bisect_right(starts, onset)
                if j < len(starts) and starts[j] < end:
                    add(Violation(
                        "boundary-crossing", f"{path} note {i}",
                        f"note sustains across the {name} boundary at "
                        f"tick {starts[j]}; it keeps its onset pitch",
                        severity=WARNING))

    if not any(v.severity == ERROR for v in report):
        report.extend(_overflows(composition))
    return report


def _fits_float(x: Fraction) -> bool:
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _overflows(composition: Composition) -> list[Violation]:
    """``overflow`` errors for resolved frequencies beyond the float range.

    Needs a composition with no other error.  An instrument is walked only
    when the bound ``base * largest key * product of each bound harmony's
    largest used tone key`` does not fit a float: then every note, and
    every key at the region of largest shift (``resolve --table``), is
    checked exactly.
    """
    from .resolve import _regions  # resolve imports this module

    base = Fraction(composition.base_frequency_hz)
    found: list[Violation] = []
    for inst in composition.instruments:
        keys = composition.scales[inst.scale_name].keys
        bound = base * max(keys)
        for name in inst.harmony_names:
            harmony = composition.harmonies[name]
            hkeys = composition.scales[harmony.scale_name].keys
            bound *= max(hkeys[k] for k in {t.key_index for t in harmony.tones})
        if _fits_float(bound):
            continue
        path = f"instrument {inst.name}"
        starts, shifts = _regions(composition, inst)
        for i, note in enumerate(inst.score.notes):
            shift = shifts[bisect_right(starts, note.interval.start) - 1]
            if not _fits_float(base * keys[note.key_index] * shift):
                found.append(Violation("overflow", f"{path} note {i}",
                                       "resolved frequency is beyond the float range"))
        top = max(s for lo, s in zip(starts, shifts) if lo < composition.length_ticks)
        for k, key in enumerate(keys):
            if not _fits_float(base * key * top):
                found.append(Violation("overflow", f"{path} key {k}",
                                       "frequency table entry is beyond the float range"))
    return found
