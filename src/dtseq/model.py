"""Composition data model: tick timelines, notes, harmonies, instruments.

Time is measured in integer ticks and every interval is half-open,
``[start, start + duration)``, so contiguity and overlap checks are exact
integer comparisons.  All types are immutable values after construction,
scores with their notes in canonical order; structural problems that span
objects (dangling names, broken timelines) are reported by
:func:`validate_composition` rather than raised.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .rational import Scale, check_name, value_text

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
            raise ValueError(f"interval start must be a non-negative tick: "
                             f"{value_text(self.start)}")
        if not isinstance(self.duration, int) or self.duration < 1:
            raise ValueError(f"interval duration must be a positive tick count: "
                             f"{value_text(self.duration)}")

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
            raise ValueError(f"key index must be a non-negative integer: "
                             f"{value_text(self.key_index)}")
        if not isinstance(self.velocity, int) or not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity must be in [1, 127]: {value_text(self.velocity)}")


@dataclass(frozen=True)
class TranspositionTone:
    """One (key, interval) entry of a harmonic sequence."""

    key_index: int
    interval: TimeInterval

    def __post_init__(self):
        if not isinstance(self.key_index, int) or self.key_index < 0:
            raise ValueError(f"key index must be a non-negative integer: "
                             f"{value_text(self.key_index)}")


@dataclass(frozen=True)
class InstrumentScore:
    """The note timeline of one instrument.  Overlaps (chords) are allowed.

    Canonical from any iterable of notes: exact duplicates dropped, then
    sorted by (start, key_index, duration, velocity), so equal note sets
    compare equal and every layer numbers the notes alike."""

    notes: tuple[Note, ...] = ()

    def __post_init__(self):
        ordered = sorted(dict.fromkeys(self.notes), key=lambda n: (
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
    instrument score.  ``tones`` may be any iterable.
    """

    name: str
    level: int
    scale_name: str
    tones: tuple[TranspositionTone, ...] = ()

    def __post_init__(self):
        check_name(self.name, "harmony name")
        check_name(self.scale_name, "scale name")
        if not isinstance(self.level, int) or self.level < 1:
            raise ValueError(f"harmony level must be an integer >= 1: {value_text(self.level)}")
        object.__setattr__(self, "tones", tuple(self.tones))

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

    ``harmony_names`` (any iterable) is ordered lowest level first, and
    validation checks its levels form 1..n; ``score`` may be any iterable of notes.
    """

    name: str
    scale_name: str
    harmony_names: tuple[str, ...] = ()
    score: InstrumentScore = ()

    def __post_init__(self):
        check_name(self.name, "instrument name")
        check_name(self.scale_name, "scale name")
        object.__setattr__(self, "harmony_names", tuple(self.harmony_names))
        for h in self.harmony_names:
            check_name(h, "harmony name")
        if not isinstance(self.score, InstrumentScore):
            object.__setattr__(self, "score", InstrumentScore(self.score))


@dataclass(frozen=True)
class Composition:
    """Root of a piece: base frequency, time grid, scales, harmonies, voices.

    ``scales`` and ``harmonies`` take a mapping by name or any iterable of
    named objects, ``instruments`` any iterable."""

    base_frequency_hz: float
    ticks_per_beat: int
    tempo_bpm: float
    length_ticks: int
    scales: Mapping[str, Scale] = ()
    harmonies: Mapping[str, HarmonicSequence] = ()
    instruments: tuple[Instrument, ...] = ()

    def __post_init__(self):
        base = _as_float(self.base_frequency_hz)
        tempo = _as_float(self.tempo_bpm)
        if not base > 0:
            raise ValueError(f"base frequency must be positive: "
                             f"{value_text(self.base_frequency_hz)}")
        if base == math.inf:
            raise ValueError(f"base frequency must be finite: "
                             f"{value_text(self.base_frequency_hz)}")
        if not isinstance(self.ticks_per_beat, int) or self.ticks_per_beat < 1:
            raise ValueError(f"ticks per beat must be a positive integer: "
                             f"{value_text(self.ticks_per_beat)}")
        if not tempo > 0:
            raise ValueError(f"tempo must be positive: {value_text(self.tempo_bpm)}")
        if tempo == math.inf:
            raise ValueError(f"tempo must be finite: {value_text(self.tempo_bpm)}")
        if not isinstance(self.length_ticks, int) or self.length_ticks < 1:
            raise ValueError(f"length must be a positive tick count: "
                             f"{value_text(self.length_ticks)}")
        object.__setattr__(self, "base_frequency_hz", base)
        object.__setattr__(self, "tempo_bpm", tempo)
        object.__setattr__(self, "scales", _named(self.scales, "scale"))
        object.__setattr__(self, "harmonies", _named(self.harmonies, "harmony"))
        object.__setattr__(self, "instruments", tuple(self.instruments))

    def seconds(self, ticks: int) -> float:
        """Convert a tick count to seconds under this composition's tempo."""
        return ticks * 60.0 / (self.tempo_bpm * self.ticks_per_beat)

    def instrument(self, name: str) -> Instrument:
        for inst in self.instruments:
            if inst.name == name:
                return inst
        raise KeyError(name)


def _as_float(value) -> float:
    """``float(value)``, with ±inf for a number beyond the float range
    (an int or Fraction, which ``float`` refuses with OverflowError)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
    frequency, the length in seconds, or ``tempo * ppq``, too large for a
    float), ``underflow`` (a frequency below the normal float range); plus
    the ``boundary-crossing`` warning (a note sustaining across a
    transposition boundary keeps its onset pitch, which may or may not be
    intended).
    """

    kind: str
    path: str
    message: str
    severity: str = ERROR


def validate_composition(composition: Composition) -> list[Violation]:
    """Check every cross-object rule and report all problems found.

    Violations are data, not exceptions; a composition is playable when the
    report contains no ``severity == ERROR`` entries.  Frequencies beyond
    or below the normal float range, and a length in seconds or a
    ``tempo * ppq`` beyond it, are looked for once no other error is
    found.  Pure function: validating the same composition twice yields
    identical reports.
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
        # spanning: starts at 0, each tone where the one before it ends, ends at
        # the length; exactly then the checks below find no timeline error
        spanning_ok[harmony.name] = ([*harmony._starts, length]
                                     == [0, *(tone.interval.end for tone in harmony.tones)])
        if not harmony.tones:
            add(Violation("span", path, "harmony has no tones; it must span the composition"))
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
            if i == 0:
                continue
            prev = harmony.tones[i - 1]
            if tone.interval.start < prev.interval.start:
                add(Violation("order", tpath, "tones are not sorted by start tick"))
            elif tone.interval.start < prev.interval.end:
                add(Violation("overlap", tpath,
                              f"tone starts at {tone.interval.start} before the previous "
                              f"tone ends at {prev.interval.end}"))
            elif tone.interval.start > prev.interval.end:
                add(Violation("gap", f"{path} tones {i - 1}..{i}",
                              f"gap between {prev.interval.end} and {tone.interval.start}"))
        if harmony.tones[0].interval.start != 0:
            add(Violation("span", f"{path} tone 0",
                          f"first tone starts at {harmony.tones[0].interval.start}, not 0"))
        if harmony.tones[-1].interval.end != length:
            add(Violation("span", f"{path} tone {len(harmony.tones) - 1}",
                          f"last tone ends at {harmony.tones[-1].interval.end}, "
                          f"not at composition length {length}"))

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

        # A spanning timeline's starts strictly increase from 0, and the
        # length closes it, so the first boundary after the onset of a note
        # that ends in time is one bisect away.
        timelines = [([*h._starts, length], f"note sustains across the {h.name} boundary at tick ")
                     for h in bound if spanning_ok.get(h.name)]
        size = len(scale) if scale is not None else math.inf  # no range check without one
        for i, note in enumerate(inst.score.notes):
            onset, end = note.interval.start, note.interval.end
            npath = f"{path} note {i}"
            if note.key_index >= size:
                add(Violation("range", npath,
                              f"key index {note.key_index} outside scale "
                              f"{scale.name!r} of {size} keys"))
            if end > length:
                add(Violation("range", npath,
                              f"interval [{onset}, {end}) "
                              f"exceeds composition length {length}"))
                continue
            for starts, crossing in timelines:
                boundary = starts[bisect_right(starts, onset)]
                if boundary < end:
                    add(Violation("boundary-crossing", npath,
                                  f"{crossing}{boundary}; it keeps its onset pitch", WARNING))

    if not any(v.severity == ERROR for v in report):
        report.extend(_float_range(composition))
    return report


def _float_kind(x: Fraction) -> str | None:
    """``overflow`` or ``underflow`` when ``x`` has no normal float, else None."""
    try:
        return "underflow" if float(x) < sys.float_info.min else None
    except OverflowError:
        return "overflow"


_BEYOND = {"overflow": "beyond the float range", "underflow": "below the normal float range"}


def _float_range(composition: Composition) -> list[Violation]:
    """``overflow`` errors for a time grid beyond the float range (the
    length in seconds, or ``tempo * ppq``, which ``seconds`` divides by),
    and ``overflow`` or ``underflow`` errors for resolved frequencies
    beyond or below the normal float range.

    Needs a composition with no other error.  Every note ends within the
    length, so a length whose seconds are a finite float, over a finite
    ``tempo * ppq``, bounds every event's start and duration.  An
    instrument is walked only when one of the bounds ``base * largest key
    * product of each bound harmony's largest used tone key``, and the
    same with the smallest keys, has no normal float: then every note,
    and every key at the regions of largest and smallest shift
    (``resolve --table``), is checked exactly.
    """
    found: list[Violation] = []
    try:
        finite = math.isfinite(composition.seconds(composition.length_ticks))
    except OverflowError:  # ppq or length too large to convert to a float
        finite = False
    if not finite:
        found.append(Violation("overflow", "length",
                               "ticks * 60 / (tempo * ppq) is beyond the float range"))
    elif math.isinf(composition.tempo_bpm * composition.ticks_per_beat):  # every tick is 0 s
        found.append(Violation("overflow", "tempo", "tempo * ppq is beyond the float range"))

    base = Fraction(composition.base_frequency_hz)
    regions = None
    for inst in composition.instruments:
        keys = composition.scales[inst.scale_name].keys
        high, low = base * max(keys), base * min(keys)
        for name in inst.harmony_names:
            harmony = composition.harmonies[name]
            hkeys = composition.scales[harmony.scale_name].keys
            used = [hkeys[k] for k in {t.key_index for t in harmony.tones}]
            high *= max(used)
            low *= min(used)
        if _float_kind(high) is None and _float_kind(low) is None:
            continue
        path = f"instrument {inst.name}"
        if regions is None:
            from .resolve import _Memo  # resolve imports this module
            regions = _Memo(composition).regions
        starts, ids, shifts = regions(inst.harmony_names)
        for i, note in enumerate(inst.score.notes):
            shift = shifts[ids[bisect_right(starts, note.interval.start) - 1]]
            kind = _float_kind(base * keys[note.key_index] * shift)
            if kind:
                found.append(Violation(kind, f"{path} note {i}",
                                       f"resolved frequency is {_BEYOND[kind]}"))
        live = [shifts[i] for lo, i in zip(starts, ids) if lo < composition.length_ticks]
        extremes = (("overflow", max(live)), ("underflow", min(live)))
        for k, key in enumerate(keys):
            for kind, shift in extremes:
                if _float_kind(base * key * shift) == kind:
                    found.append(Violation(kind, f"{path} key {k}",
                                           f"frequency table entry is {_BEYOND[kind]}"))
    return found
