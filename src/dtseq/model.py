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

    Canonical from any iterable of notes: of equal notes only the first
    is kept, told apart by (start, key_index, duration, velocity) without
    hashing a note, and the notes are sorted by that tuple, so equal note
    sets compare equal and every layer numbers the notes alike."""

    notes: tuple[Note, ...] = ()

    def __post_init__(self):
        by_key: dict[tuple[int, int, int, int], Note] = {}
        for note in self.notes:
            span = note.interval
            by_key.setdefault((span.start, note.key_index, span.duration, note.velocity), note)
        object.__setattr__(self, "notes", tuple(map(by_key.__getitem__, sorted(by_key))))

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


@dataclass(frozen=True, slots=True)  # the validator keeps its last report: no dict each
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


# The note-loop findings of the most recent validate_composition call, by
# instrument name: (everything that loop read besides the notes, the notes,
# the range and boundary-crossing violations it found, in order, and
# how many of them are warnings).  Each call fills a new dict and only
# then puts it here, so a call running in another thread reads a finished
# one.
_last_findings: dict[str, tuple[tuple, tuple[Note, ...], list[Violation], int]] = {}


def validate_composition(composition: Composition) -> list[Violation]:
    """Check every cross-object rule and report all problems found.

    Violations are data, not exceptions; a composition is playable when the
    report contains no ``severity == ERROR`` entries.  Frequencies beyond
    or below the normal float range, and a length in seconds or a
    ``tempo * ppq`` beyond it, are looked for once no other error is
    found.  Pure function: validating the same composition twice yields
    identical reports.

    The per-note findings of an instrument whose notes, scale name and
    size, length and bound harmony timelines equal those of the previous
    call are that call's findings, so a re-validation after an edit of
    one transposition tone's key walks no note again; the report equals a
    cold call's.  Only the previous call's findings are kept, and sharing
    them is safe because a Violation is immutable.  Every number in a
    message is written by :func:`value_text`, so a kept finding reads the
    same under any ``sys.set_int_max_str_digits`` limit.
    """
    global _last_findings
    findings: dict[str, tuple] = {}
    report: list[Violation] = []
    add = report.append
    length = composition.length_ticks
    length_text = value_text(length)
    # each spanning harmony's timeline and crossing message: it starts at 0, each tone
    # where the one before ends, and it ends at the length; exactly then no timeline error
    spanning: dict[str, tuple[list[int], str]] = {}

    for harmony in composition.harmonies.values():
        path = f"harmony {harmony.name}"
        scale = composition.scales.get(harmony.scale_name)
        if scale is None:
            add(Violation("bad-reference", path, f"unknown scale {harmony.scale_name!r}"))
        starts = harmony._starts
        ends = [tone.interval.end for tone in harmony.tones]
        if (timeline := [*starts, length]) == [0, *ends]:
            spanning[harmony.name] = (
                timeline, f"note sustains across the {harmony.name} boundary at tick ")
        if not ends:
            add(Violation("span", path, "harmony has no tones; it must span the composition"))
            continue
        size = len(scale) if scale is not None else math.inf  # no range check without one
        for i, (tone, start, end) in enumerate(zip(harmony.tones, starts, ends)):
            if tone.key_index >= size:
                add(Violation("range", f"{path} tone {i}",
                              f"key index {value_text(tone.key_index)} outside scale "
                              f"{scale.name!r} of {size} keys"))
            if end > length:
                add(Violation("range", f"{path} tone {i}",
                              f"interval [{value_text(start)}, {value_text(end)}) "
                              f"exceeds composition length {length_text}"))
            if i == 0:
                continue
            if start < starts[i - 1]:
                add(Violation("order", f"{path} tone {i}", "tones are not sorted by start tick"))
            elif start < ends[i - 1]:
                add(Violation("overlap", f"{path} tone {i}",
                              f"tone starts at {value_text(start)} before the "
                              f"previous tone ends at {value_text(ends[i - 1])}"))
            elif start > ends[i - 1]:
                add(Violation("gap", f"{path} tones {i - 1}..{i}",
                              f"gap between {value_text(ends[i - 1])} and {value_text(start)}"))
        if starts[0] != 0:
            add(Violation("span", f"{path} tone 0",
                          f"first tone starts at {value_text(starts[0])}, not 0"))
        if ends[-1] != length:
            add(Violation("span", f"{path} tone {len(ends) - 1}",
                          f"last tone ends at {value_text(ends[-1])}, "
                          f"not at composition length {length_text}"))

    crossings = 0  # the report's warnings; every other finding is an error
    seen_instruments: set[str] = set()
    for inst in composition.instruments:
        path = f"instrument {inst.name}"
        if inst.name in seen_instruments:
            add(Violation("duplicate-name", path, "instrument name already used"))
        seen_instruments.add(inst.name)

        scale = composition.scales.get(inst.scale_name)
        if scale is None:
            add(Violation("bad-reference", path, f"unknown scale {inst.scale_name!r}"))

        for pos, hname in enumerate(inst.harmony_names):
            harmony = composition.harmonies.get(hname)
            if harmony is None:
                add(Violation("bad-reference", f"{path} harmony {hname}",
                              f"unknown harmony {hname!r}"))
                continue
            if harmony.level != pos + 1:
                add(Violation("level-gap", f"{path} harmony {hname}",
                              f"expected level {pos + 1} at position {pos}, "
                              f"got level {value_text(harmony.level)}"))

        # A spanning timeline's starts strictly increase from 0, and the
        # length closes it, so the first boundary after the onset of a note
        # that ends in time is one bisect away.
        timelines = [spanning[h] for h in inst.harmony_names if h in spanning]
        size = len(scale) if scale is not None else math.inf  # no range check without one
        key, notes = (inst.scale_name, size, length, timelines), inst.score.notes
        kept = _last_findings.get(inst.name)
        if kept is not None and kept[0] == key and kept[1] == notes:
            report += kept[2]
            findings[inst.name] = kept
            crossings += kept[3]
            continue
        first = len(report)
        for i, note in enumerate(notes):
            onset, end = note.interval.start, note.interval.end
            npath = None  # built at the note's first finding
            if note.key_index >= size:
                npath = f"{path} note {i}"
                add(Violation("range", npath,
                              f"key index {value_text(note.key_index)} outside scale "
                              f"{scale.name!r} of {size} keys"))
            if end > length:
                add(Violation("range", npath or f"{path} note {i}",
                              f"interval [{value_text(onset)}, {value_text(end)}) "
                              f"exceeds composition length {length_text}"))
                continue
            for timeline, crossing in timelines:
                boundary = timeline[bisect_right(timeline, onset)]
                if boundary < end:
                    npath = npath or f"{path} note {i}"
                    add(Violation("boundary-crossing", npath,
                                  f"{crossing}{value_text(boundary)}; it keeps its onset pitch",
                                  WARNING))
        found = report[first:]
        warned = sum(v.severity == WARNING for v in found)
        findings[inst.name] = (key, notes, found, warned)
        crossings += warned

    if len(report) == crossings:  # no error so far
        report.extend(_float_range(composition))
    _last_findings = findings
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
    instrument is walked only when ``base`` times the largest keys of its
    scale and of each bound harmony's scale, or times the smallest ones,
    has no normal float: then every note, and every key at the regions of
    largest and smallest shift (``resolve --table``), is checked exactly.
    Every finding comes from that walk; a key no tone uses can start one.
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
    largest = {name: max(scale.keys) for name, scale in composition.scales.items()}
    smallest = {name: min(scale.keys) for name, scale in composition.scales.items()}
    for inst in composition.instruments:
        names = [inst.scale_name, *(composition.harmonies[h].scale_name
                                    for h in inst.harmony_names)]
        high = base * math.prod(largest[name] for name in names)
        low = base * math.prod(smallest[name] for name in names)
        if _float_kind(high) is None and _float_kind(low) is None:
            continue
        keys = composition.scales[inst.scale_name].keys
        path = f"instrument {inst.name}"
        from .resolve import _memo  # resolve imports this module
        with _memo(composition) as memo:  # held while the sweep's lists are read
            starts, ids, shifts = memo.regions(inst.harmony_names)
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
