"""Frequency resolution: notes to events via cumulative rational products.

Each note's pitch factor is the instrument key at its scale index times the
transposition tone of every bound harmony at the note's onset tick,
multiplied exactly as rationals.  The single float conversion happens at
event emission, so identical inputs always yield bit-identical factors and
frequencies.  A note that sustains across a transposition boundary keeps
the factors sampled at its onset for its whole duration.

Region shifts: an instrument's harmony tone boundaries cut time into
regions over which the product ``m1 * ... * mn`` is one exact shift.
:func:`resolve_composition` and :func:`frequency_table` read it from one
region list per instrument, so resolving a note is a bisect and a multiply.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .model import Composition, Instrument, Note


class ResolutionError(Exception):
    """A note could not be resolved; ``level`` 0 is the instrument scale,
    levels 1..n are the bound harmonies in order."""

    def __init__(self, message: str, *, instrument: str, level: int):
        super().__init__(message)
        self.instrument = instrument
        self.level = level


@dataclass(frozen=True)
class ResolvedEvent:
    """One playable sound: exact pitch factor plus real-time placement."""

    instrument: str
    factor: Fraction
    frequency_hz: float
    start_sec: float
    duration_sec: float
    velocity: int


def _error(instrument: Instrument, level: int, problem: object) -> ResolutionError:
    where = f"instrument {instrument.name!r}" + (f" level {level}" if level else "")
    return ResolutionError(f"{where}: {problem}", instrument=instrument.name, level=level)


def _scale_key(composition: Composition, instrument: Instrument, note: Note) -> Fraction:
    """The instrument key of ``note``: level 0 of its factor."""
    scale = composition.scales.get(instrument.scale_name)
    if scale is None:
        raise _error(instrument, 0, f"unknown scale {instrument.scale_name!r}")
    if note.key_index >= len(scale):
        raise _error(instrument, 0, f"key index {note.key_index} outside scale "
                                    f"{scale.name!r} of {len(scale)} keys")
    return scale.keys[note.key_index]


def _active_tones(composition: Composition, instrument: Instrument,
                  tick: int) -> list[tuple[tuple[Fraction, ...], int]]:
    """(scale keys, key index) of the tone each bound harmony sounds at
    ``tick``, lowest level first.  Raises :class:`ResolutionError` naming
    the first level that has none."""
    active = []
    for level, harmony_name in enumerate(instrument.harmony_names, start=1):
        harmony = composition.harmonies.get(harmony_name)
        if harmony is None:
            raise _error(instrument, level, f"unknown harmony {harmony_name!r}")
        hscale = composition.scales.get(harmony.scale_name)
        if hscale is None:
            raise _error(instrument, level, f"harmony {harmony_name!r} uses unknown "
                                            f"scale {harmony.scale_name!r}")
        try:
            tone = harmony.tone_at(tick)
        except ValueError as exc:
            raise _error(instrument, level, exc) from exc
        if tone.key_index >= len(hscale):
            raise _error(instrument, level, f"tone key index {tone.key_index} outside "
                                            f"scale {hscale.name!r}")
        active.append((hscale.keys, tone.key_index))
    return active


def _regions(composition: Composition,
             instrument: Instrument) -> tuple[list[int], list[Fraction | None]]:
    """Region starts of ``instrument`` (0, the length and every bound tone's
    start and end; the last region never ends) and the exact shift of each,
    memoised by active tone keys.  The shift is None where some level has
    no tone; :func:`_active_tones` at any tick of the region raises why.
    """
    bounds = {0, composition.length_ticks}
    for name in instrument.harmony_names:
        harmony = composition.harmonies.get(name)
        for tone in harmony.tones if harmony else ():
            bounds.update((tone.interval.start, tone.interval.end))
    starts = sorted(bounds)
    by_keys: dict[tuple[int, ...], Fraction] = {}
    shifts: list[Fraction | None] = []
    for tick in starts:
        try:
            active = _active_tones(composition, instrument, tick)
        except ResolutionError:
            shifts.append(None)
            continue
        keys = tuple(k for _, k in active)
        if keys not in by_keys:
            by_keys[keys] = math.prod((ks[k] for ks, k in active), start=Fraction(1))
        shifts.append(by_keys[keys])
    return starts, shifts


def resolve_note(composition: Composition, instrument: Instrument,
                 note: Note) -> ResolvedEvent:
    """Resolve one note of one instrument to an event.

    All level lookups use the note's onset tick.  Raises
    :class:`ResolutionError` naming the failing level for dangling
    references, out-of-scale keys, or an onset no harmony tone covers.
    """
    onset = note.interval.start
    factor = _scale_key(composition, instrument, note)
    for keys, key_index in _active_tones(composition, instrument, onset):
        factor *= keys[key_index]
    return ResolvedEvent(instrument.name, factor,
                         float(Fraction(composition.base_frequency_hz) * factor),
                         composition.seconds(onset),
                         composition.seconds(note.interval.duration), note.velocity)


def resolve_composition(composition: Composition) -> list[ResolvedEvent]:
    """Resolve every note of every instrument into one flat event list.

    Notes are read in their canonical score order, so neither the result
    nor an error's note number depends on input order.  Events are sorted
    by (start, instrument name, frequency, velocity).  Notes with equal
    keys and region shifts share one factor and one float conversion.
    """
    base = Fraction(composition.base_frequency_hz)
    seconds = composition.seconds
    events: list[ResolvedEvent] = []
    for inst in composition.instruments:
        starts, shifts = _regions(composition, inst)
        pitches: dict[tuple[int, Fraction], tuple[Fraction, float]] = {}
        for i, note in enumerate(inst.score.notes):
            onset = note.interval.start
            shift = shifts[bisect_right(starts, onset) - 1]
            pitch = pitches.get((note.key_index, shift))
            if pitch is None:  # first note at this key and shift: check it
                try:
                    factor = _scale_key(composition, inst, note)
                    if shift is None:
                        _active_tones(composition, inst, onset)  # raises
                except ResolutionError as exc:
                    raise ResolutionError(f"note {i} of {exc}", instrument=exc.instrument,
                                          level=exc.level) from exc
                factor *= shift
                pitch = pitches[note.key_index, shift] = (factor, float(base * factor))
            events.append(ResolvedEvent(inst.name, *pitch, seconds(onset),
                                        seconds(note.interval.duration), note.velocity))
    events.sort(key=lambda e: (e.start_sec, e.instrument, e.frequency_hz, e.velocity))
    return events


@dataclass(frozen=True)
class TableRow:
    """Resolved pitch of one scale key inside one harmonic region."""

    key_index: int
    factor: Fraction
    frequency_hz: float


@dataclass(frozen=True)
class TableRegion:
    """Maximal tick range over which every bound harmony tone is constant."""

    start: int
    end: int
    rows: tuple[TableRow, ...]


def frequency_table(composition: Composition, instrument_name: str) -> list[TableRegion]:
    """Tabulate what every key of an instrument sounds like over time.

    Region boundaries are the merged tone boundaries of all harmonies the
    instrument follows; within a region each scale key maps to one exact
    factor and frequency, and regions with equal shifts share their rows.
    Requires a validated composition; raises KeyError for an unknown
    instrument name.
    """
    inst = composition.instrument(instrument_name)
    keys = composition.scales[inst.scale_name].keys
    base = Fraction(composition.base_frequency_hz)
    starts, shifts = _regions(composition, inst)
    rows_of: dict[Fraction, tuple[TableRow, ...]] = {}
    regions: list[TableRegion] = []
    for lo, hi, shift in zip(starts, starts[1:], shifts):
        if lo >= composition.length_ticks:
            break
        if shift is None:
            _active_tones(composition, inst, lo)  # raises
        if shift not in rows_of:
            rows_of[shift] = tuple(TableRow(i, factor, float(base * factor))
                                   for i, factor in enumerate(key * shift for key in keys))
        regions.append(TableRegion(lo, hi, rows_of[shift]))
    return regions
