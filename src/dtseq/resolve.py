"""Frequency resolution: notes to events via cumulative rational products.

Each note's pitch factor is the instrument key at its scale index times the
transposition tone of every bound harmony at the note's onset tick,
multiplied exactly as rationals.  The single float conversion happens at
event emission, so identical inputs always yield bit-identical factors and
frequencies.  A note that sustains across a transposition boundary keeps
the factors sampled at its onset for its whole duration.

Region shifts: the tone boundaries of a binding, the harmonies an
instrument follows, cut time into regions over which the product
``m1 * ... * mn`` is one exact shift.  :func:`resolve_composition`,
:func:`frequency_table` and :func:`export_table` read it from one region
list per distinct binding in the call, so resolving a note is a bisect
and a multiply.  Building that list costs one pass over the levels per
region start, and one exact product per new tuple of active keys.
Instruments with the same scale and binding also share each exact
pitch, each region's table rows and their text, computed once per call;
nothing is kept between calls.

Listings: this module owns the two texts ``dtseq resolve`` prints,
:func:`export_events` and :func:`export_table`; each is built with one
join, and the command writes it unchanged.  A composition that fails
validation has no listing: the command exits 1 (see :mod:`dtseq.cli` for
every exit code).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable

from .model import Composition, Instrument, Note, TimeInterval
from .rational import ratio_text


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


def _hz(base: Fraction, factor: Fraction) -> float:
    """``float(base * factor)`` without the reduced product: int true
    division rounds a quotient correctly, so the unreduced one gives the
    same float (or the same OverflowError)."""
    return base.numerator * factor.numerator / (base.denominator * factor.denominator)


def _regions(composition: Composition, harmony_names: tuple[str, ...]
             ) -> tuple[list[int], list[int | None], list[Fraction]]:
    """Region starts of the binding ``harmony_names`` (0, the length and
    every bound tone's start and end; the last region never ends), each
    region's index into the distinct exact shifts, and those shifts.  The
    index is None where some level has no tone; :func:`resolve_note` on a
    note with its onset anywhere in the region raises why.

    Each bound level's tone starts, tones and scale keys are looked up
    once.  Each region start costs one pass over the levels, which yields
    the tuple of active key indices; only a tuple not seen before costs an
    exact product, one Fraction from the product of its keys' numerators
    and that of their denominators.
    """
    bounds = {0, composition.length_ticks}
    levels = []  # (tone starts, tones, scale keys) of each bound level
    for name in harmony_names:
        harmony = composition.harmonies.get(name)
        hscale = composition.scales.get(harmony.scale_name) if harmony else None
        if harmony:
            bounds.update(harmony._starts, [tone.interval.end for tone in harmony.tones])
        # a level whose harmony or scale is unknown sounds no tone anywhere
        levels.append(([], (), ()) if hscale is None
                      else (harmony._starts, harmony.tones, hscale.keys))
    starts = sorted(bounds)
    index_of: dict[tuple[int, ...], int] = {}  # active tone keys -> shift index
    shifts: dict[Fraction, int] = {}           # distinct shift -> its index
    ids: list[int | None] = []
    for tick in starts:
        active = []  # key index of each level's tone at tick
        for tone_starts, tones, scale_keys in levels:  # as HarmonicSequence.tone_at
            i = bisect_right(tone_starts, tick) - 1
            if i < 0 or not tones[i].interval.contains(tick) or tones[i].key_index >= len(scale_keys):
                ids.append(None)
                break
            active.append(tones[i].key_index)
        else:
            keys = tuple(active)
            if keys not in index_of:
                factors = [level_keys[k] for (_, _, level_keys), k in zip(levels, keys)]
                shift = Fraction(prod(f.numerator for f in factors),
                                 prod(f.denominator for f in factors))
                index_of[keys] = shifts.setdefault(shift, len(shifts))
            ids.append(index_of[keys])
    return starts, ids, list(shifts)


class _Memo:
    """One call's work by binding, shared by every instrument that has
    it: the :func:`_regions` triple of each tuple of harmony names, and
    under each (scale name, harmony names) a memo of each kind of result
    built from those regions.  Each call builds its own, so nothing
    outlives it."""

    def __init__(self, composition: Composition):
        self.composition = composition
        self.base = Fraction(composition.base_frequency_hz)
        self._regions: dict[tuple[str, ...], tuple] = {}
        self._shared: dict[tuple, dict] = {}

    def regions(self, harmony_names: tuple[str, ...]
                ) -> tuple[list[int], list[int | None], list[Fraction]]:
        if harmony_names not in self._regions:
            self._regions[harmony_names] = _regions(self.composition, harmony_names)
        return self._regions[harmony_names]

    def shared(self, instrument: Instrument, kind: str) -> dict:
        """The memo of ``kind`` for ``instrument``'s scale and binding."""
        return self._shared.setdefault((kind, instrument.scale_name,
                                        instrument.harmony_names), {})


def resolve_note(composition: Composition, instrument: Instrument,
                 note: Note) -> ResolvedEvent:
    """Resolve one note of one instrument to an event.

    The one walk over a note's levels: the instrument key, then the tone
    each bound harmony sounds at the note's onset tick.  Raises
    :class:`ResolutionError` naming the failing level for dangling
    references, out-of-scale keys, or an onset no harmony tone covers;
    the memoised paths raise their errors by calling it.
    """
    onset = note.interval.start
    scale = composition.scales.get(instrument.scale_name)
    if scale is None:
        raise _error(instrument, 0, f"unknown scale {instrument.scale_name!r}")
    if note.key_index >= len(scale):
        raise _error(instrument, 0, f"key index {note.key_index} outside scale "
                                    f"{scale.name!r} of {len(scale)} keys")
    factor = scale.keys[note.key_index]
    for level, harmony_name in enumerate(instrument.harmony_names, start=1):
        harmony = composition.harmonies.get(harmony_name)
        if harmony is None:
            raise _error(instrument, level, f"unknown harmony {harmony_name!r}")
        hscale = composition.scales.get(harmony.scale_name)
        if hscale is None:
            raise _error(instrument, level, f"harmony {harmony_name!r} uses unknown "
                                            f"scale {harmony.scale_name!r}")
        try:
            tone = harmony.tone_at(onset)
        except ValueError as exc:
            raise _error(instrument, level, exc) from exc
        if tone.key_index >= len(hscale):
            raise _error(instrument, level, f"tone key index {tone.key_index} outside "
                                            f"scale {hscale.name!r}")
        factor *= hscale.keys[tone.key_index]
    return ResolvedEvent(instrument.name, factor,
                         _hz(Fraction(composition.base_frequency_hz), factor),
                         composition.seconds(onset),
                         composition.seconds(note.interval.duration), note.velocity)


def resolve_composition(composition: Composition) -> list[ResolvedEvent]:
    """Resolve every note of every instrument into one flat event list.

    Notes are read in their canonical score order, so neither the result
    nor an error's note number depends on input order.  Events are sorted
    by (start, instrument name, frequency, velocity).  Notes with equal
    keys and region shifts share one factor and one float conversion,
    across instruments with the same scale and binding too.
    """
    memo = _Memo(composition)
    base, seconds = memo.base, composition.seconds
    events: list[ResolvedEvent] = []
    for inst in composition.instruments:
        scale = composition.scales.get(inst.scale_name)
        keys = scale.keys if scale else ()
        starts, ids, shifts = memo.regions(inst.harmony_names)
        # (key index, shift id) -> (factor, frequency); an entry is valid
        # for every instrument with this scale and binding
        pitches = memo.shared(inst, "pitches")
        for i, note in enumerate(inst.score.notes):
            onset = note.interval.start
            sid = ids[bisect_right(starts, onset) - 1]
            pitch = pitches.get((note.key_index, sid))
            if pitch is None:  # first note at this key and shift: check it
                if sid is None or note.key_index >= len(keys):
                    try:
                        resolve_note(composition, inst, note)  # raises
                    except ResolutionError as exc:
                        raise ResolutionError(f"note {i} of {exc}", instrument=exc.instrument,
                                              level=exc.level) from exc
                factor = keys[note.key_index] * shifts[sid]
                pitch = pitches[note.key_index, sid] = (factor, _hz(base, factor))
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


def _table(memo: _Memo, inst: Instrument
           ) -> list[tuple[int, int, int, tuple[TableRow, ...]]]:
    """(start, end, shift id, rows) of each region of ``inst`` that starts
    before the length; regions with equal shifts, of any instrument with
    the same scale and binding, share their rows."""
    composition = memo.composition
    scale = composition.scales.get(inst.scale_name)
    starts, ids, shifts = memo.regions(inst.harmony_names)
    rows_of = memo.shared(inst, "rows")
    table = []
    for lo, hi, sid in zip(starts, starts[1:], ids):
        if lo >= composition.length_ticks:
            break
        if sid is None or scale is None:
            resolve_note(composition, inst, Note(0, TimeInterval(lo, 1)))  # raises
        rows = rows_of.get(sid)
        if rows is None:
            shift = shifts[sid]
            rows = rows_of[sid] = tuple(TableRow(i, factor, _hz(memo.base, factor)) for i, factor
                                        in enumerate(key * shift for key in scale.keys))
        table.append((lo, hi, sid, rows))
    return table


def frequency_table(composition: Composition, instrument_name: str) -> list[TableRegion]:
    """Tabulate what every key of an instrument sounds like over time.

    Region boundaries are the merged tone boundaries of all harmonies the
    instrument follows; within a region each scale key maps to one exact
    factor and frequency, and regions with equal shifts share their rows.
    A composition that fails validation raises :class:`ResolutionError`
    as :func:`resolve_note` does; KeyError is raised only for an unknown
    instrument name.
    """
    inst = composition.instrument(instrument_name)
    return [TableRegion(lo, hi, rows) for lo, hi, _, rows in _table(_Memo(composition), inst)]


def export_events(events: Iterable[ResolvedEvent]) -> str:
    """Tab-separated event listing, one line per event after a header.

    Factors print reduced as ``num/den``; the float columns use 6
    significant digits.  Events are listed in the order given.
    """
    events = list(events)
    # Each distinct factor is written once: a listing's events share few.
    keys = [ev.factor.as_integer_ratio() for ev in events]
    texts = {key: ratio_text(ev.factor) for key, ev in dict(zip(keys, events)).items()}
    return "\n".join(["instrument\tfactor\tfrequency_hz\tstart_sec\tduration_sec\tvelocity"] + [
        f"{ev.instrument}\t{texts[key]}\t"
        f"{ev.frequency_hz:.6g}\t{ev.start_sec:.6g}\t{ev.duration_sec:.6g}\t{ev.velocity}"
        for ev, key in zip(events, keys)]) + "\n"


def export_table(composition: Composition) -> str:
    """Tab-separated :func:`frequency_table` of every instrument, one line
    per key per region after a header; ticks print as ``[start,end)`` and
    factors and frequencies as in :func:`export_events`."""
    memo = _Memo(composition)
    lines = ["instrument\tticks\tkey\tfactor\tfrequency_hz"]
    for inst in composition.instruments:
        texts = memo.shared(inst, "texts")  # shift id -> its rows after the ticks
        for lo, hi, sid, rows in _table(memo, inst):
            block = texts.get(sid)
            if block is None:
                block = texts[sid] = [f"\t{row.key_index}\t{ratio_text(row.factor)}\t"
                                      f"{row.frequency_hz:.6g}" for row in rows]
            ticks = f"{inst.name}\t[{lo},{hi})"
            lines += [ticks + row for row in block]
    return "\n".join(lines) + "\n"
