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
list per distinct binding, so resolving a note is a bisect and a
multiply.  Building that list costs one pass over the levels per region
start, and one exact product per new tuple of active keys.  Instruments
with the same scale and binding also share each exact pitch, each
region's table rows and their text, all kept by shift id.

Reuse: one memo keeps that work, and the events of the last
:func:`resolve_composition` call that returned, for the composition seen
last.  Each call holds a lock while it reads and changes the memo in
place, so calls run one at a time; a call on a new composition first
drops what no longer holds (see :meth:`_Memo.see`).  A binding's sweep
keeps its shift ids while its scales' keys are equal, and so the results
kept by them, and after an edit of tone keys it walks only the regions
of the tones that are new objects.  Every result equals a cold call's;
compositions, events and rows are immutable, so sharing them is safe.

Listings: this module owns the two texts ``dtseq resolve`` prints,
:func:`export_events` and :func:`export_table`; each is built with one
join, and the command writes it unchanged.  A composition that fails
validation has no listing: the command exits 1 (see :mod:`dtseq.cli` for
every exit code).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from threading import Lock
from typing import Iterable, Iterator

from .model import Composition, Instrument, Note, TimeInterval
from .rational import ratio_text


class ResolutionError(Exception):
    """A note could not be resolved; ``level`` 0 is the instrument scale,
    levels 1..n are the bound harmonies in order."""

    def __init__(self, message: str, *, instrument: str, level: int):
        super().__init__(message)
        self.instrument = instrument
        self.level = level


@dataclass(frozen=True, slots=True)  # the resolver keeps its last events: no dict each
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


def _frequency(instrument: Instrument, base: Fraction, factor: Fraction) -> float:
    """``float(base * factor)`` without the reduced product: int true
    division rounds a quotient correctly, so the unreduced one gives the
    same float, and a :class:`ResolutionError` where ``float`` raises
    OverflowError."""
    try:
        return base.numerator * factor.numerator / (base.denominator * factor.denominator)
    except OverflowError:
        raise _error(instrument, 0, "resolved frequency is beyond the float range") from None


class _Sweep:
    """The state of one binding's :func:`_regions` sweep, from which the
    next one starts: ``length``, ``levels`` (each bound level's tone
    starts, tones and scale keys; None before the first sweep),
    ``starts``, ``ids`` and ``shifts`` (what it returned), ``index_of`` and
    ``id_of`` (the shift id of each tuple of active key indices and of each
    shift), ``results`` (a memo of each kind of result under each (kind,
    scale name), by shift id, cleared with the two maps), and ``stale``:
    whether it was swept on an earlier composition than the memo's."""

    levels, stale = None, True


def _regions(composition: Composition, harmony_names: tuple[str, ...], sweep: _Sweep | None = None
             ) -> tuple[list[int], list[int | None], list[Fraction]]:
    """Region starts of the binding ``harmony_names`` (0, the length and
    every bound tone's start and end; the last region never ends), each
    region's index into the distinct exact shifts, and those shifts.  The
    index is None where some level has no tone; :func:`resolve_note` on a
    note with its onset anywhere in the region raises why.

    Each region start walked costs one pass over the levels, which yields
    the tuple of active key indices; only a tuple not seen before costs an
    exact product, one Fraction from the product of its keys' numerators
    and that of their denominators.  ``sweep``, the state of the sweep of
    an earlier composition, is updated to this one's.  It keeps its maps,
    and so its shift ids and its results, while every level's scale keys
    are equal and the key-tuple map stays within two tuples per region
    start.  When the length and every tone's interval are equal too, it
    walks again only the region starts inside tones that are not the very
    objects it read.
    """
    sweep = sweep or _Sweep()
    length, old = composition.length_ticks, sweep.levels
    levels = []  # (tone starts, tones, scale keys) of each bound level
    for name in harmony_names:
        harmony = composition.harmonies.get(name)
        hscale = composition.scales.get(harmony.scale_name) if harmony else None
        # an unknown harmony sounds no tone, and one with an unknown scale no key of it
        levels.append((harmony._starts, harmony.tones, hscale.keys if hscale else ())
                      if harmony else ((), (), ()))
    same_keys = old is not None and [lv[2] for lv in levels] == [lv[2] for lv in old]
    walk = None  # the positions of the region starts to walk
    if same_keys and length == sweep.length and all(lv[0] == o[0] for lv, o in zip(levels, old)):
        changed = [(tone, was) for lv, o in zip(levels, old)
                   for tone, was in zip(lv[1], o[1]) if tone is not was]
        if all(tone.interval == was.interval for tone, was in changed):  # the same regions
            starts = sweep.starts
            walk = sorted({p for tone, _ in changed for p in range(
                bisect_left(starts, tone.interval.start), bisect_left(starts, tone.interval.end))})
    if walk is None:
        bounds = {0, length}
        for tone_starts, tones, _ in levels:
            bounds.update(tone_starts, [tone.interval.end for tone in tones])
        sweep.starts = sorted(bounds)
        sweep.ids = [None] * len(sweep.starts)
        walk = range(len(sweep.starts))
    starts, ids = sweep.starts, sweep.ids
    if not (same_keys and len(sweep.index_of) + len(walk) <= 2 * len(starts)):
        sweep.index_of, sweep.id_of, sweep.results, walk = {}, {}, {}, range(len(starts))
    index_of, id_of = sweep.index_of, sweep.id_of
    for p in walk:
        tick = starts[p]
        active = []  # key index of each level's tone at tick
        for tone_starts, tones, scale_keys in levels:  # as HarmonicSequence.tone_at
            i = bisect_right(tone_starts, tick) - 1
            if i < 0 or not tones[i].interval.contains(tick) or tones[i].key_index >= len(scale_keys):
                ids[p] = None
                break
            active.append(tones[i].key_index)
        else:
            keys = tuple(active)
            if keys not in index_of:
                factors = [level_keys[k] for (_, _, level_keys), k in zip(levels, keys)]
                shift = Fraction(prod(f.numerator for f in factors),
                                 prod(f.denominator for f in factors))
                index_of[keys] = id_of.setdefault(shift, len(id_of))
            ids[p] = index_of[keys]
    sweep.length, sweep.levels, sweep.shifts = length, levels, list(id_of)
    return starts, ids, sweep.shifts


class _Memo:
    """What the resolver keeps of the composition it saw last, changed in
    place only while ``_lock`` is held: ``composition``, its ``base``, the
    :class:`_Sweep` of each binding, and ``events``, by instrument name the
    notes and events of the last :func:`resolve_composition` that
    returned."""

    composition = base = None

    def __init__(self):
        self.sweeps: dict[tuple[str, ...], _Sweep] = {}
        self.events: dict[str, tuple] = {}

    def see(self, new: Composition) -> None:
        """Take ``new``, a new object, for the composition seen last: keep
        the events only under equal tempo and ppq, and the sweeps only of
        bindings it has, each stale and with its results only under an
        equal base and equal scales."""
        was, self.composition = self.composition or new, new
        base, self.base = self.base, Fraction(new.base_frequency_hz)
        if (was.tempo_bpm, was.ticks_per_beat) != (new.tempo_bpm, new.ticks_per_beat):
            self.events = {}
        keep = base == self.base and was.scales == new.scales
        bindings = {inst.harmony_names for inst in new.instruments}
        self.sweeps = {names: sweep for names, sweep in self.sweeps.items() if names in bindings}
        for sweep in self.sweeps.values():
            sweep.stale, sweep.results = True, sweep.results if keep else {}

    def regions(self, harmony_names: tuple[str, ...]
                ) -> tuple[list[int], list[int | None], list[Fraction]]:
        sweep = self.sweeps.pop(harmony_names, None) or _Sweep()
        if sweep.stale:
            _regions(self.composition, harmony_names, sweep)
            sweep.stale = False
        self.sweeps[harmony_names] = sweep  # only now: a sweep that raises is not kept
        return sweep.starts, sweep.ids, sweep.shifts

    def shared(self, instrument: Instrument, kind: str) -> dict:
        """The memo of ``kind`` for ``instrument``'s scale, kept in its
        binding's sweep by shift id (pitches by key and shift id)."""
        self.regions(instrument.harmony_names)
        results = self.sweeps[instrument.harmony_names].results
        return results.setdefault((kind, instrument.scale_name), {})


_lock = Lock()
_the_memo = _Memo()


@contextmanager
def _memo(composition: Composition) -> Iterator[_Memo]:
    """Hold ``_lock`` and give the memo, taken for ``composition`` first
    when that is a new object."""
    with _lock:
        if _the_memo.composition is not composition:
            _the_memo.see(composition)
        yield _the_memo


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
                         _frequency(instrument, Fraction(composition.base_frequency_hz), factor),
                         composition.seconds(onset),
                         composition.seconds(note.interval.duration), note.velocity)


def resolve_composition(composition: Composition) -> list[ResolvedEvent]:
    """Resolve every note of every instrument into one flat event list.

    Notes are read in their canonical score order, so neither the result
    nor an error's note number depends on input order.  Events are sorted
    by (start, instrument name, frequency, velocity).  Notes with equal
    keys and region shifts share one factor and one float conversion,
    across instruments with the same scale and binding too.

    A kept event is reused at its place in the instrument of its name when
    that is the very note object it was built from and the note's pitch the
    very tuple it took; every other note is resolved, and may raise, as in
    a cold call.  A call that raises keeps no events.
    """
    with _memo(composition) as memo:
        base, seconds, last, memo.events = memo.base, composition.seconds, memo.events, {}
        per_instrument: dict[str, tuple] = {}
        events: list[ResolvedEvent] = []
        for inst in composition.instruments:
            scale = composition.scales.get(inst.scale_name)
            keys = scale.keys if scale else ()
            starts, ids, shifts = memo.regions(inst.harmony_names)
            was_notes, was = last.get(inst.name, ((), ()))
            notes = inst.score.notes
            pitches = memo.shared(inst, "pitches")  # (factor, frequency) of (key, shift id)
            first = len(events)
            for i, note in enumerate(notes):
                onset, key = note.interval.start, note.key_index
                sid = ids[bisect_right(starts, onset) - 1]
                pitch = pitches.get((key, sid))
                if pitch is None:  # first note at this key and shift: check it
                    try:
                        if sid is None or key >= len(keys):
                            resolve_note(composition, inst, note)  # raises
                        factor = keys[key] * shifts[sid]
                        pitch = pitches[key, sid] = (factor, _frequency(inst, base, factor))
                    except ResolutionError as exc:
                        raise ResolutionError(f"note {i} of {exc}", instrument=exc.instrument,
                                              level=exc.level) from exc
                if i < len(was_notes) and was_notes[i] is note and was[i].factor is pitch[0]:
                    events.append(was[i])
                else:
                    events.append(ResolvedEvent(inst.name, *pitch, seconds(onset),
                                                seconds(note.interval.duration), note.velocity))
            per_instrument[inst.name] = (notes, tuple(events[first:]))
        memo.events = per_instrument
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
            factors = [key * shifts[sid] for key in scale.keys]
            rows = rows_of[sid] = tuple(TableRow(i, factor, _frequency(inst, memo.base, factor))
                                        for i, factor in enumerate(factors))
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
    with _memo(composition) as memo:
        return [TableRegion(lo, hi, rows) for lo, hi, _, rows in _table(memo, inst)]


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
    with _memo(composition) as memo:
        lines = ["instrument\tticks\tkey\tfactor\tfrequency_hz"]
        for inst in composition.instruments:
            texts = memo.shared(inst, "texts")  # shift id -> its rows after the ticks
            for lo, hi, sid, rows in _table(memo, inst):
                block = texts.get(sid)
                if block is None:
                    block = texts[sid] = tuple(f"\t{row.key_index}\t{ratio_text(row.factor)}\t"
                                               f"{row.frequency_hz:.6g}" for row in rows)
                ticks = f"{inst.name}\t[{lo},{hi})"
                lines += [ticks + row for row in block]
    return "\n".join(lines) + "\n"
