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

Reuse: one memo keeps that work, the events of the last
:func:`resolve_composition` call that returned with their sort keys and
their order, and the regions of the last :func:`frequency_table` of each
instrument, for the composition seen last.  Each call holds a lock while
it reads and changes the memo in place, so calls run one at a time.  A
call on a new composition keeps the memo whole when the base, tempo, ppq
and scales equal the last one's, and else starts it empty (see
:meth:`_Memo.see`):
every pitch and event depends on them, and a tone-key edit leaves them
as they were.  A kept binding's sweep is done again on the new
composition; it keeps its shift ids, and so the results kept by them,
and walks only the regions of the tones that are new objects.  An
instrument with the very notes of the kept events, under the same pitch
memo and region starts, is resolved again only in the regions whose
shift id changed; so after a parse that hands back each unchanged block
and scale (see :mod:`dtseq.scorefile`), an edit of one tone re-resolves
the notes under that tone alone, and when those events still sort
between their neighbours in the kept order, that order is kept and
nothing is sorted.  A table region with the kept start, end and very
rows is the kept region.  Every result equals a cold call's;
compositions, events, regions and rows are immutable, so sharing them is
safe.

Listings: this module owns the two texts ``dtseq resolve`` prints,
:func:`export_events` and :func:`export_table`; each is built with one
join, and the command writes it unchanged.  A composition that fails
validation has no listing: the command exits 1 (see :mod:`dtseq.cli` for
every exit code).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import inf, prod
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
    scale name), by shift id, cleared with the two maps), and ``seen``:
    the memo's ``seen`` for the composition it was last swept on, a count
    rather than the object, so that a sweep no later call has read again
    does not keep an older composition alive."""

    levels, seen = None, 0


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
        changed = [(tone, was) for lv, o in zip(levels, old) if lv[1] is not o[1]
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
    place only while ``_lock`` is held: ``composition``, ``seen`` (how many
    compositions it has seen), its ``base``, the :class:`_Sweep` of each
    binding; ``events``, by instrument name what the last
    :func:`resolve_composition` that returned read and made: the notes,
    their events and each event's sort key, the pitch memo, the region
    starts and a copy of the region ids, and each note's onset; ``order``,
    dropped with ``events``, the order in which that call returned its
    events (see :func:`_reordered`); and ``tables``, by instrument name
    the regions the last :func:`frequency_table` of it that returned
    gave."""

    composition, base, seen, order = None, None, 0, None

    def __init__(self):
        self.sweeps: dict[tuple[str, ...], _Sweep] = {}
        self.events: dict[str, tuple] = {}
        self.tables: dict[str, list[TableRegion]] = {}

    def see(self, new: Composition) -> None:
        """Take ``new``, a new object, for the composition seen last.  Under
        the last one's base, tempo, ppq and scales the memo is kept whole,
        but for the sweeps of bindings and the tables of instruments ``new``
        does not have; else it starts empty.  Either way each sweep is done
        again before it is read."""
        was, self.composition, self.seen = self.composition or new, new, self.seen + 1
        self.base = Fraction(new.base_frequency_hz)
        if (was.base_frequency_hz, was.tempo_bpm, was.ticks_per_beat, was.scales) != (
                new.base_frequency_hz, new.tempo_bpm, new.ticks_per_beat, new.scales):
            self.sweeps, self.events, self.tables, self.order = {}, {}, {}, None
        bindings = {inst.harmony_names for inst in new.instruments}
        self.sweeps = {names: sweep for names, sweep in self.sweeps.items() if names in bindings}
        self.tables = {i.name: self.tables[i.name] for i in new.instruments
                       if i.name in self.tables}

    def regions(self, harmony_names: tuple[str, ...]
                ) -> tuple[list[int], list[int | None], list[Fraction]]:
        sweep = self.sweeps.pop(harmony_names, None) or _Sweep()
        if sweep.seen != self.seen:
            _regions(self.composition, harmony_names, sweep)
            sweep.seen = self.seen
        self.sweeps[harmony_names] = sweep  # only now: a sweep that raises is not kept
        return sweep.starts, sweep.ids, sweep.shifts

    def shared(self, instrument: Instrument, kind: str) -> dict:
        """The memo of ``kind`` for ``instrument``'s scale, by shift id (pitches
        by key and shift id), in its binding's sweep, which the caller refreshed."""
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

    A kept event, and its sort key, is reused at its place in the
    instrument of its name when that is the very note object it was built
    from and the note's pitch the very tuple it took; every other note is
    resolved, and may raise, as in a cold call.  When the instrument has
    the very notes, pitch memo and region starts of the kept events, only
    the notes in regions whose shift id changed are looked at again: every
    other one would keep its event.  When every instrument takes that
    path, under the kept names in their kept sequence, the events keep the
    kept order if those looked at again still sort between their
    neighbours in it; else they are put in order by one stable sort of
    their indices on their keys.  A call that raises keeps no events and
    no order.
    """
    with _memo(composition) as memo:
        base, seconds, last, memo.events = memo.base, composition.seconds, memo.events, {}
        kept, memo.order = memo.order, None
        per_instrument: dict[str, tuple] = {}
        events: list[ResolvedEvent] = []
        sort_keys: list[tuple] = []  # each event's, in the order of events
        # the flat index of each event built anew, while the layout is the kept order's
        moved = [] if list(last) == [inst.name for inst in composition.instruments] else None
        for inst in composition.instruments:
            scale = composition.scales.get(inst.scale_name)
            keys = scale.keys if scale else ()
            starts, ids, shifts = memo.regions(inst.harmony_names)
            notes = inst.score.notes
            pitches = memo.shared(inst, "pitches")  # (factor, frequency) of (key, shift id)
            was_notes, was, was_keys, was_pitches, was_starts, was_ids, onsets = last.get(
                inst.name, ((), (), (), None, None, None, None))
            if notes is was_notes and pitches is was_pitches and starts is was_starts:
                out, out_keys, todo = list(was), list(was_keys), []
                for p, (sid, was_sid) in enumerate(zip(ids, was_ids)):
                    if sid != was_sid:  # the notes with their onsets in region p
                        end = starts[p + 1] if p + 1 < len(starts) else inf
                        todo += range(bisect_left(onsets, starts[p]), bisect_left(onsets, end))
            else:
                out, out_keys, moved = [None] * len(notes), [None] * len(notes), None
                todo = range(len(notes))
                onsets = [note.interval.start for note in notes]
            for i in todo:
                note, onset = notes[i], onsets[i]
                key = note.key_index
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
                    out[i], out_keys[i] = was[i], was_keys[i]
                else:
                    out[i] = ResolvedEvent(inst.name, *pitch, start := seconds(onset),
                                           seconds(note.interval.duration), note.velocity)
                    out_keys[i] = (start, inst.name, pitch[1], note.velocity)
            if moved is not None:
                moved += [len(events) + i for i in todo if out[i] is not was[i]]
            events += out
            sort_keys += out_keys
            per_instrument[inst.name] = (notes, out, out_keys, pitches, starts, ids[:], onsets)
        order = kept and moved is not None and _reordered(events, sort_keys, moved, *kept)
        if not order:
            # machine ints: kept lists of int objects raised the peak RSS of a cold render
            perm = array("l", sorted(range(len(events)), key=sort_keys.__getitem__))
            position = array("l", perm)
            for p, i in enumerate(perm):
                position[i] = p
            order = list(map(events.__getitem__, perm)), perm, position
        memo.events, memo.order = per_instrument, order
        return order[0][:]


def _reordered(events: list, keys: list[tuple], moved: list[int], order: list, perm: array,
               position: array) -> tuple[list, array, array] | None:
    """The kept order: ``order``, the events by position, ``perm``, the
    flat index at each position, and ``position``, its inverse.  When the
    key of each event at a flat index in ``moved`` still sorts between
    its neighbours', ties broken by flat index as a stable sort breaks
    them, the event is put at its position in ``order`` and the order is
    returned; else None."""
    for i in moved:
        p = position[i]
        if (p and (keys[perm[p - 1]], perm[p - 1]) > (keys[i], i)
                or p + 1 < len(perm) and (keys[i], i) > (keys[perm[p + 1]], perm[p + 1])):
            return None
    for i in moved:
        order[position[i]] = events[i]
    return order, perm, position


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
    instrument name.  A region with the start, end and very rows of the
    region at its place in the last table of the instrument is that
    region.
    """
    inst = composition.instrument(instrument_name)
    with _memo(composition) as memo:
        regions, was = _table(memo, inst), memo.tables.get(inst.name, [])
        table = memo.tables[inst.name] = [
            r if r and r.rows is rows and r.start == lo and r.end == hi
            else TableRegion(lo, hi, rows)
            for (lo, hi, _, rows), r in zip(regions, was + [None] * (len(regions) - len(was)))]
    return table[:]


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
            table = _table(memo, inst)
            texts = memo.shared(inst, "texts")  # shift id -> its rows after the ticks
            for lo, hi, sid, rows in table:
                block = texts.get(sid)
                if block is None:
                    block = texts[sid] = tuple(f"\t{row.key_index}\t{ratio_text(row.factor)}\t"
                                               f"{row.frequency_hz:.6g}" for row in rows)
                ticks = f"{inst.name}\t[{lo},{hi})"
                lines += [ticks + row for row in block]
    return "\n".join(lines) + "\n"
