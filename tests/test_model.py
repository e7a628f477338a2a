import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtseq import (
    Composition,
    HarmonicSequence,
    Instrument,
    InstrumentScore,
    Note,
    ResolutionError,
    Scale,
    TimeInterval,
    TranspositionTone,
    parse,
    resolve_composition,
    serialize,
    validate_composition,
)
from dtseq.model import ERROR, WARNING, Violation
from support import broken_composition, random_composition


def tone(key, start, duration):
    return TranspositionTone(key, TimeInterval(start, duration))


def harmony_comp(tones, length=960, scale_keys=("1/1", "3/2", "2/1")):
    return Composition(
        base_frequency_hz=440.0, ticks_per_beat=480, tempo_bpm=120.0,
        length_ticks=length,
        scales=[Scale("t", scale_keys)],
        harmonies=[HarmonicSequence("H", 1, "t", tones)],
    )


def errors(report):
    return [v for v in report if v.severity == ERROR]


class TestTimeInterval:
    def test_end_is_derived(self):
        assert TimeInterval(480, 240).end == 720

    def test_half_open_containment(self):
        iv = TimeInterval(0, 480)
        assert iv.contains(0) and iv.contains(479)
        assert not iv.contains(480)

    @pytest.mark.parametrize("start,duration", [(-1, 10), (0, 0), (0, -5), (2.0, 1)])
    def test_rejects_bad_fields(self, start, duration):
        with pytest.raises(ValueError):
            TimeInterval(start, duration)


class TestNote:
    def test_default_velocity(self):
        assert Note(0, TimeInterval(0, 1)).velocity == 96

    @pytest.mark.parametrize("velocity", [0, 128, -3])
    def test_velocity_bounds(self, velocity):
        with pytest.raises(ValueError):
            Note(0, TimeInterval(0, 1), velocity)


class TestToneAt:
    def setup_method(self):
        self.h = HarmonicSequence("H", 1, "t", [tone(0, 0, 480), tone(2, 480, 480)])

    def test_containment(self):
        assert self.h.tone_at(0) is self.h.tones[0]
        assert self.h.tone_at(479) is self.h.tones[0]

    def test_half_open_boundary(self):
        assert self.h.tone_at(480) is self.h.tones[1]

    def test_end_is_exclusive(self):
        with pytest.raises(ValueError):
            self.h.tone_at(960)
        with pytest.raises(ValueError):
            self.h.tone_at(-1)

    def test_piecewise_constant_with_one_piece_per_tone(self):
        # scanning every tick must see exactly len(tones) runs
        h = HarmonicSequence("H", 1, "t",
                             [tone(1, 0, 7), tone(0, 7, 3), tone(1, 10, 5)])
        picked = [h.tone_at(t) for t in range(15)]
        runs = 1 + sum(1 for a, b in zip(picked, picked[1:]) if a is not b)
        assert runs == len(h.tones)
        assert all(p.interval.contains(t) for t, p in enumerate(picked))


class TestValidation:
    def test_contiguous_spanning_timeline_is_clean(self):
        report = validate_composition(harmony_comp([tone(0, 0, 480), tone(1, 480, 480)]))
        assert report == []

    def test_overlap_located_at_second_tone(self):
        report = validate_composition(harmony_comp([tone(0, 0, 480), tone(1, 400, 560)]))
        kinds = [(v.kind, v.path) for v in errors(report)]
        assert ("overlap", "harmony H tone 1") in kinds

    def test_gap_located_between_tones(self):
        report = validate_composition(harmony_comp([tone(0, 0, 480), tone(1, 600, 360)]))
        kinds = [(v.kind, v.path) for v in errors(report)]
        assert ("gap", "harmony H tones 0..1") in kinds

    def test_span_violations(self):
        late = validate_composition(harmony_comp([tone(0, 10, 950)]))
        short = validate_composition(harmony_comp([tone(0, 0, 900)]))
        empty = validate_composition(harmony_comp([]))
        assert any(v.kind == "span" for v in errors(late))
        assert any(v.kind == "span" for v in errors(short))
        assert any(v.kind == "span" for v in errors(empty))

    def test_unsorted_tones_reported(self):
        report = validate_composition(harmony_comp([tone(0, 480, 480), tone(1, 0, 480)]))
        assert any(v.kind == "order" for v in errors(report))

    def test_key_and_interval_ranges(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("t", ["1/1", "3/2"])],
            harmonies=[HarmonicSequence("H", 1, "t", [tone(9, 0, 960)])],
            instruments=[Instrument("i", "t", ["H"],
                                    [Note(7, TimeInterval(0, 480)),
                                     Note(0, TimeInterval(600, 960))])],
        )
        report = errors(validate_composition(comp))
        assert ("range", "harmony H tone 0") in [(v.kind, v.path) for v in report]
        assert ("range", "instrument i note 0") in [(v.kind, v.path) for v in report]
        assert ("range", "instrument i note 1") in [(v.kind, v.path) for v in report]

    def test_dangling_references(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("t", ["1/1"])],
            harmonies=[HarmonicSequence("H", 1, "missing", [tone(0, 0, 960)])],
            instruments=[Instrument("i", "nowhere", ["ghost"], [])],
        )
        kinds = {(v.kind, v.path) for v in errors(validate_composition(comp))}
        assert ("bad-reference", "harmony H") in kinds
        assert ("bad-reference", "instrument i") in kinds
        assert ("bad-reference", "instrument i harmony ghost") in kinds

    def test_harmony_levels_must_be_consecutive_from_one(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("t", ["1/1"])],
            harmonies=[HarmonicSequence("H2", 2, "t", [tone(0, 0, 960)])],
            instruments=[Instrument("i", "t", ["H2"], [])],
        )
        assert any(v.kind == "level-gap" for v in errors(validate_composition(comp)))

    def test_boundary_crossing_is_a_warning_not_an_error(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("t", ["1/1", "3/2"])],
            harmonies=[HarmonicSequence("H", 1, "t",
                                        [tone(0, 0, 480), tone(1, 480, 480)])],
            instruments=[Instrument("i", "t", ["H"],
                                    [Note(0, TimeInterval(240, 480))])],
        )
        report = validate_composition(comp)
        assert errors(report) == []
        warnings = [v for v in report if v.severity == WARNING]
        assert len(warnings) == 1
        assert warnings[0].kind == "boundary-crossing"
        assert warnings[0].path == "instrument i note 0"

    def test_duplicate_instrument_names(self):
        comp = Composition(
            440.0, 480, 120.0, 960,
            scales=[Scale("t", ["1/1"])],
            instruments=[Instrument("i", "t", [], []),
                         Instrument("i", "t", [], [])],
        )
        assert any(v.kind == "duplicate-name" for v in errors(validate_composition(comp)))

    def test_no_instruments_single_spanning_tone_is_clean(self):
        comp = harmony_comp([tone(0, 0, 960)])
        assert validate_composition(comp) == []

    def test_validation_is_idempotent(self):
        comp = harmony_comp([tone(0, 0, 480), tone(1, 400, 560)])
        assert validate_composition(comp) == validate_composition(comp)


def scan_boundary_crossings(composition):
    """Reference for the boundary-crossing warnings: for each note that
    ends within the piece, scan the later tones of every bound harmony
    with a spanning timeline and warn at the first start strictly inside
    the note."""
    length = composition.length_ticks

    def spanning(harmony):
        tones = harmony.tones
        return (bool(tones) and tones[0].interval.start == 0
                and tones[-1].interval.end == length
                and all(b.interval.start == a.interval.end
                        for a, b in zip(tones, tones[1:])))

    found = []
    for inst in composition.instruments:
        bound = [composition.harmonies[name] for name in inst.harmony_names
                 if name in composition.harmonies]
        for i, note in enumerate(inst.score.notes):
            if note.interval.end > length:
                continue
            for harmony in bound:
                if not spanning(harmony):
                    continue
                for t in harmony.tones[1:]:
                    boundary = t.interval.start
                    if note.interval.start < boundary < note.interval.end:
                        found.append(Violation(
                            "boundary-crossing", f"instrument {inst.name} note {i}",
                            f"note sustains across the {harmony.name} boundary at "
                            f"tick {boundary}; it keeps its onset pitch",
                            severity=WARNING))
                        break
    return found


class TestBoundaryCrossingEquivalence:
    def test_matches_scan_on_random_and_broken_compositions(self):
        rng = random.Random(404)
        warned = broken = 0
        for n in range(240):
            comp = random_composition(rng, max_ticks=2000, max_notes=25,
                                      min_instruments=1, min_harmonic_levels=1)
            if n % 2:
                comp = broken_composition(rng, comp)
            report = validate_composition(comp)
            expected = scan_boundary_crossings(comp)
            assert [v for v in report if v.kind == "boundary-crossing"] == expected
            warned += bool(expected)
            broken += bool(errors(report))
        assert warned > 60 and broken > 60


def overflow_comp(inst_keys, notes, tone_keys=("1/1", "3/2")):
    return Composition(
        440.0, 480, 120.0, 960,
        scales=[Scale("inst", inst_keys), Scale("t", tone_keys)],
        harmonies=[HarmonicSequence("H", 1, "t", [tone(0, 0, 480), tone(1, 480, 480)])],
        instruments=[Instrument("lead", "inst", ["H"], notes)],
    )


class TestOverflow:
    HUGE = Fraction(10**307)

    def test_note_beyond_float_range_is_an_error(self):
        comp = overflow_comp([1, self.HUGE], [Note(0, TimeInterval(0, 480)),
                                              Note(1, TimeInterval(0, 480)),
                                              Note(1, TimeInterval(480, 480))])
        report = validate_composition(comp)
        assert [(v.kind, v.path) for v in errors(report)] == [
            ("overflow", "instrument lead note 1"),
            ("overflow", "instrument lead note 2"),
            ("overflow", "instrument lead key 1")]

    def test_shift_alone_can_overflow(self):
        # 440 * 3e305 fits a float; times the 3/2 of the second tone it does not
        comp = overflow_comp([1, Fraction(3 * 10**305)], [Note(1, TimeInterval(0, 480)),
                                                      Note(1, TimeInterval(480, 480))])
        assert [v.path for v in errors(validate_composition(comp))] == [
            "instrument lead note 1", "instrument lead key 1"]

    def test_unused_key_is_reported_for_the_table(self):
        comp = overflow_comp([1, self.HUGE], [Note(0, TimeInterval(0, 960))])
        assert [v.path for v in errors(validate_composition(comp))] == [
            "instrument lead key 1"]

    def test_large_frequencies_within_range_are_clean(self):
        comp = overflow_comp([1, Fraction(10**300)], [Note(1, TimeInterval(480, 480))])
        assert validate_composition(comp) == []

    def test_only_checked_once_other_errors_are_gone(self):
        comp = overflow_comp([1, self.HUGE], [Note(1, TimeInterval(0, 480)),
                                              Note(5, TimeInterval(0, 480))])
        assert [v.kind for v in errors(validate_composition(comp))] == ["range"]


intervals = st.builds(TimeInterval, st.integers(0, 50), st.integers(1, 30))
notes = st.builds(Note, st.integers(0, 5), intervals, st.integers(1, 127))


class TestNormalizeScore:
    def test_sorts_by_start_then_key(self):
        a = Note(2, TimeInterval(480, 240))
        b = Note(0, TimeInterval(0, 480))
        assert InstrumentScore([a, b]).normalized().notes == (b, a)

    def test_collapses_exact_duplicates(self):
        n = Note(1, TimeInterval(0, 10), 80)
        assert len(InstrumentScore([n, n]).normalized()) == 1

    def test_empty_score(self):
        assert InstrumentScore().normalized().notes == ()

    def test_keeps_same_position_different_velocity(self):
        quiet = Note(1, TimeInterval(0, 10), 40)
        loud = Note(1, TimeInterval(0, 10), 120)
        assert len(InstrumentScore([quiet, loud]).normalized()) == 2

    @given(st.lists(notes, max_size=20))
    def test_idempotent_and_preserves_distinct_triples(self, note_list):
        once = InstrumentScore(note_list).normalized()
        assert once.normalized() == once
        assert set(once.notes) == set(note_list)

    @given(st.lists(notes, max_size=20), st.randoms())
    def test_order_insensitive(self, note_list, rng):
        shuffled = list(note_list)
        rng.shuffle(shuffled)
        assert (InstrumentScore(shuffled).normalized()
                == InstrumentScore(note_list).normalized())


class TestCanonicalScore:
    """Scores are canonical at construction, so every layer agrees on them."""

    def test_equal_note_sets_compare_equal(self):
        a = Note(2, TimeInterval(480, 240))
        b = Note(0, TimeInterval(0, 480))
        assert InstrumentScore([a, b]) == InstrumentScore([b, a])
        assert InstrumentScore([a, b]).notes == (b, a)

    def test_normalized_returns_the_score_itself(self):
        score = InstrumentScore([Note(1, TimeInterval(9, 1)), Note(0, TimeInterval(0, 1))])
        assert score.normalized() is score

    def test_layers_name_the_same_note(self):
        comp = Composition(
            440.0, 480, 120.0, 960, scales=[Scale("s", ["1/1", "3/2"])],
            instruments=[Instrument("i", "s", [], [Note(0, TimeInterval(480, 480)),
                                                   Note(5, TimeInterval(0, 480))])])
        paths = [v.path for v in errors(validate_composition(comp))]
        assert paths == ["instrument i note 0"]
        assert [v.path for v in errors(validate_composition(parse(serialize(comp))))] == paths
        with pytest.raises(ResolutionError, match=r"^note 0 of instrument 'i'"):
            resolve_composition(comp)

    def test_overflow_names_the_same_note(self):
        comp = overflow_comp([1, TestOverflow.HUGE], [Note(1, TimeInterval(480, 480)),
                                                      Note(0, TimeInterval(0, 480))])
        assert [v.path for v in errors(validate_composition(comp))] == [
            "instrument lead note 1", "instrument lead key 1"]

    def test_duplicate_note_is_one_note(self):
        scale = Scale("s", ["1/1", "3/2"])
        for key, ranged in ((5, 1), (1, 0)):
            n = Note(key, TimeInterval(0, 480))
            comp = Composition(440.0, 480, 120.0, 960, scales=[scale],
                               instruments=[Instrument("i", "s", [], [n, n])])
            assert len(comp.instruments[0].score) == 1
            report = errors(validate_composition(comp))
            assert [v.kind for v in report] == ["range"] * ranged
            if not ranged:
                assert len(resolve_composition(comp)) == 1


class TestComposition:
    @pytest.mark.parametrize("kwargs", [
        dict(base_frequency_hz=0.0),
        dict(base_frequency_hz=-440.0),
        dict(ticks_per_beat=0),
        dict(tempo_bpm=0.0),
        dict(length_ticks=0),
    ])
    def test_field_validation(self, kwargs):
        good = dict(base_frequency_hz=440.0, ticks_per_beat=480,
                    tempo_bpm=120.0, length_ticks=960)
        with pytest.raises(ValueError):
            Composition(**{**good, **kwargs})

    def test_duplicate_scale_names_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Composition(440.0, 480, 120.0, 960,
                        scales=[Scale("t", ["1/1"]), Scale("t", ["3/2"])])

    def test_tick_to_seconds(self):
        comp = harmony_comp([tone(0, 0, 960)])
        assert comp.seconds(480) == 0.5
        assert comp.seconds(1920) == 2.0
