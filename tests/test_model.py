import dataclasses
import inspect
import random
import sys
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
    InvalidRatioError,
    ResolutionError,
    Scale,
    TimeInterval,
    TranspositionTone,
    parse,
    resolve_composition,
    serialize,
    validate_composition,
)
from dtseq import model as model_module
from dtseq import resolve as resolve_module
from dtseq.model import ERROR, WARNING, Violation
from support import (
    REFERENCE_SCORE,
    broken_composition,
    cold_validate,
    edit_pairs,
    int_digit_limit,
    random_composition,
)


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

    @pytest.mark.parametrize("cls", [Note, TranspositionTone])
    @pytest.mark.parametrize("key", [-1, 1.0])
    def test_key_index_must_be_a_non_negative_int(self, cls, key):
        with pytest.raises(ValueError) as exc:
            cls(key, TimeInterval(0, 1))
        assert str(exc.value) == f"key index must be a non-negative integer: {key!r}"


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

    def test_every_harmony_finding_reads_exactly(self):
        comp = Composition(
            440.0, 480, 120.0, 960, scales=[Scale("t", ["1/1", "3/2"])],
            harmonies=[HarmonicSequence("A", 1, "missing", [tone(0, 0, 960)]),
                       HarmonicSequence("B", 1, "t", [tone(0, 0, 400), tone(2, 300, 200),
                                                      tone(1, 100, 100), tone(0, 600, 400)]),
                       HarmonicSequence("C", 1, "t", [tone(0, 10, 950)]),
                       HarmonicSequence("D", 1, "t", [])])
        expected = [
            ("bad-reference", "harmony A", "unknown scale 'missing'"),
            ("range", "harmony B tone 1", "key index 2 outside scale 't' of 2 keys"),
            ("overlap", "harmony B tone 1",
             "tone starts at 300 before the previous tone ends at 400"),
            ("order", "harmony B tone 2", "tones are not sorted by start tick"),
            ("range", "harmony B tone 3", "interval [600, 1000) exceeds composition length 960"),
            ("gap", "harmony B tones 2..3", "gap between 200 and 600"),
            ("span", "harmony B tone 3", "last tone ends at 1000, not at composition length 960"),
            ("span", "harmony C tone 0", "first tone starts at 10, not 0"),
            ("span", "harmony D", "harmony has no tones; it must span the composition")]
        for report in cold_validate(comp), validate_composition(comp):
            assert [(v.kind, v.path, v.message) for v in report] == expected


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

    def test_two_defects_on_one_harmony(self):
        # seed 19 renames a harmony's scale to "nosuch" and then draws an
        # out-of-scale tone key for the same harmony
        rng = random.Random(19)
        comp = random_composition(rng, max_ticks=1500, max_notes=20,
                                  max_harmonic_levels=3, min_instruments=1)
        broken = broken_composition(rng, comp)
        assert errors(validate_composition(broken))


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

    @pytest.mark.parametrize("ppq,tempo,length,path", [
        (480, 1e-307, 960, "length"),       # seconds() is inf
        (10**400, 120.0, 960, "length"),    # tempo * ppq does not convert to a float
        (480, 120.0, 10**400, "length"),    # nor does length * 60
        (480, 1e308, 960, "tempo"),         # tempo * ppq is inf: every tick would be 0 s
    ], ids=["tempo", "ppq", "length", "tempo-times-ppq"])
    def test_time_grid_beyond_float_range_is_an_error(self, ppq, tempo, length, path):
        comp = Composition(
            440.0, ppq, tempo, length, scales=[Scale("t", ["1/1", "3/2"])],
            harmonies=[HarmonicSequence("H", 1, "t", [tone(0, 0, length)])],
            instruments=[Instrument("lead", "t", ["H"], [Note(1, TimeInterval(0, 480))])])
        assert [(v.kind, v.path) for v in validate_composition(comp)] == [("overflow", path)]

    def test_unused_extreme_harmony_key_walks_and_finds_nothing(self, monkeypatch):
        # the bound reads the scale's largest key, which no tone uses
        walked = []
        regions = resolve_module._Memo.regions
        monkeypatch.setattr(resolve_module._Memo, "regions",
                            lambda memo, names: walked.append(names) or regions(memo, names))
        comp = overflow_comp([1, 2], [Note(1, TimeInterval(0, 480))],
                             tone_keys=("1/1", "3/2", 10**400))
        assert cold_validate(comp) == []
        assert validate_composition(comp) == []
        assert walked == [("H",), ("H",)]

    def test_only_checked_once_other_errors_are_gone(self):
        comp = overflow_comp([1, self.HUGE], [Note(1, TimeInterval(0, 480)),
                                              Note(5, TimeInterval(0, 480))])
        assert [v.kind for v in errors(validate_composition(comp))] == ["range"]


class TestUnderflow:
    TINY = Fraction(1, 10**330)

    def test_note_below_normal_float_range_is_an_error(self):
        comp = overflow_comp([1, self.TINY], [Note(0, TimeInterval(0, 480)),
                                              Note(1, TimeInterval(0, 480)),
                                              Note(1, TimeInterval(480, 480))])
        report = validate_composition(comp)
        assert [(v.kind, v.path, v.message) for v in errors(report)] == [
            ("underflow", "instrument lead note 1",
             "resolved frequency is below the normal float range"),
            ("underflow", "instrument lead note 2",
             "resolved frequency is below the normal float range"),
            ("underflow", "instrument lead key 1",
             "frequency table entry is below the normal float range")]

    def test_shift_alone_can_underflow(self):
        # 440e-310 is a normal float; a third of it is not
        comp = overflow_comp([1, Fraction(1, 10**310)], [Note(1, TimeInterval(0, 480)),
                                                         Note(1, TimeInterval(480, 480))],
                             tone_keys=("1/1", "1/3"))
        assert [(v.kind, v.path) for v in errors(validate_composition(comp))] == [
            ("underflow", "instrument lead note 1"), ("underflow", "instrument lead key 1")]

    def test_subnormal_base_underflows_every_frequency(self):
        comp = Composition(1e-320, 480, 120.0, 960, scales=[Scale("t", ["1/1", "3/2"])],
                           instruments=[Instrument("lead", "t", [], [
                               Note(1, TimeInterval(0, 480))])])
        assert [(v.kind, v.path) for v in errors(validate_composition(comp))] == [
            ("underflow", "instrument lead note 0"), ("underflow", "instrument lead key 0"),
            ("underflow", "instrument lead key 1")]

    def test_key_can_overflow_and_underflow_in_the_table(self):
        # the key sounds 440e-320 Hz in the first region and 440e320 Hz in the second
        comp = overflow_comp([1], [Note(0, TimeInterval(0, 480))],
                             tone_keys=(Fraction(1, 10**320), Fraction(10**320)))
        assert [(v.kind, v.path) for v in errors(validate_composition(comp))] == [
            ("underflow", "instrument lead note 0"), ("overflow", "instrument lead key 0"),
            ("underflow", "instrument lead key 0")]

    def test_small_frequencies_within_range_are_clean(self):
        comp = overflow_comp([1, Fraction(1, 10**300)], [Note(1, TimeInterval(480, 480))])
        assert validate_composition(comp) == []

    def test_clean_scores_skip_the_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("regions walked")

        monkeypatch.setattr("dtseq.resolve._regions", walk)
        assert validate_composition(parse(REFERENCE_SCORE)) == []
        comp = overflow_comp([1, self.TINY], [Note(1, TimeInterval(0, 480))])
        with pytest.raises(AssertionError, match="regions walked"):
            validate_composition(comp)


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

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(1, 3),
                              st.sampled_from([40, 96])), max_size=30), st.booleans())
    def test_keeps_the_first_of_equal_notes_in_canonical_order(self, fields, as_iterator):
        """Equal notes built one by one are distinct objects: the score holds
        the first of each, sorted, as deduplicating by note equality does."""
        note_list = [Note(key, TimeInterval(start, duration), velocity)
                     for key, start, duration, velocity in fields]
        expected = tuple(sorted(dict.fromkeys(note_list), key=lambda n: (
            n.interval.start, n.key_index, n.interval.duration, n.velocity)))
        got = InstrumentScore(iter(note_list) if as_iterator else note_list).notes
        assert got == expected
        assert all(kept is first for kept, first in zip(got, expected))


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
        dict(base_frequency_hz=float("inf")),
        dict(tempo_bpm=float("inf")),
        dict(base_frequency_hz=10**400),
        dict(tempo_bpm=10**400),
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


REQUIRED = inspect.Parameter.empty


class TestConstructors:
    """The public constructors of the score model: their parameters, what
    they store, and which of several problems they report."""

    @pytest.mark.parametrize("cls,params", [
        (Scale, [("name", REQUIRED), ("keys", REQUIRED)]),
        (HarmonicSequence, [("name", REQUIRED), ("level", REQUIRED),
                            ("scale_name", REQUIRED), ("tones", ())]),
        (InstrumentScore, [("notes", ())]),
        (Instrument, [("name", REQUIRED), ("scale_name", REQUIRED),
                      ("harmony_names", ()), ("score", ())]),
        (Composition, [("base_frequency_hz", REQUIRED), ("ticks_per_beat", REQUIRED),
                       ("tempo_bpm", REQUIRED), ("length_ticks", REQUIRED),
                       ("scales", ()), ("harmonies", ()), ("instruments", ())]),
    ])
    def test_signature(self, cls, params):
        got = [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]
        assert got == [(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default)
                       for name, default in params]

    @pytest.mark.parametrize("wrap", [list, lambda items: (x for x in items)])
    def test_iterables_are_stored_as_tuples(self, wrap):
        n1, n2 = Note(1, TimeInterval(0, 1)), Note(0, TimeInterval(0, 1))
        t = tone(0, 0, 960)
        scale = Scale("s", wrap(["1/1", 3]))
        harmony = HarmonicSequence("h", 1, "s", wrap([t]))
        score = InstrumentScore(wrap([n1, n2, n1]))
        inst = Instrument("i", "s", wrap(["h"]), wrap([n1, n2]))
        comp = Composition(440, 480, 120, 960, wrap([scale]), wrap([harmony]), wrap([inst]))
        stored = [(scale.keys, (Fraction(1), Fraction(3))), (harmony.tones, (t,)),
                  (score.notes, (n2, n1)), (inst.harmony_names, ("h",)),
                  (inst.score.notes, (n2, n1)), (comp.instruments, (inst,))]
        for value, expected in stored:
            assert type(value) is tuple and value == expected
        assert type(inst.score) is InstrumentScore and inst.score == score
        assert type(comp.base_frequency_hz) is float and comp.base_frequency_hz == 440.0
        assert type(comp.tempo_bpm) is float and comp.tempo_bpm == 120.0

    def test_composition_takes_a_mapping_or_an_iterable(self):
        scale = Scale("s", ["1/1"])
        harmony = HarmonicSequence("h", 1, "s", [tone(0, 0, 960)])
        by_list = Composition(440.0, 480, 120.0, 960, [scale], [harmony])
        by_map = Composition(440.0, 480, 120.0, 960, {"s": scale}, {"h": harmony})
        assert by_list == by_map
        for comp in (by_list, by_map):
            assert type(comp.scales) is dict and comp.scales == {"s": scale}
            assert type(comp.harmonies) is dict and comp.harmonies == {"h": harmony}
        assert Composition(440.0, 480, 120.0, 960).scales == {}

    def test_replace_round_trips(self):
        comp = parse(REFERENCE_SCORE)
        inst = comp.instruments[0]
        for obj in (comp, *comp.scales.values(), *comp.harmonies.values(), inst, inst.score):
            again = dataclasses.replace(obj)
            assert again == obj and repr(again) == repr(obj)
        slower = dataclasses.replace(comp, tempo_bpm=60)
        assert type(slower.tempo_bpm) is float and slower.seconds(480) == 2 * comp.seconds(480)
        assert (slower.scales, slower.harmonies, slower.instruments) == (
            comp.scales, comp.harmonies, comp.instruments)

    @pytest.mark.parametrize("build,error,message", [
        (lambda: HarmonicSequence("1x", 0, "2y"), ValueError, "invalid harmony name: '1x'"),
        (lambda: HarmonicSequence("h", 0, "2y"), ValueError, "invalid scale name: '2y'"),
        (lambda: HarmonicSequence("h", 0, "s"), ValueError,
         "harmony level must be an integer >= 1: 0"),
        (lambda: HarmonicSequence("h", 1.0, "s"), ValueError,
         "harmony level must be an integer >= 1: 1.0"),
        (lambda: Instrument("1x", "2y", ["3z"]), ValueError, "invalid instrument name: '1x'"),
        (lambda: Instrument("i", "2y", ["3z"]), ValueError, "invalid scale name: '2y'"),
        (lambda: Instrument("i", "s", ["h", "3z"], [None]), ValueError,
         "invalid harmony name: '3z'"),
        (lambda: Scale("1x", ["x"]), ValueError, "invalid scale name: '1x'"),
        (lambda: Scale("s", ["1/1", "1/1", "x"]), InvalidRatioError, "not a ratio: 'x'"),
        (lambda: Scale("s", []), ValueError, "scale 's' needs at least one key"),
        (lambda: Composition("x", 0, "y", 0), ValueError, "could not convert string to float: 'x'"),
        (lambda: Composition(0, 0, "y", 0), ValueError, "could not convert string to float: 'y'"),
        (lambda: Composition("0", 0, 0, 0), ValueError, "base frequency must be positive: '0'"),
        (lambda: Composition(440, 0, 0, 0), ValueError,
         "ticks per beat must be a positive integer: 0"),
        (lambda: Composition(440, 480, 0, 0), ValueError, "tempo must be positive: 0"),
        (lambda: Composition(440, 480, 120, 0.5), ValueError,
         "length must be a positive tick count: 0.5"),
        (lambda: Composition(440, 480, 120, 960, {"x": Scale("s", [1])}, [None]), ValueError,
         "scale 's' keyed under mismatched name 'x'"),
        (lambda: Composition(440, 480, 120, 960, [], [HarmonicSequence("h", 1, "s")] * 2),
         ValueError, "duplicate harmony name: 'h'"),
        (lambda: Composition(float("inf"), 480, 120, 960), ValueError,
         "base frequency must be finite: inf"),
        (lambda: Composition(440, 480, "inf", 960), ValueError, "tempo must be finite: 'inf'"),
        (lambda: Composition(float("nan"), 480, 120, 960), ValueError,
         "base frequency must be positive: nan"),
        (lambda: Composition(440, 480, float("-inf"), 960), ValueError,
         "tempo must be positive: -inf"),
        # numbers beyond the float range, which float() refuses
        pytest.param(lambda: Composition(10**400, 480, 10**400, 960), ValueError,
                     f"base frequency must be finite: {10**400}", id="huge-base"),
        pytest.param(lambda: Composition(440, 480, 10**400, 960), ValueError,
                     f"tempo must be finite: {10**400}", id="huge-tempo"),
        pytest.param(lambda: Composition(-10**400, 480, 120, 960), ValueError,
                     f"base frequency must be positive: {-10**400}", id="huge-negative-base"),
        pytest.param(lambda: Composition(440, 480, Fraction(-10**400, 3), 960), ValueError,
                     f"tempo must be positive: {Fraction(-10**400, 3)!r}",
                     id="huge-negative-fraction-tempo"),
        # numbers beyond the int-to-string digit limit, which repr() refuses
        pytest.param(lambda: Composition(10**5000, 480, 120, 960), ValueError,
                     "base frequency must be finite: 1" + "0" * 5000, id="long-base"),
        pytest.param(lambda: Composition(440, 480, 10**5000, 960), ValueError,
                     "tempo must be finite: 1" + "0" * 5000, id="long-tempo"),
        pytest.param(lambda: Composition(-10**5000, 480, 120, 960), ValueError,
                     "base frequency must be positive: -1" + "0" * 5000,
                     id="long-negative-base"),
        pytest.param(lambda: Composition(440, 480, -10**5000, 960), ValueError,
                     "tempo must be positive: -1" + "0" * 5000, id="long-negative-tempo"),
        pytest.param(lambda: Composition(440, 480, Fraction(-10**5000, 3), 960), ValueError,
                     "tempo must be positive: Fraction(-1" + "0" * 5000 + ", 3)",
                     id="long-negative-fraction-tempo"),
        pytest.param(lambda: Composition(440, 480, 120, -10**5000), ValueError,
                     "length must be a positive tick count: -1" + "0" * 5000,
                     id="long-negative-length"),
        pytest.param(lambda: TimeInterval(-10**5000, 1), ValueError,
                     "interval start must be a non-negative tick: -1" + "0" * 5000,
                     id="long-negative-start"),
    ])
    def test_first_problem_is_reported(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error and str(exc.value) == message


def long_int_composition():
    """Every number validate writes into a message, 5,001 digits long."""
    big = 10 ** 5000
    half = big // 2
    return Composition(
        440.0, 480, 120.0, big,
        scales=[Scale("s", ["1/1", "3/2"])],
        harmonies=[HarmonicSequence("h", 1, "s", [tone(0, 0, half), tone(big, half, half)]),
                   HarmonicSequence("g", big, "s", [tone(0, 0, half), tone(0, big, 1)])],
        instruments=[Instrument("v", "s", ["h", "g"], [
            Note(big, TimeInterval(0, 1)),           # outside its scale
            Note(1, TimeInterval(half - 1, 2)),      # crosses h's boundary at half
            Note(0, TimeInterval(big - 1, 2))])])    # ends past the length


class TestLongIntegers:
    """Numbers longer than ``sys.get_int_max_str_digits()`` allows ``str``
    to write: validate reports them instead of raising ValueError."""

    def expected(self):
        with int_digit_limit(0):
            return [(v.kind, v.path, v.message) for v in cold_validate(long_int_composition())]

    @pytest.mark.parametrize("limit", [getattr(sys.int_info, "default_max_str_digits", 4300),
                                       640])
    def test_report_reads_the_same_under_any_digit_limit(self, limit):
        expected = self.expected()
        big = 10 ** 5000
        with int_digit_limit(0):
            assert [(kind, path) for kind, path, _ in expected] == [
                ("range", "harmony h tone 1"),
                ("range", "harmony g tone 1"),
                ("gap", "harmony g tones 0..1"),
                ("span", "harmony g tone 1"),
                ("level-gap", "instrument v harmony g"),
                ("range", "instrument v note 0"),
                ("boundary-crossing", "instrument v note 1"),
                ("range", "instrument v note 2")]
            assert expected[-1][2] == (f"interval [{big - 1}, {big + 1}) "
                                       f"exceeds composition length {big}")
        with int_digit_limit(limit):
            assert [(v.kind, v.path, v.message)
                    for v in cold_validate(long_int_composition())] == expected
        with int_digit_limit(0):  # findings kept under no limit read the same under 640
            validate_composition(long_int_composition())
        with int_digit_limit(limit):
            assert [(v.kind, v.path, v.message)
                    for v in validate_composition(long_int_composition())] == expected


class TestWarmValidate:
    """A validation that reuses the previous call's findings reports what
    a cold one does."""

    def test_edit_after_validation_equals_cold(self):
        reused = 0
        for a, b, edit in edit_pairs(71, 600):
            expected = cold_validate(b)
            first = cold_validate(a)
            report = validate_composition(b)
            assert report == expected, edit
            assert validate_composition(b) == expected, edit
            reused += bool({id(v) for v in first} & {id(v) for v in report})
        assert reused > 100

    def test_findings_of_one_score_are_kept(self):
        rng = random.Random(5)
        comp = random_composition(rng, min_instruments=3, min_notes=3)
        validate_composition(comp)
        assert sorted(model_module._last_findings) == sorted(i.name for i in comp.instruments)
        validate_composition(Composition(440.0, 480, 120.0, 10))
        assert model_module._last_findings == {}
