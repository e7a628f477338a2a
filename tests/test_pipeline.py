"""Whole-pipeline property: what validates clean also resolves and renders.

Hypothesis writes small ``.dts`` texts and runs each through the ``dtseq``
command in-process.  About half are drawn with faults (dangling
references, gaps and overlaps, keys outside their scale, ratios beyond the
float range or near its top or bottom, a ratio so near 1 that its
products print more digits than ``str(int)`` allows, a tempo whose
product with ppq is beyond the float range, non-ASCII digits, corrupted
lines); the rest validate clean and have notes, so resolve and render run
on real events.  Both kinds may repeat a note.  Tempo, ppq and length are
bounded so that no render exceeds about 10**5 samples at 1000 Hz.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtseq.cli import main
from support import near_one

HUGE = "1" + "0" * 320 + "/1"
# finite, but 2π·f is not once a base or a tone multiplies them
FINITE_HUGE = [f"1{'0' * e}/1" for e in range(300, 308)]
# 0 Hz as a float at any base; then keys that leave the normal float range
# at base 1 or once tones multiply them
TINY = "1/1" + "0" * 330
FINITE_TINY = [f"1/1{'0' * e}" for e in range(305, 309)]
# 4001-digit parts parse; the 8001-digit parts of its square do not fit str()
NEAR_ONE = near_one(4000)
RATIOS = ["1/1", "9/8", "5/4", "4/3", "3/2", "5/3", "7/4", "15/8", "2/1", HUGE, *FINITE_HUGE,
          TINY, *FINITE_TINY, NEAR_ONE, "٣/2", "1_5/8"]
# clean, then one whose product with any ppq of 2 or more is inf
TEMPOS = ["30", "120", "600.5", "1e308"]
JUNK = ["end", "note 0 @ 0", "tone 1 @ 0 +1", "scale", "@ +", "instrument x scale s"]


@st.composite
def score_texts(draw):
    # About half the texts are faulty: each site below then draws from its
    # faults too.  The rest take only clean values (small ratios, keys 0-2
    # of scales with at least three keys, at least one note per
    # instrument), so they validate clean and resolve and render notes.
    faulty = draw(st.booleans())

    def pick(options):
        """One of ``options``; only the first, the clean one, unless faulty."""
        return draw(st.sampled_from(options if faulty else options[:1]))

    length = draw(st.integers(1, 64))
    lines = [f"base {draw(st.sampled_from(['440', '261.63', '1']))}",
             f"ppq {draw(st.integers(1, 4))}",
             f"tempo {draw(st.sampled_from(TEMPOS if faulty else TEMPOS[:3]))}",
             f"length {length}"]
    scales = draw(st.sampled_from([["s"], ["s", "t"]]))
    for name in scales:
        ratios = draw(st.lists(st.sampled_from(RATIOS if faulty else RATIOS[:9]),
                               min_size=1 if faulty else 3, max_size=5, unique=True))
        lines.append(f"scale {name} " + " ".join(ratios))
    scale_refs = st.sampled_from(scales * 4 + ["missing"] if faulty else scales)
    keys = st.sampled_from([0, 1, 2] * 3 + [3, 4] if faulty else [0, 1, 2])
    harmonies = draw(st.sampled_from([[], ["H1"], ["H1", "H2"]]))
    for pos, name in enumerate(harmonies):
        level = pick([pos + 1] * 5 + [pos + 2])
        lines.append(f"harmony {name} level {level} scale {draw(scale_refs)}")
        cuts = draw(st.sets(st.integers(1, length - 1), max_size=3)) if length > 1 else ()
        edges = [0, *sorted(cuts), length]
        for lo, hi in zip(edges, edges[1:]):
            shift = pick([0] * 8 + [1, -1])  # gaps and overlaps
            lines.append(f"  tone {draw(keys)} @ {max(lo + shift, 0)} +{hi - lo}")
        lines.append("end")
    instruments = st.lists(st.sampled_from(["a", "b"]), min_size=0 if faulty else 1,
                           max_size=2, unique=True)
    for name in draw(instruments):
        bound = harmonies[:draw(st.integers(0, len(harmonies)))]
        bound += pick([[]] * 8 + [["missing"]])
        header = f"instrument {name} scale {draw(scale_refs)}"
        lines.append(header + (" harmonies " + " ".join(bound) if bound else ""))
        notes = []
        for _ in range(draw(st.integers(0 if faulty else 1, 4))):
            start = draw(st.integers(0, length - 1))
            duration = draw(st.integers(1, length - start + pick([0] * 8 + [1])))
            velocity = draw(st.sampled_from(["", " vel 1", " vel 127"]))
            velocity = pick([velocity] * 9 + [" vel 128"])
            notes.append(f"  note {draw(keys)} @ {start} +{duration}{velocity}")
        if notes and draw(st.booleans()):
            notes.append(notes[0])
        lines.extend(notes)
        lines.append("end")
    junk = pick([""] * 12 + JUNK)
    if junk:
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n"


# A note at 4.4e307 Hz validates, as it fits a float, but 2π·f does not;
# random texts that sound such a note are rare, so one is always run.
IN_RANGE_BUT_NOT_2PI_F = f"""\
base 440
ppq 1
tempo 60
length 2
scale s 1/1 {FINITE_HUGE[5]}
instrument a scale s
  note 0 @ 0 +2
  note 1 @ 0 +1
end
"""

# ppq 10**400 parses, but tick-to-second conversion overflows: refused by
# validate rather than raised by resolve and render
SECONDS_BEYOND_FLOAT = f"""\
base 440
ppq 1{'0' * 400}
tempo 60
length 2
scale s 1/1 3/2
instrument a scale s
  note 1 @ 0 +2
end
"""

# tempo * ppq is inf, so every tick would be 0 s: refused by validate
# rather than resolved to events that all start at 0 s and last 0 s
TEMPO_TIMES_PPQ_BEYOND_FLOAT = """\
base 440
ppq 480
tempo 1e308
length 960
scale s 1/1 3/2
instrument a scale s
  note 0 @ 0 +480
  note 1 @ 480 +480
end
"""

# the note sounds NEAR_ONE squared, which both listings print in full
FACTOR_BEYOND_DIGIT_LIMIT = f"""\
base 440
ppq 480
tempo 120
length 960
scale s 1/1 {NEAR_ONE}
harmony H level 1 scale s
  tone 1 @ 0 +960
end
instrument a scale s harmonies H
  note 1 @ 0 +480
end
"""


@settings(max_examples=150, deadline=None)
@given(text=score_texts())
@example(text=IN_RANGE_BUT_NOT_2PI_F)
@example(text=SECONDS_BEYOND_FLOAT)
@example(text=TEMPO_TIMES_PPQ_BEYOND_FLOAT)
@example(text=FACTOR_BEYOND_DIGIT_LIMIT)
def test_validated_scores_resolve_and_render(tmp_path_factory, text):
    directory = tmp_path_factory.getbasetemp() / "pipeline"
    directory.mkdir(exist_ok=True)
    path = directory / "score.dts"
    path.write_text(text)
    diagnostic = re.compile(rf"{re.escape(str(path))}:\d+:\d+: ")
    codes = {}
    for command in (["validate"], ["resolve"], ["resolve", "--table"],
                    ["render", "--rate", "1000", "--out", str(directory / "score.wav")]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            codes[" ".join(command)] = code = main([command[0], str(path), *command[1:]])
        assert code in (0, 1, 2, 3)
        for line in err.getvalue().splitlines():
            assert diagnostic.match(line), line
    if codes["validate"] == 0:
        assert set(codes.values()) == {0}, codes
