"""Whole-pipeline property: what validates clean also resolves and renders.

Hypothesis writes small ``.dts`` texts, many of them broken (dangling
references, gaps and overlaps, keys outside their scale, ratios beyond the
float range or near its top, duplicate notes, corrupted lines), and runs
each through the ``dtseq`` command in-process.  Tempo, ppq and length are bounded so that
no render exceeds about 10**5 samples at 1000 Hz.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtseq.cli import main

HUGE = "1" + "0" * 320 + "/1"
# finite, but 2π·f is not once a base or a tone multiplies them
FINITE_HUGE = [f"1{'0' * e}/1" for e in range(300, 308)]
RATIOS = ["1/1", "9/8", "5/4", "4/3", "3/2", "5/3", "7/4", "15/8", "2/1", HUGE, *FINITE_HUGE]
JUNK = ["end", "note 0 @ 0", "tone 1 @ 0 +1", "scale", "@ +", "instrument x scale s"]


@st.composite
def score_texts(draw):
    length = draw(st.integers(1, 64))
    lines = [f"base {draw(st.sampled_from(['440', '261.63', '1']))}",
             f"ppq {draw(st.integers(1, 4))}",
             f"tempo {draw(st.sampled_from(['30', '120', '600.5']))}",
             f"length {length}"]
    scales = draw(st.sampled_from([["s"], ["s", "t"]]))
    for name in scales:
        ratios = draw(st.lists(st.sampled_from(RATIOS), min_size=1, max_size=5, unique=True))
        lines.append(f"scale {name} " + " ".join(ratios))
    scale_refs = st.sampled_from(scales * 4 + ["missing"])
    keys = st.sampled_from([0, 1, 2] * 3 + [3, 4])
    harmonies = draw(st.sampled_from([[], ["H1"], ["H1", "H2"]]))
    for pos, name in enumerate(harmonies):
        level = draw(st.sampled_from([pos + 1] * 5 + [pos + 2]))
        lines.append(f"harmony {name} level {level} scale {draw(scale_refs)}")
        cuts = draw(st.sets(st.integers(1, length - 1), max_size=3)) if length > 1 else ()
        edges = [0, *sorted(cuts), length]
        for lo, hi in zip(edges, edges[1:]):
            shift = draw(st.sampled_from([0] * 8 + [1, -1]))  # gaps and overlaps
            lines.append(f"  tone {draw(keys)} @ {max(lo + shift, 0)} +{hi - lo}")
        lines.append("end")
    for name in draw(st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True)):
        bound = harmonies[:draw(st.integers(0, len(harmonies)))]
        bound += draw(st.sampled_from([[]] * 8 + [["missing"]]))
        header = f"instrument {name} scale {draw(scale_refs)}"
        lines.append(header + (" harmonies " + " ".join(bound) if bound else ""))
        notes = []
        for _ in range(draw(st.integers(0, 4))):
            start = draw(st.integers(0, length - 1))
            duration = draw(st.integers(1, length - start + draw(st.sampled_from([0] * 8 + [1]))))
            velocity = draw(st.sampled_from(["", " vel 1", " vel 127"] * 3 + [" vel 128"]))
            notes.append(f"  note {draw(keys)} @ {start} +{duration}{velocity}")
        if notes and draw(st.booleans()):
            notes.append(notes[0])
        lines.extend(notes)
        lines.append("end")
    junk = draw(st.sampled_from([""] * 12 + JUNK))
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


@settings(max_examples=150, deadline=None)
@given(text=score_texts())
@example(text=IN_RANGE_BUT_NOT_2PI_F)
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
