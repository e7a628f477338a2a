import errno
import gc
import hashlib
import io
import os
import subprocess
import sys
import warnings
import wave
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dtseq
from dtseq import model, resolve, scorefile
from dtseq.cli import main
from support import REFERENCE_SCORE, int_digit_limit, near_one

SCORES = Path(__file__).resolve().parent.parent / "scores"
LISTINGS = Path(__file__).resolve().parent / "listings"
SRC = Path(dtseq.__file__).resolve().parent.parent


def run_cli(args, unbuffered=False, **kwargs):
    """Run ``python -m dtseq.cli`` with ``args`` in a child process, its
    stdout buffered as it is by default unless ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), DTS_COLOR="0", OPENBLAS_NUM_THREADS="1")
    flags = ["-u"] if unbuffered else []
    return subprocess.run([sys.executable, *flags, "-m", "dtseq.cli", *args], env=env,
                          timeout=120, **kwargs)

OVERLAPPING = """\
base 440
ppq 480
tempo 120
length 960

scale t 1/1 3/2

harmony H level 1 scale t
  tone 0 @ 0 +480
  tone 1 @ 400 +560
end
"""


# one note sustains across a harmony boundary: one boundary-crossing warning
CROSSING = """\
base 440
ppq 480
tempo 120
length 960
scale t 1/1 3/2
harmony H level 1 scale t
  tone 0 @ 0 +480
  tone 1 @ 480 +480
end
instrument i scale t harmonies H
  note 0 @ 240 +480
end
"""


@pytest.fixture
def ref_path(tmp_path):
    path = tmp_path / "reference.dts"
    path.write_text(REFERENCE_SCORE)
    return str(path)


@pytest.fixture
def bad_path(tmp_path):
    path = tmp_path / "overlap.dts"
    path.write_text(OVERLAPPING)
    return str(path)


class TestValidate:
    def test_clean_file_exit_0_no_output(self, ref_path, capsys):
        assert main(["validate", ref_path]) == 0
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""

    def test_overlap_exit_1_one_line(self, bad_path, capsys):
        assert main(["validate", bad_path]) == 1
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert ":0:0: overlap:" in err_lines[0]
        assert "tone 1" in err_lines[0]

    def test_parse_errors_use_positions(self, tmp_path, capsys):
        path = tmp_path / "broken.dts"
        path.write_text("base 440\nppq 480\ntempo 120\nlength 960\nscale t 0/2\n")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:5:9: bad-ratio:" in err

    def test_a_leading_byte_order_mark_is_no_error(self, tmp_path, capsys):
        path = tmp_path / "bom.dts"
        path.write_bytes(b"\xef\xbb\xbf" + (SCORES / "reference.dts").read_bytes())
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().err == ""
        assert main(["resolve", str(path)]) == 0
        assert capsys.readouterr().out == (LISTINGS / "reference.events.tsv").read_text(
            encoding="utf-8")

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.dts")]) == 3
        assert "nope.dts" in capsys.readouterr().err

    def test_boundary_crossing_warns_but_exits_0(self, tmp_path, capsys):
        path = tmp_path / "warn.dts"
        path.write_text(
            "base 440\nppq 480\ntempo 120\nlength 960\n"
            "scale t 1/1 3/2\n"
            "harmony H level 1 scale t\n  tone 0 @ 0 +480\n  tone 1 @ 480 +480\nend\n"
            "instrument i scale t harmonies H\n  note 0 @ 240 +480\nend\n")
        assert main(["validate", str(path)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "boundary-crossing" in err


    # a 5,000-character bad token (4,001 for ppq) where each kind of message
    # quotes one: (the score's lines after the header, the header line it
    # replaces, and the one diagnostic)
    @pytest.mark.parametrize("lines,replaced,diagnostic", [
        (["length -" + "1" * 5000], 3,
         "4:8: syntax: expected an integer, got '-1111111111111111111…' (5001 characters)"),
        (["length 1" + "0" * 4998 + "x"], 3,
         "4:8: syntax: expected an integer, got '10000000000000000000…' (5000 characters)"),
        (["base 1" + "0" * 5000], 0,
         "1:6: range: value 10000000000000000000… (5001 characters) must be positive and "
         "finite"),
        (["scale s 1/1 " + "1" * 4997 + "x/1"], None,
         "5:13: bad-ratio: malformed ratio '11111111111111111111…' (5000 characters)"),
        (["x" * 5000], None,
         "5:1: unknown-directive: unknown directive 'xxxxxxxxxxxxxxxxxxxx…' (5000 characters)"),
        (["harmony H " + "l" * 5000 + " 1 scale s", "end"], None,
         "5:11: syntax: expected 'level', got 'llllllllllllllllllll…' (5000 characters)"),
        (["ppq -" + "1" * 4000], 1,
         "2:5: range: value -1111111111111111111… (4001 characters) must be >= 1"),
    ], ids=["length-sign", "length-letter", "base", "scale-key", "directive", "level", "ppq"])
    def test_a_long_token_is_shown_cut_in_one_short_line(self, tmp_path, monkeypatch, capsys,
                                                        lines, replaced, diagnostic):
        header = ["base 440", "ppq 480", "tempo 120", "length 960"]
        if replaced is not None:
            header[replaced], lines = lines[0], lines[1:]
        monkeypatch.chdir(tmp_path)
        Path("long.dts").write_text("\n".join(header + lines) + "\n")
        assert main(["validate", "long.dts"]) == 1
        err = capsys.readouterr().err
        assert err == f"long.dts:{diagnostic}\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("name,diagnostic", [
        ("instrument", f"range: instrument {'i' * 20}… (5000 characters) note 0: key index 3 "
                       f"outside scale 's' of 1 keys"),
        ("scale", f"range: instrument i note 0: key index 3 outside scale '{'s' * 20}…' "
                  f"(5000 characters) of 1 keys"),
        ("harmony", f"level-gap: instrument i harmony {'h' * 20}… (5000 characters): "
                    f"expected level 1 at position 0, got level 2"),
    ], ids=["instrument", "scale", "harmony"])
    def test_a_long_name_in_a_finding_is_shown_cut_in_one_short_line(
            self, tmp_path, monkeypatch, capsys, name, diagnostic):
        i, s, h = ((c * 5000 if name.startswith(c) else c) for c in "ish")
        level, key = (2, 0) if name == "harmony" else (1, 3)
        monkeypatch.chdir(tmp_path)
        Path("long.dts").write_text(
            f"base 440\nppq 480\ntempo 120\nlength 960\nscale {s} 1/1\n"
            f"harmony {h} level {level} scale {s}\n  tone 0 @ 0 +960\nend\n"
            f"instrument {i} scale {s} harmonies {h}\n  note {key} @ 0 +960\nend\n")
        assert main(["validate", "long.dts"]) == 1
        err = capsys.readouterr().err
        assert err == f"long.dts:0:0: {diagnostic}\n"
        assert len(err.encode()) < 200

    # read as UTF-8 bytes, where NEL and U+2028 take two and three bytes
    @pytest.mark.parametrize("sep", ["\x85", "\u2028"], ids=repr)
    def test_line_separator_in_a_comment_does_not_hide_the_error(self, tmp_path, capsys,
                                                                  sep):
        path = tmp_path / "sep.dts"
        path.write_text("base 440\nppq 480\ntempo 120\nlength 960\n"
                        f"# fifth{sep}above\nscale s 1/1 3/2\n"
                        "instrument a scale s\n  note 9 @ 0 +960\nend\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"{path}:0:0: range: instrument a note 0: key index 9 outside scale 's' of 2 keys\n")

    def test_diagnostics_are_colored_on_a_terminal(self, tmp_path, monkeypatch):
        path = tmp_path / "warn.dts"
        path.write_text(
            "base 440\nppq 480\ntempo 120\nlength 960\n"
            "scale t 1/1 3/2\n"
            "harmony H level 1 scale t\n  tone 0 @ 0 +480\n  tone 1 @ 480 +480\nend\n"
            "instrument i scale t harmonies H\n  note 0 @ 240 +480\n  note 5 @ 0 +10\nend\n")

        class Terminal(io.StringIO):
            def isatty(self):
                return True

        for color in ("1", "0"):
            monkeypatch.setenv("DTS_COLOR", color)
            monkeypatch.setattr("sys.stderr", Terminal())
            assert main(["validate", str(path)]) == 1
            err = sys.stderr.getvalue()
            error, warning = ("\x1b[31mrange\x1b[0m", "\x1b[33mwarning\x1b[0m") \
                if color == "1" else ("range", "warning")
            assert err == (
                f"{path}:0:0: {error}: instrument i note 0: key index 5 outside scale "
                f"'t' of 2 keys\n"
                f"{path}:0:0: {warning}: boundary-crossing: instrument i note 1: note "
                f"sustains across the H boundary at tick 480; it keeps its onset pitch\n")


HUGE_RATIO = """\
base 440
ppq 480
tempo 120
length 960

scale t 1/1 1%s/1

instrument lead scale t
  note 1 @ 0 +480
end
""" % ("0" * 320)


BAND_LIMIT = """\
base 440
ppq 1
tempo 60
length 4
scale s 1/1 150/1
scale huge 1/1 1%s/1
instrument a scale s
  note 0 @ 0 +4
  note 1 @ 2 +1
end
instrument b scale huge
  note 1 @ 1 +2
end
""" % ("0" * 305)


TIME_GRID = """\
base 440
ppq {ppq}
tempo {tempo}
length {length}
scale s 1/1 3/2
harmony H level 1 scale s
  tone 0 @ 0 +{length}
end
instrument a scale s harmonies H
  note 1 @ 0 +1
end
"""
BIG = "1" + "0" * 400
GRID_OVERFLOW = ["overflow: length: ticks * 60 / (tempo * ppq) is beyond the float range"]


class TestOverflow:
    @pytest.mark.parametrize("args", [
        ["validate"], ["resolve"], ["resolve", "--table"], ["render", "--out", "x.wav"]])
    @pytest.mark.parametrize("text,diagnostics", [
        (HUGE_RATIO, ["overflow: instrument lead note 0: resolved frequency is beyond "
                      "the float range",
                      "overflow: instrument lead key 1: frequency table entry is beyond "
                      "the float range"]),
        (TIME_GRID.format(ppq=1, tempo="1e-307", length=2), GRID_OVERFLOW),
        (TIME_GRID.format(ppq=BIG, tempo=60, length=2), GRID_OVERFLOW),
        (TIME_GRID.format(ppq=1, tempo=60, length=BIG), GRID_OVERFLOW),
        # 2 * 1e308 is inf, so every tick would be 0 s
        (TIME_GRID.format(ppq=2, tempo="1e308", length=2),
         ["overflow: tempo: tempo * ppq is beyond the float range"]),
    ], ids=["frequency", "tempo", "ppq", "length", "tempo-times-ppq"])
    def test_beyond_float_range_exits_1(self, tmp_path, capsys, monkeypatch, args,
                                        text, diagnostics):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "huge.dts"
        path.write_text(text)
        assert main([args[0], str(path), *args[1:]]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "".join(f"{path}:0:0: {d}\n" for d in diagnostics)
        assert not (tmp_path / "x.wav").exists()

    def test_sample_position_beyond_float_range_exit_1(self, tmp_path, capsys):
        # 6e304 s validates and resolves, but times 44100 Hz is inf
        path = tmp_path / "grid.dts"
        path.write_text(TIME_GRID.format(ppq=1, tempo="1e-303", length=2))
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "x.wav"
        assert main(["render", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"{path}:0:0: range: render needs inf samples; a WAV file holds "
                       f"at most 2147483629\n")
        assert not out.exists()


UNDERFLOW = """\
base {base}
ppq 1
tempo 60
length 2
scale s 1/1 {key}
instrument a scale s
  note 1 @ 0 +1
end
"""
BELOW = "below the normal float range"


class TestUnderflow:
    @pytest.mark.parametrize("args", [
        ["validate"], ["resolve"], ["resolve", "--table"], ["render", "--out", "x.wav"]])
    @pytest.mark.parametrize("base,key,diagnostics", [
        ("440", "1/1" + "0" * 330, [f"instrument a note 0: resolved frequency is {BELOW}",
                                    f"instrument a key 1: frequency table entry is {BELOW}"]),
        ("1e-320", "3/2", [f"instrument a note 0: resolved frequency is {BELOW}",
                           f"instrument a key 0: frequency table entry is {BELOW}",
                           f"instrument a key 1: frequency table entry is {BELOW}"]),
    ], ids=["key", "base"])
    def test_below_normal_float_range_exits_1(self, tmp_path, capsys, monkeypatch, args,
                                              base, key, diagnostics):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "tiny.dts"
        path.write_text(UNDERFLOW.format(base=base, key=key))
        assert main([args[0], str(path), *args[1:]]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "".join(f"{path}:0:0: underflow: {d}\n" for d in diagnostics)
        assert not (tmp_path / "x.wav").exists()


# K = (10**n + 1) / 10**n: the note sounds K * K, whose parts have 2n + 1 digits
NEAR_ONE = """\
base 440
ppq 480
tempo 120
length 960
scale s 1/1 {k}
harmony H level 1 scale s
  tone 1 @ 0 +960
end
instrument a scale s harmonies H
  note 1 @ 0 +480
end
"""


class TestLongFactors:
    """Listings print exact factors of any length, whatever the
    interpreter's int-to-string digit limit."""

    @pytest.mark.parametrize("digits,limit", [(4000, None), (600, "640")],
                             ids=["default-limit", "limit-640"])
    def test_resolve_prints_the_exact_factors(self, tmp_path, digits, limit, monkeypatch):
        if limit:
            monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", limit)
        path = tmp_path / "near-one.dts"
        path.write_text(NEAR_ONE.format(k=near_one(digits)))
        k = Fraction(10**digits + 1, 10**digits)
        listings = {}
        for args in (["resolve"], ["resolve", "--table"]):
            proc = run_cli([*args, str(path)], capture_output=True)
            assert (proc.returncode, proc.stderr) == (0, b"")
            listings[args[-1]] = [line.split("\t") for line in proc.stdout.decode().splitlines()]
        assert run_cli(["validate", str(path)], capture_output=True).returncode == 0

        def factor(text):
            num, den = text.split("/")
            with int_digit_limit(0):
                return Fraction(int(num), int(den))

        event, = listings["resolve"][1:]
        assert factor(event[1]) == k * k
        assert event[2:] == ["440", "0", "0.5", "96"]
        assert [(row[2], factor(row[3])) for row in listings["--table"][1:]] == [
            ("0", k), ("1", k * k)]

    def test_a_number_beyond_the_limit_is_one_short_located_error(self, tmp_path,
                                                                  monkeypatch):
        """validate names its place and does not quote its digits."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no int-to-string digit limit")
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "640")
        path = tmp_path / "long.dts"
        path.write_text(f"base 440\nppq 480\ntempo 120\nlength 1{'0' * 699}\n")
        proc = run_cli(["validate", str(path)], capture_output=True)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == \
            f"{path}:4:8: range: number too long for the int-string digit limit\n".encode()


class TestResolve:
    def test_reference_events(self, ref_path, capsys):
        assert main(["resolve", ref_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4  # header + 3 events
        assert "990" in lines[3]

    def test_table_regions_times_keys(self, ref_path, capsys):
        assert main(["resolve", "--table", ref_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        data = [l for l in lines[1:] if l]
        assert len(data) == 2 * 8
        assert data[0].startswith("lead\t[0,960)\t0\t1/1\t440")

    def test_invalid_file_exit_1(self, bad_path, capsys):
        assert main(["resolve", bad_path]) == 1
        assert capsys.readouterr().out == ""

    def test_byte_identical_between_runs(self, ref_path, capsys):
        main(["resolve", ref_path])
        first = capsys.readouterr().out
        main(["resolve", ref_path])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("score", ["reference", "motif-progression"])
    @pytest.mark.parametrize("args,listing", [([], "events"), (["--table"], "table")],
                             ids=["events", "table"])
    def test_checked_in_scores_print_their_pinned_listings(self, capsys, score, args,
                                                            listing):
        assert main(["resolve", str(SCORES / f"{score}.dts"), *args]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == (LISTINGS / f"{score}.{listing}.tsv").read_text(encoding="utf-8")


class TestRender:
    def test_reference_render_summary_and_duration(self, ref_path, tmp_path, capsys):
        out = tmp_path / "ref.wav"
        assert main(["render", ref_path, "--out", str(out)]) == 0
        # 1920 ticks at 480 ppq, 120 bpm: 4 beats of 0.5 s, plus release tail
        samples = round((2.0 + 0.05) * 44100)
        assert capsys.readouterr().out == f"rendered 3 events, {samples} samples\n"
        assert out.stat().st_size == 44 + 2 * samples

    def test_rate_halves_samples(self, ref_path, tmp_path, capsys):
        out = tmp_path / "r.wav"
        main(["render", ref_path, "--out", str(out)])
        full = int(capsys.readouterr().out.split()[3])
        main(["render", ref_path, "--out", str(out), "--rate", "22050"])
        half = int(capsys.readouterr().out.split()[3])
        # the 2.05 s span is an odd number of samples at 44100, so halving
        # is exact only up to rounding
        assert abs(half * 2 - full) <= 1

    def test_waveform_changes_bytes_not_events(self, ref_path, tmp_path, capsys):
        sine = tmp_path / "sine.wav"
        add4 = tmp_path / "add4.wav"
        main(["render", ref_path, "--out", str(sine)])
        sine_summary = capsys.readouterr().out
        main(["render", ref_path, "--out", str(add4), "--waveform", "additive-4"])
        add4_summary = capsys.readouterr().out
        assert sine_summary == add4_summary
        assert sine.read_bytes() != add4.read_bytes()

    def test_write_failure_exit_3(self, ref_path, tmp_path, capsys):
        target = tmp_path / "missing" / "dir" / "x.wav"
        assert main(["render", ref_path, "--out", str(target)]) == 3
        assert "x.wav" in capsys.readouterr().err

    def test_invalid_source_exit_1(self, bad_path, tmp_path):
        assert main(["render", bad_path, "--out", str(tmp_path / "x.wav")]) == 1

    @pytest.mark.parametrize("rate", ["0", "-3"])
    def test_bad_rate_exit_2_before_reading_the_score(self, ref_path, tmp_path, capsys, rate):
        out = tmp_path / "x.wav"
        for path in (ref_path, str(tmp_path / "missing.dts")):
            assert main(["render", path, "--out", str(out), "--rate", rate]) == 2
            err = capsys.readouterr().err
            assert err.startswith("dtseq: sample rate") and err.count("\n") == 1
        assert not out.exists()

    def test_render_too_long_for_a_wav_exit_1(self, tmp_path, capsys):
        # about 1.9e12 samples: refused before anything is allocated
        path = tmp_path / "slow.dts"
        path.write_text(REFERENCE_SCORE.replace("\ntempo     120 ", "\ntempo     0.000001 "))
        out = tmp_path / "x.wav"
        assert main(["render", str(path), "--out", str(out), "--rate", "8000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{path}:0:0: range: render needs ") and err.count("\n") == 1
        assert not out.exists()

    def test_out_of_band_events_warn_once_and_leave_the_rest_sounding(self, tmp_path,
                                                                       capsys):
        # 440 Hz sounds throughout; a 66 kHz note and a 4.4e307 Hz note (2π·f
        # is beyond the float range) overlap it and sit above 4 kHz, sr / 2
        path = tmp_path / "band.dts"
        path.write_text(BAND_LIMIT)
        out = tmp_path / "band.wav"
        assert main(["validate", str(path)]) == 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["render", str(path), "--out", str(out), "--rate", "8000"]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == "rendered 3 events, 32400 samples\n"
        assert captured.err == (
            f"{path}:0:0: warning: band-limit: 2 of 3 events, at 2 distinct frequencies, "
            f"sound at or above 4000 Hz, half the sample rate, and are left silent\n")
        with wave.open(str(out)) as wav:
            samples = np.frombuffer(wav.readframes(wav.getnframes()), dtype="<i2")
        assert len(samples) == 32400
        for second in range(4):  # the 440 Hz note is heard, unaliased, all along
            span = samples[second * 8000:(second + 1) * 8000].astype(float)
            assert np.abs(span).max() > 20000
            spectrum = np.abs(np.fft.rfft(span))
            assert np.argmax(spectrum) == 440  # 1 Hz bins


class TestStdout:
    ARGS = ["resolve", "--table", str(SCORES / "motif-progression.dts")]

    # Buffered, output left in the buffer would fail again, with a message,
    # when the interpreter flushes it at exit.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_exits_3_silently(self, unbuffered):
        read, write = os.pipe()
        os.close(read)  # closed before the child writes
        try:
            proc = run_cli(self.ARGS, unbuffered, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (3, b"")

    def test_validate_needs_no_stdout(self):
        # with descriptor 1 closed at start-up, sys.stdout is None
        proc = run_cli(["validate", str(SCORES / "reference.dts")], stderr=subprocess.PIPE,
                       preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_device_exits_3_with_one_line(self, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = run_cli(self.ARGS, unbuffered, stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 3
        assert proc.stderr == f"dtseq: {OSError(28, os.strerror(28))}\n".encode()

    # with descriptor 1 closed at start-up, sys.stdout is None
    @pytest.mark.parametrize("args", [
        ["resolve", str(SCORES / "reference.dts")],
        ["resolve", "--table", str(SCORES / "reference.dts")],
        ["render", str(SCORES / "reference.dts"), "--rate", "8000"],
        ["scales"],
    ], ids=["resolve", "table", "render", "scales"])
    def test_closed_at_start_up_exits_3_with_one_line(self, tmp_path, args):
        wav = tmp_path / "out.wav"
        if args[0] == "render":
            args = [*args, "--out", str(wav)]
        proc = run_cli(args, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 3
        assert proc.stderr == f"dtseq: {OSError(errno.EBADF, os.strerror(errno.EBADF))}\n".encode()
        if args[0] == "render":  # the WAV is written before stdout fails
            written = wav.read_bytes()
            assert run_cli(args, capture_output=True).returncode == 0
            assert wav.read_bytes() == written


class TestStderr:
    """A closed or full stderr loses the diagnostics and changes nothing else."""

    @pytest.fixture(params=["closed", "full"])
    def broken_stderr(self, request):
        if request.param == "closed":
            yield {"preexec_fn": lambda: os.close(2)}
            return
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        with open("/dev/full", "wb") as full:
            yield {"stderr": full}

    @pytest.fixture
    def crossing(self, tmp_path):
        path = tmp_path / "warn.dts"
        path.write_text(CROSSING)
        return str(path)

    def test_render_writes_the_same_wav_and_exits_0(self, tmp_path, crossing, broken_stderr):
        args = ["render", crossing, "--rate", "8000", "--out"]
        intact = run_cli([*args, str(tmp_path / "a.wav")], capture_output=True)
        assert (intact.returncode, intact.stderr.count(b"boundary-crossing")) == (0, 1)
        proc = run_cli([*args, str(tmp_path / "b.wav")], stdout=subprocess.PIPE,
                       **broken_stderr)
        assert (proc.returncode, proc.stdout) == (0, intact.stdout)
        assert (tmp_path / "b.wav").read_bytes() == (tmp_path / "a.wav").read_bytes()

    @pytest.mark.parametrize("args", [["resolve"], ["resolve", "--table"]],
                             ids=["events", "table"])
    def test_resolve_prints_the_same_listing(self, crossing, broken_stderr, args):
        intact = run_cli([*args, crossing], capture_output=True)
        proc = run_cli([*args, crossing], stdout=subprocess.PIPE, **broken_stderr)
        assert (proc.returncode, proc.stdout) == (0, intact.stdout)
        assert intact.stdout.count(b"\n") > 1

    @pytest.mark.parametrize("args,code", [
        (["validate", "{missing}"], 3),
        (["render", "{missing}", "--out", "{wav}"], 3),
        (["render", "{valid}", "--out", "{wav}", "--rate", "0"], 2),
        (["validate", "{invalid}"], 1),
        (["render", "{invalid}", "--out", "{wav}"], 1),
    ], ids=["missing", "render-missing", "bad-rate", "invalid", "render-invalid"])
    def test_failures_keep_their_exit_codes(self, tmp_path, crossing, broken_stderr, args,
                                            code):
        invalid = tmp_path / "overlap.dts"
        invalid.write_text(OVERLAPPING)
        names = dict(missing=tmp_path / "nope.dts", valid=crossing, invalid=invalid,
                     wav=tmp_path / "x.wav")
        proc = run_cli([a.format(**names) for a in args], stdout=subprocess.PIPE,
                       **broken_stderr)
        assert (proc.returncode, proc.stdout) == (code, b"")
        assert not (tmp_path / "x.wav").exists()


# 760 minutes at one beat a minute: 2,010,962,205 samples at 44.1 kHz, under
# the WAV limit, in a 15 GiB mix
BEYOND_MEMORY = """\
base 440
ppq 1
tempo 1
length 760
scale s 1/1 3/2
instrument a scale s
  note 1 @ 759 +1 vel 40
end
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
def test_render_beyond_memory_exits_1_with_one_line(tmp_path):
    import resource

    path = tmp_path / "long.dts"
    path.write_text(BEYOND_MEMORY)
    assert run_cli(["validate", str(path)]).returncode == 0

    def limit():  # 2 GiB of address space: no 15 GiB array fits, nothing is touched
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    proc = run_cli(["render", str(path), "--out", os.devnull], capture_output=True,
                   preexec_fn=limit)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == (f"{path}:0:0: range: render needs 2010962205 samples; "
                                    f"the mix does not fit in memory\n")


class TestScales:
    def test_listing_contents(self, capsys):
        assert main(["scales"]) == 0
        out = capsys.readouterr().out
        assert "major-triad: 1/1 5/4 3/2" in out
        assert "701.96" in out
        assert "paper-major" in out
        paper_line = next(l for l in out.splitlines() if l.startswith("paper-major"))
        assert "5/6" in paper_line

    def test_byte_identical_between_runs(self, capsys):
        main(["scales"])
        first = capsys.readouterr().out
        main(["scales"])
        assert capsys.readouterr().out == first

    def test_listing_is_pinned(self):
        proc = run_cli(["scales"], capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (LISTINGS / "scales.txt").read_bytes()


class TestUsage:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "invalid choice: 'frobnicate'" in out.err

    def test_unknown_waveform_exit_2(self, ref_path, tmp_path):
        assert main(["render", ref_path, "--out", str(tmp_path / "x.wav"),
                     "--waveform", "square"]) == 2

    def test_missing_out_exit_2(self, ref_path):
        assert main(["render", ref_path]) == 2

    def test_help_is_stdout_text(self, capsys):
        assert main(["-h"]) == 0
        out = capsys.readouterr()
        assert out.out.startswith("usage: dtseq") and out.err == ""

    # argparse's text goes through main's exit path, so a broken stream
    # cannot fail again at interpreter exit and turn the code into 120
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_usage_error_on_a_full_stderr_exits_2(self):
        with open("/dev/full", "wb") as full:
            proc = run_cli(["frobnicate"], stdout=subprocess.PIPE, stderr=full)
        assert (proc.returncode, proc.stdout) == (2, b"")

    def test_usage_error_on_a_closed_stderr_exits_2(self):
        proc = run_cli(["frobnicate"], stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_help_on_a_full_stdout_exits_3_with_one_line(self):
        with open("/dev/full", "wb") as full:
            proc = run_cli(["-h"], stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 3
        assert proc.stderr == f"dtseq: {OSError(28, os.strerror(28))}\n".encode()


def sized_score(tones: int) -> str:
    """A clean score with two harmony levels of ``tones`` tones each and
    four notes for each tone but the last, a quarter of which cross a
    boundary and warn."""
    lines = ["base 220", "ppq 480", "tempo 120", f"length {480 * tones}",
             "scale j 1/1 9/8 5/4 4/3 3/2 5/3 15/8"]
    for level in (1, 2):
        lines += [f"harmony h{level} level {level} scale j",
                  *(f"  tone {i * (level + 2) % 7} @ {480 * i} +480" for i in range(tones)),
                  "end"]
    lines += ["instrument v scale j harmonies h1 h2",
              *(f"  note {i * 3 % 7} @ {120 * i} +{480 if i % 4 == 1 else 120}"
                for i in range(4 * (tones - 1))),
              "end"]
    return "\n".join(lines) + "\n"


def forget_kept():
    """Drop what parse, serialize, validate and resolve keep for the next
    call, as a fresh process has nothing kept."""
    scorefile._last_blocks, scorefile._last_texts = (0, {}), (0, {})
    model._last_findings, model._last_harmonies, model._last_range = {}, {}, None
    resolve._the_memo = resolve._Memo()


class TestCollector:
    """``main()`` runs the program with the cyclic collector off and
    freezes what is alive at its end; ``main(argv)`` leaves it alone."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("case", ["0", "1", "2", "3", "-h"])
    def test_in_process_calls_leave_the_collector_as_they_found_it(self, collector, case,
                                                                   ref_path, tmp_path,
                                                                   capsys):
        broken = tmp_path / "broken.dts"
        broken.write_text("base 440\nppq 480\ntempo 120\nlength 960\nscale t 0/2\n")
        args, code = {"0": (["resolve", ref_path], 0), "1": (["resolve", str(broken)], 1),
                      "2": (["frobnicate"], 2), "3": (["resolve", str(tmp_path / "no")], 3),
                      "-h": (["-h"], 0)}[case]
        frozen = gc.get_freeze_count()
        assert main(args) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == (collector, frozen)

    @pytest.mark.parametrize("args", [[], ["--table"], ["--rate", "8000"]],
                             ids=["resolve", "table", "render"])
    def test_no_cyclic_garbage_grows_with_the_score(self, args, tmp_path, capsys):
        """What a command leaves for the collector is the same for a score
        and for one twice its size, so leaving the collector off costs a
        program run no memory that grows with its input."""
        command = ["render", "--out", str(tmp_path / "out.wav")] if "--rate" in args else [
            "resolve"]
        found = []
        for tones in (40, 80):
            path = tmp_path / f"{tones}.dts"
            path.write_text(sized_score(tones))
            assert main([*command, str(path), *args]) == 0  # imports what the command runs
            forget_kept()
            was = gc.isenabled()
            gc.collect()
            gc.disable()
            try:
                assert main([*command, str(path), *args]) == 0
                found.append(gc.collect())
            finally:
                (gc.enable if was else gc.disable)()
        out = capsys.readouterr()
        # two runs of each score, whose crossing notes each cross both levels
        assert out.err.count("boundary-crossing") == 2 * 2 * (39 + 79)
        assert found[0] == found[1], found

    def test_a_program_run_ends_with_the_collector_off_and_frozen(self):
        child = ("import gc, sys\n"
                 "from dtseq.cli import main\n"
                 "sys.argv = ['dtseq', *sys.argv[1:]]\n"
                 "before = [s['collections'] for s in gc.get_stats()]\n"
                 "code = main()\n"
                 "after = [s['collections'] for s in gc.get_stats()]\n"
                 "print(code, gc.isenabled(), gc.get_freeze_count() > 0, before == after)\n")
        env = {**os.environ, "PYTHONPATH": str(SRC), "DTS_COLOR": "0"}
        proc = subprocess.run([sys.executable, "-c", child, "validate",
                               str(SCORES / "reference.dts")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.stdout, proc.stderr) == ("0 False True True\n", "")

    @pytest.mark.parametrize("score", ["reference", "motif-progression"])
    @pytest.mark.parametrize("args", [["validate"], ["resolve"], ["resolve", "--table"],
                                      ["render", "--rate", "8000"]],
                             ids=["validate", "resolve", "table", "render"])
    def test_program_and_in_process_runs_give_the_same_bytes(self, score, args, tmp_path,
                                                             capsys):
        wav = tmp_path / "out.wav"
        args = [*args, str(SCORES / f"{score}.dts")]
        if args[0] == "render":
            args += ["--out", str(wav)]
        proc = run_cli(args, capture_output=True)
        program = (proc.returncode, proc.stdout, proc.stderr,
                   wav.exists() and hashlib.sha256(wav.read_bytes()).hexdigest())
        wav.unlink(missing_ok=True)
        code = main(args)
        out = capsys.readouterr()
        assert (code, out.out.encode(), out.err.encode(),
                wav.exists() and hashlib.sha256(wav.read_bytes()).hexdigest()) == program


# Two tone-key edits and a note-key edit of scores/reference.dts, made in one
# process through the constructors as an editor makes them: each is
# serialized, parsed, validated, resolved and tabulated, reusing what the
# calls before it kept.  The second edit is of a tone of the first edit's
# parse, so serialize and parse reuse the instrument block it left alone;
# the third of one note's key, so they reuse every harmony block.  Each
# edit's text and listings go to the directory given.  Then the last text
# is parsed again under the digit limit 640, under which no kept block is
# taken, and its listings go there too.
IN_PROCESS_EDITS = """\
import sys
from dtseq import (Composition, HarmonicSequence, Instrument, InstrumentScore, Note,
                   TranspositionTone, export_events, export_table, parse,
                   resolve_composition, serialize, validate_composition)
out, score = sys.argv[1:]
composition = parse(open(score, "rb").read())
validate_composition(composition)
resolve_composition(composition)
export_table(composition)
for n, (block, index, key) in enumerate([("H1", 0, 1), ("H1", 1, 0), ("lead", 1, 3)],
                                        start=1):
    before = composition
    harmonies, instruments = dict(before.harmonies), list(before.instruments)
    if block == "H1":
        h1 = harmonies["H1"]
        tones = list(h1.tones)
        tones[index] = TranspositionTone(key, tones[index].interval)
        harmonies["H1"] = HarmonicSequence(h1.name, h1.level, h1.scale_name, tones)
    else:
        lead = instruments[0]
        notes = list(lead.score.notes)
        notes[index] = Note(key, notes[index].interval, notes[index].velocity)
        instruments[0] = Instrument(lead.name, lead.scale_name, lead.harmony_names,
                                    InstrumentScore(notes))
    text = serialize(Composition(before.base_frequency_hz, before.ticks_per_beat,
                                 before.tempo_bpm, before.length_ticks, before.scales,
                                 harmonies, instruments))
    composition = parse(text)
    if block == "H1":
        assert composition.instruments[0] is before.instruments[0]
    else:
        assert all(composition.harmonies[name] is harmony
                   for name, harmony in before.harmonies.items())
    assert validate_composition(composition) == []
    events = resolve_composition(composition)
    for kind, listing in (("dts", text), ("events", export_events(events)),
                          ("table", export_table(composition))):
        with open(f"{out}/edit{n}.{kind}", "w", newline="") as file:
            file.write(listing)
sys.set_int_max_str_digits(640)
again = parse(text)
assert again.instruments[0] is not composition.instruments[0]
assert validate_composition(again) == []
for kind, listing in (("events", export_events(resolve_composition(again))),
                      ("table", export_table(again))):
    with open(f"{out}/limit.{kind}", "w", newline="") as file:
        file.write(listing)
"""

REREAD = """\
import sys
from dtseq import parse, serialize
sys.stdout.write(serialize(parse(open(sys.argv[1], "rb").read())))
"""


def test_edits_made_in_process_read_as_in_a_fresh_process(tmp_path):
    """The texts and listings of :data:`IN_PROCESS_EDITS` equal what fresh
    processes make of each edit's text: it reads back byte for byte, and
    ``resolve`` and ``resolve --table`` list it alike.  The edits change
    the listings, so equal listings cannot come from an edit that was
    lost."""

    def python(*args):
        env = {**os.environ, "PYTHONPATH": str(SRC), "DTS_COLOR": "0"}
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b""), proc.stderr.decode()
        return proc.stdout

    python("-c", IN_PROCESS_EDITS, str(tmp_path), str(SCORES / "reference.dts"))
    made = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    for n in (1, 2, 3):
        dts = str(tmp_path / f"edit{n}.dts")
        fresh = {"dts": python("-c", REREAD, dts),
                 "events": python("-m", "dtseq.cli", "resolve", dts),
                 "table": python("-m", "dtseq.cli", "resolve", "--table", dts)}
        assert {kind: made[f"edit{n}.{kind}"] for kind in fresh} == fresh
    assert (made["limit.events"], made["limit.table"]) == (fresh["events"], fresh["table"])
    assert made["edit1.table"] != (LISTINGS / "reference.table.tsv").read_bytes()
    assert made["edit2.table"] != made["edit1.table"]
    assert made["edit3.events"] != made["edit2.events"]
