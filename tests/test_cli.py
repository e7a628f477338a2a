import io
import sys
import warnings
import wave

import numpy as np
import pytest

from dtseq.cli import main
from support import REFERENCE_SCORE

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


class TestOverflow:
    @pytest.mark.parametrize("args", [
        ["validate"], ["resolve"], ["resolve", "--table"], ["render", "--out", "x.wav"]])
    def test_frequency_beyond_float_range_exits_1(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "huge.dts"
        path.write_text(HUGE_RATIO)
        assert main([args[0], str(path), *args[1:]]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"{path}:0:0: overflow: instrument lead note 0: resolved "
                           f"frequency is beyond the float range\n"
                           f"{path}:0:0: overflow: instrument lead key 1: frequency "
                           f"table entry is beyond the float range\n")
        assert not (tmp_path / "x.wav").exists()


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


class TestUsage:
    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_waveform_exit_2(self, ref_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["render", ref_path, "--out", str(tmp_path / "x.wav"),
                  "--waveform", "square"])
        assert exc.value.code == 2

    def test_missing_out_exit_2(self, ref_path):
        with pytest.raises(SystemExit) as exc:
            main(["render", ref_path])
        assert exc.value.code == 2
