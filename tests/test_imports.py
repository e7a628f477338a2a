"""Modules load on first use: importing dtseq loads none of its
submodules, each command loads only the layers it runs, and only
rendering imports numpy.

The command cases run in a fresh interpreter, because this test process
has every module and numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtseq

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "scores" / "reference.dts"

CHECK = """\
import sys
import dtseq
loaded = sorted(m for m in sys.modules if m.startswith("dtseq."))
assert not loaded, f"import dtseq loaded {loaded}"
assert "numpy" not in sys.modules, "import dtseq loaded numpy"
from dtseq.cli import main
code = main(sys.argv[1:])
print(code, " ".join(sorted(m for m in sys.modules if m.split(".")[0] == "dtseq")),
      "numpy" in sys.modules)
"""

SCALES = "dtseq dtseq.cli dtseq.rational"
VALIDATE = f"{SCALES} dtseq.model dtseq.scorefile"
RESOLVE = f"{VALIDATE} dtseq.resolve"
RENDER = f"{RESOLVE} dtseq.render"
LOADS = {"scales": SCALES, "validate": VALIDATE, "resolve": RESOLVE}


def run(*args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", CHECK, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def line(modules: str, numpy: bool) -> str:
    return f"0 {' '.join(sorted(modules.split()))} {numpy}"


@pytest.mark.parametrize("args", [
    *([*command, str(score)] for score in sorted((ROOT / "scores").glob("*.dts"))
      for command in (["validate"], ["resolve"], ["resolve", "--table"])),
    ["scales"],
], ids=lambda args: "-".join(Path(arg).stem for arg in args))
def test_symbolic_commands_do_not_import_numpy(args):
    """Nor any layer they do not run."""
    assert run(*args) == line(LOADS[args[0]], False)


def test_render_imports_numpy_and_writes_the_wav(tmp_path):
    out = tmp_path / "reference.wav"
    assert run("render", str(REFERENCE), "--out", str(out), "--rate", "8000") == \
        line(RENDER, True)
    assert out.read_bytes()[:4] == b"RIFF"


class TestPackageNames:
    def test_every_public_name_is_its_submodules_object(self):
        import importlib
        for name in dtseq.__all__:
            owner = importlib.import_module(f"dtseq.{dtseq._OWNER[name]}")
            assert getattr(dtseq, name) is getattr(owner, name), name
        assert sorted(dtseq._OWNER) == sorted(dtseq.__all__)

    def test_both_listings_are_package_names(self):
        import dtseq.resolve
        for name in ("export_events", "export_table"):
            assert getattr(dtseq, name) is getattr(dtseq.resolve, name)
            assert name in dtseq.__all__ and name in dir(dtseq)

    def test_dir_covers_all(self):
        assert set(dtseq.__all__) <= set(dir(dtseq))
        assert "__version__" in dir(dtseq)

    def test_star_import(self):
        namespace: dict = {}
        exec("from dtseq import *", namespace)
        assert {name for name in namespace if name != "__builtins__"} == set(dtseq.__all__)
        assert namespace["parse"] is dtseq.scorefile.parse

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'dtseq' has no attribute 'nosuch'"):
            dtseq.nosuch
        assert not hasattr(dtseq, "_nosuch")

    def test_a_name_replaced_in_its_submodule_reads_as_replaced(self, monkeypatch):
        import dtseq.scorefile

        def patched(text):
            return []

        monkeypatch.setattr(dtseq.scorefile, "parse", patched)
        assert dtseq.parse is patched
        monkeypatch.undo()
        assert dtseq.parse is dtseq.scorefile.parse is not patched

    def test_the_renderer_reads_the_packages_waveform_names(self):
        import dtseq.render
        assert dtseq.render.WAVEFORMS is dtseq.WAVEFORMS == ("sine", "additive-4")

    def test_export_events_from_render_follows_the_resolver(self, monkeypatch):
        import dtseq.render
        import dtseq.resolve

        def patched(events):
            return ""

        monkeypatch.setattr(dtseq.resolve, "export_events", patched)
        assert dtseq.render.export_events is patched
        with pytest.raises(AttributeError, match="dtseq.render"):
            dtseq.render.nosuch
