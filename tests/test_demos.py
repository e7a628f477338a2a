"""Every demo runs clean on a copy of ``demos/`` and ``scores/``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert DEMOS == ["01_scales_and_cents.py", "02_resolve_reference.py",
                     "03_level3_stack.py", "04_render_waveforms.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0_with_empty_stderr(demo, tmp_path):
    ignore = shutil.ignore_patterns("*.wav", "__pycache__")
    shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=ignore)
    shutil.copytree(ROOT / "scores", tmp_path / "scores", ignore=ignore)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "dev", str(tmp_path / "demos" / demo)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    wavs = sorted((tmp_path / "demos").glob("*.wav"))
    if demo.startswith("04"):
        assert len(wavs) == 2
        assert all(w.read_bytes()[:4] == b"RIFF" for w in wavs)
    else:
        assert wavs == []
