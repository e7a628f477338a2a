"""numpy is loaded by synthesis only: importing dtseq and running the
symbolic commands must not import it, and rendering must.

Each case runs in a fresh interpreter, because this test process has
numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "scores" / "reference.dts"

CHECK = """\
import sys
import dtseq
assert "numpy" not in sys.modules, "import dtseq loaded numpy"
from dtseq.cli import main
code = main(sys.argv[1:])
print(code, "numpy" in sys.modules)
"""


def run(*args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", CHECK, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("args", [
    ["validate", str(REFERENCE)],
    ["resolve", str(REFERENCE)],
    ["resolve", "--table", str(REFERENCE)],
    ["scales"],
])
def test_symbolic_commands_do_not_import_numpy(args):
    assert run(*args) == "0 False"


def test_render_imports_numpy_and_writes_the_wav(tmp_path):
    out = tmp_path / "reference.wav"
    assert run("render", str(REFERENCE), "--out", str(out), "--rate", "8000") == "0 True"
    assert out.read_bytes()[:4] == b"RIFF"
