import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
TOOL = ROOT / "tools" / "identity.py"


def test_hashes_every_output_of_the_tree_on_the_path():
    """The tool names the tree it imported, every run exits as expected, and
    each output is one ``sha256  name`` line under a name of its own."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                          env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"wavecnn imported from {ROOT / 'src' / 'wavecnn' / '__init__.py'}\n"
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    names = [line[66:] for line in lines]
    assert len(set(names)) == len(names)
    assert "eval empty.wcn stderr" in names and "train dwt_cat f64 f64.wcn" in names
