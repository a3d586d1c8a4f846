import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "code_lines.py"


def test_counts_lines_with_code_only(tmp_path):
    """Blank, comment and docstring lines do not count; every line of a
    statement spread over several lines does, and a string that is not a
    whole statement is code."""
    (tmp_path / "m.py").write_text(
        '"""Module doc,\n\nover three lines."""\n\n# a comment\n'
        'x = (1,\n     2)  # trailing comment\n\n\n'
        'def f():\n    """Function doc."""\n    return "s"\n')
    (tmp_path / "empty.py").write_text("")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "empty.py 0\nm.py 4\ntotal 4\n"
