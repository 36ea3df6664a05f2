"""Golden output digests: ``tools/output_digest.py`` prints, byte for byte,
the committed ``tools/output_digest.txt``.

The tool runs in a fresh interpreter, so its one-BLAS-thread pin holds
whatever numpy this process already loaded, and its patches of the
harness's ``estimate``, ``music_estimate`` and ``ls_channel`` stay out of
the other tests. A change that moves an output regenerates the file (see
the tool's docstring) and lists the moved lines in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_digest_matches_the_committed_file():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    expected = (ROOT / "tools" / "output_digest.txt").read_text()
    assert out == expected
