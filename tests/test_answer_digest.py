"""The answer digest checks itself: this checkout's digest compares equal
to itself, and a copy with one changed ``tau`` fails the comparison."""

import math
import subprocess
import sys
from pathlib import Path

import answer_digest


def test_digest_passes_against_itself_and_fails_on_a_changed_tau(tmp_path, capsys):
    script = Path(answer_digest.__file__).resolve()
    text = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          check=True, timeout=120).stdout
    digest = tmp_path / "digest.txt"
    digest.write_text(text)
    assert answer_digest.main(["--compare", str(digest), str(digest)]) == 0
    assert capsys.readouterr().out.endswith("every check passed\n")

    lines = text.splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if " tau=" in line)
    tokens = lines[k].split(" ")
    j = next(i for i, token in enumerate(tokens) if token.startswith("tau="))
    tau = float.fromhex(tokens[j].removeprefix("tau="))
    tokens[j] = f"tau={math.nextafter(tau, math.inf).hex()}"
    lines[k] = " ".join(tokens)
    changed = tmp_path / "changed.txt"
    changed.write_text("".join(lines))
    assert answer_digest.main(["--compare", str(digest), str(changed)]) == 1
    out = capsys.readouterr().out
    assert "tau" in out and out.endswith("1 failed checks\n")
