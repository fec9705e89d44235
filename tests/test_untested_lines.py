"""``scripts/untested_lines.py`` on one fast test file, in a fresh process:
module bodies count as run, and of ``ChainComplex.__post_init__`` the
checks run and the raises they guard do not."""

import inspect
import re
import subprocess
import sys
from pathlib import Path

from polyk.cellular import ChainComplex

REPO = Path(__file__).resolve().parent.parent


def test_untested_lines_on_records():
    run = subprocess.run([sys.executable, str(REPO / "scripts" / "untested_lines.py"),
                          str(REPO / "tests" / "test_records.py")],
                         cwd=REPO, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    listed = [line for line in lines if re.match(r"[a-z_]+\.py:\d+ ", line)]
    assert lines[-1] == f"{len(listed)} statements never ran; pytest exit code 0"
    assert listed and all(re.fullmatch(r"[a-z_]+\.py:\d+ \S.*", line) for line in listed)
    # errors.py holds only module-level statements, run on import
    assert not [line for line in listed if line.startswith("errors.py:")]
    assert any(line.startswith("cli.py:") and line.endswith(" sys.exit(main())")
               for line in listed)
    source, start = inspect.getsourcelines(ChainComplex.__post_init__)
    check = start + next(i for i, text in enumerate(source) if "f = self.f_vector" in text)
    assert source[check - start + 2].strip() == "raise InternalInvariantError("
    assert not any(line.startswith(f"cellular.py:{check} ") for line in listed)
    assert f"cellular.py:{check + 2} raise InternalInvariantError(" in listed
