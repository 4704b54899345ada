"""What importing the command line costs a fresh interpreter.

Every ``stonecheck`` process imports ``stonecheck.cli`` before it does any
work, so a module that import pulls in is paid by every command.  The
records are plain ``__slots__`` classes, so ``dataclasses`` and the
modules it imports (``inspect``, ``ast``, ``dis``, ``tokenize``) stay out.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def loaded_modules(code: str) -> set[str]:
    """The modules in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules, sep='\\n')"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    added = loaded_modules("import stonecheck.cli") - loaded_modules("pass")
    assert "stonecheck.cli" in added
    assert sorted(m for m in HEAVY if m in added) == []
