import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_optimized():
    """Run a code snippet under ``python -O`` and return its stdout.

    The snippet is prefixed by ``assert False``, so it runs only when asserts
    are really stripped.
    """

    def run(code: str) -> str:
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", "assert False\n" + code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
