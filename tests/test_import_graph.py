"""The program does not load its verifier.

``hetgibbs.oracle`` (the MLG law, rank calibration, the acceptance checks)
and the scipy.stats it needs are loaded only by ``hetgibbs validate`` and
``hetgibbs simulate``.  A fresh interpreter imports the package and every
module a ``fit`` or ``cv`` runs, and neither may appear in ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROGRAM = ("cli", "design", "esn", "gibbs", "logconcave", "metrics", "persist")


def test_program_modules_do_not_load_oracle_or_scipy_stats():
    code = (
        "import importlib, sys\n"
        "import hetgibbs\n"
        f"for m in {PROGRAM!r}:\n"
        "    importlib.import_module('hetgibbs.' + m)\n"
        "print(*[m for m in ('hetgibbs.oracle', 'scipy.stats') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
