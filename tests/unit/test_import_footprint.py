"""The package runs on numpy alone: importing it must not load networkx."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("module", ["repro", "repro.experiments.cli"])
def test_import_leaves_networkx_unloaded(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = f"import sys, {module}; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
