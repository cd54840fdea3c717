"""Run a script in a new interpreter, so what it imports starts from nothing."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(script, *argv):
    """Run `script` with `python -c` on this checkout's src; `argv` follow it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
