"""Fresh-interpreter probes: start-up time, import split, source size.

Launches run one at a time, which never exceeds ``nproc`` and keeps them
from contending with each other for a core.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: The query whose fresh-interpreter launch time is `setup_s`.
MEASURES_ARGV = ["measures", "--p00", "0.2", "--p01", "0.35", "--p10", "0.3", "--p11", "0.6"]

_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def _env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EFFECTGEOM_WORKERS"}
    env["PYTHONPATH"] = str(src)
    return env


class SetupProbe:
    """Fresh-interpreter launches of ``python -m effectgeom measures ...``.

    A launch fails if it exits non-zero or prints other bytes than the
    in-process ``cli.main`` printed for the same argv.
    """

    def __init__(self, src: Path, expected_stdout: str):
        self.env = _env(src)
        self.expected = expected_stdout
        self.times: list[float] = []
        self.failed = 0

    def launch(self) -> None:
        start = perf_counter()
        done = subprocess.run([sys.executable, "-m", "effectgeom", *MEASURES_ARGV], env=self.env,
                              capture_output=True, text=True, timeout=60)
        self.times.append(perf_counter() - start)
        self.failed += done.returncode != 0 or done.stdout != self.expected


def import_times(src: Path, launches: int) -> dict[str, float]:
    """Median cumulative import time of numpy and of effectgeom on top of it.

    From ``python -X importtime``; numpy is imported first so the effectgeom
    figure (the package plus its CLI module) excludes it.
    """
    argv = [sys.executable, "-X", "importtime", "-c", "import numpy, effectgeom.cli"]
    numpy_s, effectgeom_s = [], []
    for _ in range(launches):
        done = subprocess.run(argv, env=_env(src), capture_output=True, text=True,
                              timeout=60, check=True)
        top = [(int(cum), name) for _, cum, indent, name in _IMPORT_LINE.findall(done.stderr)
               if len(indent) == 1]
        numpy_s.append(sum(c for c, name in top if name == "numpy") / 1e6)
        effectgeom_s.append(sum(c for c, name in top if name.split(".")[0] == "effectgeom") / 1e6)
    return {
        "setup.import_numpy_s": statistics.median(numpy_s),
        "setup.import_effectgeom_s": statistics.median(effectgeom_s),
    }


def source_lines(src: Path) -> int:
    """Lines of Python under src/, the size ROADMAP tracks next to speed."""
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
