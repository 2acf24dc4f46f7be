"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload, gated or not, it runs one timed and two traced runs with 2% of the
usual sample counts and checks that:

* each run exits 0 and reports correct, with no failed query;
* every metric BENCHMARK.json names is printed, with its unit;
* the counts of the two traced runs at one seed are identical;
* in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

SPEC = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = ("mc.draw_values", "mc.chunks", "homogeneity.points", "volume.estimate_calls")
BARE = Path("perfbench") / "out" / "bare"


def run(workload: str, trace: int, cwd: Path = Path(".")) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--scale", "0.02"]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, f"{argv} exited {done.returncode}:\n{done.stderr[-2000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0, done.stdout[-3000:]
    assert result["attempted"] >= 1
    return result


def main() -> int:
    for name in WORKLOAD_NAMES:
        timed = run(name, 0)["metrics"]
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert {k: v["unit"] for k, v in timed.items()} == want, (name, timed)
        traced = [run(name, 1)["metrics"] for _ in range(2)]
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert {k: v["unit"] for k, v in traced[0].items()} == want, (name, traced[0])
        for k in COUNTS:
            assert traced[0][k]["value"] == traced[1][k]["value"], (name, k)
        print(f"ok {name}: " + ", ".join(f"{k}={traced[0][k]['value']}" for k in COUNTS))

    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", BARE)
    for path in SPEC["paths"]:
        shutil.copytree(path, BARE / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=BARE, capture_output=True, text=True, timeout=180)
    shutil.rmtree(BARE)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok: exits", done.returncode, "without a result where there is no program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
