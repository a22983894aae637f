"""Check that the benchmark's answer check can fail.

    python3 perfbench/selftest.py

Runs the benchmark once per case with one pinned reference value made
wrong (8/330 split tangent functions on q=81, 1409 search nodes on
q13_size6).  Each run must report failed > 0 and exit non-zero; this
script exits non-zero if any run does not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

CASES = (
    ("q81-recover", "property-w q81_size11 --n 1", "split", "8/330"),
    ("prime-search", "search q13_size6", "nodes", 1409),
)


def main() -> int:
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    ok = True
    for workload, job, key, wrong in CASES:
        bad = json.loads(json.dumps(ref))
        bad[workload][job]["facts"][key] = wrong
        path = out / f"selftest-{workload}.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
             "--seconds", "1", "--trace", "0", "--reference", str(path)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=170,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        caught = proc.returncode != 0 and result["failed"] > 0 and not result["correct"]
        ok &= caught
        print(f"{workload}: {key} = {wrong!r} -> exit {proc.returncode}, "
              f"failed {result['failed']}/{result['attempted']}: {'caught' if caught else 'MISSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
