#!/usr/bin/env python3
"""lotus_sweep sweeps a fixed governor beside a named one.

Usage:
    test_sweep_fixed_governor.py PATH/TO/lotus_sweep

`fixed:<cpu>,<gpu>` holds a comma, the --governor list's separator: the
sweep must read `performance,fixed:5,3` as two governors, exit 0 and list
both on the governor axis of sweep.json's meta line. Exit 0 on pass, 1
otherwise.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def main():
    sweep = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="sweep_fixed_governor_") as tmp:
        cmd = [sweep, "--out", tmp, "--governor", "performance,fixed:5,3", "--devices", "1",
               "--streams", "1", "--requests", "5", "--jobs", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
            return 1
        lines = (Path(tmp) / "sweep.json").read_text().splitlines()
        meta = json.loads(lines[0])
        governors = meta["axes"]["governor"]
        cells = [json.loads(line)["governor"] for line in lines[1:]]
    if governors != ["performance", "fixed:5,3"] or cells != governors:
        print(f"governor axis {governors}, cells {cells}; "
              "expected ['performance', 'fixed:5,3'] for both")
        return 1
    print("ok: governor axis", governors)
    return 0


if __name__ == "__main__":
    sys.exit(main())
