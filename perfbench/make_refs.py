"""Regenerate the committed reference outputs in refs/ (one file per workload).

    python3 perfbench/make_refs.py [workload ...]

Runs every corpus entry once and stores its outcome.  Only regenerate on a
commit whose outputs are known to be right, and say in the change log why
the references moved.  This takes several minutes (distance_scene alone is
one ~10 s experiment).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run  # pins BLAS threads and puts src/ on the path
import workloads


def build(name: str) -> dict:
    dl = run.import_dimlab()
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        wl = workloads.WORKLOADS[name](dl, 0, workdir)
        return {key: wl.run(key) for key in wl.keys}


def main(names) -> int:
    sys.path.insert(0, run.SRC)
    for name in names or sorted(workloads.WORKLOADS):
        refs = build(name)
        path = os.path.join(run.HERE, "refs", f"{name}.json")
        with open(path, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path} ({len(refs)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
