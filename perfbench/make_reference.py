"""Regenerate ``reference.json``: each workload's outputs at the default seed.

    python3 perfbench/make_reference.py [workload ...]

The stored outputs are what later versions of the program must reproduce
(``workloads.py`` says how closely), so regenerate them only on purpose,
from a version whose outputs are trusted.  Each operation must first pass
its own checks (eigenvalue count, property report, nullity ladder).
"""

from __future__ import annotations

import json
import shutil
import sys

import worker  # pins BLAS threads and puts src/ on the path
import workloads


def main(argv=None):
    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.SIZES)
    try:
        with open(workloads.REFERENCE_FILE, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {}
    out_root = worker.ROOT / ".perfbench_out" / "reference"
    for name in names:
        wl = workloads.make(name, workloads.DEFAULT_SEED, reference=None)
        out_dir = out_root / name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        outcome = wl.op(out_dir)
        problems = wl.check(outcome, out_dir)
        if problems:
            print(f"{name}: not stored, its checks failed: {problems}",
                  file=sys.stderr)
            return 1
        stored[name] = wl.reference_of(outcome, out_dir)
        shutil.rmtree(out_dir)
        print(f"{name}: stored", file=sys.stderr)
    stored["source_sha256"] = worker.source_digest()
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
