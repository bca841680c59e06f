#!/usr/bin/env python3
"""Record the reference outputs that perfbench/run.py checks against.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/record.py [--size full|tiny] [--workload NAME]

It runs one pass of each workload per codebook variant (once for the
exponent sweep, whose inputs do not depend on the seed) and merges the
observed outputs into perfbench/references.json.  A full recording takes
about 15 minutes on 2 vCPUs.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def record(size: str, name: str, refs: dict) -> None:
    done = set()
    run.OUT_DIR.mkdir(exist_ok=True)
    for seed in range(run.VARIANTS):
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            wl = run.WORKLOADS[name](size, seed, Path(tmp))
            if wl.reference_key() in done:
                continue
            done.add(wl.reference_key())
            wl.write_inputs()
            groups = wl.run_pass()
        bad = wl.cross_check(groups)
        if bad:
            sys.exit(f"{name} seed {seed}: cross-check failed for {bad}")
        refs.setdefault(size, {}).setdefault(name, {})[
            wl.reference_key()] = wl.recorded(groups)
        print(f"recorded {size} {name} {wl.reference_key()}", flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=sorted(run.SIZES), action="append")
    ap.add_argument("--workload", choices=sorted(run.WORKLOADS),
                    action="append")
    args = ap.parse_args()
    run.import_program()
    refs = run.read_json(run.REFERENCES) or {}
    for size in args.size or sorted(run.SIZES):
        for name in args.workload or list(run.WORKLOADS):
            record(size, name, refs)
            run.write_json(run.REFERENCES, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
