#!/usr/bin/env python3
"""Time two copies of the package on one benchmark workload, interleaved in one process.

    python3 tools/ab_interleaved.py --workload loo-cv --seed 12 [--inputs 20] [--rounds 5] [--base HEAD]

The base side is the package at a git revision (``--base``, HEAD by
default), extracted with ``git archive`` into a temporary directory; the
change side is the working tree's ``src``. Each side imports its own
``tmcda``, then the working tree's ``perfbench/workloads.py`` against it, so
both sides run the same workload code on the same inputs: input i is made
from (seed, i), as the benchmark makes it. One untimed call per input and
side comes first, and its report texts are compared. Then every round calls
each input once per side, the two sides in turn, in an order that alternates
from input to input and from round to round, and times each call in process
time (``time.process_time``), so both sides share whatever load the host
has. The output gives each side's total and median call time, the calls the
change won (its time below the base's on the same input and round), and,
per input, whether the two report texts matched and the ratio of the
change's median time to the base's.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def _drop_package() -> None:
    for name in [m for m in sys.modules if m == "tmcda" or m.startswith("tmcda.")]:
        del sys.modules[name]


def load_workloads(src: Path, side: str):
    """``perfbench/workloads.py``, as ``workloads_<side>``, imported against the ``tmcda`` under ``src``."""
    _drop_package()
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{side}", ROOT / "perfbench" / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)    # dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(src))
        _drop_package()
    if not Path(module.cli.__file__).is_relative_to(src):
        raise RuntimeError(f"{side} imported tmcda from {module.cli.__file__}, not from {src}")
    return module


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("loo-cv", "loo-variants", "alpha-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=int, default=20)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--base", default="HEAD", help="git revision of the base side (default HEAD)")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        sources = {"base": tmp / "src", "change": ROOT / "src"}
        calls = {}
        for side in SIDES:
            workload = load_workloads(sources[side], side).WORKLOADS[args.workload]
            calls[side] = [workload.prepare_input(args.seed, i, tmp / "work" / side, False)
                           for i in range(args.inputs)]
        matched = [calls["base"][i]().text == calls["change"][i]().text for i in range(args.inputs)]

        seconds = {side: [[] for _ in range(args.inputs)] for side in SIDES}
        for round_ in range(args.rounds):
            for i in range(args.inputs):
                for side in SIDES if (round_ + i) % 2 == 0 else SIDES[::-1]:
                    start = time.process_time()
                    calls[side][i]()
                    seconds[side][i].append(time.process_time() - start)

    pairs = [(b, c) for i in range(args.inputs) for b, c in zip(seconds["base"][i], seconds["change"][i])]
    print(f"workload {args.workload}, seed {args.seed}, {args.inputs} inputs x {args.rounds} rounds, "
          f"base {args.base}, process time")
    for side in SIDES:
        flat = [s for per_input in seconds[side] for s in per_input]
        print(f"  {side:6s} total {sum(flat):8.3f} s   median call {statistics.median(flat) * 1e3:8.3f} ms")
    base_total = sum(b for b, _ in pairs)
    print(f"  change/base total {sum(c for _, c in pairs) / base_total:.4f}; "
          f"change faster in {sum(c < b for b, c in pairs)}/{len(pairs)} calls")
    print("  input  report  change/base median")
    for i in range(args.inputs):
        ratio = statistics.median(seconds["change"][i]) / statistics.median(seconds["base"][i])
        print(f"  {i:5d}  {'same' if matched[i] else 'DIFFERS':7s} {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
