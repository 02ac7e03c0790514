#!/usr/bin/env python3
"""Time two copies of the package on one benchmark workload, interleaved in one process.

    python3 tools/ab_interleaved.py --workload loo-cv --seed 12 [--inputs 20] [--rounds 5] [--base HEAD]
        [--stage MODULE.FUNCTION] [--smoke]

The base side is the package at a git revision (``--base``, HEAD by
default), extracted with ``git archive`` into a temporary directory; the
change side is the working tree's ``src``. Each side imports its own
``tmcda``, then the working tree's ``perfbench/workloads.py`` against it, so
both sides run the same workload code on the same inputs: input i is made
from (seed, i), as the benchmark makes it (``--smoke``: at the benchmark's
smoke sizes and settings). One untimed call per input and side comes first,
and its report texts are compared. Then every round makes each timed call
once per side, the two sides in turn, in an order that alternates from call
to call and from round to round, and times it in process time
(``time.process_time``), so both sides share whatever load the host has.

Without ``--stage`` the timed calls are the workload's calls, one per
input. With ``--stage`` (say ``itml.fit_itml``) each side records, during
its untimed calls, every call of that function of ``tmcda.<MODULE>`` with
its arguments and output, and the timed calls replay those recorded calls
alone. The two sides must record as many calls, and at least one. Per recorded call the
output tells whether the two sides' arguments and outputs are bitwise
equal, and for outputs that are not, the largest relative difference of
their arrays (max |change - base| / max |base| over each array of floats)
and the field it is in. Every replay of a call passes the same recorded
arguments, so a stage that changes its arguments in place is timed on
changed inputs after its first replay.

The output gives each side's total and median call time, the calls the
change won (its time below the base's on the same call and round), and, per
timed call, whether the reports (or the stage's outputs) matched and the
ratio of the change's median time to the base's.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import importlib
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def _drop_package() -> None:
    for name in [m for m in sys.modules if m == "tmcda" or m.startswith("tmcda.")]:
        del sys.modules[name]


def load_workloads(src: Path, side: str, stage_module: str | None = None):
    """``perfbench/workloads.py``, as ``workloads_<side>``, imported against the ``tmcda`` under ``src``,
    and that package's ``tmcda.<stage_module>`` (None without one)."""
    _drop_package()
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{side}", ROOT / "perfbench" / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)    # dataclasses look it up
        spec.loader.exec_module(module)
        owner = importlib.import_module(f"tmcda.{stage_module}") if stage_module else None
    finally:
        sys.path.remove(str(src))
        _drop_package()
    if not Path(module.cli.__file__).is_relative_to(src):
        raise RuntimeError(f"{side} imported tmcda from {module.cli.__file__}, not from {src}")
    return module, owner


class StageCall(NamedTuple):
    input: int
    args: tuple             # as the stage received them, copied
    kwargs: dict
    output: object


def record_stage(owner, name: str, run, index: int) -> tuple[object, list[StageCall]]:
    """``run()``'s result, and the calls of ``owner.<name>`` it made."""
    original = getattr(owner, name)
    calls = []

    @functools.wraps(original)
    def recording(*args, **kwargs):
        args_copy, kwargs_copy = copy.deepcopy((args, kwargs))
        output = original(*args, **kwargs)
        calls.append(StageCall(index, args_copy, kwargs_copy, output))
        return output

    setattr(owner, name, recording)
    try:
        return run(), calls
    finally:
        setattr(owner, name, original)


def leaves(value, path: str = "") -> list[tuple[str, object]]:
    """``value`` as (path, leaf) pairs: arrays, lists of floats (as arrays) and other scalars, through
    dataclasses, lists, tuples and dicts, so that two packages' classes compare by their fields."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [leaf for f in dataclasses.fields(value) for leaf in leaves(getattr(value, f.name), f"{path}.{f.name}")]
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in leaves(item, f"{path}[{key!r}]")]
    if isinstance(value, (list, tuple)):
        if value and all(type(item) is float for item in value):
            return [(path, np.array(value))]
        return [leaf for i, item in enumerate(value) for leaf in leaves(item, f"{path}[{i}]")]
    return [(path, value)]


def _bits(leaf):
    if isinstance(leaf, np.ndarray):
        return leaf.dtype.str, leaf.shape, leaf.tobytes()
    return float.hex(leaf) if isinstance(leaf, float) else leaf


def compare(base, change) -> str:
    """``same`` when every leaf is bitwise equal; else the largest relative difference of the float
    arrays and the path of the array it is in, or ``DIFFERS`` when the two differ in structure, shape
    or a leaf that is no float array."""
    base_leaves, change_leaves = leaves(base), leaves(change)
    if [p for p, _ in base_leaves] != [p for p, _ in change_leaves]:
        return "DIFFERS"
    differing = [(path, b, c) for (path, b), (_, c) in zip(base_leaves, change_leaves) if _bits(b) != _bits(c)]
    largest, where = 0.0, ""
    for path, b, c in differing:
        if not (isinstance(b, np.ndarray) and isinstance(c, np.ndarray) and b.shape == c.shape
                and b.dtype.kind == c.dtype.kind == "f"):
            return "DIFFERS"
        with np.errstate(invalid="ignore"):
            scale, gap = np.abs(b).max(), np.abs(c - b).max()
        relative = gap / scale if scale > 0 else float("inf") if gap > 0 else 0.0
        if relative != relative:    # a NaN where the two arrays differ
            return "DIFFERS"
        if relative >= largest:
            largest, where = relative, path
    return f"rel {largest:.1e} {where}" if differing else "same"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("loo-cv", "loo-variants", "alpha-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=int, default=20)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--base", default="HEAD", help="git revision of the base side (default HEAD)")
    p.add_argument("--stage", metavar="MODULE.FUNCTION", help="time only this function's calls, e.g. itml.fit_itml")
    p.add_argument("--smoke", action="store_true", help="the benchmark's smoke sizes and settings")
    args = p.parse_args(argv)
    stage_module, _, stage_name = args.stage.rpartition(".") if args.stage else (None, None, None)
    if args.stage and not stage_module:
        p.error("--stage takes MODULE.FUNCTION, e.g. itml.fit_itml")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        sources = {"base": tmp / "src", "change": ROOT / "src"}
        calls, texts, recorded = {}, {}, {}
        for side in SIDES:
            workloads, owner = load_workloads(sources[side], side, stage_module)
            workload = workloads.WORKLOADS[args.workload]
            calls[side] = [workload.prepare_input(args.seed, i, tmp / "work" / side, args.smoke)
                           for i in range(args.inputs)]
            if owner is None:
                texts[side] = [call().text for call in calls[side]]
                continue
            if not callable(getattr(owner, stage_name, None)):
                p.error(f"{side}: tmcda.{stage_module} has no function {stage_name}")
            texts[side], recorded[side] = [], []
            for i, call in enumerate(calls[side]):
                outcome, stage_calls = record_stage(owner, stage_name, call, i)
                texts[side].append(outcome.text)
                recorded[side] += stage_calls
            original = getattr(owner, stage_name)
            calls[side] = [functools.partial(original, *c.args, **c.kwargs) for c in recorded[side]]
        reports = [texts["base"][i] == texts["change"][i] for i in range(args.inputs)]
        if args.stage and (len(recorded["base"]) != len(recorded["change"]) or not recorded["base"]):
            print(f"{args.stage}: base made {len(recorded['base'])} calls, change {len(recorded['change'])}")
            return 1

        n = len(calls["base"])
        seconds = {side: [[] for _ in range(n)] for side in SIDES}
        for round_ in range(args.rounds):
            for i in range(n):
                for side in SIDES if (round_ + i) % 2 == 0 else SIDES[::-1]:
                    start = time.process_time()
                    calls[side][i]()
                    seconds[side][i].append(time.process_time() - start)

    timed = f"{n} calls of {args.stage}" if args.stage else f"{n} inputs"
    print(f"workload {args.workload}{' (smoke)' if args.smoke else ''}, seed {args.seed}, "
          f"{timed} x {args.rounds} rounds, base {args.base}, process time")
    for side in SIDES:
        flat = [s for per_call in seconds[side] for s in per_call]
        print(f"  {side:6s} total {sum(flat):8.3f} s   median call {statistics.median(flat) * 1e3:8.3f} ms")
    pairs = [(b, c) for i in range(n) for b, c in zip(seconds["base"][i], seconds["change"][i])]
    print(f"  change/base total {sum(c for _, c in pairs) / sum(b for b, _ in pairs):.4f}; "
          f"change faster in {sum(c < b for b, c in pairs)}/{len(pairs)} calls")

    def ratio(i):
        return statistics.median(seconds["change"][i]) / statistics.median(seconds["base"][i])

    if not args.stage:
        print("  input  report  change/base median")
        for i in range(n):
            print(f"  {i:5d}  {'same' if reports[i] else 'DIFFERS':7s} {ratio(i):.4f}")
        return 0
    print(f"  reports the same on {sum(reports)}/{args.inputs} inputs")
    print("  call  input  change/base median  arguments  output")
    for i, (b, c) in enumerate(zip(recorded["base"], recorded["change"])):
        arguments = compare((b.args, b.kwargs), (c.args, c.kwargs))
        print(f"  {i:4d}  {b.input:5d}  {ratio(i):18.4f}  {arguments}  {compare(b.output, c.output)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
