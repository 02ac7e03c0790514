#!/usr/bin/env python3
"""Time two copies of the package on one benchmark workload, interleaved in one process.

    python3 tools/ab_interleaved.py --workload loo-cv --seed 12 [--inputs 20] [--rounds 5] [--base HEAD]
        [--stage MODULE.FUNCTION | all ...] [--smoke]

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
(``time.process_time``), so both sides share whatever load the host has,
and in wall time (``time.perf_counter``). Process time counts the spin of a
BLAS worker thread as the caller's cost: each side's process/wall ratio
(its total process seconds over its total wall seconds) reads about 1 when
its calls ran on one thread, and up to the thread count when they did not.

Without ``--stage`` the timed calls are the workload's calls, one per
input. With ``--stage`` (say ``itml.fit_itml``) each side records, during
its untimed calls, every call of that function of ``tmcda.<MODULE>`` with
its arguments and output, and the timed calls replay those recorded calls
alone. ``--stage`` may repeat: the one untimed pass records every stage
named, and each stage is then replayed, timed and reported on its own, in
the order given. ``--stage all`` names every pipeline stage, in pipeline
order: ``ALL_STAGES``. For each stage the two sides must record as many
calls; a stage that neither side calls on the workload (ITML and the
mixture on ``loo-cv``) is reported as not called and skipped. Per recorded
call the
output tells whether the two sides' arguments and outputs are bitwise
equal, and for outputs that are not, the largest relative difference of
their arrays (max |change - base| / max |base| over each array of floats)
and the field it is in. Every replay of a call passes the same recorded
arguments, so a stage that changes its arguments in place is timed on
changed inputs after its first replay.

The output gives each side's total and median call time, the calls the
change won (its time below the base's on the same call and round), each
side's process/wall ratio, and, per
timed call, whether the reports (or the stage's outputs) matched and the
ratio of the change's median time to the base's; with ``--stage``, one such
block per stage, each opening with its own ``workload`` line and closing
with two lines. ``output digest`` gives each side's SHA-256 over the bits
of every leaf of every recorded output, in call order, and the number of
calls whose outputs are the same, so that a bit-for-bit claim is one
comparison. ``memory`` gives each side's ``tracemalloc`` peak above the
call's start, in bytes, summed over the recorded calls, and the
change/base ratio of those sums. The peaks come from one more untimed
replay per side after the timed rounds, the base side first, in which each
call runs twice: untraced, then traced. The untraced run leaves Python's
free lists in the same state on both sides (a traced run alone read 120 B
apart, of 179 KB, on two copies of the same code). Tracing is on only for
the traced runs, so it slows no timed call.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import importlib
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
ALL_STAGES = ("lasso.cross_validate_lambda", "lasso.fit_lasso", "itml.build_constraints", "itml.fit_itml",
              "itml.match_source_to_target", "gmm.fit_gmm", "gmm.augment", "boosting.fit_gbbw", "boosting.predict")


def _drop_package() -> None:
    for name in [m for m in sys.modules if m == "tmcda" or m.startswith("tmcda.")]:
        del sys.modules[name]


def load_workloads(src: Path, side: str, stage_modules=()):
    """``perfbench/workloads.py``, as ``workloads_<side>``, imported against the ``tmcda`` under ``src``,
    and that package's ``tmcda.<module>`` for each of ``stage_modules``, by name."""
    _drop_package()
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{side}", ROOT / "perfbench" / "workloads.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)    # dataclasses look it up
        spec.loader.exec_module(module)
        owners = {name: importlib.import_module(f"tmcda.{name}") for name in stage_modules}
    finally:
        sys.path.remove(str(src))
        _drop_package()
    if not Path(module.cli.__file__).is_relative_to(src):
        raise RuntimeError(f"{side} imported tmcda from {module.cli.__file__}, not from {src}")
    return module, owners


class StageCall(NamedTuple):
    input: int
    args: tuple             # as the stage received them, copied
    kwargs: dict
    output: object


def record_stages(stages, run, index: int) -> tuple[object, dict[str, list[StageCall]]]:
    """``run()``'s result, and the calls it made of each stage, as (stage, owner, function name)."""
    calls = {stage: [] for stage, _, _ in stages}
    originals = [(owner, name, getattr(owner, name)) for _, owner, name in stages]

    def recording(made, original):
        @functools.wraps(original)
        def recorded(*args, **kwargs):
            args_copy, kwargs_copy = copy.deepcopy((args, kwargs))
            output = original(*args, **kwargs)
            made.append(StageCall(index, args_copy, kwargs_copy, output))
            return output
        return recorded

    for (stage, _, _), (owner, name, original) in zip(stages, originals):
        setattr(owner, name, recording(calls[stage], original))
    try:
        return run(), calls
    finally:
        for owner, name, original in originals:
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


def digest(outputs) -> str:
    """The SHA-256, in hex, over ``_bits`` of every leaf of every one of ``outputs``, in order."""
    sha = hashlib.sha256()
    for output in outputs:
        for _, leaf in leaves(output):
            bits = _bits(leaf)
            if isinstance(leaf, np.ndarray):
                sha.update(repr(bits[:2]).encode())
                sha.update(bits[2])
            else:
                sha.update(repr(bits).encode())
    return sha.hexdigest()


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


def time_interleaved(calls: dict[str, list], rounds: int) -> tuple[dict[str, list[list[float]]], dict[str, float]]:
    """Process seconds of every call, per side and call, and each side's total wall seconds: each round makes
    every call once per side, the sides in an order that alternates from call to call and from round to round."""
    n = len(calls["base"])
    seconds = {side: [[] for _ in range(n)] for side in SIDES}
    wall = dict.fromkeys(SIDES, 0.0)
    for round_ in range(rounds):
        for i in range(n):
            for side in SIDES if (round_ + i) % 2 == 0 else SIDES[::-1]:
                start, start_wall = time.process_time(), time.perf_counter()
                calls[side][i]()
                seconds[side][i].append(time.process_time() - start)
                wall[side] += time.perf_counter() - start_wall
    return seconds, wall


def traced_peaks(calls) -> list[int]:
    """Each call's ``tracemalloc`` peak above the traced memory at its start, in bytes, one call at a time,
    each traced right after an untraced run of the same call."""
    peaks = []
    for call in calls:
        call()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    return peaks


def report(header: str, seconds: dict[str, list[list[float]]], wall: dict[str, float]) -> list[float]:
    """Print ``header``, each side's total and median call time, and each side's process/wall ratio; return
    each call's change/base median."""
    print(header)
    process = {}
    for side in SIDES:
        flat = [s for per_call in seconds[side] for s in per_call]
        process[side] = sum(flat)
        print(f"  {side:6s} total {process[side]:8.3f} s   median call {statistics.median(flat) * 1e3:8.3f} ms")
    pairs = [(b, c) for per_base, per_change in zip(seconds["base"], seconds["change"])
             for b, c in zip(per_base, per_change)]
    print(f"  change/base total {sum(c for _, c in pairs) / sum(b for b, _ in pairs):.4f}; "
          f"change faster in {sum(c < b for b, c in pairs)}/{len(pairs)} calls")
    print(f"  process/wall  base {process['base'] / wall['base']:.3f}  change {process['change'] / wall['change']:.3f}")
    return [statistics.median(c) / statistics.median(b) for b, c in zip(seconds["base"], seconds["change"])]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("loo-cv", "loo-variants", "alpha-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--inputs", type=int, default=20)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--base", default="HEAD", help="git revision of the base side (default HEAD)")
    p.add_argument("--stage", metavar="MODULE.FUNCTION", action="append", default=[],
                   help="time only this function's calls, e.g. itml.fit_itml, or every stage's with all; may repeat")
    p.add_argument("--smoke", action="store_true", help="the benchmark's smoke sizes and settings")
    args = p.parse_args(argv)
    names = [name for stage in args.stage for name in (ALL_STAGES if stage == "all" else (stage,))]
    stages = {stage: stage.rpartition(".")[::2] for stage in names}    # (module, function), in order
    if any(not module for module, _ in stages.values()):
        p.error("--stage takes MODULE.FUNCTION, e.g. itml.fit_itml, or all")

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", args.base, "src"],
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
        sources = {"base": tmp / "src", "change": ROOT / "src"}
        calls, texts = {}, {}
        functions, recorded = {stage: {} for stage in stages}, {stage: {} for stage in stages}
        for side in SIDES:
            workloads, owners = load_workloads(sources[side], side, {module for module, _ in stages.values()})
            workload = workloads.WORKLOADS[args.workload]
            calls[side] = [workload.prepare_input(args.seed, i, tmp / "work" / side, args.smoke)
                           for i in range(args.inputs)]
            targets = [(stage, owners[module], name) for stage, (module, name) in stages.items()]
            for stage, owner, name in targets:
                if not callable(getattr(owner, name, None)):
                    p.error(f"{side}: tmcda.{stages[stage][0]} has no function {name}")
                functions[stage][side], recorded[stage][side] = getattr(owner, name), []
            texts[side] = []
            for i, call in enumerate(calls[side]):
                outcome, stage_calls = record_stages(targets, call, i)
                texts[side].append(outcome.text)
                for stage, made in stage_calls.items():
                    recorded[stage][side] += made
        reports = [texts["base"][i] == texts["change"][i] for i in range(args.inputs)]
        for stage, by_side in recorded.items():
            if len(by_side["base"]) != len(by_side["change"]):
                print(f"{stage}: base made {len(by_side['base'])} calls, change {len(by_side['change'])}")
                return 1

        context = f"workload {args.workload}{' (smoke)' if args.smoke else ''}, seed {args.seed}"
        rounds = f" x {args.rounds} rounds, base {args.base}, process time"
        if not stages:
            ratios = report(f"{context}, {args.inputs} inputs{rounds}", *time_interleaved(calls, args.rounds))
            print("  input  report  change/base median")
            for i, ratio in enumerate(ratios):
                print(f"  {i:5d}  {'same' if reports[i] else 'DIFFERS':7s} {ratio:.4f}")
            return 0
        for stage, by_side in recorded.items():
            if not by_side["base"]:
                print(f"{stage}: not called")
                continue
            replays = {side: [functools.partial(functions[stage][side], *c.args, **c.kwargs) for c in by_side[side]]
                       for side in SIDES}
            ratios = report(f"{context}, {len(replays['base'])} calls of {stage}{rounds}",
                            *time_interleaved(replays, args.rounds))
            print(f"  reports the same on {sum(reports)}/{args.inputs} inputs")
            print("  call  input  change/base median  arguments  output")
            same = 0
            for i, (b, c) in enumerate(zip(by_side["base"], by_side["change"])):
                arguments, output = compare((b.args, b.kwargs), (c.args, c.kwargs)), compare(b.output, c.output)
                same += output == "same"
                print(f"  {i:4d}  {b.input:5d}  {ratios[i]:18.4f}  {arguments}  {output}")
            print(f"  output digest  base {digest(c.output for c in by_side['base'])}  "
                  f"change {digest(c.output for c in by_side['change'])}  same {same}/{len(by_side['base'])} calls")
            peak = {side: sum(traced_peaks(replays[side])) for side in SIDES}
            print(f"  memory  base {peak['base']} B  change {peak['change']} B  "
                  f"change/base {peak['change'] / peak['base']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
