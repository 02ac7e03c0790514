import dataclasses
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "ab_interleaved.py"
_spec = importlib.util.spec_from_file_location("ab_interleaved", _TOOL)
ab_interleaved = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_interleaved)


@dataclasses.dataclass
class _Result:
    A: np.ndarray
    trace: list
    pairs: list


def test_digest_reads_every_leaf_in_order():
    base = _Result(np.array([[2.0, 1.0], [1.0, 4.0]]), [0.5, 0.25], [(0, 1)])
    copied = dataclasses.replace(base, A=base.A.copy())
    assert ab_interleaved.digest([base, copied]) == ab_interleaved.digest([copied, base])
    for other in (dataclasses.replace(base, A=np.array([[2.0, 1.0], [1.0, np.nextafter(4.0, 5.0)]])),
                  dataclasses.replace(base, A=base.A.astype(np.float32)),
                  dataclasses.replace(base, A=base.A.reshape(1, 4)),
                  dataclasses.replace(base, trace=[0.25, 0.5]),
                  dataclasses.replace(base, pairs=[(0, 2)])):
        assert ab_interleaved.digest([base]) != ab_interleaved.digest([other])
    assert ab_interleaved.digest([base, base]) != ab_interleaved.digest([base])


def test_compare_reports_same_the_largest_relative_array_difference_or_differs():
    base = _Result(np.array([[2.0, 1.0], [1.0, 4.0]]), [0.5, 0.25], [(0, 1)])
    assert ab_interleaved.compare(base, dataclasses.replace(base, A=base.A.copy())) == "same"
    moved = dataclasses.replace(base, A=base.A + np.array([[0.0, 0.0], [0.0, 2.0 ** -48]]))
    assert ab_interleaved.compare(base, moved) == "rel 8.9e-16 .A"        # 2**-48 / max|A| = 2**-50
    assert ab_interleaved.compare(base, dataclasses.replace(base, trace=[0.5, 0.5])) == "rel 5.0e-01 .trace"
    signed_zero = dataclasses.replace(base, A=np.array([[2.0, -0.0], [1.0, 4.0]]))
    assert ab_interleaved.compare(dataclasses.replace(base, A=np.array([[2.0, 0.0], [1.0, 4.0]])),
                                  signed_zero) == "rel 0.0e+00 .A"        # not bitwise equal
    assert ab_interleaved.compare(base, dataclasses.replace(base, pairs=[(0, 2)])) == "DIFFERS"
    assert ab_interleaved.compare(base, dataclasses.replace(base, pairs=[])) == "DIFFERS"
    assert ab_interleaved.compare(base, dataclasses.replace(base, A=np.ones(3))) == "DIFFERS"


def _in_a_git_checkout():
    return subprocess.run(["git", "-C", str(_ROOT), "rev-parse", "HEAD"], capture_output=True).returncode == 0


def _working_tree_commit():
    """A commit of the working tree's tracked files (``git stash create``, which moves no ref and
    changes no file), or HEAD when they equal it: as the base, the same code as the change side."""
    out = subprocess.run(["git", "-C", str(_ROOT), "stash", "create"], capture_output=True, text=True, check=True)
    return out.stdout.strip() or "HEAD"


def _smoke_run(stage, workload="alpha-sweep"):
    return subprocess.run([sys.executable, str(_TOOL), "--workload", workload, "--seed", "1", "--inputs", "1",
                           "--rounds", "1", "--smoke", "--base", _working_tree_commit()] + stage,
                          capture_output=True, text=True, check=True).stdout.splitlines()


def _check_process_wall_line(line):
    """Each side's total process seconds over its total wall seconds, positive."""
    words = line.split()
    assert [words[0], words[1], words[3]] == ["process/wall", "base", "change"]
    assert float(words[2]) > 0 and float(words[4]) > 0


def _check_stage_block(out, stage, workload="alpha-sweep"):
    """One stage's block of output: its header, the two sides, the totals, the process/wall ratios, one
    row per recorded call, the two sides' output digests and their traced peaks, each equal against the
    same code."""
    header = out[0].split(", ")
    assert header[0] == f"workload {workload} (smoke)" and header[-1] == "process time"
    assert [line.split()[0] for line in out[1:3]] == ["base", "change"]
    calls = int(header[2].split()[0])
    assert header[2] == f"{calls} calls of {stage} x 1 rounds" and calls > 0
    _check_process_wall_line(out[4])
    assert out[5] in ("  reports the same on 1/1 inputs", "  reports the same on 0/1 inputs")
    assert out[6].split() == ["call", "input", "change/base", "median", "arguments", "output"]
    rows = [line.split() for line in out[7:-2]]
    assert len(rows) == calls
    for i, row in enumerate(rows):
        assert row[:2] == [str(i), "0"] and float(row[2]) > 0
        assert row[3] == "same"        # upstream of the stage both sides are the same
        assert row[4] in ("same", "rel", "DIFFERS")
    words = out[-2].split()
    assert words[:3] == ["output", "digest", "base"] and words[4] == "change" and words[6] == "same"
    assert len(words[3]) == 64 and words[3] == words[5]
    assert words[7:] == [f"{sum(row[4] == 'same' for row in rows)}/{calls}", "calls"]
    words = out[-1].split()
    assert [words[0], words[1], words[3], words[4], words[6], words[7]] == ["memory", "base", "B", "change", "B",
                                                                            "change/base"]
    assert int(words[2]) > 0 and words[2] == words[5] and words[8] == "1.0000"


@pytest.mark.skipif(not _in_a_git_checkout(), reason="the base side is extracted from a git revision")
@pytest.mark.parametrize("stage", [[], ["--stage", "itml.fit_itml"], ["--stage", "lasso.fit_lasso"]],
                         ids=["whole-calls", "stage", "lasso-stage"])
def test_smoke_run_against_head(stage):
    out = _smoke_run(stage)
    if stage:
        _check_stage_block(out, stage[1])
        return
    header = out[0].split(", ")
    assert header[0] == "workload alpha-sweep (smoke)" and header[-1] == "process time"
    assert [line.split()[0] for line in out[1:3]] == ["base", "change"]
    _check_process_wall_line(out[4])
    assert out[5].split() == ["input", "report", "change/base", "median"]
    assert len(out) == 7 and out[6].split()[1] in ("same", "DIFFERS")


@pytest.mark.skipif(not _in_a_git_checkout(), reason="the base side is extracted from a git revision")
def test_a_repeated_stage_records_both_in_one_pass_and_reports_each_on_its_own():
    # fit_gbbw calls fit_tree: the one untimed pass records both, the outer and the nested stage.
    stages = ["boosting.fit_gbbw", "boosting.fit_tree"]
    out = _smoke_run(["--stage", stages[0], "--stage", stages[1]])
    starts = [i for i, line in enumerate(out) if line.startswith("workload ")]
    assert len(starts) == 2 and starts[0] == 0
    blocks = [out[starts[0]:starts[1]], out[starts[1]:]]
    for block, stage in zip(blocks, stages):
        _check_stage_block(block, stage)
    fits, trees = (int(block[0].split(", ")[2].split()[0]) for block in blocks)
    assert trees > fits


@pytest.mark.skipif(not _in_a_git_checkout(), reason="the base side is extracted from a git revision")
def test_stage_all_reports_every_stage_in_order_and_names_those_the_workload_never_calls():
    # loo-cv runs source-only boosting with the lambda chosen by CV: no lasso fit of its own, no ITML, no mixture.
    not_called = {"lasso.fit_lasso", "itml.build_constraints", "itml.fit_itml", "itml.match_source_to_target",
                  "gmm.fit_gmm", "gmm.augment"}
    out = _smoke_run(["--stage", "all"], workload="loo-cv")
    starts = [i for i, line in enumerate(out) if line.startswith("workload ") or line.endswith(": not called")]
    assert starts[0] == 0
    blocks = [out[start:end] for start, end in zip(starts, starts[1:] + [len(out)])]
    assert len(blocks) == len(ab_interleaved.ALL_STAGES) == 9
    for block, stage in zip(blocks, ab_interleaved.ALL_STAGES):
        if stage in not_called:
            assert block == [f"{stage}: not called"]
        else:
            _check_stage_block(block, stage, "loo-cv")
