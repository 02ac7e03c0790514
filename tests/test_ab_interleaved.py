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


@pytest.mark.skipif(not _in_a_git_checkout(), reason="the base side is extracted from a git revision")
@pytest.mark.parametrize("stage", [[], ["--stage", "itml.fit_itml"], ["--stage", "lasso.fit_lasso"]],
                         ids=["whole-calls", "stage", "lasso-stage"])
def test_smoke_run_against_head(stage):
    out = subprocess.run([sys.executable, str(_TOOL), "--workload", "alpha-sweep", "--seed", "1", "--inputs", "1",
                          "--rounds", "1", "--smoke", "--base", _working_tree_commit()] + stage,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    header = out[0].split(", ")
    assert header[0] == "workload alpha-sweep (smoke)" and header[-1] == "process time"
    assert [line.split()[0] for line in out[1:3]] == ["base", "change"]
    if not stage:
        assert out[4].split() == ["input", "report", "change/base", "median"]
        assert len(out) == 6 and out[5].split()[1] in ("same", "DIFFERS")
        return
    calls = int(header[2].split()[0])
    assert header[2] == f"{calls} calls of {stage[1]} x 1 rounds" and calls > 0
    assert out[4] in ("  reports the same on 1/1 inputs", "  reports the same on 0/1 inputs")
    assert out[5].split() == ["call", "input", "change/base", "median", "arguments", "output"]
    rows = [line.split() for line in out[6:]]
    assert len(rows) == calls
    for i, row in enumerate(rows):
        assert row[:2] == [str(i), "0"] and float(row[2]) > 0
        assert row[3] == "same"        # upstream of the stage both sides are the same
        assert row[4] in ("same", "rel", "DIFFERS")
