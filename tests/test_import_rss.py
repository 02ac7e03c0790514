import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_TOOL = _ROOT / "tools" / "import_rss.py"


def test_smoke_run_reports_both_sides_and_their_median_rises():
    out = subprocess.run([sys.executable, str(_TOOL), "--repeats", "1"], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    assert out[0] == "import tmcda.cli after import numpy, peak RSS (ru_maxrss) in KB"
    rows = [line.split() for line in out[1:-1]]
    assert [row[0] for row in rows] == ["source", "compiled"]
    rises = {}
    for row in rows:
        assert [row[1], row[3], row[5]] == ["numpy", "cli", "rise"]
        before, after, rise = int(row[2]), int(row[4]), int(row[6])
        assert 0 < before <= after and rise == after - before
        rises[row[0]] = rise
    words = out[-1].split()
    assert words[:3] == ["median", "rise", "source"] and words[4] == "compiled" and words[6:9] == ["source", "-",
                                                                                                 "compiled"]
    assert (int(words[3]), int(words[5])) == (rises["source"], rises["compiled"])
    assert int(words[9]) == rises["source"] - rises["compiled"]


def test_a_directory_without_the_package_is_refused(tmp_path):
    run = subprocess.run([sys.executable, str(_TOOL), str(tmp_path)], capture_output=True, text=True)
    assert run.returncode == 2 and "no tmcda package" in run.stderr
