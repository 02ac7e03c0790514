#!/usr/bin/env python3
"""Peak RSS of importing the package, compiled from source and read from bytecode.

    python3 tools/import_rss.py [--repeats 3] [SRC]

Copies the ``tmcda`` package under ``SRC`` (the repository's ``src`` by
default) twice into a temporary directory, without any ``__pycache__``, and
byte-compiles the second copy with ``compileall``. Each run is a fresh
interpreter started with ``-B`` (no bytecode written), which imports numpy,
reads its peak RSS (``ru_maxrss``), imports ``tmcda.cli`` from one copy and
reads it again. ``source`` runs compile every module as they import it, as a
run does where bytecode is not written (``PYTHONDONTWRITEBYTECODE=1``);
``compiled`` runs read the bytecode. The two sides take turns.

One line per run gives the peak after numpy, the peak after ``tmcda.cli``
and the rise between them, in KB. The last line gives each side's median
rise and their difference: the share of a process's peak RSS that compiling
the package's source takes. That share moves with the length of the source,
in steps of 64 KB, whatever the program does, so a peak-RSS comparison of
two versions of the package should state it.
"""

from __future__ import annotations

import argparse
import compileall
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("source", "compiled")
_CHILD = """\
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
import tmcda.cli
print(before, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def import_peaks(path: Path) -> tuple[int, int]:
    """(peak RSS after ``import numpy``, after ``import tmcda.cli`` from ``path``), in KB, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-B", "-c", _CHILD, str(path)], capture_output=True, text=True, check=True)
    before, after = map(int, out.stdout.split())
    return before, after


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("src", nargs="?", default=str(ROOT / "src"), help="directory that holds the tmcda package")
    p.add_argument("--repeats", type=int, default=3, help="fresh interpreters per side (default 3)")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    package = Path(args.src) / "tmcda"
    if not (package / "cli.py").is_file():
        p.error(f"no tmcda package under {args.src}")

    with tempfile.TemporaryDirectory(prefix="import-rss-") as tmp:
        paths = {side: Path(tmp) / side for side in SIDES}
        for path in paths.values():
            shutil.copytree(package, path / "tmcda", ignore=shutil.ignore_patterns("__pycache__"))
        if not compileall.compile_dir(paths["compiled"], quiet=1):
            print("compileall failed", file=sys.stderr)
            return 1
        print("import tmcda.cli after import numpy, peak RSS (ru_maxrss) in KB")
        rises = {side: [] for side in SIDES}
        for _ in range(args.repeats):
            for side in SIDES:
                before, after = import_peaks(paths[side])
                rises[side].append(after - before)
                print(f"  {side:8s}  numpy {before:7d}  cli {after:7d}  rise {after - before:6d}")
    source, compiled = (statistics.median(rises[side]) for side in SIDES)
    print(f"median rise  source {source:.0f}  compiled {compiled:.0f}  source - compiled {source - compiled:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
