import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "blas_core.py"
_spec = importlib.util.spec_from_file_location("blas_core", _TOOL)
blas_core = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(blas_core)


def _run(**env):
    return subprocess.run([sys.executable, str(_TOOL)], env={**os.environ, **env}, capture_output=True, text=True,
                          check=True).stdout.splitlines()


def test_prints_one_line_the_core_name_where_there_is_one():
    name = blas_core.core_name()
    lines = _run()
    assert len(lines) == 1
    if name is None:
        assert lines[0].startswith("no bundled OpenBLAS")
    else:
        assert lines[0] == name and name.isidentifier()
        assert _run(OPENBLAS_CORETYPE="Haswell") == ["Haswell"]


def test_says_so_where_there_is_no_bundled_library(tmp_path, capsys, monkeypatch):
    assert blas_core.core_name(tmp_path) is None
    monkeypatch.setattr(blas_core, "LIBS", tmp_path)
    assert blas_core.main() == 0
    assert capsys.readouterr().out == f"no bundled OpenBLAS with a core name found in {tmp_path}\n"
