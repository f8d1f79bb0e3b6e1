"""Each experiment script runs end to end on a small input."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parents[1] / "scripts"


def run_script(monkeypatch, name, args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    return module.main()


@pytest.mark.parametrize("name, args, header", [
    ("classify_line", ["--count", "2", "--k-max", "100"],
     "seed_x,seed_y,class,period,rotation,R,R_G,R_p,K,N,flags"),
    ("convergence_study", ["--k-values", "25", "50", "--seeds", "0.1 0.0"],
     "seed_x,seed_y,K,N,R_rre,R_wba"),
])
def test_script_writes_table(tmp_path, monkeypatch, capsys, name, args, header):
    table = tmp_path / f"{name}.csv"
    args = [*args, "--table", str(table)]
    if name == "classify_line":
        args += ["--circles", str(tmp_path / "circles")]
    assert run_script(monkeypatch, name, args) == 0
    lines = table.read_text().splitlines()
    assert lines[1] == header
    assert len(lines) > 2
