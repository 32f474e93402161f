"""Smoke test of scripts/scan_components.py, which drives the solver over
every class tuple of a presentation."""

import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "scan_components.py"


def test_scan_su2_triangle_group(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("scan_components", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--genus", "0", "--torsion", "3,3,3"])
    module.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "8 components: 5 solved, 3 certified infeasible, 0 unresolved"
    assert sum(line.startswith("[solved    ]") for line in lines) == 5
    assert sum(line.startswith("[infeasible]") for line in lines) == 3
