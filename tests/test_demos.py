"""Every demo script runs to completion against the current package API."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import polylat

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_exports_what_the_demos_and_readme_use():
    used = set()
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "polylat":
                used |= {alias.name for alias in node.names}
    quick_start = (ROOT / "README.md").read_text().split("## Library quick start")[1]
    used |= set(re.findall(r"\bpl\.(\w+)", quick_start.split("```")[1]))
    exported = {name for name, obj in vars(polylat).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert len(used) == 25
    assert exported == used
