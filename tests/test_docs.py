"""README cannot drift from the code: its Python example runs, and every
backticked `module.name` whose first part is a treefed module resolves,
either as an attribute path of that module (`presets._Sections`) or as a
key path of the fig2 config (`model.vocab_size`). Its claim that numpy is the
only runtime dependency holds: the package imports nothing else outside the
standard library."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import treefed
from treefed.presets import preset_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
MODULES = {m.name for m in pkgutil.iter_modules(treefed.__path__)}
REFERENCES = sorted({ref for ref in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README)
                     if ref.split(".")[0] in MODULES})


def test_python_example_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_references_are_found():
    assert {"presets._Sections", "model.vocab_size", "privacy.next_bound"} <= set(REFERENCES)


def is_attribute_path(ref: str) -> bool:
    first, *rest = ref.split(".")
    obj = importlib.import_module(f"treefed.{first}")
    for name in rest:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def is_config_key_path(ref: str) -> bool:
    node = preset_config("fig2")
    for key in ref.split("."):
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return True


@pytest.mark.parametrize("ref", REFERENCES)
def test_reference_resolves(ref):
    assert is_attribute_path(ref) or is_config_key_path(ref), ref


def test_numpy_is_the_only_runtime_dependency():
    outside = []
    for path in sorted(Path(treefed.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in {*sys.stdlib_module_names, "numpy", "treefed"}]
    assert "The only runtime dependency is numpy." in README
    assert outside == []
