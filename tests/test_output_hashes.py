"""tools/output_hashes.py --diff: the list of expected changes names
exactly the outputs that changed."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "output_hashes.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = {"a/result.json": "1", "a/fit.json": "2"}


@pytest.mark.parametrize(
    "head, listed, code, printed",
    [
        (BASE, ["a/fit.json"], 1, "listed but unchanged, remove from tools/expected_changes.txt: a/fit.json"),
        (BASE, [], 0, "2 outputs compared; 0 changed, each one listed"),
        ({**BASE, "a/fit.json": "3"}, ["a/fit.json"], 0, "a/fit.json: 2 -> 3 (expected)"),
        ({**BASE, "a/fit.json": "3"}, [], 1, "1 output(s) changed; list each intended change"),
    ],
    ids=["stale-entry", "empty-list", "listed-change", "unlisted-change"],
)
def test_diff(tool, tmp_path, capsys, head, listed, code, printed):
    paths = []
    for name, data in (("base.json", BASE), ("head.json", head)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(data), encoding="utf-8")
    expected = tmp_path / "expected_changes.txt"
    expected.write_text("".join(f"{name}\n" for name in listed), encoding="utf-8")
    assert tool.diff(*paths, expected) == code
    assert printed in capsys.readouterr().out
