import importlib.util
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "cli_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_record_the_same_outputs_with_every_exit_code(tmp_path, monkeypatch):
    # main() puts src and perfbench on sys.path and sets COLUMNS for argparse
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setenv("COLUMNS", "80")
    tool = _load_tool()
    texts = []
    for name in ("first.json", "second.json"):
        assert tool.main([str(REPO / "src"), str(tmp_path / name)]) == 0
        texts.append((tmp_path / name).read_text())
    assert texts[0] == texts[1]
    records = json.loads(texts[0])
    assert records
    # an uncaught exception is recorded as a string in place of the exit code
    assert all(type(record["exit"]) is int for record in records)
