"""tools/outputs.py, the byte-identity command runner."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "outputs.py")


@pytest.fixture
def outputs():
    spec = importlib.util.spec_from_file_location("outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_out_directory_is_created(outputs, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(outputs, "COMMANDS", [
        ("fixed-points", ["fixed-points", "-m", "heater", "--u", "0.5"]),
    ])
    out = tmp_path / "new" / "dir"
    assert outputs.main(["--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["rerun-%d-fixed-points.%s" % (i, ext)
                                       for i in (1, 2) for ext in ("csv", "err")]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines] == ["fixed-points.csv", "fixed-points.err"]
    assert lines[1].split("  ")[0] == outputs.digest(str(out / "rerun-1-fixed-points.err"))
