"""tools/outputs.py, the byte-identity command runner."""

import importlib.util
import os
import subprocess

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


# A stand-in for narxcomp/cli.py: per command label, the CSV it writes and
# its exit code; a non-zero code writes no CSV, as the CLI's errors do.
STUB_CLI = '''import sys
args = sys.argv[1:]
text, code = {table!r}[args[0]]
if code:
    print("error: unknown command " + args[0], file=sys.stderr)
    sys.exit(code)
with open(args[args.index("-o") + 1], "w") as fh:
    fh.write(text)
'''

MINE = {"same": ("a\n", 0), "changed": ("b\n", 0), "rejected": ("c\n", 0)}
REV = {"same": ("a\n", 0), "changed": ("B\n", 0), "rejected": ("", 2)}


def stub_tree(root, table):
    """A tree whose ``src/narxcomp/cli.py`` answers as ``table`` says; returns its ``src``."""
    pkg = root / "src" / "narxcomp"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(STUB_CLI.format(table=table))
    return str(root / "src")


@pytest.fixture
def stub_commands(outputs, monkeypatch, tmp_path):
    monkeypatch.setattr(outputs, "COMMANDS", [(label, [label]) for label in MINE])
    monkeypatch.setattr(outputs, "SRC", stub_tree(tmp_path / "mine", MINE))


def test_against_classifies_each_file(outputs, stub_commands, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    failed, rows = outputs.against(stub_tree(tmp_path / "rev", REV), str(out))
    assert failed == []
    assert [(status, name) for status, _, name, _ in rows] == [
        ("same", "same.csv"), ("same", "same.err"),
        ("changed", "changed.csv"), ("same", "changed.err"),
        # REV's CLI rejects the command: both files are new, .err included
        ("new", "rejected.csv"), ("new", "rejected.err"),
    ]
    status, sha, _, old = rows[2]
    assert sha == outputs.digest(str(out / "rerun-1-changed.csv"))
    assert old == outputs.digest(str(out / "rerun-2-changed.csv")) != sha
    assert [old for _, _, _, old in rows[4:]] == [None, None]


def test_against_fails_on_a_failure_of_this_tree_only(outputs, stub_commands, monkeypatch,
                                                       tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    # REV exits 3 on "same": it wrote no CSV, and its .err differs
    failed, rows = outputs.against(stub_tree(tmp_path / "rev", dict(REV, same=("", 3))), str(out))
    assert failed == []
    assert [status for status, _, _, _ in rows[:2]] == ["new", "changed"]
    monkeypatch.setattr(outputs, "SRC", stub_tree(tmp_path / "broken", dict(MINE, same=("", 3))))
    failed, rows = outputs.against(stub_tree(tmp_path / "rev2", REV), str(out))
    assert failed == ["same (exit 3)"]
    # the failing command's CSV of the first call is not read as this run's
    assert [name for _, _, name, _ in rows][:2] == ["same.err", "changed.csv"]


def test_against_exits_1_when_a_changed_digest_is_not_in_changes(
        outputs, stub_commands, monkeypatch, tmp_path, capsys):
    repo = tmp_path / "repo"
    stub_tree(repo, REV)
    git = ["git", "-C", str(repo), "-c", "user.name=stub", "-c", "user.email=stub@example.com"]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-qm", "stub"]):
        subprocess.run(git + args, check=True)
    changes = tmp_path / "CHANGES.md"
    monkeypatch.setattr(outputs, "ROOT", str(repo))
    monkeypatch.setattr(outputs, "CHANGES", str(changes))
    out = tmp_path / "out"

    changes.write_text("nothing recorded\n")
    assert outputs.main(["--against", "HEAD", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "changed.csv, rejected.csv, rejected.err" in captured.err
    lines = captured.out.splitlines()
    assert [line.split()[0] for line in lines] == ["same", "same", "changed", "same", "new", "new"]
    new = {name: sha for _, sha, name in (line.split()[:3] for line in lines)}
    assert lines[2].endswith("(HEAD: %s)" % outputs.digest(str(out / "rerun-2-changed.csv")))

    changes.write_text("changed.csv %s, rejected %s and %s\n"
                       % (new["rejected.csv"], new["rejected.err"], "0" * 64))
    assert outputs.main(["--against", "HEAD"]) == 1
    assert capsys.readouterr().err.rstrip().endswith(": changed.csv")

    changes.write_text(" ".join(new[name] for name in
                                ("changed.csv", "rejected.csv", "rejected.err")))
    assert outputs.main(["--against", "HEAD"]) == 0
