import os
import stat

import pytest

from choreocert.cli import main
from choreocert.fileio import atomic_write_text


@pytest.fixture
def restore_umask():
    """Run a test under umask 022 and restore the previous umask after it."""
    previous = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(previous)


def mode_of(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
def test_new_file_gets_umask_mode(tmp_path, restore_umask, mask):
    os.umask(mask)
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "text\n")
    with open(tmp_path / "plain.txt", "w") as handle:
        handle.write("text\n")
    assert path.read_text() == "text\n"
    assert mode_of(path) == 0o666 & ~mask == mode_of(tmp_path / "plain.txt")


def test_replaced_file_gets_umask_mode(tmp_path, restore_umask):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    os.chmod(path, 0o600)
    atomic_write_text(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert mode_of(path) == 0o644


def test_minimize_files_get_umask_mode(tmp_path, restore_umask, capsys):
    out = tmp_path / "res.json"
    code = main([
        "minimize", "--n", "4", "--r", "7", "--a", "0.23", "--b", "0.088",
        "--modes", "24", "--grid", "84", "--max-iter", "2", "--out", str(out),
        "--emit-plot", str(tmp_path / "plot.csv"),
    ])
    capsys.readouterr()
    assert code == 3  # two iterations do not converge; the files are still written
    names = ["res.json", "res.traj.csv", "res.iters.csv", "plot.csv"]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    assert {name: mode_of(tmp_path / name) for name in names} == dict.fromkeys(names, 0o644)
    assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "res.traj.csv").read_bytes()


def test_umask_is_never_set(tmp_path, monkeypatch):
    # a host program's other threads create files while this one writes: the
    # umask stays as it is, and the kernel applies it to the temp file
    def refuse(*args):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "text\n")
    assert path.read_text() == "text\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_taken_temp_name_is_skipped(tmp_path, monkeypatch):
    taken = tmp_path / ".tmp-aa~"
    taken.write_text("someone else's\n")
    names = iter([b"\xaa", b"\xbb"])
    monkeypatch.setattr(os, "urandom", lambda size: next(names))
    atomic_write_text(str(tmp_path / "out.txt"), "text\n")
    assert taken.read_text() == "someone else's\n"
    assert sorted(os.listdir(tmp_path)) == [".tmp-aa~", "out.txt"]
    assert (tmp_path / "out.txt").read_text() == "text\n"
