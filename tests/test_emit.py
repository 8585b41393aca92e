import os

import pytest

from mudr import emit


def test_atomic_write_text_replaces_file(tmp_path):
    path = tmp_path / "out.csv"
    emit.atomic_write_text(path, "a\n")
    emit.atomic_write_text(path, "b\n")
    assert path.read_text() == "b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_atomic_write_text_failure_leaves_no_temp(tmp_path):
    target = tmp_path / "out"
    target.mkdir()  # renaming a file over a directory fails
    with pytest.raises(OSError):
        emit.atomic_write_text(target, "a\n")
    assert not list(tmp_path.glob("*.tmp"))
    with pytest.raises(UnicodeEncodeError):
        emit.atomic_write_text(tmp_path / "bad.txt", "\udc80")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_atomic_write_text_ignores_stale_fixed_temp_name(tmp_path):
    # a leftover or concurrent "<name>.tmp" must not block the write
    (tmp_path / "out.csv.tmp").mkdir()
    emit.atomic_write_text(tmp_path / "out.csv", "a\n")
    assert (tmp_path / "out.csv").read_text() == "a\n"


def test_atomic_write_text_umask_mode(tmp_path):
    umask = os.umask(0o027)
    try:
        emit.atomic_write_text(tmp_path / "out.csv", "a\n")
    finally:
        os.umask(umask)
    assert (tmp_path / "out.csv").stat().st_mode & 0o777 == 0o640
