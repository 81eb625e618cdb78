import os

import pytest

from mflab.matio import atomic_write_bytes, atomic_write_text


def temp_leftovers(directory):
    return [n for n in os.listdir(directory) if n.startswith(".tmp-")]


def test_atomic_write_replaces_existing_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("old\n")
    atomic_write_text(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert temp_leftovers(tmp_path) == []


def test_failed_write_keeps_old_contents_and_removes_temp_file(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        atomic_write_bytes(str(path), "not bytes")  # raises after mkstemp
    assert path.read_text() == "old\n"
    assert temp_leftovers(tmp_path) == []
