import os
import stat
import threading

import pytest

from mublp.serialize import load_json, render_json, write_json


def test_write_json_replaces_target(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"a": 1.5})
    write_json(path, {"b": [1, 2]})
    assert path.read_text(encoding="utf-8") == render_json({"b": [1, 2]})
    assert load_json(path) == {"b": [1, 2]}
    assert os.listdir(tmp_path) == ["out.json"]


def test_write_json_failed_render_keeps_old_file(tmp_path):
    path = tmp_path / "witness.json"
    write_json(path, {"coeff": 0.25})
    before = path.read_bytes()
    with pytest.raises(ValueError, match="non-finite"):
        write_json(path, {"coeff": float("nan")})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["witness.json"]    # no temporary file left
    with pytest.raises(ValueError):
        write_json(tmp_path / "new.json", [float("inf")])
    assert os.listdir(tmp_path) == ["witness.json"]


def test_write_json_failed_write_removes_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.json"
    write_json(path, {"rounds": 1})
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_json(path, {"rounds": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint.json"]


def test_write_json_to_fifo_writes_in_place(tmp_path):
    # a path that is no regular file (a pipe, /dev/stdout) is not replaced
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    write_json(fifo, {"a": 1})
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [render_json({"a": 1})]
    assert os.listdir(tmp_path) == ["pipe"]
