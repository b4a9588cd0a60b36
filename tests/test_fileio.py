import json

import pytest

from synsum.cli import write_manifest
from synsum.fileio import atomic_write


@pytest.mark.parametrize("mode, old, new", [("w", "old\n", "new\n"),
                                            ("wb", b"old\n", b"new\n")])
def test_atomic_write_replaces_target_on_success(tmp_path, mode, old, new):
    path = tmp_path / "out"
    with atomic_write(path, mode) as fh:
        fh.write(old)
    with atomic_write(path, mode) as fh:
        fh.write(new)
        assert path.read_bytes() == (old if mode == "wb" else old.encode())
    assert path.read_bytes() == (new if mode == "wb" else new.encode())
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("exists", [True, False])
def test_interrupted_atomic_write_leaves_old_file(tmp_path, exists):
    path = tmp_path / "out.txt"
    if exists:
        path.write_bytes(b"first\nsecond\n")
    with pytest.raises(OSError, match="disk full"):
        with atomic_write(path) as fh:
            fh.write("partial\n")
            fh.flush()
            raise OSError("disk full")
    if exists:
        assert path.read_bytes() == b"first\nsecond\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    else:
        assert list(tmp_path.iterdir()) == []


def test_interrupted_manifest_write_leaves_old_manifest(tmp_path):
    path = tmp_path / "run.manifest.json"
    write_manifest(path, {"seed": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_manifest(path, {"seed": 2, "bad": object()})  # not JSON
    assert path.read_bytes() == before
    assert json.loads(before) == {"seed": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["run.manifest.json"]
