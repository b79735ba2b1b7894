import json

import numpy as np
import pytest

from hicu.checkpoint import MAGIC, read_container, write_container


def test_round_trip(tmp_path):
    path = tmp_path / "c.bin"
    meta = {"kind": "test", "note": "r", "n": 3}
    arrays = {
        "b/two": np.arange(6, dtype=np.float64).reshape(2, 3),
        "a/one": np.array([1.5, -2.5]),
        "scalar": np.array(7.0),
    }
    write_container(path, meta, arrays)
    got_meta, got_arrays = read_container(path)
    assert got_meta["kind"] == "test" and got_meta["n"] == 3
    assert set(got_arrays) == set(arrays)
    for name in arrays:
        assert np.array_equal(got_arrays[name], arrays[name])
        assert got_arrays[name].dtype == np.float64


def test_writes_are_byte_identical(tmp_path):
    arrays = {"x": np.linspace(0, 1, 17), "y": np.eye(3)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_container(p1, {"k": 1}, arrays)
    write_container(p2, {"k": 1}, dict(reversed(list(arrays.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_arrays_are_writable_copies(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {}, {"x": np.ones(4)})
    _, arrays = read_container(path)
    arrays["x"][0] = 9.0  # must not raise (frombuffer alone would be read-only)
    assert arrays["x"][0] == 9.0


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"NOPE\n{}\n")
    with pytest.raises(ValueError, match="not a checkpoint"):
        read_container(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {}, {"x": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        read_container(path)


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"v": 1}, {"x": np.zeros(2)})
    write_container(path, {"v": 2}, {"x": np.ones(2)})
    meta, arrays = read_container(path)
    assert meta["v"] == 2
    assert np.array_equal(arrays["x"], np.ones(2))
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".ckpt-")]
    assert leftovers == []


@pytest.fixture(scope="module")
def trainer_checkpoint(small_setup, tmp_path_factory):
    """A small trainer checkpoint holding param/, adam_m/ and adam_v/ arrays."""
    from hicu.curriculum import CurriculumConfig, Trainer

    _, atree, vocab, splits = small_setup
    cfg = CurriculumConfig(epochs_per_level=(1, 1, 1, 1, 1), d_e=2, d_f=2, seed=0)
    trainer = Trainer(splits["train"], splits["valid"], atree, None, cfg)
    trainer.step_epoch()
    path = tmp_path_factory.mktemp("ckpt") / "trainer.bin"
    trainer.save(path)
    return path


def test_cut_checkpoint_is_named_truncated_at_every_offset(trainer_checkpoint, tmp_path):
    data = trainer_checkpoint.read_bytes()
    read_container(trainer_checkpoint)  # the whole file reads
    cut = tmp_path / "cut.bin"
    for offset in range(len(MAGIC), len(data)):
        cut.write_bytes(data[:offset])
        with pytest.raises(ValueError, match="truncated checkpoint"):
            read_container(cut)


def test_non_float64_manifest_dtype_rejected(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {}, {"x": np.ones(2)})
    magic, line, payload = path.read_bytes().split(b"\n", 2)
    meta = json.loads(line)
    assert meta["arrays"] == [["x", "float64", [2]]]
    meta["arrays"][0][1] = "float32"
    path.write_bytes(magic + b"\n" + json.dumps(meta).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match="'x' has dtype 'float32', not float64"):
        read_container(path)
