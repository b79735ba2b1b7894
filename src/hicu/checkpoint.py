"""Deterministic binary container for checkpoints.

Layout: a magic line, one JSON metadata line (sorted keys, includes an
array manifest of name/dtype/shape), then the raw little-endian C-order
bytes of each array in manifest order.  Writing the same state twice
produces byte-identical files; writes are atomic (temp file + rename).
Reading rejects a cut file as truncated, and any array dtype but float64.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

MAGIC = b"HICU-CKPT-v1\n"


def write_container(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    names = sorted(arrays)
    manifest = []
    for name in names:
        # note: ascontiguousarray would promote 0-d arrays to 1-d
        arr = np.asarray(arrays[name], dtype=np.float64)
        manifest.append([name, str(arr.dtype), list(arr.shape)])
    full_meta = dict(meta)
    full_meta["arrays"] = manifest
    blob = json.dumps(full_meta, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(blob)
            for name in names:
                arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
                fh.write(arr.astype("<f8").tobytes(order="C"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ValueError(f"{path}: truncated checkpoint (metadata line is cut)")
        meta = json.loads(line.decode())
        arrays = {}
        for name, dtype, shape in meta["arrays"]:
            if dtype != "float64":
                raise ValueError(f"{path}: array {name!r} has dtype {dtype!r}, not float64")
            nbytes = 8 * (int(np.prod(shape)) if shape else 1)
            buf = fh.read(nbytes)
            if len(buf) != nbytes:
                raise ValueError(f"{path}: truncated checkpoint "
                                 f"(array {name!r} has {len(buf)} of {nbytes} bytes)")
            arrays[name] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
        trailing = fh.read(1)
        if trailing:
            raise ValueError(f"{path}: trailing bytes after arrays")
    return meta, arrays
