"""Binary persistence for field samples (the LFPF container).

Layout, all little endian: magic bytes "LFPF", format version u16, kind u8,
n u32, spacing f64, seed u64, then n*n f64 field values row-major.  The
container carries no lattice origin and no mean-removal flag; files read
back get the default origin (0, 0) and mean_removed = False.  That is not
harmless: a field sampled with a non-zero origin is read back in the (0, 0)
frame, so point queries on it (`lfpp dist --from/--to`) snap to wrong sites.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Tuple

import numpy as np

from .errors import InvalidArgument
from .gff import FieldKind, FieldSample, LatticeSpec

MAGIC = b"LFPF"
VERSION = 1
_HEADER = struct.Struct("<4sHBIdQ")


def field_bytes(field: FieldSample) -> bytes:
    """Serialize one field sample to the container byte string."""
    spec = field.spec
    header = _HEADER.pack(MAGIC, VERSION, int(field.kind), spec.n,
                          spec.spacing, field.seed)
    return header + np.ascontiguousarray(field.values, dtype="<f8").tobytes()


def atomic_write(path, data: bytes) -> None:
    """Replace `path` with `data`; readers see the old or the new file, never
    a torn one.  The temp file name is unique per call (pid plus a random
    suffix), and it is opened "xb" rather than made by mkstemp so the result
    gets the permissions a plain open() gives.  Every package write ends here.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_field(field: FieldSample, path) -> None:
    atomic_write(path, field_bytes(field))


def read_header(path) -> Tuple[int, int, float, int]:
    """Parse and validate the fixed-size header; returns (kind, n, spacing, seed)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise InvalidArgument(f"{path}: file shorter than the field header")
    magic, version, kind, n, spacing, seed = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise InvalidArgument(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise InvalidArgument(f"{path}: format version {version}, expected {VERSION}")
    if kind not in tuple(int(k) for k in FieldKind):
        raise InvalidArgument(f"{path}: unknown field kind byte {kind}")
    return int(kind), int(n), float(spacing), int(seed)


def read_field(path) -> FieldSample:
    """Load a field sample; truncated or malformed files raise InvalidArgument."""
    kind, n, spacing, seed = read_header(path)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        payload = fh.read()
    expect = n * n * 8
    if len(payload) != expect:
        raise InvalidArgument(
            f"{path}: payload holds {len(payload)} bytes, expected {expect}")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(n, n)
    spec = LatticeSpec(n=n, spacing=spacing)
    return FieldSample(spec=spec, kind=FieldKind(kind), seed=seed,
                       values=np.ascontiguousarray(values), mean_removed=False)


def verify_field(path) -> bool:
    """Header-plus-size integrity check that never raises."""
    try:
        _, n, spacing, _ = read_header(path)
        if not (n >= 2 and spacing > 0):
            return False
        return os.path.getsize(path) == _HEADER.size + n * n * 8
    except (InvalidArgument, OSError, struct.error):
        return False
