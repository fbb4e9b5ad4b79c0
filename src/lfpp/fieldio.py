"""Binary persistence for field samples (the LFPF container).

Layout, all little endian: magic bytes "LFPF", format version u16, kind u8,
n u32, spacing f64, seed u64, lattice origin x and y as two f64, and a flags
u8 (bit 0 mean_removed, bit 1 derived): a 44-byte header, then n*n f64
field values row-major.  Files are written as version 2.  Version 1 files,
whose 27-byte header stops after the seed, still read, with the default
origin (0, 0) and both flags False.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidArgument
from .gff import FieldKind, FieldSample, LatticeSpec

MAGIC = b"LFPF"
VERSION = 2
_PREFIX = struct.Struct("<4sH")   # magic and version, the start of every header
_HEADERS = {1: struct.Struct("<4sHBIdQ"), 2: struct.Struct("<4sHBIdQddB")}
_MEAN_REMOVED, _DERIVED = 1, 2


def field_bytes(field: FieldSample) -> bytes:
    """Serialize one field sample to the container byte string."""
    spec = field.spec
    flags = _MEAN_REMOVED * field.mean_removed + _DERIVED * field.derived
    header = _HEADERS[VERSION].pack(MAGIC, VERSION, int(field.kind), spec.n,
                                    spec.spacing, field.seed, *spec.origin, flags)
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


def _header(path):
    """Parse and validate the header of any known version.

    Returns (header size, kind, n, spacing, seed, origin, flags).
    """
    with open(path, "rb") as fh:
        raw = fh.read(max(h.size for h in _HEADERS.values()))
    if len(raw) < _PREFIX.size:
        raise InvalidArgument(f"{path}: file shorter than the field header")
    magic, version = _PREFIX.unpack_from(raw)
    if magic != MAGIC:
        raise InvalidArgument(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version not in _HEADERS:
        raise InvalidArgument(f"{path}: format version {version}, expected one of "
                              f"{sorted(_HEADERS)}")
    layout = _HEADERS[version]
    if len(raw) < layout.size:
        raise InvalidArgument(f"{path}: file shorter than the field header")
    fields = layout.unpack_from(raw)
    kind, n, spacing, seed = fields[2:6]
    origin, flags = (fields[6:8], fields[8]) if version >= 2 else ((0.0, 0.0), 0)
    if kind not in tuple(int(k) for k in FieldKind):
        raise InvalidArgument(f"{path}: unknown field kind byte {kind}")
    if flags & ~(_MEAN_REMOVED | _DERIVED):
        raise InvalidArgument(f"{path}: unknown flag bits {flags:#04x}")
    return layout.size, int(kind), int(n), float(spacing), int(seed), origin, flags


def read_field(path) -> FieldSample:
    """Load a field sample; truncated or malformed files raise InvalidArgument."""
    size, kind, n, spacing, seed, origin, flags = _header(path)
    with open(path, "rb") as fh:
        fh.seek(size)
        payload = fh.read()
    expect = n * n * 8
    if len(payload) != expect:
        raise InvalidArgument(
            f"{path}: payload holds {len(payload)} bytes, expected {expect}")
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(n, n)
    spec = LatticeSpec(n=n, spacing=spacing, origin=origin)
    return FieldSample(spec=spec, kind=FieldKind(kind), seed=seed,
                       values=np.ascontiguousarray(values),
                       mean_removed=bool(flags & _MEAN_REMOVED),
                       derived=bool(flags & _DERIVED))


def verify_field(path) -> bool:
    """Header-plus-size integrity check that never raises."""
    try:
        size, _, n, spacing, *_ = _header(path)
        if not (n >= 2 and spacing > 0):
            return False
        return os.path.getsize(path) == size + n * n * 8
    except (InvalidArgument, OSError, struct.error):
        return False
