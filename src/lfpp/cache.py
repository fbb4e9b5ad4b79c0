"""Disk cache for derived artifacts: one file per key, no index.

An entry is the file `<root>/<key><suffix>`, with the suffix fixed by the
artifact kind, so the directory is its own index.  Keys are sha256 digests
of (operation, NUMERICS_VERSION, numpy and scipy versions, numpy's enabled
dispatch targets, fully resolved params) with floats as their hex bit
pattern: a 1-ulp change in any parameter is a different key, and a new
NUMERICS_VERSION, numpy, scipy or dispatch level retires every entry.  Hits
are verified against the artifact itself (binary header for field files,
`renorm._read_estimate` for estimates); anything that fails verification is
deleted and reported as a miss.  Every store goes through
`fieldio.atomic_write`, so concurrent runs on one root never see a torn
artifact and never lose each other's entries.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy

from . import fieldio
from .errors import InvalidArgument

# Bumped whenever a change alters the bits of any cached artifact.
NUMERICS_VERSION = 3


def _estimate_ok(path: Path) -> bool:
    from .renorm import _read_estimate   # renorm imports this module
    try:
        _read_estimate(path)
    except InvalidArgument:
        return False
    return True


# kind -> (file suffix, verifier)
_KINDS = {"field": (".lfpf", fieldio.verify_field), "a_eps": (".json", _estimate_ok)}


def _canon(value):
    """Canonical JSON-safe form; floats become exact hex bit patterns."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(value[k]) for k in sorted(value)}
    raise InvalidArgument(f"cannot build a cache key from a {type(value).__name__}")


def library_versions() -> Dict[str, object]:
    """numpy's and scipy's versions and the numpy dispatch targets enabled in
    this process, from numpy's runtime table: the FFTs and `exp` set an
    artifact's bits, and some outputs differ between an AVX-512 and an AVX2
    target of one numpy."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "scipy": scipy.__version__, "numpy_dispatch": dispatch}


def cache_key(operation: str, params: dict) -> str:
    payload = json.dumps({"op": operation, "numerics": NUMERICS_VERSION,
                          "libraries": library_versions(), "params": _canon(params)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _entry_path(root, key: str, kind: str) -> Path:
    if kind not in _KINDS:
        raise InvalidArgument(f"unknown cache artifact kind '{kind}'")
    return Path(root) / (key + _KINDS[kind][0])


def cache_store(root, key: str, kind: str, payload: bytes) -> Path:
    """Atomically store one artifact under its key."""
    path = _entry_path(root, key, kind)
    path.parent.mkdir(parents=True, exist_ok=True)
    fieldio.atomic_write(path, payload)
    return path


def cache_lookup(root, key: str, kind: str) -> Optional[Path]:
    """Exact-digest lookup; a corrupt artifact is deleted and is a miss."""
    path = _entry_path(root, key, kind)
    if not path.is_file():
        return None
    if _KINDS[kind][1](path):
        return path
    path.unlink(missing_ok=True)
    print(f"warning: cache entry {key[:12]}... failed verification and was evicted",
          file=sys.stderr)
    return None


def cache_entries(root) -> List[Tuple[str, str, str, float]]:
    """(key, kind, file name, mtime) of every entry under root, by key."""
    kind_of = {suffix: kind for kind, (suffix, _) in _KINDS.items()}
    entries = []
    for path in sorted(Path(root).glob("*")):
        kind = kind_of.get(path.suffix)
        if kind is None or len(path.stem) != 64:   # temp files, foreign files
            continue
        try:
            mtime = path.stat().st_mtime
        except FileNotFoundError:   # evicted by a concurrent run
            continue
        entries.append((path.stem, kind, path.name, mtime))
    return entries
