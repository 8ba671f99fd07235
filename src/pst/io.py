"""Tensor file format and directory checkpoints.

A tensor file is little-endian throughout: a 4-byte magic ``PSTT``, a
u32 format version (currently 1), a u8 dtype code (0 for float32, 1 for
float64), a u8 rank of at least one, that many u32 extents, then the
row-major payload. Malformed files raise :class:`FormatError` carrying
the byte offset of the first inconsistency.

A checkpoint is a directory with one tensor file per named parameter or
buffer plus a ``manifest.json`` mapping names to files. The manifest
stores no configuration, so toggling runtime behavior never changes a
checkpoint's digest.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError
from .params import assign_arrays, named_arrays

MAGIC = b"PSTT"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_HEADER = struct.Struct("<4sIBB")
MANIFEST_NAME = "manifest.json"


def tensor_bytes(arr: np.ndarray) -> bytes:
    dtype = np.dtype(arr.dtype)
    if dtype not in _DTYPE_CODES:
        raise FormatError(f"unsupported dtype {dtype}, expected float32 or float64")
    if arr.ndim < 1:
        raise FormatError("rank-0 tensors are not representable, reshape to rank 1")
    header = _HEADER.pack(MAGIC, VERSION, _DTYPE_CODES[dtype], arr.ndim)
    extents = struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(arr).astype(dtype.newbyteorder("<"), copy=False).tobytes()
    return header + extents + payload


def tensor_from_bytes(data: bytes) -> np.ndarray:
    if len(data) < _HEADER.size:
        raise FormatError("file too short for header", offset=len(data))
    magic, version, dtype_code, ndim = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", offset=4)
    if dtype_code not in _CODE_DTYPES:
        raise FormatError(f"unknown dtype code {dtype_code}", offset=8)
    if ndim < 1:
        raise FormatError("rank must be at least 1", offset=9)
    extents_end = _HEADER.size + 4 * ndim
    if len(data) < extents_end:
        raise FormatError("file truncated inside the extent list", offset=len(data))
    shape = struct.unpack_from(f"<{ndim}I", data, _HEADER.size)
    dtype = _CODE_DTYPES[dtype_code]
    # A Python-int product: u32 extents overflow any fixed-width integer.
    expected_end = extents_end + math.prod(shape) * dtype.itemsize
    if len(data) < expected_end:
        raise FormatError(
            f"payload ends early, expected {expected_end} bytes", offset=len(data))
    if len(data) > expected_end:
        raise FormatError(f"{len(data) - expected_end} trailing bytes", offset=expected_end)
    flat = np.frombuffer(data, dtype=dtype, count=-1, offset=extents_end)
    return flat.reshape(shape).astype(dtype.newbyteorder("="), copy=True)


def save_tensor(path, arr: np.ndarray) -> None:
    Path(path).write_bytes(tensor_bytes(arr))


def load_tensor(path) -> np.ndarray:
    return tensor_from_bytes(Path(path).read_bytes())


# --- checkpoints ----------------------------------------------------------------


def _file_for(name: str) -> str:
    return f"{name}.pstt"


def save_checkpoint(directory, params) -> dict:
    """Write every named array of ``params`` and a manifest. Returns the manifest."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    entries = {}
    for name, arr in named_arrays(params).items():
        filename = _file_for(name)
        save_tensor(root / filename, arr)
        entries[name] = filename
    manifest = {"format": MAGIC.decode(), "version": VERSION, "tensors": entries}
    (root / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


def _tensor_path(root: Path, name: str, filename) -> Path:
    """The file a manifest entry names: a plain file directly inside ``root``."""
    path = root / filename if isinstance(filename, str) else root
    if path.parent != root or path.name != filename or path.is_symlink() or not path.is_file():
        raise FormatError(f"manifest entry {name!r} names {filename!r}, not a plain file in {root}")
    return path


def load_checkpoint(directory, params) -> None:
    """Fill ``params`` in place from a checkpoint directory.

    Every manifest entry must name a plain file directly inside the
    directory; a path, a symlink or a non-string raises :class:`FormatError`.
    """
    root = Path(directory)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FormatError(f"no {MANIFEST_NAME} in {root}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("version") != VERSION:
        raise FormatError(f"unsupported checkpoint version {manifest.get('version')}")
    entries = manifest.get("tensors")
    if not isinstance(entries, dict):
        raise FormatError("manifest has no tensor table")
    expected = named_arrays(params)
    missing = sorted(set(expected) - set(entries))
    extra = sorted(set(entries) - set(expected))
    if missing or extra:
        raise DimensionError(
            f"checkpoint does not match the parameter tree: missing {missing}, extra {extra}")
    values = {name: load_tensor(_tensor_path(root, name, filename))
              for name, filename in entries.items()}
    assign_arrays(params, values)


def checkpoint_digest(directory) -> str:
    """SHA-256 over the checkpoint's files, walked in sorted name order."""
    root = Path(directory)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.iterdir() if p.is_file()):
        digest.update(path.name.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
