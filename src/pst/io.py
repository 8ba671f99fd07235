"""Tensor file format and directory checkpoints.

A tensor file is little-endian throughout: a 4-byte magic ``PSTT``, a
u32 format version (currently 1), a u8 dtype code (0 for float32, 1 for
float64), a u8 rank of at least one, that many u32 extents, then the
row-major payload. Malformed files raise :class:`FormatError` carrying
the byte offset of the first inconsistency.

A checkpoint is a directory with one tensor file per named parameter or
buffer plus a ``manifest.json`` mapping names to files. The manifest
stores no configuration, so toggling runtime behavior never changes a
checkpoint's digest. A save replaces the directory whole.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import stat
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import ContractError, DimensionError, FormatError
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
    """Write every named array of ``params`` and a manifest. Returns the manifest.

    The directory is replaced whole. The files are written into a new
    sibling directory; the previous directory is then renamed aside, the new
    one renamed into its place, and the previous one removed, so a file an
    earlier save left there does not survive. If writing fails, the sibling
    is removed and the previous checkpoint stays as it was. A symlink to a
    directory keeps pointing at the replaced directory. Nothing is flushed
    to the disk: this guards against a failed or interrupted save, not
    against power loss.

    A directory holding anything but ``manifest.json`` and ``.pstt`` files
    is not a checkpoint: it raises :class:`FormatError` and is left alone.
    The working directory raises :class:`ContractError`, since replacing it
    would leave the process in a removed directory.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    root = root.resolve()
    if root == Path.cwd():
        raise ContractError(f"{root} is the working directory; save the checkpoint elsewhere")
    for path in root.iterdir():
        if (path.is_symlink() or not path.is_file()
                or (path.name != MANIFEST_NAME and path.suffix != ".pstt")):
            raise FormatError(f"{root} holds {path.name!r}, which no checkpoint writes; "
                              "not replacing it")
    staging = Path(tempfile.mkdtemp(prefix=f".{root.name}.", dir=root.parent))
    try:
        entries = {}
        for name, arr in named_arrays(params).items():
            filename = _file_for(name)
            save_tensor(staging / filename, arr)
            entries[name] = filename
        manifest = {"format": MAGIC.decode(), "version": VERSION, "tensors": entries}
        (staging / MANIFEST_NAME).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        staging.chmod(stat.S_IMODE(root.stat().st_mode))
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    aside = staging.with_name(staging.name + ".old")
    root.rename(aside)
    try:
        staging.rename(root)
    except BaseException:
        aside.rename(root)
        shutil.rmtree(staging, ignore_errors=True)
        raise
    shutil.rmtree(aside)
    return manifest


def _tensor_path(root: Path, name: str, filename) -> Path:
    """The file a manifest entry names: the one a save writes for ``name``,
    a plain file directly inside ``root``."""
    path = root / _file_for(name)
    if filename != path.name or path.is_symlink() or not path.is_file():
        raise FormatError(
            f"manifest entry {name!r} names {filename!r}, not the plain file {path.name!r} in {root}")
    return path


def load_checkpoint(directory, params) -> None:
    """Fill ``params`` in place from a checkpoint directory.

    A manifest that is not a JSON object raises :class:`FormatError`, and so
    does one whose format is not ``PSTT`` or whose version is not the
    integer 1, and an entry other than the file a save writes for its name,
    as a plain file directly inside the directory (a path, a symlink,
    another tensor's file or a non-string).
    """
    root = Path(directory)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FormatError(f"no {MANIFEST_NAME} in {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{MANIFEST_NAME} in {root} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{MANIFEST_NAME} in {root} holds {type(manifest).__name__}, not an object")
    if manifest.get("format") != MAGIC.decode():
        raise FormatError(f"checkpoint format {manifest.get('format')!r} is not {MAGIC.decode()!r}")
    version = manifest.get("version")
    if type(version) is not int or version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version!r}")
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
