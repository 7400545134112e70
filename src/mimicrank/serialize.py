"""Binary container used by index and model checkpoints, and the JSON writer
of manifests and reports.

Container layout: 4-byte magic, little-endian uint32 format version,
little-endian uint64 header length, a JSON header (sorted keys, compact
separators), then the raw array payloads in header-manifest order. Arrays
are written as little-endian float64 or int64, so a write -> read round
trip is bit-exact and repeated writes of the same data produce identical
bytes.

The package's artifact writers go through atomic_write, so a file at its
final name is always complete: a writer that fails leaves the old file,
and one that is killed leaves the old file and a temporary sibling.
"""

import contextlib
import hashlib
import json
import os
import struct

import numpy as np

_DTYPE_TAGS = {"f8": "<f8", "i8": "<i8"}


def _dtype_tag(arr):
    if arr.dtype == np.float64:
        return "f8"
    if arr.dtype == np.int64:
        return "i8"
    raise ValueError(f"unsupported array dtype {arr.dtype}; use float64 or int64")


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Open a temporary sibling of path for writing, then os.replace it onto path.

    Text modes write UTF-8. If the block raises, the temporary file is
    removed and whatever was at path stays as it was. Nothing is fsynced:
    this guards against a failed or killed writer, not a power loss.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_container(path, magic, version, meta, arrays):
    """Write `meta` (JSON-serializable) plus named arrays to `path`.

    arrays: ordered sequence of (name, ndarray) pairs; float64/int64 only.
    Each array's own buffer is written and hashed, not a copy of it, unless
    it must be made contiguous or little-endian first. Returns the SHA-256
    hex digest of the bytes written.
    """
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    manifest = []
    payloads = []
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr)
        tag = _dtype_tag(arr)
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": tag})
        payloads.append(arr.astype(_DTYPE_TAGS[tag], copy=False).reshape(-1).view(np.uint8))
    header = {"meta": meta, "arrays": manifest}
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256()
    with atomic_write(path, "wb") as fh:
        for chunk in (magic, struct.pack("<I", version), struct.pack("<Q", len(header_bytes)),
                      header_bytes, *payloads):
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def read_container(path, magic, expect_version, sha256=None):
    """Read a container written by write_container.

    Returns (meta, dict name -> ndarray). A version other than
    expect_version, a file cut short anywhere, a header that is not the
    JSON write_container writes, or bytes after the last array raise
    ValueError naming the file. The file is read once; given sha256, the
    SHA-256 hex digest write_container returned, bytes with another
    digest raise ValueError naming the file before any of them is parsed.
    """
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
        raise ValueError(f"{path}: file does not match the SHA-256 recorded for it")
    end = 4

    def read(size, what):
        nonlocal end
        buf = data[end:end + size]
        if len(buf) != size:
            raise ValueError(f"{path}: truncated {what}")
        end += size
        return buf

    got = bytes(data[:4])
    if got != magic:
        raise ValueError(f"{path}: bad magic {got!r}, expected {magic!r}")
    (version,) = struct.unpack("<I", read(4, "format version"))
    if version != expect_version:
        raise ValueError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack("<Q", read(8, "header length"))
    try:
        header = json.loads(str(read(header_len, "header"), "utf-8"))
        meta, entries = header["meta"], header["arrays"]
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    arrays = {}
    for entry in entries:
        try:
            name, dtype = entry["name"], np.dtype(_DTYPE_TAGS[entry["dtype"]])
            count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed array entry {entry!r}") from exc
        buf = read(count * dtype.itemsize, f"payload for array {name!r}")
        arr = np.frombuffer(buf, dtype=dtype).reshape(entry["shape"])
        arrays[name] = arr.copy()  # writable, aligned, native layout
    if end != len(data):
        raise ValueError(f"{path}: trailing bytes after the last array")
    return meta, arrays


def write_json(path, payload):
    """JSON with sorted keys and 2-space indent, then a newline, so equal
    payloads give equal bytes."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
