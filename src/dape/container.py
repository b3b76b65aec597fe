"""Single-file tensor container used for checkpoints and corpora.

Layout: magic "DAPE1\n", an 8-byte little-endian header length, a JSON
header (metadata plus a manifest of name/shape/offset records, keys
sorted), then the raw little-endian float64 payloads back to back.
Everything is pinned, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import FileFormatError

MAGIC = b"DAPE1\n"


def save_tensors(path: str | Path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    manifest = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
        blob = arr.astype("<f8").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps(
        {"meta": meta, "manifest": manifest}, sort_keys=True, separators=(",", ":")
    ).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_tensors(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back; any malformed or truncated file raises
    FileFormatError."""
    p = Path(path)
    if not p.exists():
        raise FileFormatError(f"no such file: {p}")
    raw = p.read_bytes()
    if not raw.startswith(MAGIC):
        raise FileFormatError(f"{p} is not a DAPE1 container")
    start = len(MAGIC) + 8
    if len(raw) < start:
        raise FileFormatError(f"{p}: file ends inside the header length")
    n = struct.unpack("<Q", raw[len(MAGIC) : start])[0]
    if n > len(raw) - start:
        raise FileFormatError(f"{p}: header length {n} runs past the end of the file")
    try:
        header = json.loads(raw[start : start + n].decode())
    except ValueError as e:
        raise FileFormatError(f"{p}: bad header: {e}") from e
    meta = header.get("meta") if isinstance(header, dict) else None
    manifest = header.get("manifest") if isinstance(header, dict) else None
    if not isinstance(meta, dict) or not isinstance(manifest, list):
        raise FileFormatError(f"{p}: header needs a meta object and a manifest list")
    body = raw[start + n :]
    extents = []
    for rec in manifest:
        try:
            lo, name = int(rec["offset"]), str(rec["name"])
            shape = tuple(int(v) for v in rec["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise FileFormatError(f"{p}: bad manifest record {rec!r}") from e
        extents.append((lo, name, shape))
    tensors = {}
    end = 0  # save_tensors writes the extents back to back; anything else is corrupt
    for lo, name, shape in sorted(extents):
        count = math.prod(shape)
        if lo < 0 or min(shape, default=0) < 0 or lo + 8 * count > len(body):
            raise FileFormatError(
                f"{p}: tensor {name!r} at offset {lo} with shape {shape} runs past "
                f"the {len(body)}-byte payload"
            )
        if lo != end:
            what = "overlaps the tensor before it" if lo < end else f"leaves a gap after byte {end}"
            raise FileFormatError(f"{p}: tensor {name!r} at offset {lo} {what}")
        end = lo + 8 * count
        arr = np.frombuffer(body[lo:end], dtype="<f8").reshape(shape)
        tensors[name] = arr.astype(np.float64)
    if end != len(body):
        raise FileFormatError(f"{p}: {len(body) - end} payload bytes after the last tensor")
    return meta, tensors
