"""Single-file tensor container used for checkpoints and corpora.

Layout: magic "DAPE1\n", an 8-byte little-endian header length, a JSON
header (metadata plus a manifest of name/shape/offset records, keys
sorted), then the raw little-endian float64 payloads back to back.
Everything is pinned, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FileFormatError

MAGIC = b"DAPE1\n"


def save_tensors(path: str | Path, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a container, each array's bytes straight from its own buffer."""
    manifest = []
    offset = 0
    arrays = []
    for name in sorted(tensors):
        # a no-copy view for the float64 C-contiguous arrays callers pass
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
        arrays.append(arr)
    header = json.dumps(
        {"meta": meta, "manifest": manifest}, sort_keys=True, separators=(",", ":")
    ).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(arr.data)


def load_tensors(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container back; any malformed or truncated file raises
    FileFormatError.

    The payload is read once into one buffer and every tensor is a view of
    it, so keeping any one of them alive keeps the whole buffer alive.
    """
    p = Path(path)
    if not p.exists():
        raise FileFormatError(f"no such file: {p}")
    with open(p, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = len(MAGIC) + 8
        lead = fh.read(start)
        if not lead.startswith(MAGIC):
            raise FileFormatError(f"{p} is not a DAPE1 container")
        if len(lead) < start:
            raise FileFormatError(f"{p}: file ends inside the header length")
        n = struct.unpack("<Q", lead[len(MAGIC) :])[0]
        if n > size - start:
            raise FileFormatError(f"{p}: header length {n} runs past the end of the file")
        try:
            header = json.loads(fh.read(n).decode())
        except ValueError as e:
            raise FileFormatError(f"{p}: bad header: {e}") from e
        meta = header.get("meta") if isinstance(header, dict) else None
        manifest = header.get("manifest") if isinstance(header, dict) else None
        if not isinstance(meta, dict) or not isinstance(manifest, list):
            raise FileFormatError(f"{p}: header needs a meta object and a manifest list")
        body = np.empty(size - start - n, dtype=np.uint8)
        body = body[: fh.readinto(body)]
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
        # offsets are multiples of 8 here, so every view is aligned; the
        # conversion copies only on a big-endian host
        arr = body[lo:end].view("<f8").reshape(shape)
        tensors[name] = arr.astype(np.float64, copy=False)
    if end != len(body):
        raise FileFormatError(f"{p}: {len(body) - end} payload bytes after the last tensor")
    return meta, tensors
