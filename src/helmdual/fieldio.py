"""Binary on-disk format for fields (see FORMAT.md for the byte layout)."""

from __future__ import annotations

import struct

import numpy as np

from .grid import Field, make_grid

#: the frequency shift stored per axis; the half shift is the only lattice
SHIFT = 0.5

MAGIC = b"HELMDUALFLD\x00"   # 12 bytes
FORMAT_VERSION = 1


class FieldFormatError(ValueError):
    """The byte stream is not a valid field file."""


def write_field(path, f: Field) -> None:
    """Serialize a field; see FORMAT.md.  Overwrites the target path."""
    grid = f.grid
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<qq", grid.dim, grid.points_per_axis))
        fh.write(struct.pack("<d", grid.half_length))
        fh.write(struct.pack(f"<{grid.dim}d", *(SHIFT,) * grid.dim))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path) -> Field:
    """Read a field file back; raises FieldFormatError on any malformation."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:12] != MAGIC:
        raise FieldFormatError("bad magic: not a field file")
    (version,) = struct.unpack_from("<I", data, 12)
    if version != FORMAT_VERSION:
        raise FieldFormatError(f"unsupported format version {version}")
    try:
        dim, n = struct.unpack_from("<qq", data, 16)
        if dim not in (2, 3):
            raise FieldFormatError(f"invalid dimension {dim}")
        (half_length,) = struct.unpack_from("<d", data, 32)
        shift = struct.unpack_from(f"<{dim}d", data, 40)
        offset = 40 + 8 * dim
        count = n**dim
        expected = offset + 8 * count
        if len(data) != expected:
            raise FieldFormatError(
                f"file size {len(data)} != expected {expected} for n={n}, dim={dim}"
            )
        if any(s != SHIFT for s in shift):
            raise FieldFormatError(f"unsupported frequency shift {shift}: every axis must be 0.5")
        values = np.frombuffer(data, dtype="<f8", count=count, offset=offset)
        grid = make_grid(int(dim), float(half_length), int(n))
        return Field(grid, values.reshape(grid.shape).copy())
    except (struct.error, ValueError) as err:
        if isinstance(err, FieldFormatError):
            raise
        raise FieldFormatError(str(err)) from err
