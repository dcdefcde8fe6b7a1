"""PGM image reading (plain P2 and raw P5) and writing (P5).

Only 8-bit grayscale is supported; scenes and reconstructions are scaled by
the caller before hitting disk.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DomainError

__all__ = ["read_pgm", "write_pgm"]


def write_pgm(path: str, image: np.ndarray) -> None:
    """Write a 2-D integer array with values in [0, 255] as P5."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.size == 0:
        raise ContractError("image must be a non-empty 2-D array")
    if not np.issubdtype(arr.dtype, np.integer):
        raise DomainError("image must hold integers; quantize before writing")
    if arr.min() < 0 or arr.max() > 255:
        raise DomainError("pixel values must lie in [0, 255]")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(arr.astype(np.uint8).tobytes())


def _tokens(data: bytes):
    """Header tokens with # comments stripped, then the byte offset."""
    pos = 0
    while True:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        yield data[start:pos], pos


def read_pgm(path: str) -> np.ndarray:
    """Read P2 or P5 into a 2-D uint8 array; a header field or a sample that
    is not an integer in range raises ContractError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    reader = _tokens(data)
    try:
        magic, _ = next(reader)
        (w_tok, _), (h_tok, _), (maxval_tok, end) = (next(reader) for _ in range(3))
    except StopIteration:
        raise ContractError(f"{path}: truncated header") from None
    if magic not in (b"P2", b"P5"):
        raise ContractError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError:
        raise ContractError(f"{path}: width, height and maxval must be integers") from None
    if width <= 0 or height <= 0 or not (0 < maxval <= 255):
        raise ContractError(f"{path}: unsupported PGM dimensions or depth")
    if magic == b"P5":
        if len(data) - (end + 1) < width * height:
            raise ContractError(f"{path}: pixel payload truncated")
        pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=end + 1)
    else:
        # comments are legal between plain-format samples too
        payload = b"\n".join(
            line.split(b"#", 1)[0] for line in data[end:].splitlines()
        )
        values = payload.split()
        if len(values) < width * height:
            raise ContractError(f"{path}: not enough pixel values")
        try:
            pixels = np.array([int(v) for v in values[: width * height]])
        except ValueError:
            raise ContractError(f"{path}: a pixel value is not an integer") from None
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ContractError(f"{path}: pixel values must lie in [0, maxval = {maxval}]")
    return pixels.astype(np.uint8, copy=False).reshape(height, width)
