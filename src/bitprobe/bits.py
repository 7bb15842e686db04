"""Packed bit vector, LSB-first within bytes.

Bit w lives in byte w >> 3 at position w & 7.  This is the layout the
scheme files use on disk, so ``to_bytes`` and the constructor are exact.
"""

import numpy as np


class Bitmap:
    def __init__(self, nbits: int, buf=None):
        """All zeros, or the bytes-like buf of ceil(nbits/8) bytes, held as bytes."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        nbytes = (nbits + 7) >> 3
        if buf is not None and len(buf) != nbytes:
            raise ValueError(f"buffer length {len(buf)} != {nbytes} for {nbits} bits")
        self.nbits = nbits
        self._buf = bytes(nbytes if buf is None else buf)

    @classmethod
    def from_bool_array(cls, arr) -> "Bitmap":
        arr = np.asarray(arr, dtype=bool)
        return cls(len(arr), np.packbits(arr, bitorder="little"))

    def get(self, i: int) -> int:
        if not 0 <= i < self.nbits:
            raise IndexError(f"bit {i} out of range [0, {self.nbits})")
        return (self._buf[i >> 3] >> (i & 7)) & 1

    def as_bool_array(self) -> np.ndarray:
        return np.unpackbits(np.frombuffer(self._buf, dtype=np.uint8), count=self.nbits,
                             bitorder="little").view(bool)

    def to_bytes(self) -> bytes:
        return self._buf

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self.nbits == other.nbits and self._buf == other._buf

    def __repr__(self) -> str:
        return f"Bitmap(nbits={self.nbits})"
