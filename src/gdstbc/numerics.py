"""Exact Gaussian-integer matrix algebra, plus the rank-rule threshold.

Floating work (codeword evaluation, determinants, singular values,
decoder metrics) runs on complex128 ndarrays directly.  Algebraic
identities that must hold with zero tolerance (the cross-group
anticommutation and block-structure checks on weight matrices) go
through :class:`GxMat`, which stores real and imaginary parts as int64
arrays so that products and Hermitian transposes never round.

Everything here is sized for matrices up to 64x64.  No function mutates
its inputs.
"""

from __future__ import annotations

import numpy as np

#: Relative threshold of the full-rank decision rule: a matrix is full
#: rank iff its smallest singular value exceeds RANK_RTOL * max(1, largest).
#: Matrices judged by it are either exactly singular or well conditioned at
#: the scales this package works at, so a single relative threshold is
#: enough.
RANK_RTOL = 1e-9


class GxMat:
    """Matrix over the Gaussian integers, stored as int64 re/im parts.

    Addition, multiplication and Hermitian transposition are closed and
    exact, which is what the weight-matrix verification needs.  Entries
    stay tiny (products of 0, +-1, +-i summed over at most 64 terms), so
    int64 overflow is not a concern.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        re = np.asarray(re, dtype=np.int64)
        im = np.asarray(im, dtype=np.int64)
        if re.shape != im.shape or re.ndim != 2:
            raise ValueError("re and im must be 2-D arrays of the same shape")
        self.re = re
        self.im = im

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GxMat":
        return cls(np.zeros((rows, cols), np.int64), np.zeros((rows, cols), np.int64))

    @classmethod
    def from_complex(cls, a) -> "GxMat":
        """Exact conversion; rejects anything that is not Gaussian-integer valued."""
        a = np.asarray(a, dtype=np.complex128)
        re = np.round(a.real).astype(np.int64)
        im = np.round(a.imag).astype(np.int64)
        if not (np.array_equal(re, a.real) and np.array_equal(im, a.imag)):
            raise ValueError("matrix entries are not Gaussian integers")
        return cls(re, im)

    @property
    def shape(self):
        return self.re.shape

    def to_complex(self) -> np.ndarray:
        return self.re.astype(np.complex128) + 1j * self.im.astype(np.complex128)

    def herm(self) -> "GxMat":
        return GxMat(self.re.T.copy(), -self.im.T.copy())

    def __matmul__(self, other: "GxMat") -> "GxMat":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        re = self.re @ other.re - self.im @ other.im
        im = self.re @ other.im + self.im @ other.re
        return GxMat(re, im)

    def __add__(self, other: "GxMat") -> "GxMat":
        return GxMat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GxMat") -> "GxMat":
        return GxMat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GxMat":
        return GxMat(-self.re, -self.im)

    def is_zero(self) -> bool:
        return not (self.re.any() or self.im.any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GxMat):
            return NotImplemented
        return np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)

    def __hash__(self):
        return hash((self.re.tobytes(), self.im.tobytes(), self.shape))

    def __repr__(self):
        return f"GxMat({self.to_complex()!r})"


def anticommutator(a: GxMat, b: GxMat) -> GxMat:
    """a^H b + b^H a, evaluated exactly."""
    return a.herm() @ b + b.herm() @ a
