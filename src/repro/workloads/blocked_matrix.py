"""Address layout of blocked (tiled) matrices.

The linear-algebra benchmarks (Cholesky, LU, QR) annotate dependences on 2D
blocks of a matrix, exactly like the code of Figure 1 of the paper
(``depend(in: A[i][k], A[j][k]) depend(inout: A[i][j])``).  This helper
computes the virtual address and size of each block so that the DAT observes
the same kind of address stream the paper's DAT does: many dependences whose
low ``log2(block_bytes)`` bits are identical, which is what makes dynamic
index-bit selection matter (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.task import DependenceSpec, AccessMode

# Modes as module constants: ``AccessMode.X`` reads go through the enum
# metaclass, and the generators request one dependence per block access.
_IN, _OUT, _INOUT = AccessMode.IN, AccessMode.OUT, AccessMode.INOUT


@dataclass(frozen=True)
class BlockedMatrix:
    """An ``num_blocks x num_blocks`` matrix of square blocks."""

    base_address: int
    num_blocks: int
    block_bytes: int
    name: str = "A"

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.block_bytes < 1:
            raise ValueError("block_bytes must be >= 1")

    def block_address(self, row: int, col: int) -> int:
        """Virtual address of block (row, col) — blocks are stored contiguously."""
        if not (0 <= row < self.num_blocks and 0 <= col < self.num_blocks):
            raise IndexError(f"block ({row}, {col}) out of range for {self.num_blocks}x{self.num_blocks}")
        return self.base_address + (row * self.num_blocks + col) * self.block_bytes

    def dep(self, row: int, col: int, mode: AccessMode) -> DependenceSpec:
        """A dependence on block (row, col) with the given access mode."""
        return DependenceSpec(
            address=self.block_address(row, col), size=self.block_bytes, mode=mode
        )

    def read(self, row: int, col: int) -> DependenceSpec:
        return self.dep(row, col, _IN)

    def write(self, row: int, col: int) -> DependenceSpec:
        return self.dep(row, col, _OUT)

    def update(self, row: int, col: int) -> DependenceSpec:
        return self.dep(row, col, _INOUT)

    @property
    def total_bytes(self) -> int:
        return self.num_blocks * self.num_blocks * self.block_bytes


def block_bytes_for_elements(block_elements: int, element_bytes: int = 4) -> int:
    """Bytes of a square block of ``block_elements`` x ``block_elements`` values."""
    return block_elements * block_elements * element_bytes
