"""3D NAND geometry and physical addressing.

Mirrors the device the paper characterizes (Section II, Table III/IV):
TLC chips with 4 planes, 954 blocks per plane, 96 physical word-line (PWL)
layers x 4 strings per block — hence 384 logical word-lines (LWLs) and
1,152 pages per block — and 18 KB pages (16 KB user + 2 KB spare).

Logical word-line numbering follows Figure 1: ``lwl = layer * strings + string``,
so LWLs 0..383 sweep layer-by-layer with the string as the minor index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List, Tuple


class PageType(Enum):
    """Page significance within a TLC/QLC logical word-line."""

    LSB = 0
    CSB = 1
    MSB = 2
    TSB = 3  # fourth page, QLC only

    # members are singletons compared by identity, so the C-level identity
    # hash is consistent — and chip page tables key dicts on (lwl, PageType)
    # hot enough that Enum's by-name hash shows up in profiles
    __hash__ = object.__hash__

    @classmethod
    def for_bits_per_cell(cls, bits_per_cell: int) -> List["PageType"]:
        """The page types present for a given cell technology (1..4 bits)."""
        if not 1 <= bits_per_cell <= 4:
            raise ValueError(f"bits_per_cell must be 1..4, got {bits_per_cell}")
        return list(_PAGE_TYPES[:bits_per_cell])


#: every page type in significance order, built once: iterating the Enum
#: class itself is slow enough to show on per-slot paths
_PAGE_TYPES: Tuple[PageType, ...] = tuple(PageType)


@dataclass(frozen=True)
class NandGeometry:
    """Dimensions of a NAND flash chip (and the SSD array built from it)."""

    planes_per_chip: int = 4
    blocks_per_plane: int = 954
    layers_per_block: int = 96
    strings_per_layer: int = 4
    bits_per_cell: int = 3
    page_user_bytes: int = 16 * 1024
    page_spare_bytes: int = 2 * 1024

    def __post_init__(self) -> None:
        for name in (
            "planes_per_chip",
            "blocks_per_plane",
            "layers_per_block",
            "strings_per_layer",
            "page_user_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 1 <= self.bits_per_cell <= 4:
            raise ValueError("bits_per_cell must be 1..4")
        if self.page_spare_bytes < 0:
            raise ValueError("page_spare_bytes must be >= 0")

    # -- derived sizes -----------------------------------------------------

    @property
    def lwls_per_block(self) -> int:
        """Logical word-lines per block (layers x strings); 384 for the paper's chip."""
        return self.layers_per_block * self.strings_per_layer

    @property
    def pages_per_lwl(self) -> int:
        return self.bits_per_cell

    @property
    def pages_per_block(self) -> int:
        """1,152 for the paper's TLC chip."""
        return self.lwls_per_block * self.bits_per_cell

    @property
    def page_bytes(self) -> int:
        """Full page size including spare area (18 KB for the paper's chip)."""
        return self.page_user_bytes + self.page_spare_bytes

    @property
    def block_user_bytes(self) -> int:
        return self.pages_per_block * self.page_user_bytes

    @property
    def blocks_per_chip(self) -> int:
        return self.planes_per_chip * self.blocks_per_plane

    @property
    def page_types(self) -> List[PageType]:
        return PageType.for_bits_per_cell(self.bits_per_cell)

    # -- LWL mapping ---------------------------------------------------------

    def lwl_index(self, layer: int, string: int) -> int:
        """Logical word-line index of (PWL layer, string)."""
        self.check_layer(layer)
        self.check_string(string)
        return layer * self.strings_per_layer + string

    def lwl_components(self, lwl: int) -> Tuple[int, int]:
        """Inverse of :meth:`lwl_index`: ``lwl -> (layer, string)``."""
        self.check_lwl(lwl)
        return divmod(lwl, self.strings_per_layer)

    def iter_lwls(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(lwl, layer, string)`` in programming order."""
        for lwl in range(self.lwls_per_block):
            layer, string = divmod(lwl, self.strings_per_layer)
            yield lwl, layer, string

    # -- validation -----------------------------------------------------------

    def check_plane(self, plane: int) -> None:
        if not 0 <= plane < self.planes_per_chip:
            raise ValueError(f"plane {plane} out of range [0, {self.planes_per_chip})")

    def check_block(self, block: int) -> None:
        if not 0 <= block < self.blocks_per_plane:
            raise ValueError(f"block {block} out of range [0, {self.blocks_per_plane})")

    def check_layer(self, layer: int) -> None:
        if not 0 <= layer < self.layers_per_block:
            raise ValueError(f"layer {layer} out of range [0, {self.layers_per_block})")

    def check_string(self, string: int) -> None:
        if not 0 <= string < self.strings_per_layer:
            raise ValueError(
                f"string {string} out of range [0, {self.strings_per_layer})"
            )

    def check_lwl(self, lwl: int) -> None:
        if not 0 <= lwl < self.lwls_per_block:
            raise ValueError(f"lwl {lwl} out of range [0, {self.lwls_per_block})")

    def check_page_type(self, page_type: PageType) -> None:
        if page_type.value >= self.bits_per_cell:
            raise ValueError(
                f"page type {page_type.name} not present on {self.bits_per_cell}-bit cells"
            )


@dataclass(frozen=True, order=True)
class BlockAddress:
    """A physical block: (chip, plane, block)."""

    chip: int
    plane: int
    block: int

    def __str__(self) -> str:
        return f"c{self.chip}/p{self.plane}/b{self.block}"


@dataclass(frozen=True, order=True)
class WordLineAddress:
    """A logical word-line within a block."""

    block: BlockAddress
    lwl: int

    def __str__(self) -> str:
        return f"{self.block}/wl{self.lwl}"


@dataclass(frozen=True, order=True)
class PageAddress:
    """A page: a word-line plus page significance."""

    wordline: WordLineAddress
    page_type: PageType

    def __str__(self) -> str:
        return f"{self.wordline}/{self.page_type.name}"


# The geometry of the SK hynix chips characterized in the paper (Table III/IV).
PAPER_GEOMETRY = NandGeometry()

# A scaled-down geometry for fast unit tests.
SMALL_GEOMETRY = NandGeometry(
    planes_per_chip=2,
    blocks_per_plane=32,
    layers_per_block=8,
    strings_per_layer=4,
    bits_per_cell=3,
    page_user_bytes=4096,
    page_spare_bytes=256,
)
