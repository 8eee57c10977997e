"""The memory-mapped columnar corpus container (DESIGN.md §11)."""

from repro.storage.columnar import (
    COLUMNAR_FORMAT_VERSION,
    COLUMNAR_SUFFIX,
    ColumnarCorpus,
    ColumnarDiskStats,
    ColumnarWriter,
    PackedTransactions,
    PlaneStats,
    pack_dataset,
)

__all__ = [
    "COLUMNAR_FORMAT_VERSION",
    "COLUMNAR_SUFFIX",
    "ColumnarCorpus",
    "ColumnarDiskStats",
    "ColumnarWriter",
    "PackedTransactions",
    "PlaneStats",
    "pack_dataset",
]
