"""CSV tables written from arrays, ``CHUNK_ROWS`` rows at a time.

A column is a (strings, codes) pair: an object array of cell texts and an
int array indexing it, one code per row, or one per row and part when a
cell is the concatenation of parts. A link profile prints as the strings
of :func:`row_strings` indexed by its rows. A float64 array is a column of
its own: :func:`floats` formats it one chunk at a time, calling ``repr``
once per distinct value of the chunk, so no whole column is held as text.
"""
from __future__ import annotations

import numpy as np

from .kernel import distinct

# rows per chunk: the formatted text held in memory at once is one chunk's, 0.2 MB for a 6-agent report
CHUNK_ROWS = 512


def row_strings(n: int) -> np.ndarray:
    """'0'/'1' text of every n-bit row mask, bit j at position j, as an object array."""
    masks = np.arange(1 << n)
    return np.add.reduce([np.where(masks >> j & 1, "1", "0").astype(object) for j in range(n)])


def floats(values) -> tuple[np.ndarray, np.ndarray]:
    """``repr`` of every float of an array, as strings and codes of the array's shape.
    Values are told apart by bit pattern, so 0.0 and -0.0 keep their own texts."""
    bits, _, codes = distinct(np.asarray(values, dtype=np.float64).reshape(-1).view(np.int64))
    return np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object), codes.reshape(np.shape(values))


def write_csv(out, header, columns) -> None:
    """Write ``header`` and the rows of ``columns`` (pairs or float64 arrays) to the text file
    ``out``, each line ending in a newline."""
    out.write(",".join(header) + "\n")
    first = columns[0]
    for start in range(0, len(first if isinstance(first, np.ndarray) else first[1]), CHUNK_ROWS):
        at, cells = slice(start, start + CHUNK_ROWS), []
        for column in columns:
            strings, codes = floats(column[at]) if isinstance(column, np.ndarray) else (column[0], column[1][at])
            part = strings[codes]
            cells.append((np.add.reduce(part, axis=1) if part.ndim == 2 else part).tolist())
        out.write("\n".join(map(",".join, zip(*cells))) + "\n")
