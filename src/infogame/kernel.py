"""Bitmask and combinatorics helpers shared by the brute-force layers.

Here a link profile is a tuple of row bitmasks: row i holds the agents that
i links to. Agent i's alternatives are indexed by *compact* rows, its row
with bit i removed, so its 2**(n-1) candidate rows are 0 .. 2**(n-1) - 1.

The *profile index* ranks the 2**(n(n-1)) profiles by their flattened link
matrix with the diagonal left out: row i is the (n-1)-bit field starting at
bit (n-1)(n-1-i), and inside a field the most significant bit is the lowest
target, the reverse of the compact-row order. :func:`rows_from_indices` and
:func:`profile_indices` convert whole batches between the two forms.

Every search over sponsored trees (each edge of a tree linked by exactly one
of its ends) takes its rows from :func:`sponsored_trees`, the one place that
turns :func:`spanning_trees` into profiles: the pruned NE scan's forests, the
component checker's blocks and the production game's tree shapes.

One path evaluates best responses: :func:`best_response_table` takes a
batch of profiles as an int64 array, and :func:`ne_status` judges a batch
with it, so a single profile is a batch of one. It reads the payoff tables
that each ``GameConfig`` builds once and owns (``fh`` and ``row_costs``).
:func:`components` is the package's one component walk. Through
:func:`merged_table` it serves the best responses and the production game's
equilibrium check; it also gives equilibrium reports their components, the
characterization masks (strict-equilibrium stars, production trees and their
cuts) their shapes, and the formation game's per-profile topology, as a batch
of one. :func:`welfare` sums the tables in a fixed order. Scalar forms of the
walk, of the welfare sum, of the profile index, of the Pruefer decoder and of
the tree orientations live under ``tests/`` as the oracles the array forms
are compared against. Every brute-force search counts its work in closed
form first and passes it to :func:`require_budget`.
"""
from __future__ import annotations

import math

import numpy as np

from .entropy import TOL

# profiles, sponsored trees, partitions or grid points one brute-force search may visit
CHECK_BUDGET = 1 << 20


class CapExceededError(RuntimeError):
    """Raised when a brute-force search would exceed the work budget."""


def require_budget(count: int, what: str, unit: str) -> None:
    """Refuse a search of ``count`` units of work when that exceeds ``CHECK_BUDGET``."""
    if count > CHECK_BUDGET:
        raise CapExceededError(f"{what} capped at {CHECK_BUDGET} {unit}: it would check {count} {unit}")


# -- profile encoding -----------------------------------------------------------

def expand_row(compact: int, i: int) -> int:
    """Insert a zero bit at position i, mapping a compact row to a real row.

    Works elementwise on int arrays too.
    """
    low = compact & ((1 << i) - 1)
    return low | ((compact >> i) << (i + 1))


def compress_row(row: int, i: int) -> int:
    """Drop bit i (which must be zero) from a row mask.

    Works elementwise on int arrays too.
    """
    low = row & ((1 << i) - 1)
    return low | ((row >> (i + 1)) << i)


def field_compacts(n: int) -> np.ndarray:
    """Compact row of every value of an (n-1)-bit row field of the profile index.

    The field reverses the compact bit order, so this is a bit reversal.
    """
    width = n - 1
    fields = np.arange(1 << width)
    compacts = np.zeros(1 << width, dtype=np.int64)
    for p in range(width):
        compacts |= (fields >> (width - 1 - p) & 1) << p
    return compacts


def rows_from_indices(idx: np.ndarray, n: int) -> np.ndarray:
    """Rows of every profile index in ``idx``, as an int64 array of shape (len, n)."""
    width = n - 1
    compacts = field_compacts(n)
    out = np.empty((len(idx), n), dtype=np.int64)
    for i in range(n):
        field = (idx >> (width * (n - 1 - i))) & ((1 << width) - 1)
        out[:, i] = expand_row(compacts, i)[field]
    return out


def profile_indices(rows: np.ndarray) -> np.ndarray:
    """Profile index of every row of an int64 array of shape (batch, n); the inverse
    of :func:`rows_from_indices`."""
    n = rows.shape[1]
    compacts = field_compacts(n)  # a bit reversal, so its own inverse
    idx = np.zeros(len(rows), dtype=np.int64)
    for i in range(n):
        idx = idx << (n - 1) | compacts[compress_row(rows[:, i], i)]
    return idx


# -- combinatorics ----------------------------------------------------------------

def set_partitions(items: tuple[int, ...]):
    """Partitions of ``items`` into blocks, in a deterministic order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


def set_partition_count(n: int, weight=lambda size: 1) -> int:
    """Partitions of n items, each weighted by the product of ``weight(block size)``.

    a(n) = sum over k of C(n-1, k-1) weight(k) a(n-k), k being the size of
    the first item's block; with unit weights these are the Bell numbers.
    """
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m - 1, k - 1) * weight(k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def sponsored_tree_count(m: int) -> int:
    """Sponsored spanning trees of m agents: m**(m-2) trees, 2**(m-1) orientations each."""
    return m ** max(m - 2, 0) << (m - 1)


def spanning_trees(members: tuple[int, ...]) -> np.ndarray:
    """Spanning trees of a labelled vertex set, by Pruefer decoding.

    Returns an int64 array of shape (m**(m-2), m-1, 2), one tree per Pruefer
    sequence in lexicographic order; each edge is (smaller member, larger
    member) in decoding order. A single member has one tree, with no edges.
    """
    m = len(members)
    if m == 1:
        return np.zeros((1, 0, 2), dtype=np.int64)
    count = m ** (m - 2)
    seqs = np.indices((m,) * (m - 2)).reshape(m - 2, count).T
    tree = np.arange(count)
    degree = np.ones((count, m), dtype=np.int64)
    for s in range(m - 2):
        degree[tree, seqs[:, s]] += 1
    ends = np.empty((count, m - 1, 2), dtype=np.int64)
    for s in range(m - 2):
        # the smallest leaf joins the next vertex of the sequence and leaves
        v = seqs[:, s]
        leaf = np.argmax(degree == 1, axis=1)
        ends[:, s, 0], ends[:, s, 1] = np.minimum(leaf, v), np.maximum(leaf, v)
        degree[tree, leaf] = 0
        degree[tree, v] -= 1
    ends[:, m - 2] = np.nonzero(degree == 1)[1].reshape(count, 2)
    return np.array(members, dtype=np.int64)[ends]


def sponsored_trees(members: tuple[int, ...], n: int) -> np.ndarray:
    """Rows of every sponsored spanning tree of ``members`` among n agents.

    Returns a read-only int64 array of shape (sponsored_tree_count(len(members)), n):
    the trees in :func:`spanning_trees` order, each in every orientation, by
    ascending orientation number. Bit b of that number decides who sponsors
    edge b = (i, j): set means j links to i, clear means i links to j.
    """
    ends = spanning_trees(members)
    trees, m = len(ends), len(members)
    tree = np.arange(trees)
    out = np.zeros((trees, 1 << (m - 1), n), dtype=np.int64)
    for b in range(m - 1):
        i, j = ends[:, b, 0], ends[:, b, 1]
        # orientation number = (high, bit b, low) with 2**b low values
        split = out.reshape(trees, -1, 2, 1 << b, n)
        split[tree, :, 0, :, i] |= (1 << j)[:, None, None]
        split[tree, :, 1, :, j] |= (1 << i)[:, None, None]
    out = out.reshape(-1, n)
    out.flags.writeable = False
    return out


# -- components and payoffs ----------------------------------------------------------

def components(rows: np.ndarray) -> np.ndarray:
    """Component mask of every agent in every profile of a batch.

    ``rows`` is an int64 array of shape (batch, n); entry [a, b] of the int64
    result, of shape (n, batch), is agent a's component in profile b."""
    n = rows.shape[1]
    agent = np.arange(n, dtype=np.int64)[:, None]
    links = np.ascontiguousarray(rows.T)
    # reach[a]: agent a's neighbours, then its component
    reach = links | 1 << agent
    for a in range(n):
        reach |= (links[a] >> agent & 1) << a
    # Warshall closure: whoever reaches k reaches all that k reaches
    for k in range(n):
        reach |= reach[k] & -(reach >> k & 1)
    return reach


def merged_table(n: int, rows: np.ndarray, i: int) -> np.ndarray:
    """Agent i's component mask for every compact row, for a batch of profiles.

    ``rows`` is an int64 array of shape (batch, n); column i is ignored.
    Returns an int64 array of shape (batch, 2**(n-1)) whose entry [b, c] is
    the component agent i joins in profile b by playing compact row c:
    linking to agent j merges in j's whole component of the graph without
    i's sponsored links.
    """
    others = rows.copy()
    others[:, i] = 0  # the graph without i's sponsored links
    reach = components(others)
    # the OR over compact rows, one target bit at a time
    merged = np.empty((len(rows), 1 << (n - 1)), dtype=np.int64)
    merged[:, 0] = reach[i]
    for k, j in enumerate(t for t in range(n) if t != i):
        half = 1 << k
        np.bitwise_or(merged[:, :half], reach[j][:, None], out=merged[:, half:2 * half])
    return merged


def best_response_table(n: int, rows: np.ndarray, i: int, fh: np.ndarray,
                        row_cost: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Agent i's within-tolerance best responses for a batch of profiles.

    ``rows`` is an int64 array of shape (batch, n); column i is ignored.
    Returns a bool array of shape (batch, 2**(n-1)) whose entry [b, c] is set
    when compact row c is within ``tol`` of agent i's best utility against
    the other rows of profile b. ``fh`` and ``row_cost`` are ``GameConfig.fh``
    and agent i's row of ``GameConfig.row_costs``.
    """
    u = fh[merged_table(n, rows, i)] - row_cost
    return u >= u.max(axis=1, keepdims=True) - tol


def ne_status(n: int, rows: np.ndarray, agents, fh: np.ndarray, costs: np.ndarray,
              tol: float = TOL) -> tuple[np.ndarray, np.ndarray]:
    """(is_ne, is_strict) of every profile of a batch, judged over the given agents only.

    ``rows`` is an int64 array of shape (batch, n); ``fh`` and ``costs`` are
    as in :func:`best_response_table`, with ``costs`` holding every agent's
    table. An agent fails when some row beats its current one by more than
    ``tol``; it is strict when its current row is its only within-tolerance
    best response. A profile is dropped at its first failing agent. Returns
    two bool arrays of length batch.
    """
    is_ne = np.zeros(len(rows), dtype=bool)
    is_strict = np.zeros(len(rows), dtype=bool)
    alive = np.arange(len(rows))
    strict = np.ones(len(rows), dtype=bool)
    for i in agents:
        table = best_response_table(n, rows, i, fh, costs[i], tol)
        keep = table[np.arange(len(rows)), compress_row(rows[:, i], i)]
        strict = strict[keep] & (table[keep].sum(axis=1) == 1)
        alive, rows = alive[keep], rows[keep]
    is_ne[alive] = True
    is_strict[alive] = strict
    return is_ne, is_strict


def welfare(rows: np.ndarray, comp: np.ndarray, fh: np.ndarray, row_costs: np.ndarray) -> np.ndarray:
    """Sum of utilities of every profile of a batch, given its :func:`components`.

    Adds every agent's benefit first and then subtracts each agent's link
    costs in agent-then-target order; reports print these floats, so the
    order is fixed.
    """
    n = rows.shape[1]
    w = np.zeros(len(rows))
    for c in comp:
        w = w + fh[c]
    for i in range(n):
        compact = compress_row(rows[:, i], i)
        for k in range(n - 1):
            w = w - np.where(compact >> k & 1, row_costs[i, 1 << k], 0.0)
    return w
