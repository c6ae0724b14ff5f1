"""Bitmask and combinatorics helpers shared by the brute-force layers.

Here a link profile is a tuple of row bitmasks: row i holds the agents that
i links to. Agent i's alternatives are indexed by *compact* rows, its row
with bit i removed, so its 2**(n-1) candidate rows are 0 .. 2**(n-1) - 1.

The *profile index* ranks the 2**(n(n-1)) profiles by their flattened link
matrix with the diagonal left out: row i is the (n-1)-bit field starting at
bit (n-1)(n-1-i), and inside a field the most significant bit is the lowest
target, the reverse of the compact-row order.

Two paths evaluate best responses. The scalar one (:func:`row_utilities`,
:func:`ne_status`) takes one profile of Python ints; the array one
(:func:`best_response_table`) takes a batch of profiles as an int64 array.
Both compute the same float64 utilities and the same within-tolerance test.
The array path's component walk, :func:`merged_table`, is shared with the
production game's equilibrium check.

``component_masks`` is looked up on its module at call time rather than
imported by name, so that anything which replaces it there (a call tracer,
say) also sees the calls made from this module.
"""
from __future__ import annotations

import heapq
import itertools

import numpy as np

from . import formation_game
from .entropy import TOL


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


def profile_from_index(idx: int, n: int) -> tuple[int, ...]:
    """Decode the lexicographic rank of a flattened link matrix into rows."""
    width = n - 1
    rows = []
    shift = n * width
    for i in range(n):
        shift -= width
        compact = (idx >> shift) & ((1 << width) - 1)
        # compact holds row i left to right: most significant bit = lowest target
        row = 0
        pos = width - 1
        for j in range(n):
            if j == i:
                continue
            if compact >> pos & 1:
                row |= 1 << j
            pos -= 1
        rows.append(row)
    return tuple(rows)


def profile_index(rows) -> int:
    """Profile index of a tuple of rows; the inverse of :func:`profile_from_index`."""
    n = len(rows)
    idx = 0
    for i, row in enumerate(rows):
        for j in range(n):
            if j != i:
                idx = idx << 1 | (row >> j & 1)
    return idx


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


def spanning_trees(members: tuple[int, ...]):
    """Spanning trees of a labelled vertex set, as edge lists (Pruefer decode).

    Each edge is (smaller member, larger member); a single member yields the
    empty tree.
    """
    m = len(members)
    if m == 1:
        yield []
        return
    for seq in itertools.product(range(m), repeat=m - 2):
        degree = [1] * m
        for v in seq:
            degree[v] += 1
        heap = [v for v in range(m) if degree[v] == 1]
        heapq.heapify(heap)
        edges = []
        for v in seq:
            leaf = heapq.heappop(heap)
            edges.append((members[min(leaf, v)], members[max(leaf, v)]))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        u = heapq.heappop(heap)
        v = heapq.heappop(heap)
        edges.append((members[min(u, v)], members[max(u, v)]))
        yield edges


def orientations(edges, base: tuple[int, ...]):
    """Every way to sponsor each edge once, added on top of the rows ``base``.

    Yields 2**len(edges) row tuples. Bit b of the orientation number decides
    who sponsors edge b = (i, j): set means j links to i, clear means i
    links to j.
    """
    for orient in range(1 << len(edges)):
        rows = list(base)
        for b, (i, j) in enumerate(edges):
            if orient >> b & 1:
                rows[j] |= 1 << i
            else:
                rows[i] |= 1 << j
        yield tuple(rows)


# -- payoffs ------------------------------------------------------------------------

def fh_table(cfg: formation_game.GameConfig) -> list[float]:
    """Benefit of the joint entropy of every subset mask; index 0 is f(0) = 0."""
    n = cfg.n_agents
    table = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        table[mask] = cfg.benefit(cfg.ev.h(mask))
    return table


def row_costs(cfg: formation_game.GameConfig) -> list[list[float]]:
    """Link cost of every compact row, per agent: ``[i][compact]`` is what
    agent i pays for the links of its compact row ``compact``."""
    n = cfg.n_agents
    tables = []
    for i in range(n):
        targets = [j for j in range(n) if j != i]
        table = [0.0] * (1 << (n - 1))
        for compact in range(1, len(table)):
            j = targets[(compact & -compact).bit_length() - 1]
            table[compact] = table[compact & (compact - 1)] + cfg.link_cost(i, j)
        tables.append(table)
    return tables


def merged_components(n: int, rows, i: int) -> list[int]:
    """Component mask of agent i for every compact row, the other rows held fixed.

    Linking to agent j merges in j's whole component of the graph without
    i's sponsored links, so each entry is one OR away from a smaller one.
    """
    adj = [0] * n
    for a in range(n):
        r = rows[a] if a != i else 0
        adj[a] |= r
        t = r
        while t:
            low = t & -t
            adj[low.bit_length() - 1] |= 1 << a
            t ^= low
    comp = formation_game.component_masks(adj)
    targets = [j for j in range(n) if j != i]
    merged = [0] * (1 << (n - 1))
    merged[0] = comp[i]
    for compact in range(1, len(merged)):
        j = targets[(compact & -compact).bit_length() - 1]
        merged[compact] = merged[compact & (compact - 1)] | comp[j]
    return merged


def row_utilities(n: int, rows, i: int, fh: list[float], row_cost: list[float]) -> list[float]:
    """Utility of every compact row for agent i, holding the others fixed.

    ``row_cost`` is agent i's table from :func:`row_costs`.
    """
    return [fh[m] - c for m, c in zip(merged_components(n, rows, i), row_cost)]


def ne_status(n: int, rows, agents, fh: list[float], costs: list[list[float]],
              tol: float = TOL) -> tuple[bool, bool]:
    """(is_ne, is_strict) of a profile, judged over the given agents only.

    ``costs`` holds the per-agent tables of :func:`row_costs`. An agent
    fails when some row beats its current one by more than ``tol``; it is
    strict when every other row is worse by more than ``tol``. The test
    stops at the first failing agent and then returns (False, False).
    """
    strict = True
    for i in agents:
        utils = row_utilities(n, rows, i, fh, costs[i])
        current = compress_row(rows[i], i)
        u_cur = utils[current]
        if u_cur < max(utils) - tol:
            return False, False
        if strict:
            floor = u_cur - tol
            strict = not any(u >= floor for c, u in enumerate(utils) if c != current)
    return True, strict


def merged_table(n: int, rows: np.ndarray, i: int) -> np.ndarray:
    """Agent i's component mask for every compact row, for a batch of profiles.

    ``rows`` is an int64 array of shape (batch, n); column i is ignored.
    Returns an int64 array of shape (batch, 2**(n-1)) whose row b is
    :func:`merged_components` of profile b.
    """
    # reach[a]: agent a's neighbours (then its component) without i's links
    reach = np.zeros((n, len(rows)), dtype=np.int64)
    for a in range(n):
        reach[a] |= 1 << a
        if a == i:
            continue
        r = rows[:, a]
        reach[a] |= r
        for j in range(n):
            if j != a:
                reach[j] |= (r >> j & 1) << a
    # Warshall closure: whoever reaches k reaches all that k reaches
    for k in range(n):
        for a in range(n):
            if a != k:
                reach[a] |= reach[k] & -(reach[a] >> k & 1)
    # the OR over compact rows of merged_components, one target bit at a time
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
    the other rows of profile b. ``fh`` and ``row_cost`` are
    :func:`fh_table` and agent i's :func:`row_costs` table as float64 arrays.
    The utilities are those of :func:`row_utilities` and the test is that of
    :func:`ne_status`, in the same float64 arithmetic, so both paths agree
    bit for bit.
    """
    u = fh[merged_table(n, rows, i)] - row_cost
    return u >= u.max(axis=1, keepdims=True) - tol


def welfare(cfg: formation_game.GameConfig, rows, comp: list[int], fh: list[float]) -> float:
    """Sum of utilities given each agent's component mask ``comp``.

    Adds every agent's benefit first and then subtracts each agent's link
    costs in agent order; reports print this float, so the order is fixed.
    """
    w = sum(fh[c] for c in comp)
    for i, row in enumerate(rows):
        t = row
        while t:
            low = t & -t
            w -= cfg.link_cost(i, low.bit_length() - 1)
            t ^= low
    return w
