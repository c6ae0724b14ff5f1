"""Brute-force equilibrium machinery: best responses, NE sets, optimum, PoA, MIL.

Every equilibrium test here goes through
:func:`~infogame.kernel.best_response_table`, which gives agent i's
within-tolerance best-response rows for a batch of profiles at once: the two
scans evaluate it in fixed-size chunks so that memory stays bounded whatever
the game. The price of anarchy and the maximum information loss are fields
of :class:`EquilibriumReport`.

The full scan covers every profile of a chunk of same-size games, one block
of values of agent 0's row field (the top of the profile index) at a time.
Agent i's best responses see the others' rows only through the partition of
the graph without i's links: per ``SCAN_CHUNK`` of the 2**((n-1)**2) others
configurations, its merged table has a row per partition, kept read-only
across games and scored once per scan with the games' stacked payoff tables.
In a block, agent 0 reads the block's columns of its small scored tables and
each agent i >= 1 the chunks of the block's configurations; each gathers its
table per configuration as (higher fields, 2**(n-1), lower fields), its own
row field being contiguous in the profile index. A profile is an NE when
every agent's own row is set, and strict when it is the only one. A chunk is
2,048 two-agent, 256 three-agent or 8 four-agent games in one block, or one
five-agent game in 16 blocks of 2**16 profiles, never a flag per profile of
its 2**20. :func:`enumerate_nash` is :func:`enumerate_games` of one game.

Past five agents the profile space outgrows ``CHECK_BUDGET`` (six agents
have 2**30 profiles) and the scan switches to candidate pruning: every NE
with strictly positive link costs is a forest in which each edge has exactly
one sponsor (a duplicate or cycle link could be dropped for a strict gain),
so only :func:`~infogame.kernel.forest_batches` are generated: profile
indices that fill one ``SCAN_CHUNK`` buffer, judged when full by
:func:`~infogame.kernel.ne_status`, which drops a profile at its first
failing agent. Only the equilibria are kept, and sorted at the end. The
pruned path refuses cost models with a link cost at or below tolerance.

Both scans return the equilibria's profile indices and strict flags; the
report builds their rows (ne, n) once, in the masks' dtype, behind its
games' optimal forests, and the kernel's ``components`` and ``welfare`` of
them, a ``SCAN_CHUNK`` slice at a time, and streams its CSV from the arrays
through :mod:`infogame.csvtable`. The social optimum is a welfare of the
same routine: the first maximum of ``welfare`` over the optimal forest of
every set partition, which the report scores in the equilibria's own batch.
A chunk's games share that batch, each row indexing its game's tables, and
games with the same Kruskal link order share their forests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import csvtable
from .entropy import TOL
from .formation_game import GameConfig
from .kernel import (
    CHECK_BUDGET,
    CapExceededError,
    best_response_table,
    components,
    field_compacts,
    forest_batches,
    merged_table,
    ne_status,
    require_budget,
    rows_from_indices,
    set_partition_count,
    set_partitions,
    sponsored_tree_count,
    welfare,
)

# profiles (or others configurations) per best-response table evaluation
SCAN_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Everything the enumeration learned about a game's equilibria.

    The arrays are in profile-index order: ``rows`` (ne, n) and the
    ``components`` masks (n, ne), unsigned as :func:`~infogame.kernel.components`
    gives its masks (uint8 up to 8 agents), ``strict`` flags and ``welfare``.
    ``info_values`` maps a component mask to the vector's own entropy float,
    and ``social_optimum_rows`` is the optimum's int64 rows (n,). ``ne_profiles``,
    the rows as hashable tuples, is built on first use. ``poa`` is None when
    the worst equilibrium welfare is not positive, in which case the
    optimum/worst ratio has no meaningful sign.
    """

    rows: np.ndarray
    strict: np.ndarray
    welfare: np.ndarray
    components: np.ndarray
    info_values: tuple[float, ...]
    social_optimum_value: float
    social_optimum_rows: np.ndarray
    worst_ne_welfare: float
    poa: float | None
    mil: float

    @cached_property
    def ne_profiles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.rows.tolist()))

    def write_csv(self, out) -> None:
        """Write one CSV line per equilibrium to the text file ``out``."""
        n = self.rows.shape[1]
        header = ["profile", "welfare"] + [f"info_{i}" for i in range(n)] + ["strict"]
        info = np.array([repr(v) for v in self.info_values], dtype=object)
        columns = [(csvtable.row_strings(n), self.rows), self.welfare]
        columns += [(info, column) for column in self.components]
        columns.append((np.array(["0", "1"], dtype=object), self.strict.view(np.uint8)))
        csvtable.write_csv(out, header, columns)


# -- enumeration --------------------------------------------------------------

@cache
def _others_merged(n: int, i: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Agent i's read-only ``merged_table`` pair for the ``SCAN_CHUNK`` others configurations from ``start``."""
    w, low = n - 1, (n - 1) * (n - 1 - i)
    others = np.arange(start, min(start + SCAN_CHUNK, 1 << (w * w)), dtype=np.int64)
    idx = (others >> low << (low + w)) | (others & ((1 << low) - 1))  # the others' fields, own field empty
    merged, part = merged_table(n, rows_from_indices(idx, n), i)
    merged.flags.writeable = part.flags.writeable = False
    return merged, part


def _scored(n: int, i: int, starts, fh: np.ndarray, costs: np.ndarray, compacts: np.ndarray) -> tuple:
    """Agent i's best responses to the ``SCAN_CHUNK`` others configurations from each of ``starts``,
    each chunk scored once and the chunks joined: the table (games, partitions, 2**(n-1)) with its
    columns in row-field order, and each configuration's single-best flag (games, configs) and partition."""
    tables, parts, count = [], [], 0
    for start in starts:
        merged, part = _others_merged(n, i, start)
        tables.append(best_response_table(merged, fh, costs[:, i]))
        parts.append(part.astype(np.min_scalar_type(count + len(merged))) + count if count else part)
        count += len(merged)
    table, part = np.concatenate(tables, axis=1), np.concatenate(parts)
    return np.take(table, compacts, axis=-1), np.take(table.sum(axis=-1) == 1, part, axis=1), part


def _ne_scan_full(cfgs: list[GameConfig]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exhaustive scan of a chunk of same-size games, a block of agent 0's row field at a
    time; the profile indices (int64) and strict flags of every NE, game by game and
    ascending within a game, and each game's count of them."""
    n = cfgs[0].n_agents
    w, g = n - 1, len(cfgs)
    args = np.stack([cfg.fh for cfg in cfgs]), np.stack([cfg.row_costs for cfg in cfgs]), field_compacts(n)
    span = 1 << (w * (w - 1))  # the others configurations of agents 1.. per value of agent 0's field
    step = min(max(1, SCAN_CHUNK // span), 1 << w)  # values of agent 0's field per block
    first = _scored(n, 0, range(0, 1 << (w * w), SCAN_CHUNK), *args)  # agent 0's, read by every block
    idx, strict, counts = [], [], 0
    for v in range(0, 1 << w, step):
        ne, sure = np.ones((2, g, step << (w * w)), dtype=bool)  # the block's NE and strict flags
        for i in range(n):
            table, unique, part = _scored(n, i, range(v * span, (v + step) * span, SCAN_CHUNK), *args) if i else first
            own = np.take(table if i else table[..., v:v + step], part, axis=1)  # agent 0: the block's own rows
            low = w * (n - 1 - i)
            own = own.reshape(g, -1, 1 << low, own.shape[-1]).transpose(0, 1, 3, 2)
            ne.reshape(own.shape)[...] &= own
            sure.reshape(own.shape)[...] &= unique.reshape(g, -1, 1, 1 << low)  # read where ne is set
        hits = np.flatnonzero(ne)  # the game above the block's profile
        strict.append(sure.ravel()[hits])
        idx.append(hits & ((step << (w * w)) - 1) | v << (w * w))
        counts += ne.sum(axis=1)
    return np.concatenate(idx), np.concatenate(strict), counts


def _ne_scan_pruned(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forest-candidate scan of one game for n >= 6, returning as :func:`_ne_scan_full` does.
    Needs every link cost above tolerance."""
    n = cfg.n_agents
    if min(cfg.costs.link_cost(i, j) for i in range(n) for j in range(n) if i != j) <= TOL:
        raise CapExceededError(
            "pruned enumeration needs strictly positive link costs; "
            "use the full scan (n <= 5) for free links")
    buf, fill, found, dtype = np.empty(SCAN_CHUNK, dtype=np.int64), 0, [], np.min_scalar_type((1 << n) - 1)

    def judge(forests):  # rows in the masks' narrow dtype keep ne_status's copies small; found: index << 1 | strict
        ne, sure = ne_status(rows_from_indices(forests, n, dtype), cfg.fh, cfg.row_costs)
        found.append(forests[ne] << 1 | sure[ne])
    for batch in forest_batches(n, SCAN_CHUNK):  # its tree slices feed the buffer
        while len(batch):
            take = min(len(batch), SCAN_CHUNK - fill)
            buf[fill:fill + take], batch, fill = batch[:take], batch[take:], (fill + take) % SCAN_CHUNK
            if not fill:  # the buffer is full
                judge(buf)
    judge(buf[:fill])
    found = np.concatenate(found)
    found.sort(kind="stable")
    return found >> 1, (found & 1).astype(bool), np.array([len(found)])


def _mst(block: tuple[int, ...], links: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    """Kruskal on a block: the links, taken in the given order, that join two of its trees."""
    tree = {a: {a} for a in block}  # each member's tree
    edges = []
    for i, j in links:
        if i in tree and j in tree and tree[i] is not tree[j]:
            joined = tree[i] | tree[j]
            tree.update(dict.fromkeys(joined, joined))
            edges.append((i, j))
    return edges


def _kruskal_links(cfg: GameConfig) -> tuple[tuple[int, int], ...]:
    """Every link once, sponsored in its cheaper direction, in Kruskal's order: cost, then agents."""
    n, cost = cfg.n_agents, cfg.costs.link_cost
    edges = sorted((min(cost(i, j), cost(j, i)), i, j) for i in range(n) for j in range(i + 1, n))
    return tuple((i, j) if cost(i, j) <= cost(j, i) else (j, i) for _, i, j in edges)


def _optimal_forests(n: int, links: tuple[tuple[int, int], ...]) -> np.ndarray:
    """One candidate optimum per set partition, as int64 rows (Bell(n), n) in
    ``set_partitions`` order, from a game's :func:`_kruskal_links`.

    Adding a link never raises welfare of other components and a cycle edge
    only adds cost, so some welfare-maximal profile is among these: each block
    wired as a minimum-cost spanning tree with every edge sponsored in its
    cheaper direction. More than ``CHECK_BUDGET`` partitions (the Bell number
    of n, past 11 agents) raises :class:`CapExceededError`.
    """
    require_budget(set_partition_count(n), f"social optimum at {n} agents", "partitions")
    wired = {}  # the links of each block's tree
    forests = []
    for part in set_partitions(tuple(range(n))):
        rows = [0] * n
        for block in map(tuple, part):
            if block not in wired:
                wired[block] = _mst(block, links)
            for i, j in wired[block]:
                rows[i] |= 1 << j
        forests.append(rows)
    return np.array(forests, dtype=np.int64)


def social_optimum(cfg: GameConfig) -> tuple[float, np.ndarray]:
    """The maximal welfare and the int64 rows (n,) of a profile that reaches it: the
    first maximum of :func:`~infogame.kernel.welfare` over the optimal forests."""
    forests = _optimal_forests(cfg.n_agents, _kruskal_links(cfg))
    w = welfare(forests, components(forests), cfg.fh, cfg.row_costs)
    best = int(np.argmax(w))
    return float(w[best]), forests[best]


def _reports(cfgs: list[GameConfig], forests: dict) -> list[EquilibriumReport]:
    """Reports of a chunk of same-size games: one scan, then every game's optimal forests
    (from ``forests``, one array per Kruskal link order) and every game's equilibria
    scored together by ``components`` and ``welfare``, a ``SCAN_CHUNK`` slice at a time."""
    n, g = cfgs[0].n_agents, len(cfgs)
    idx, strict, counts = _ne_scan_full(cfgs) if 1 << (n * (n - 1)) <= CHECK_BUDGET else _ne_scan_pruned(cfgs[0])
    opt = [forests[links] if links in forests else forests.setdefault(links, _optimal_forests(n, links))
           for links in map(_kruskal_links, cfgs)]
    # every game's forests, then every game's equilibria: the one copy of the rows, which the reports view
    k = g * len(opt[0])
    stack = np.empty((k + len(idx), n), dtype=np.min_scalar_type((1 << n) - 1))
    stack[:k] = np.concatenate(opt)
    for start in range(0, len(idx), SCAN_CHUNK):
        stack[k + start:k + start + SCAN_CHUNK] = rows_from_indices(idx[start:start + SCAN_CHUNK], n, stack.dtype)
    del idx  # released before the stack is scored
    games = np.arange(g, dtype=np.min_scalar_type(g - 1))
    game = np.concatenate([games.repeat(len(opt[0])), games.repeat(counts)])
    fh, costs = np.stack([c.fh for c in cfgs]), np.stack([c.row_costs for c in cfgs])
    comp, w = np.empty((n, len(stack)), dtype=stack.dtype), np.empty(len(stack))
    for at in (slice(start, start + SCAN_CHUNK) for start in range(0, len(stack), SCAN_CHUNK)):
        comp[:, at] = components(stack[at])
        w[at] = welfare(stack[at], comp[:, at], fh, costs, game[at])
    tops = w[:k].reshape(g, -1).argmax(axis=1) + np.arange(0, k, len(opt[0]))
    reports, hi = [], k
    for cfg, top, count in zip(cfgs, tops.tolist(), counts.tolist()):
        lo, hi = hi, hi + count
        ws, h = w[lo:hi], (0.0,) + cfg.ev.entries  # the vector's own floats, so reports print them as given
        if count and ws.max() > w[top]:  # the optimum: the first maximum over forests, then equilibria
            top = lo + int(np.argmax(ws))
        hv = np.array(h)  # agent a's information in every equilibrium is hv[comp[a]], taken one agent at a time
        worst = float(ws.min()) if count else float("nan")
        reports.append(EquilibriumReport(
            rows=stack[lo:hi], strict=strict[lo - k:hi - k], welfare=ws, components=comp[:, lo:hi],
            info_values=h, social_optimum_value=float(w[top]),
            social_optimum_rows=stack[top].astype(np.int64), worst_ne_welfare=worst,
            poa=float(w[top]) / worst if count and worst > 0.0 else None,
            mil=max(float(hv[c].max() - hv[c].min()) for c in comp[:, lo:hi]) if count else 0.0))
    return reports


def enumerate_games(cfgs) -> list[EquilibriumReport]:
    """Enumerate all Nash equilibria of every game and summarize efficiency; the
    reports in input order.

    Scans every profile while the 2**(n(n-1)) of them fit ``CHECK_BUDGET``
    (n <= 5), and only the sponsored forests past that (they need positive
    link costs, and more than 6 agents are refused before any work). Results
    are ordered by the profile index either way. The full scan takes games of
    one size together, at most ``SCAN_CHUNK`` others configurations times
    games at a time; the pruned scan takes one game at a time. Each chunk's
    equilibria share one ``components`` and one ``welfare`` call with its
    games' optimal forests, so the optimum is never below an equilibrium's
    welfare and the PoA never below 1.
    """
    cfgs = list(cfgs)
    sizes = {}
    for k, cfg in enumerate(cfgs):
        sizes.setdefault(cfg.n_agents, []).append(k)
    for n in sizes:  # refused before any scan; up to 6 agents the sponsored forests fit the budget
        require_budget(set_partition_count(n, sponsored_tree_count), f"pruned scan at {n} agents",
                       "sponsored forests")
    reports = [None] * len(cfgs)
    forests = {}
    for n, ks in sorted(sizes.items(), reverse=True):  # the largest scans while few reports are kept
        per = max(1, SCAN_CHUNK >> (n - 1) ** 2)  # games per chunk: one from 5 agents on
        for start in range(0, len(ks), per):
            chunk = ks[start:start + per]
            for k, report in zip(chunk, _reports([cfgs[k] for k in chunk], forests)):
                reports[k] = report
    return reports


def enumerate_nash(cfg: GameConfig) -> EquilibriumReport:
    """:func:`enumerate_games` of one game."""
    return enumerate_games([cfg])[0]
