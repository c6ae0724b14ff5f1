"""Brute-force equilibrium machinery: best responses, NE sets, optimum, PoA, MIL.

Every equilibrium test here is :func:`~infogame.kernel.ne_status`, which
judges a batch of profiles against every agent's within-tolerance best
responses at once, for one game or a chunk of same-size games stacked on a
leading game axis, and drops a profile once every game has refuted it. The
price of anarchy and the maximum information loss are fields of
:class:`EquilibriumReport`.

There is one scan, and its candidates follow the costs. When every link of
every game costs more than ``TOL``, each NE is a forest in which each edge
has exactly one sponsor (a duplicate or cycle link could be dropped for a
gain above ``TOL``), so the candidates are
:func:`~infogame.kernel.forest_batches`, at every size. Otherwise they are
every profile index, which fits ``CHECK_BUDGET`` up to five agents (six
have 2**30 profiles), so six agents with a link at or below ``TOL`` are
refused. Either way the candidates fill one ``SCAN_CHUNK`` buffer, judged
when full, and only the equilibria are kept and sorted at the end, so
nothing the size of the candidates is ever held. :func:`enumerate_games` groups games by size and by
that cost rule, and a chunk's games have at most ``SCAN_CHUNK << (n - 1)``
candidates in all: over every profile 2,048 two-agent, 256 three-agent or 8
four-agent games, or one five-agent game; over the forests 2,730, 862, 163,
21 and 2 games of two to six agents. :func:`enumerate_nash` is
:func:`enumerate_games` of one game.

The scan returns the equilibria's profile indices and strict flags; the
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
from functools import cached_property

import numpy as np

from . import csvtable
from .entropy import TOL
from .formation_game import GameConfig
from .kernel import (
    CHECK_BUDGET,
    CapExceededError,
    components,
    forest_batches,
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

def _costly(cfg: GameConfig) -> bool:
    """Does every link of the game cost more than ``TOL``? Then each of its equilibria is a sponsored forest."""
    n = cfg.n_agents
    return all(cfg.costs.link_cost(i, j) > TOL for i in range(n) for j in range(n) if i != j)


def _ne_scan(cfgs: list[GameConfig]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scan of a chunk of same-size games: the profile indices (int64) and strict flags of every
    NE, game by game and ascending within a game, and each game's count of them."""
    n, g = cfgs[0].n_agents, len(cfgs)
    space = 1 << n * (n - 1)  # profiles per game
    if all(map(_costly, cfgs)):
        batches = forest_batches(n, SCAN_CHUNK)  # its tree slices feed the buffer
    elif space > CHECK_BUDGET:
        raise CapExceededError(
            "pruned enumeration needs strictly positive link costs; "
            "use the full scan (n <= 5) for free links")
    else:
        batches = (np.arange(s, min(s + SCAN_CHUNK, space), dtype=np.int64) for s in range(0, space, SCAN_CHUNK))
    fh, costs = np.stack([cfg.fh for cfg in cfgs]), np.stack([cfg.row_costs for cfg in cfgs])
    buf, fill, found, dtype = np.empty(SCAN_CHUNK, dtype=np.int64), 0, [], np.min_scalar_type((1 << n) - 1)
    shift, counts = n * (n - 1) + 1, np.zeros(g, dtype=np.int64)

    def judge(idx):  # rows in the masks' narrow dtype keep ne_status's copies small; found: game, index, strict
        ne, sure = ne_status(rows_from_indices(idx, n, dtype), fh, costs)
        game, at = np.nonzero(ne)
        found.append(game << shift | idx[at] << 1 | sure[game, at])
        counts[:] += ne.sum(axis=1)
    for batch in batches:
        while len(batch):
            take = min(len(batch), SCAN_CHUNK - fill)
            buf[fill:fill + take], batch, fill = batch[:take], batch[take:], (fill + take) % SCAN_CHUNK
            if not fill:  # the buffer is full
                judge(buf)
    judge(buf[:fill])
    found = np.concatenate(found)
    found.sort(kind="stable")
    idx = found >> 1
    idx &= space - 1  # the game's bits gone
    return idx, (found & 1).astype(bool), counts


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
    idx, strict, counts = _ne_scan(cfgs)
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

    Scans only the sponsored forests of a game whose every link costs more
    than ``TOL``, and every profile of any other while the 2**(n(n-1)) of them
    fit ``CHECK_BUDGET`` (n <= 5); more than 6 agents are refused before any
    work. Results are ordered by the profile index either way. Games of one
    size and one kind of candidates are scanned together, ``SCAN_CHUNK``
    candidates at a time. Each chunk's equilibria share one ``components``
    and one ``welfare`` call with its games' optimal forests, so the optimum
    is never below an equilibrium's welfare and the PoA never below 1.
    """
    cfgs = list(cfgs)
    groups = {}  # by size and by the candidates the scan takes
    for k, cfg in enumerate(cfgs):
        groups.setdefault((cfg.n_agents, _costly(cfg)), []).append(k)
    for n, _ in groups:  # refused before any scan; up to 6 agents the sponsored forests fit the budget
        require_budget(set_partition_count(n, sponsored_tree_count), f"pruned scan at {n} agents",
                       "sponsored forests")
    reports = [None] * len(cfgs)
    forests = {}
    for (n, costly), ks in sorted(groups.items(), reverse=True):  # the largest scans while few reports are kept
        count = set_partition_count(n, sponsored_tree_count) if costly else 1 << n * (n - 1)  # candidates per game
        per = max(1, (SCAN_CHUNK << (n - 1)) // count)  # games per chunk
        for start in range(0, len(ks), per):
            chunk = ks[start:start + per]
            for k, report in zip(chunk, _reports([cfgs[k] for k in chunk], forests)):
                reports[k] = report
    return reports


def enumerate_nash(cfg: GameConfig) -> EquilibriumReport:
    """:func:`enumerate_games` of one game."""
    return enumerate_games([cfg])[0]
