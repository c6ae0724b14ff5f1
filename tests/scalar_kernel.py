"""The scalar best-response walk: the oracle for the array kernel.

These are the per-profile, Python-int forms of :mod:`infogame.kernel`'s
batch functions. ``merged_components`` is one row of ``merged_table``,
``row_utilities`` one row of the utilities behind ``best_response_table``,
``ne_status`` one profile of the batch ``ne_status``, ``welfare`` one entry
of the batch ``welfare`` (summed in the same order, so the two agree bit for
bit), ``profile_from_index`` one row of ``rows_from_indices`` and
``profile_index`` one entry of ``profile_indices``, ``spanning_trees`` the
trees of the kernel's array decoder, ``orientations`` of each of them the
rows of ``sponsored_trees``, and ``production_utility`` one utility behind
``production.production_ne_mask``. ``component_masks`` of
``undirected_adjacency`` is one column of ``components``, and
``strict_ne_structure`` and ``production_shape`` are one profile of
``analytic.strict_structure_mask`` and ``production.shape_mask``. The tests
compare the two forms; nothing in the package uses these. The payoff tables they take, ``fh`` and
``costs`` / ``row_cost``, are the game's own ``GameConfig.fh`` and
``GameConfig.row_costs``.
"""
import heapq
import itertools

from infogame import formation_game
from infogame.analytic import check_component_structure_ne
from infogame.entropy import TOL, subset_agents
from infogame.formation_game import LinkProfile
from infogame.kernel import compress_row
from infogame.production import PRODUCER_EPS, Aggregation, ProductionGameConfig, ProductionProfile, aggregate


def undirected_adjacency(profile: LinkProfile, skip_row: int | None = None) -> list[int]:
    """Neighbor bitmask per agent; ``skip_row`` drops one agent's sponsored links."""
    n = profile.n_agents
    adj = [0] * n
    for i in range(n):
        row = profile.rows[i] if i != skip_row else 0
        adj[i] |= row
        t = row
        while t:
            low = t & -t
            adj[low.bit_length() - 1] |= 1 << i
            t ^= low
    return adj


def component_masks(adj: list[int]) -> list[int]:
    """Connected-component bitmask per agent, from a neighbor-mask adjacency."""
    n = len(adj)
    comp = [0] * n
    seen = 0
    for s in range(n):
        if seen >> s & 1:
            continue
        cm = 1 << s
        frontier = cm
        while frontier:
            nxt = 0
            t = frontier
            while t:
                low = t & -t
                nxt |= adj[low.bit_length() - 1]
                t ^= low
            frontier = nxt & ~cm
            cm |= frontier
        t = cm
        while t:
            low = t & -t
            comp[low.bit_length() - 1] = cm
            t ^= low
        seen |= cm
    return comp


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
    """Profile index of a tuple of rows; the inverse of :func:`rows_from_indices`."""
    n = len(rows)
    idx = 0
    for i, row in enumerate(rows):
        for j in range(n):
            if j != i:
                idx = idx << 1 | (row >> j & 1)
    return idx


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
    comp = component_masks(adj)
    targets = [j for j in range(n) if j != i]
    merged = [0] * (1 << (n - 1))
    merged[0] = comp[i]
    for compact in range(1, len(merged)):
        j = targets[(compact & -compact).bit_length() - 1]
        merged[compact] = merged[compact & (compact - 1)] | comp[j]
    return merged


def row_utilities(n: int, rows, i: int, fh: list[float], row_cost: list[float]) -> list[float]:
    """Utility of every compact row for agent i, holding the others fixed.

    ``row_cost`` is agent i's row of ``GameConfig.row_costs``.
    """
    return [fh[m] - c for m, c in zip(merged_components(n, rows, i), row_cost)]


def ne_status(n: int, rows, agents, fh: list[float], costs: list[list[float]],
              tol: float = TOL) -> tuple[bool, bool]:
    """(is_ne, is_strict) of a profile, judged over the given agents only.

    ``costs`` holds the per-agent tables of ``GameConfig.row_costs``. An agent
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


def production_utility(cfg: ProductionGameConfig, s: ProductionProfile, i: int) -> float:
    """f(aggregate over i's component) - k * own production - c * sponsored links."""
    if s.n_agents != cfg.n_agents:
        raise ValueError("profile size does not match the game")
    comp = component_masks(undirected_adjacency(s.links))[i]
    info = aggregate(cfg.agg, s.productions, comp)
    return cfg.benefit(info) - cfg.k * s.productions[i] - cfg.c * s.links.rows[i].bit_count()


def strict_ne_structure(cfg: formation_game.GameConfig, profile: LinkProfile) -> bool:
    """Is ``profile`` shaped like a strict equilibrium? One profile of
    ``analytic.strict_structure_mask``."""
    if cfg.costs.kind != "homogeneous":
        raise ValueError("strict-structure checker supports homogeneous costs only")
    n = cfg.n_agents
    if profile.n_agents != n:
        raise ValueError("profile size does not match the game")
    c = cfg.costs.values[0]
    f = cfg.benefit
    h = cfg.ev.h
    comp_of = component_masks(undirected_adjacency(profile))
    masks = sorted({comp_of[i] for i in range(n)})
    for mask in masks:
        members = subset_agents(mask)
        if len(members) < 2:
            continue
        sponsors = [i for i in members if profile.rows[i] & mask]
        if len(sponsors) != 1:
            return False
        core = sponsors[0]
        periphery = mask ^ (1 << core)
        if profile.rows[core] & mask != periphery:
            return False
        fc = f(h(mask))
        zeta = {j for j in members if fc - f(h(mask ^ (1 << j))) > c + TOL}
        if len(zeta) < len(members) - 1:
            return False
        for j in subset_agents(periphery):
            if j not in zeta:
                return False
    return check_component_structure_ne(cfg, [subset_agents(m) for m in masks])


def production_shape(cfg: ProductionGameConfig, s: ProductionProfile) -> bool:
    """Does ``s`` have an equilibrium shape of the production characterizations?
    One profile of ``production.shape_mask``."""
    if s.n_agents != cfg.n_agents:
        raise ValueError("profile size does not match the game")
    n = cfg.n_agents
    hb = cfg.h_bar()
    prods = s.productions
    if cfg.high_cost():
        if any(s.links.rows):
            return False
        return all(abs(p - hb) <= TOL for p in prods)
    if n == 1:
        return abs(prods[0] - hb) <= TOL
    rows = s.links.rows
    # n - 1 links that connect everyone: a spanning tree, each edge sponsored once
    if (sum(r.bit_count() for r in rows) != n - 1
            or component_masks(undirected_adjacency(s.links))[0] != (1 << n) - 1):
        return False
    if cfg.agg is Aggregation.SUM:
        if abs(sum(prods) - hb) > TOL:
            return False
        for i in range(n):
            # without i's links each target j keeps the subtree that the link i -> j reaches
            cut = component_masks(undirected_adjacency(s.links, skip_row=i))
            for j in subset_agents(rows[i]):
                if cfg.c > cfg.k * aggregate(cfg.agg, prods, cut[j]) + TOL:
                    return False
        return True
    producers = [i for i in range(n) if prods[i] > PRODUCER_EPS]
    if len(producers) != 1:
        return False
    if abs(prods[producers[0]] - hb) > TOL:
        return False
    for i in range(n):
        if i == producers[0]:
            continue
        if rows[i].bit_count() != 1:
            return False
    return True
