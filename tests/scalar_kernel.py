"""The scalar best-response walk: the oracle for the array kernel.

These are the per-profile, Python-int forms of :mod:`infogame.kernel`'s
batch functions. ``merged_components`` is one row of ``merged_table``,
``row_utilities`` one row of the utilities behind ``best_response_table``,
``ne_status`` one profile of the batch ``ne_status`` (``exact_game`` runs it over every
profile of a linear-benefit game in exact arithmetic), ``welfare`` one entry
of the batch ``welfare`` (summed in the same order, so the two agree bit for
bit), ``profile_from_index`` one row of ``rows_from_indices`` and
``profile_index`` one entry of ``profile_indices``, ``spanning_trees`` the
trees of the kernel's array decoder, ``orientations`` of each of them, its
edges' ends in ascending order, the rows of ``sponsored_trees``, ``aggregate`` one entry of
``production._aggregate_masks`` and ``production_utility`` one utility behind
``production.production_ne_mask``. ``component_masks`` of
``undirected_adjacency`` is one column of ``components``, and
``strict_ne_structure`` and ``production_shape`` are one profile of
``analytic.strict_structure_mask`` and ``production.shape_mask``. A link
profile here is a tuple of link rows (row i the bitmask of agents that i
links to, bit i clear). ``links`` builds one from directed (sponsor,
target) pairs, and ``bitstring`` flattens one into the row-major link
matrix, whose order as a binary number is the profile index order. A
production profile adds a tuple of production levels.
``report_csv`` and ``csv_text`` are the per-profile and per-cell CSV
formatters that ``infogame.csvtable`` replaced, ``csv_of`` an equilibrium
report's CSV as one string, and ``cond_entropy``,
``mutual_info``, ``kl_total``, ``social_welfare``, ``topology`` and
``is_minimally_connected`` the information measures, the single-profile
welfare and the edge count that the tests check vectors, the kernel and
equilibria with, and ``NO_PURE_NE`` a game without a pure equilibrium. The
tests compare the two forms; nothing in the package uses these. The payoff
tables they take, ``fh`` and ``costs`` / ``row_cost``, are the game's own
``GameConfig.fh`` and ``GameConfig.row_costs``.
"""
import heapq
import io
import itertools
import math
from fractions import Fraction

from infogame import formation_game, kernel
from infogame.entropy import TOL, EntropicVector, full_mask, subset_agents, subset_mask
from infogame.kernel import compress_row
from infogame.production import PRODUCER_EPS, Aggregation, ProductionGameConfig
from infogame.verification import random_configs


def links(n: int, pairs) -> tuple[int, ...]:
    """The rows of n agents that sponsor the directed (sponsor, target) ``pairs``."""
    rows = [0] * n
    for i, j in pairs:
        rows[i] |= 1 << j
    return tuple(rows)


def bitstring(rows) -> str:
    """Row-major flattening of the link matrix, diagonal included as '0'."""
    n = len(rows)
    return "".join("1" if rows[i] >> j & 1 else "0" for i in range(n) for j in range(n))


def undirected_adjacency(rows, skip_row: int | None = None) -> list[int]:
    """Neighbor bitmask per agent; ``skip_row`` drops one agent's sponsored links."""
    n = len(rows)
    adj = [0] * n
    for i in range(n):
        row = rows[i] if i != skip_row else 0
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

    Each edge is (leaf, the member it joins), so every edge points toward the
    last member; a single member yields the empty tree.
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
            edges.append((members[leaf], members[v]))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        u = heapq.heappop(heap)
        v = heapq.heappop(heap)
        edges.append((members[u], members[v]))
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


def ne_status(n: int, rows, agents, fh: list[float], costs: list[list[float]], tol=TOL) -> tuple[bool, bool]:
    """(is_ne, is_strict) of a profile, judged over the given agents only.

    ``costs`` holds the per-agent tables of ``GameConfig.row_costs``. An agent
    fails when some row beats its current one by more than ``tol``; it is
    strict when every other row is worse by more than ``tol``. The test
    stops at the first failing agent and then returns (False, False). With
    ``Fraction`` tables and ``tol=0`` the walk is exact: ``Fraction - float``
    would be a float, so the tolerance is a parameter.
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


def exact_game(ev: EntropicVector, costs) -> list[tuple]:
    """Every profile of the linear-benefit game on ``ev`` whose links to agent j cost ``costs[j]``,
    as (rows, is_ne, is_strict, component masks, welfare) in index order, in exact arithmetic:
    ``Fraction`` tables and the walk of :func:`ne_status` at tolerance 0. Each entropy and cost is
    taken as the exact value of its float, so the game is the one a ``GameConfig`` of them holds."""
    n = ev.n_agents
    fh = [Fraction(0)] + [Fraction(h) for h in ev.entries]
    table = []
    for i in range(n):
        targets = [Fraction(costs[j]) for j in range(n) if j != i]
        table.append([sum((c for b, c in enumerate(targets) if compact >> b & 1), Fraction(0))
                      for compact in range(1 << (n - 1))])
    game = []
    for k in range(1 << (n * (n - 1))):
        rows = profile_from_index(k, n)
        comp = component_masks(undirected_adjacency(rows))
        paid = sum(table[i][compress_row(rows[i], i)] for i in range(n))
        game.append((rows, *ne_status(n, rows, range(n), fh, table, tol=0), comp, sum(fh[m] for m in comp) - paid))
    return game


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
            w -= cfg.costs.link_cost(i, low.bit_length() - 1)
            t ^= low
    return w


def aggregate(agg: Aggregation, productions, mask: int) -> float:
    """Joint information of the agents in ``mask`` given their production levels: from 0.0,
    their sum (SUM) or maximum (MAX), taken in ascending agent order."""
    total = 0.0
    for j, p in enumerate(productions):
        if mask >> j & 1:
            total = total + p if agg is Aggregation.SUM else max(total, p)
    return total


def production_utility(cfg: ProductionGameConfig, rows, prods, i: int) -> float:
    """f(aggregate over i's component) - k * own production - c * sponsored links."""
    if not len(rows) == len(prods) == cfg.n_agents:
        raise ValueError("profile size does not match the game")
    comp = component_masks(undirected_adjacency(rows))[i]
    info = aggregate(cfg.agg, prods, comp)
    return cfg.benefit(info) - cfg.k * prods[i] - cfg.c * rows[i].bit_count()


def strict_ne_structure(cfg: formation_game.GameConfig, rows) -> bool:
    """Are the link ``rows`` a star-shaped strict equilibrium? One profile of
    ``analytic.strict_structure_mask``: the star test, then :func:`ne_status`."""
    if cfg.costs.kind != "homogeneous":
        raise ValueError("strict-structure checker supports homogeneous costs only")
    n = cfg.n_agents
    if len(rows) != n:
        raise ValueError("profile size does not match the game")
    fh, row_costs = cfg.fh.tolist(), cfg.row_costs.tolist()
    for mask in set(component_masks(undirected_adjacency(rows))):
        members = subset_agents(mask)
        if len(members) < 2:
            continue
        sponsors = [i for i in members if rows[i] & mask]
        if len(sponsors) != 1:
            return False
        core = sponsors[0]
        if rows[core] & mask != mask ^ (1 << core):
            return False
    return ne_status(n, rows, range(n), fh, row_costs)[1]


def production_shape(cfg: ProductionGameConfig, rows, prods) -> bool:
    """Do the link ``rows`` and productions ``prods`` have an equilibrium shape of the
    production characterizations? One profile of ``production.shape_mask``.

    Every component holds h_bar: no member gains more than TOL by moving the members' sum
    (SUM) or the one producer's level (MAX) to h_bar, or as near as its own production lets.
    There is one component when c < k h_bar - TOL, every agent is alone when
    c > k h_bar + TOL, and in between any number is. No agent gains more than TOL by
    dropping links: each saves c, and the parts of the network without the agent's links
    that only dropped links reach are lost, to be re-produced (SUM: their production;
    MAX: h_bar, when they hold the producer and the agent is not it).
    """
    if not len(rows) == len(prods) == cfg.n_agents:
        raise ValueError("profile size does not match the game")
    n, hb, c, k = cfg.n_agents, cfg.h_bar, cfg.c, cfg.k
    comps = set(component_masks(undirected_adjacency(rows)))
    if (c < k * hb - TOL and len(comps) != 1) or (c > k * hb + TOL and len(comps) != n):
        return False
    producers = [i for i in range(n) if prods[i] > PRODUCER_EPS]

    def payoff(x):  # of holding x, net of producing it
        return cfg.benefit(x) - k * x

    for comp in comps:
        if cfg.agg is Aggregation.SUM:
            # a member's best production moves the total to h_bar, or as near as dropping its own share gets
            total = aggregate(cfg.agg, prods, comp)
            if payoff(max(hb, total - aggregate(Aggregation.MAX, prods, comp))) - payoff(total) > TOL:
                return False
        else:
            inside = [i for i in producers if comp >> i & 1]
            if len(inside) != 1 or payoff(hb) - payoff(prods[inside[0]]) > TOL:
                return False
    for i in range(n):
        part = component_masks(undirected_adjacency(rows, skip_row=i))
        reached = {part[j] for j in subset_agents(rows[i]) if not part[j] >> i & 1}
        gain = cfg.c * rows[i].bit_count()
        for p in sorted(reached):
            if cfg.agg is Aggregation.SUM:
                lost = k * aggregate(cfg.agg, prods, p)
            else:
                lost = k * hb if i not in producers and any(p >> j & 1 for j in producers) else 0.0
            gain -= min(c, lost)
        if gain > TOL:
            return False
    return True


def csv_text(columns, rows) -> str:
    """A CSV of one line per row: each float by ``repr``, anything else by ``str``."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def csv_of(report) -> str:
    """What ``EquilibriumReport.write_csv`` writes, as one string."""
    out = io.StringIO()
    report.write_csv(out)
    return out.getvalue()


def report_csv(report) -> str:
    """``EquilibriumReport.write_csv`` one equilibrium at a time, from the report's
    rows and its arrays read one entry at a time."""
    n = len(report.social_optimum_rows)
    header = ["profile", "welfare"] + [f"info_{i}" for i in range(n)] + ["strict"]
    lines = [",".join(header)]
    for t, p in enumerate(report.rows.tolist()):
        cells = [bitstring(p), repr(float(report.welfare[t]))]
        cells += [repr(report.info_values[int(c)]) for c in report.components[:, t]]
        cells.append("1" if report.strict[t] else "0")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _check_disjoint(ev: EntropicVector, a: int, b: int) -> None:
    if a <= 0 or b <= 0:
        raise ValueError("subsets must be nonempty")
    top = full_mask(ev.n_agents)
    if a > top or b > top:
        raise ValueError("subset mask out of range")
    if a & b:
        raise ValueError(f"subsets overlap: {a:b} and {b:b}")


def cond_entropy(ev: EntropicVector, a: int, b: int) -> float:
    """H(a | b) = H(a+b) - H(b) for disjoint nonempty subsets; small negatives clamp to 0."""
    _check_disjoint(ev, a, b)
    value = ev.h(a | b) - ev.h(b)
    if -TOL <= value < 0.0:
        return 0.0
    return value


def mutual_info(ev: EntropicVector, a: int, b: int) -> float:
    """I(a; b) = H(a) + H(b) - H(a+b) for disjoint nonempty subsets; small negatives clamp to 0."""
    _check_disjoint(ev, a, b)
    value = ev.h(a) + ev.h(b) - ev.h(a | b)
    if -TOL <= value < 0.0:
        return 0.0
    return value


def kl_total(ev: EntropicVector) -> float:
    """Total redundancy: sum of singleton entropies minus the joint entropy.

    Zero exactly when the agents' variables are mutually independent.
    """
    return sum(ev.singletons) - ev.joint_entropy


def social_welfare(cfg: formation_game.GameConfig, rows) -> float:
    """Sum of all agents' utilities: ``kernel.welfare`` of a batch of one."""
    batch = kernel.link_rows(cfg.n_agents, [rows])
    return float(kernel.welfare(batch, kernel.components(batch), cfg.fh, cfg.row_costs)[0])


def topology(rows) -> tuple[tuple[int, int], ...]:
    """Undirected edge set: {i, j} present when either direction is sponsored."""
    n = len(rows)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i] >> j & 1 or rows[j] >> i & 1:
                edges.append((i, j))
    return tuple(edges)


def is_minimally_connected(rows, component) -> bool:
    """True when the given component is a tree (edge count = size - 1).

    ``component`` must be one of the profile's components.
    """
    comp_mask = subset_mask(component)
    masks = component_masks(undirected_adjacency(rows))
    agents = subset_agents(comp_mask)
    if not agents or any(masks[a] != comp_mask for a in agents):
        raise ValueError("argument is not a component of the profile")
    edges = sum(1 for (i, j) in topology(rows) if comp_mask >> i & 1 and comp_mask >> j & 1)
    return edges == len(agents) - 1


# a three-agent recipient-cost game in K_M whose 64 profiles hold no pure equilibrium
NO_PURE_NE = formation_game.GameConfig(
    EntropicVector(3, (1.5548227125963834, 0.983362969163396, 2.308195877078754,
                       0.8151197651989379, 2.2998198386772075, 1.7858666456580972,
                       2.989872499621462)),
    formation_game.BenefitFunction.log1p(math.e),
    formation_game.CostModel.recipient([0.5641013053238928, 0.5537202169052128, 0.4688629228076661]))


def random_homogeneous_config(rng, n_agents: int, benefit):
    """One random pmf-derived game with c drawn from [0, 2 c_u]: ``random_configs`` of one size."""
    return random_configs(rng, [n_agents], benefit, True)[0]


def random_recipient_config(rng, n_agents: int, benefit):
    """One random pmf-derived game with recipient costs drawn from [0, 1.5 c_u]."""
    return random_configs(rng, [n_agents], benefit, False)[0]
