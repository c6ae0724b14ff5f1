"""The link formation game: strategies, induced topology, utilities, welfare.

Agents hold random variables described by an :class:`~infogame.entropy.EntropicVector`
and unilaterally sponsor directed links. The undirected topology contains edge
{i, j} when either direction was sponsored, information flows freely inside
each connected component, and the sponsor alone pays the link cost. Agent i's
payoff is ``f(H(component of i)) - sum of costs of links i sponsors``.

A single profile is a batch of one for the kernel: components come from
:func:`infogame.kernel.components`, the package's one component walk, and
social welfare from :func:`infogame.kernel.welfare`.

Everything here is immutable and side-effect free; profiles can be evaluated
concurrently from any number of workers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernel
from .entropy import EntropicVector, MAX_AGENTS, subset_agents, subset_mask

_SHAPE_GRID_MAX = 64.0
_SHAPE_GRID_POINTS = 129


@dataclass(frozen=True)
class BenefitFunction:
    """Concave benefit of gathered information, with f(0) = 0.

    Variants: ``log1p`` (log(1+x) in a configurable base, default 2),
    ``power`` (x**alpha with alpha in (0, 1)) and ``linear``. Use the
    factory classmethods; they run a numeric sanity check (f(0) = 0,
    nondecreasing differences, concavity) on a grid at construction.
    """

    name: str
    params: tuple[float, ...] = ()

    @classmethod
    def log1p(cls, base: float = 2.0) -> "BenefitFunction":
        if not (math.isfinite(base) and base > 1.0):
            raise ValueError(f"log base must be > 1, got {base}")
        return cls("log1p", (float(base),))._checked()

    @classmethod
    def power(cls, alpha: float) -> "BenefitFunction":
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"power exponent must lie in (0, 1), got {alpha}")
        return cls("power", (float(alpha),))._checked()

    @classmethod
    def linear(cls) -> "BenefitFunction":
        return cls("linear", ())._checked()

    def __call__(self, x: float) -> float:
        if x < 0:
            raise ValueError(f"benefit function defined on x >= 0, got {x}")
        if self.name == "log1p":
            (base,) = self.params
            v = math.log1p(x)
            return v if base == math.e else v / math.log(base)
        if self.name == "power":
            (alpha,) = self.params
            return x ** alpha
        if self.name == "linear":
            return x
        raise ValueError(f"unknown benefit function {self.name!r}")

    def deriv(self, x: float) -> float:
        """First derivative; returns +inf where the slope blows up at 0."""
        if x < 0:
            raise ValueError(f"benefit function defined on x >= 0, got {x}")
        if self.name == "log1p":
            (base,) = self.params
            d = 1.0 / (1.0 + x)
            return d if base == math.e else d / math.log(base)
        if self.name == "power":
            (alpha,) = self.params
            if x == 0.0:
                return math.inf
            return alpha * x ** (alpha - 1.0)
        if self.name == "linear":
            return 1.0
        raise ValueError(f"unknown benefit function {self.name!r}")

    def describe(self) -> str:
        if self.name == "log1p":
            (base,) = self.params
            return "log1p[base=e]" if base == math.e else f"log1p[base={base:g}]"
        if self.name == "power":
            return f"power[alpha={self.params[0]:g}]"
        return self.name

    def _checked(self) -> "BenefitFunction":
        step = _SHAPE_GRID_MAX / (_SHAPE_GRID_POINTS - 1)
        vals = [self(i * step) for i in range(_SHAPE_GRID_POINTS)]
        if abs(vals[0]) > 1e-12:
            raise ValueError("benefit function must satisfy f(0) = 0")
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if any(d <= 1e-12 for d in diffs):
            raise ValueError("benefit function must be increasing")
        if any(d2 > d1 + 1e-9 for d1, d2 in zip(diffs, diffs[1:])):
            raise ValueError("benefit function must be concave")
        return self


def _valid_cost(c: float) -> bool:
    return math.isfinite(c) and c >= 0


@dataclass(frozen=True)
class CostModel:
    """Link formation costs paid by the sponsor.

    ``homogeneous``: one scalar c for every link. ``recipient``: cost depends
    on the link target only (linking to j costs values[j]). ``matrix``: fully
    general per-pair costs. All costs must be finite and nonnegative.
    """

    kind: str
    values: tuple

    @classmethod
    def homogeneous(cls, c: float) -> "CostModel":
        c = float(c)
        if not _valid_cost(c):
            raise ValueError("link cost must be finite and nonnegative")
        return cls("homogeneous", (c,))

    @classmethod
    def recipient(cls, costs) -> "CostModel":
        vals = tuple(float(c) for c in costs)
        if not all(_valid_cost(c) for c in vals):
            raise ValueError("link costs must be finite and nonnegative")
        return cls("recipient", vals)

    @classmethod
    def matrix(cls, rows) -> "CostModel":
        vals = tuple(tuple(float(c) for c in row) for row in rows)
        n = len(vals)
        if any(len(row) != n for row in vals):
            raise ValueError("cost matrix must be square")
        if not all(_valid_cost(c) for row in vals for c in row):
            raise ValueError("link costs must be finite and nonnegative")
        return cls("matrix", vals)

    def link_cost(self, i: int, j: int) -> float:
        """Cost agent i pays to sponsor a link to agent j."""
        if i == j:
            raise ValueError("self links are not defined")
        if self.kind == "homogeneous":
            return self.values[0]
        if self.kind == "recipient":
            return self.values[j]
        return self.values[i][j]

    @property
    def n_agents(self) -> int | None:
        """Agent count implied by the data, or None for homogeneous costs."""
        if self.kind == "homogeneous":
            return None
        return len(self.values)

    def min_cost(self, n_agents: int) -> float:
        return min(self.link_cost(i, j) for i in range(n_agents) for j in range(n_agents) if i != j)

    def describe(self) -> str:
        if self.kind == "homogeneous":
            return f"homogeneous[c={self.values[0]:g}]"
        if self.kind == "recipient":
            return "recipient[" + ",".join(f"{c:g}" for c in self.values) + "]"
        return "matrix"


@dataclass(frozen=True)
class LinkProfile:
    """One strategy profile: row i is the bitmask of agents that i links to.

    The diagonal is forbidden (no self links). Profiles are hashable;
    enumerations order them by their profile index (see :mod:`infogame.kernel`),
    the rank of the row-major link matrix without its diagonal.
    """

    n_agents: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n = self.n_agents
        if not 1 <= n <= MAX_AGENTS:
            raise ValueError(f"n_agents must be in 1..{MAX_AGENTS}")
        if len(self.rows) != n:
            raise ValueError(f"expected {n} rows, got {len(self.rows)}")
        top = 1 << n
        for i, row in enumerate(self.rows):
            if not 0 <= row < top:
                raise ValueError(f"row {i} out of range")
            if row & (1 << i):
                raise ValueError(f"agent {i} links to itself")

    @classmethod
    def empty(cls, n_agents: int) -> "LinkProfile":
        return cls(n_agents, (0,) * n_agents)

    @classmethod
    def from_matrix(cls, matrix) -> "LinkProfile":
        rows = []
        n = len(matrix)
        for row in matrix:
            cells = list(row)
            if len(cells) != n:
                raise ValueError("link matrix must be square")
            rows.append(subset_mask(j for j, v in enumerate(cells) if v))
        return cls(n, tuple(rows))

    @classmethod
    def from_links(cls, n_agents: int, links) -> "LinkProfile":
        """Build from directed (sponsor, target) pairs."""
        rows = [0] * n_agents
        for i, j in links:
            rows[i] |= 1 << j
        return cls(n_agents, tuple(rows))

    @classmethod
    def from_text(cls, text: str) -> "LinkProfile":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        n = len(lines)
        if any(len(ln) != n for ln in lines):
            raise ValueError("profile text must be n lines of n characters")
        if any(ch not in "01" for ln in lines for ch in ln):
            raise ValueError("profile characters must be 0 or 1")
        return cls.from_matrix([[ch == "1" for ch in ln] for ln in lines])

    def to_text(self) -> str:
        return "\n".join(self.bitstring()[i * self.n_agents:(i + 1) * self.n_agents]
                         for i in range(self.n_agents)) + "\n"

    def bitstring(self) -> str:
        """Row-major flattening, diagonal included as '0'."""
        n = self.n_agents
        return "".join("1" if self.rows[i] >> j & 1 else "0" for i in range(n) for j in range(n))


@dataclass(frozen=True)
class GameConfig:
    """A fully specified formation game: information, benefit, and costs.

    Its payoff tables :attr:`fh` and :attr:`row_costs` are built on first use.
    """

    ev: EntropicVector
    benefit: BenefitFunction
    costs: CostModel

    def __post_init__(self):
        cn = self.costs.n_agents
        if cn is not None and cn != self.ev.n_agents:
            raise ValueError(f"cost model covers {cn} agents, entropic vector {self.ev.n_agents}")

    @property
    def n_agents(self) -> int:
        return self.ev.n_agents

    def link_cost(self, i: int, j: int) -> float:
        return self.costs.link_cost(i, j)

    @cached_property
    def fh(self) -> np.ndarray:
        """Benefit of the joint entropy of every subset mask, as a read-only
        float64 array of length 2**n; index 0 is f(0) = 0."""
        table = np.array([0.0] + [self.benefit(h) for h in self.ev.entries])
        table.flags.writeable = False
        return table

    @cached_property
    def row_costs(self) -> np.ndarray:
        """Link cost of every compact row (see :mod:`infogame.kernel`), per agent, as
        a read-only float64 array of shape (n, 2**(n-1)); ``[i, c]`` is agent i's."""
        n = self.n_agents
        table = np.zeros((n, 1 << (n - 1)))
        for i in range(n):
            targets = [j for j in range(n) if j != i]
            for compact in range(1, 1 << (n - 1)):
                j = targets[(compact & -compact).bit_length() - 1]
                table[i, compact] = table[i, compact & (compact - 1)] + self.link_cost(i, j)
        table.flags.writeable = False
        return table


# -- topology ---------------------------------------------------------------

def _component_masks(profile: LinkProfile) -> list[int]:
    """Every agent's component mask, from :func:`infogame.kernel.components` of a batch of one."""
    return kernel.components(np.array([profile.rows], dtype=np.int64))[:, 0].tolist()


def topology(profile: LinkProfile) -> tuple[tuple[int, int], ...]:
    """Undirected edge set: {i, j} present when either direction is sponsored."""
    n = profile.n_agents
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if profile.rows[i] >> j & 1 or profile.rows[j] >> i & 1:
                edges.append((i, j))
    return tuple(edges)


def components(profile: LinkProfile) -> tuple[frozenset[int], ...]:
    """Partition of the agents into connected components, ordered by least member."""
    comp = _component_masks(profile)
    seen = set()
    out = []
    for i in range(profile.n_agents):
        if comp[i] not in seen:
            seen.add(comp[i])
            out.append(frozenset(subset_agents(comp[i])))
    return tuple(out)


def is_minimally_connected(profile: LinkProfile, component) -> bool:
    """True when the given component is a tree (edge count = size - 1).

    ``component`` must be one of the profile's components.
    """
    comp_mask = subset_mask(component)
    masks = _component_masks(profile)
    agents = subset_agents(comp_mask)
    if not agents or any(masks[a] != comp_mask for a in agents):
        raise ValueError("argument is not a component of the profile")
    edges = sum(1 for (i, j) in topology(profile) if comp_mask >> i & 1 and comp_mask >> j & 1)
    return edges == len(agents) - 1


# -- payoffs ----------------------------------------------------------------

def utility(cfg: GameConfig, profile: LinkProfile, i: int) -> float:
    """Benefit of the information in i's component minus i's sponsored link costs."""
    if profile.n_agents != cfg.n_agents:
        raise ValueError("profile size does not match the game")
    comp = _component_masks(profile)[i]
    benefit = cfg.benefit(cfg.ev.h(comp))
    return benefit - sum(cfg.link_cost(i, j) for j in subset_agents(profile.rows[i]))


def social_welfare(cfg: GameConfig, profile: LinkProfile) -> float:
    """Sum of all agents' utilities: :func:`infogame.kernel.welfare` of a batch of one."""
    if profile.n_agents != cfg.n_agents:
        raise ValueError("profile size does not match the game")
    rows = np.array([profile.rows], dtype=np.int64)
    return float(kernel.welfare(rows, kernel.components(rows), cfg.fh, cfg.row_costs)[0])
