"""The link formation game: benefit functions, cost models and the game they define.

Agents hold random variables described by an :class:`~infogame.entropy.EntropicVector`
and unilaterally sponsor directed links. The undirected topology contains edge
{i, j} when either direction was sponsored, information flows freely inside
each connected component, and the sponsor alone pays the link cost. Agent i's
payoff is ``f(H(component of i)) - sum of costs of links i sponsors``.

A batch of link profiles is an int64 array of shape (batch, n): entry [b, i]
is the bitmask of agents that agent i links to in profile b, bit i clear.
:func:`infogame.kernel.link_rows` refuses anything else, and the profile
index that orders profiles is defined in :mod:`infogame.kernel`. The kernel computes
topology and payoffs of such batches: :func:`infogame.kernel.components` is
the package's one component walk and :func:`infogame.kernel.welfare` its one
welfare routine, the social optimum included. They read the payoff tables
that :class:`GameConfig` builds on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import EntropicVector

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
                table[i, compact] = table[i, compact & (compact - 1)] + self.costs.link_cost(i, j)
        table.flags.writeable = False
        return table
