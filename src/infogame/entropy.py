"""Entropic vectors: joint entropies of every nonempty subset of agents.

Subsets of the agent set {0, ..., n-1} are represented as bitmasks (bit i set
means agent i belongs to the subset). An entropic vector of order n stores
2**n - 1 entries indexed by ``mask - 1``; all entropies are in bits.

Construction never enforces the polymatroid inequalities, so that invalid
vectors can be built and then diagnosed with :func:`validate_shannon`. The
validator checks the elemental form of monotonicity and submodularity, which
cuts out exactly the Shannon outer bound. Vectors inside that bound but
outside the true entropic region are accepted; deciding genuine entropicity
is not possible in general for n >= 4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9
MAX_AGENTS = 16


def band(x: float, cut: float) -> int:
    """-1 when x is below ``cut`` by more than TOL, 1 when above it by more than TOL, else 0: a tie."""
    return -1 if x < cut - TOL else 1 if x > cut + TOL else 0


def full_mask(n_agents: int) -> int:
    """Bitmask of the whole agent set."""
    return (1 << n_agents) - 1


def subset_mask(agents) -> int:
    """Bitmask for an iterable of agent indices."""
    mask = 0
    for a in agents:
        mask |= 1 << a
    return mask


def subset_agents(mask: int) -> tuple[int, ...]:
    """Agent indices contained in a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _mask_str(mask: int) -> str:
    return "{" + ",".join(str(a) for a in subset_agents(mask)) + "}"


@dataclass(frozen=True)
class EntropicVector:
    """Joint entropies (bits) for every nonempty subset of n agents.

    ``entries[mask - 1]`` is the joint entropy of the subset ``mask``.
    Instances are immutable; all operations on them are pure functions.
    """

    n_agents: int
    entries: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= self.n_agents <= MAX_AGENTS:
            raise ValueError(f"n_agents must be in 1..{MAX_AGENTS}, got {self.n_agents}")
        want = (1 << self.n_agents) - 1
        if len(self.entries) != want:
            raise ValueError(f"expected {want} entries for n_agents={self.n_agents}, got {len(self.entries)}")
        if any(not math.isfinite(v) for v in self.entries):
            raise ValueError("entropy entries must be finite")

    def h(self, mask: int) -> float:
        """Joint entropy of a nonempty subset given as a bitmask."""
        if mask <= 0 or mask > full_mask(self.n_agents):
            raise ValueError(f"subset mask {mask} out of range for n_agents={self.n_agents}")
        return self.entries[mask - 1]

    @property
    def joint_entropy(self) -> float:
        """Entropy of the full agent set."""
        return self.entries[-1]

    @property
    def singletons(self) -> tuple[float, ...]:
        return tuple(self.entries[(1 << i) - 1] for i in range(self.n_agents))


class JointPmf:
    """Discrete joint distribution over outcome tuples of n agents.

    The probability table has one axis per agent; axis length is that agent's
    alphabet size. Probabilities must be finite, nonnegative and sum to 1
    within 1e-12.
    """

    __slots__ = ("table",)

    def __init__(self, table):
        arr = np.asarray(table, dtype=float)
        if arr.ndim < 1 or arr.ndim > MAX_AGENTS:
            raise ValueError(f"pmf must have 1..{MAX_AGENTS} axes, got {arr.ndim}")
        if any(s < 1 for s in arr.shape):
            raise ValueError("every agent needs a nonempty alphabet")
        if not np.isfinite(arr).all():
            raise ValueError("pmf has non-finite probabilities")
        if float(arr.min(initial=0.0)) < -1e-12:
            raise ValueError("pmf has negative probabilities")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {total!r}, expected 1 within 1e-12")
        arr = np.clip(arr, 0.0, None)
        arr.flags.writeable = False
        self.table = arr

    @property
    def n_agents(self) -> int:
        return self.table.ndim


def from_joint_pmfs(pmfs) -> list[EntropicVector]:
    """Entropic vector realized by each joint pmf: H(S) of every marginal, in bits. One batch per
    table shape: each mask's marginals with one sum over the stacked tables, entropies with one more."""
    pmfs = list(pmfs)
    out = [None] * len(pmfs)
    groups = {}
    for t, pmf in enumerate(pmfs):
        groups.setdefault(pmf.table.shape, []).append(t)
    for shape, group in groups.items():
        n, tables = len(shape), np.stack([pmfs[t].table for t in group])
        h = np.empty((len(group), (1 << n) - 1))
        for mask in range(1, 1 << n):
            m = tables.sum(axis=tuple(1 + i for i in range(n) if not mask >> i & 1)).reshape(len(group), -1)
            h[:, mask - 1] = -np.sum(m * np.log2(m, out=np.zeros_like(m), where=m > 0.0), axis=1)
        for t, entries in zip(group, h.tolist()):
            out[t] = EntropicVector(n, tuple(entries))
    return out


@dataclass(frozen=True)
class ShannonViolation:
    kind: str                 # "monotonicity" | "submodularity" | "nonnegativity"
    subsets: tuple[int, ...]  # witnessing masks
    slack: float              # negative amount by which the inequality fails

    def describe(self) -> str:
        if self.kind == "monotonicity":
            sub, sup = self.subsets
            return f"H({_mask_str(sub)}) <= H({_mask_str(sup)}) violated by {-self.slack:.3g}"
        if self.kind == "nonnegativity":
            (m,) = self.subsets
            return f"H({_mask_str(m)}) >= 0 violated by {-self.slack:.3g}"
        a, b, union, inter = self.subsets
        lhs = f"H({_mask_str(a)}) + H({_mask_str(b)})"
        rhs = f"H({_mask_str(union)})" + (f" + H({_mask_str(inter)})" if inter else "")
        return f"{lhs} >= {rhs} violated by {-self.slack:.3g}"


@dataclass(frozen=True)
class ShannonReport:
    n_agents: int
    violations: tuple[ShannonViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "all Shannon inequalities satisfied"
        return "; ".join(v.describe() for v in self.violations)


def validate_shannon(ev: EntropicVector) -> ShannonReport:
    """Check the elemental monotonicity and submodularity inequalities.

    The elemental inequalities generate the full family of monotonicity
    (A subset of B implies H(A) <= H(B)) and submodularity
    (H(A) + H(B) >= H(A|B) + H(A&B)) constraints, so an empty report is
    equivalent to membership in the Shannon outer bound. Each violation is
    reported with the witnessing subsets. Comparisons use tolerance 1e-9.
    """
    n = ev.n_agents
    h = (0.0,) + ev.entries  # h[mask], with h[0] = 0
    out = []
    if n == 1:
        if h[1] < -TOL:
            out.append(ShannonViolation("nonnegativity", (1,), h[1]))
        return ShannonReport(n, tuple(out))
    full = full_mask(n)
    # H(all) >= H(all minus one agent)
    for i in range(n):
        sub = full ^ (1 << i)
        slack = h[full] - h[sub]
        if slack < -TOL:
            out.append(ShannonViolation("monotonicity", (sub, full), slack))
    # H(K+i) + H(K+j) >= H(K+i+j) + H(K) for i < j and K avoiding both
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = 1 << i, 1 << j
            rest = full ^ bi ^ bj
            k = rest
            while True:  # iterate all submasks of rest, including 0
                a, b = k | bi, k | bj
                slack = h[a] + h[b] - h[a | bj] - h[k]
                if slack < -TOL:
                    out.append(ShannonViolation("submodularity", (a, b, a | bj, k), slack))
                if k == 0:
                    break
                k = (k - 1) & rest
    return ShannonReport(n, tuple(out))


def _check_nonnegative(h) -> tuple[float, ...]:
    vals = tuple(float(v) for v in h)
    # before any of the 2**n - 1 entries is built
    if len(vals) > MAX_AGENTS:
        raise ValueError(f"n_agents must be in 1..{MAX_AGENTS}, got {len(vals)}")
    if any(v < 0 for v in vals):
        raise ValueError("per-agent entropies must be nonnegative")
    return vals


def _family(h, combine) -> EntropicVector:
    """The vector whose H(S) is ``combine`` of the member entropies of S, in ascending agent order."""
    vals = _check_nonnegative(h)
    n = len(vals)
    return EntropicVector(n, tuple(combine(vals[a] for a in subset_agents(mask)) for mask in range(1, 1 << n)))


def family_independent(h) -> EntropicVector:
    """Vector with no redundancy: H(S) is the sum of member entropies."""
    return _family(h, sum)


def family_max_correlated(h) -> EntropicVector:
    """Fully redundant vector: H(S) is the maximum member entropy."""
    return _family(h, max)


def family_pair_redundancy(h1: float, h2: float, h3: float, kl: float) -> EntropicVector:
    """Three-agent family where agent 0 is independent and agents 1, 2 share ``kl`` bits.

    H(0)=h1, H(1)=h2, H(2)=h3, H(01)=h1+h2, H(02)=h1+h3, H(12)=h2+h3-kl,
    H(012)=h1+h2+h3-kl; total redundancy equals kl. Requires
    0 <= kl <= min(h2, h3).
    """
    h1, h2, h3 = _check_nonnegative((h1, h2, h3))
    if not -1e-12 <= kl <= min(h2, h3) + 1e-12:
        raise ValueError(f"kl={kl} outside [0, min(h2, h3)={min(h2, h3)}]")
    kl = min(max(kl, 0.0), min(h2, h3))
    entries = [0.0] * 7
    entries[0b001 - 1] = h1
    entries[0b010 - 1] = h2
    entries[0b100 - 1] = h3
    entries[0b011 - 1] = h1 + h2
    entries[0b101 - 1] = h1 + h3
    entries[0b110 - 1] = h2 + h3 - kl
    entries[0b111 - 1] = h1 + h2 + h3 - kl
    return EntropicVector(3, tuple(entries))


def from_text(text: str) -> EntropicVector:
    """Parse an entropic-vector document: an ``n_agents,<count>`` line, then one
    ``mask,entropy`` line per nonempty subset mask, in any order (see
    :func:`from_records`). Blank lines and ``#`` comments are ignored."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty entropic-vector document")
    head = lines[0].split(",")
    if len(head) != 2 or head[0].strip() != "n_agents":
        raise ValueError("first line must be 'n_agents,<count>'")
    return from_records(int(head[1]), map(_record, lines[1:]))


def _record(line: str) -> tuple[int, float]:
    cells = line.split(",")
    if len(cells) != 2:
        raise ValueError(f"bad record {line!r}, expected 'mask,entropy'")
    return int(cells[0]), float(cells[1])


def from_records(n_agents: int, records) -> EntropicVector:
    """Build a vector from (mask, entropy) records, exactly one per nonempty subset."""
    if not 1 <= n_agents <= MAX_AGENTS:
        raise ValueError(f"n_agents must be in 1..{MAX_AGENTS}")
    entries = [None] * full_mask(n_agents)
    for mask, value in records:
        if not 1 <= mask <= full_mask(n_agents):
            raise ValueError(f"subset mask {mask} out of range")
        if entries[mask - 1] is not None:
            raise ValueError(f"duplicate record for mask {mask}")
        entries[mask - 1] = value
    missing = [i + 1 for i, v in enumerate(entries) if v is None]
    if missing:
        raise ValueError(f"missing records for masks {missing}")
    return EntropicVector(n_agents, tuple(entries))
