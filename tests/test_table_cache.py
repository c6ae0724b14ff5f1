"""The game-independent tables that the full scan and the partition judgement keep
per agent count: they never leak one game into the next, cannot be written, and
stay small.

The full scan (``equilibrium._others_merged``, one table per agent and ``SCAN_CHUNK``
others configurations) and ``analytic.component_structures`` (``analytic._partition_batch``,
one batch per agent count) keep their merged component tables at every agent count
they accept; a second game of the same size only scores them.
"""
import hashlib
import math

import numpy as np
import pytest

from infogame import analytic, equilibrium
from infogame.analytic import component_structures
from infogame.entropy import family_independent
from infogame.equilibrium import enumerate_nash
from infogame.formation_game import BenefitFunction, CostModel, GameConfig
from infogame.verification import run_verification
from scalar_kernel import random_homogeneous_config, random_recipient_config

LN = BenefitFunction.log1p(math.e)
CACHES = (equilibrium._others_merged, analytic._partition_batch)
# bench cross-check's verify-n4 report: 4 agents, 60 instances, seed 0
VERIFY_N4_SHA256 = "942d8566669cd354f858223d9519890c0fa13cc457119179dfc81360d2eea62a"


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def arrays(value):
    """Every numpy array inside a cached value of nested tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays(item)


def cached_arrays(sizes=range(1, 5)):
    """Every array of the tables of each agent count in ``sizes``, built on first use."""
    for n in sizes:
        for i in range(n):
            for start in range(0, 1 << (n - 1) ** 2, equilibrium.SCAN_CHUNK):
                yield from arrays(equilibrium._others_merged(n, i, start))
        yield from arrays(analytic._partition_batch(n))


def report_state(report):
    return (report.rows.tolist(), report.strict.tolist(), report.welfare.tolist(),
            report.components.tolist(), report.social_optimum_value, report.poa, report.mil)


def games(n):
    rng = np.random.default_rng(100 + n)
    return [random_homogeneous_config(rng, n, LN), random_recipient_config(rng, n, LN),
            random_homogeneous_config(rng, n, LN)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_game_after_another_matches_a_fresh_state(n):
    first, *rest = games(n)
    for cfg in rest:
        clear_caches()
        fresh = report_state(enumerate_nash(cfg)), component_structures(cfg)
        clear_caches()
        enumerate_nash(first), component_structures(first)
        assert (report_state(enumerate_nash(cfg)), component_structures(cfg)) == fresh


def test_every_cached_array_is_read_only():
    found = list(cached_arrays())
    assert found and not any(a.flags.writeable for a in found)
    merged, part = equilibrium._others_merged(3, 0, 0)
    for a in (merged, part):
        with pytest.raises(ValueError):
            a[0] = 0


def test_verify_bytes_are_repeatable_and_the_tables_stay_small():
    clear_caches()
    texts = [run_verification(4, 60, 0).to_text() for _ in range(2)]
    assert texts[0] == texts[1]
    assert hashlib.sha256(texts[0].encode()).hexdigest() == VERIFY_N4_SHA256
    # one table per agent of 2, 3 and 4 agents, one batch per agent count
    assert [cache.cache_info().currsize for cache in CACHES] == [2 + 3 + 4, 3]
    assert sum(a.nbytes for a in cached_arrays()) < 64 * 1024


def test_five_agent_tables_are_kept_read_only_and_small():
    clear_caches()
    cfg = GameConfig(family_independent([1.0] * 5), LN, CostModel.homogeneous(0.1))
    for _ in range(2):  # the second game only scores the kept tables
        assert len(enumerate_nash(cfg).rows) == 5 ** 3 * 2 ** 4  # every sponsored spanning tree
        assert frozenset({frozenset(range(5))}) in component_structures(cfg)
        # one table per agent and SCAN_CHUNK of the 2**16 others configurations, one batch
        assert [cache.cache_info().currsize for cache in CACHES] == [5 * 16, 1]
    kept = list(cached_arrays([5]))
    assert [cache.cache_info().currsize for cache in CACHES] == [5 * 16, 1]  # nothing new was built
    assert not any(a.flags.writeable for a in kept)
    # one-byte partition indices: 0.41 MiB in all, of which 0.32 MiB are the full scan's tables
    assert sum(a.nbytes for a in kept) < 1 << 20


def test_six_agent_partition_batch_is_kept_read_only_and_small():
    kept = list(arrays(analytic._partition_batch(6)))
    assert not any(a.flags.writeable for a in kept)
    # 1.93 MiB: int32 row positions, one-byte partitions and compact rows beside the uint8 merged tables
    assert sum(a.nbytes for a in kept) <= 5 << 19
