"""The cross-validation harness itself."""
import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from infogame import analytic, equilibrium, production, verification
from infogame.analytic import poa_predict
from infogame.entropy import from_joint_pmfs, validate_shannon
from infogame.equilibrium import enumerate_nash
from infogame.formation_game import BenefitFunction
from infogame.kernel import CHECK_BUDGET, CapExceededError, components, profile_indices, rows_from_indices
from infogame.pcg64 import Pcg64
from infogame.production import Aggregation, ProductionGameConfig
from infogame.verification import random_configs, random_joint_pmf, run_verification
from scalar_kernel import NO_PURE_NE, random_homogeneous_config, random_recipient_config

LN = BenefitFunction.log1p(math.e)


class TestGenerators:
    def test_random_pmf_is_normalized(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            pmf = random_joint_pmf(rng, n)
            assert pmf.n_agents == n
            assert float(pmf.table.sum()) == pytest.approx(1.0, abs=1e-12)
            assert all(2 <= s <= 3 for s in pmf.table.shape)

    def test_random_vectors_are_shannon_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert validate_shannon(from_joint_pmfs([random_joint_pmf(rng, 3)])[0]).ok

    @pytest.mark.parametrize("homogeneous", [True, False])
    def test_a_batch_draws_the_games_of_one_at_a_time(self, homogeneous):
        # the draws of one game at a time: a pmf, its vector, then rng.uniform per cost
        def one_game(rng, m):
            ev = from_joint_pmfs([random_joint_pmf(rng, m)])[0]
            hi = (2.0 if homogeneous else 1.5) * max(analytic.thresholds_homogeneous(ev, LN)[1], 1e-6)
            return ev.entries, tuple(float(rng.uniform(0.0, hi)) for _ in range(1 if homogeneous else m))
        sizes = [2, 3, 4] * 8
        states = []
        batch = random_configs(Pcg64(5), sizes, LN, homogeneous, states)
        rng = np.random.default_rng(5)
        for m, cfg, after in zip(sizes, batch, states):
            assert one_game(rng, m) == (cfg.ev.entries, tuple(cfg.costs.values))
            assert state(rng) == after

    def test_random_configs_have_matching_dimensions(self):
        rng = np.random.default_rng(2)
        cfg = random_homogeneous_config(rng, 3, LN)
        assert cfg.n_agents == 3 and cfg.costs.kind == "homogeneous"
        cfg = random_recipient_config(rng, 4, LN)
        assert cfg.costs.kind == "recipient" and len(cfg.costs.values) == 4


# single- and multi-word seeds of numpy's SeedSequence, up to five 32-bit words
STREAM_SEEDS = [*range(40), 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 3, 2**130 + 17, 123456789]
# scalar lengths and shapes of one to four dimensions
SHAPES = [1, 5, (3,), (2, 3), (2, 3, 2), (3, 2, 2, 3)]


def state(rng):
    """A generator's state as :meth:`Pcg64.getstate` gives it, numpy's read from its dict layout."""
    if isinstance(rng, Pcg64):
        return rng.getstate()
    s = rng.bit_generator.state
    return s["state"]["state"], s["state"]["inc"], s["has_uint32"], s["uinteger"]


def mixed_calls(rng, calls=300):
    """A fixed script of ``random(shape)`` and ``integers(lo, lo + width)`` calls (widths 1-6),
    yielding each result with the generator's state after it."""
    for k in range(calls):
        if k % 3 == 0:
            shape = SHAPES[k // 3 % len(SHAPES)]
            out = rng.random(shape)
            yield out.shape, out.dtype, out.tolist(), state(rng)
        else:
            lo = k % 7 - 3
            yield int(rng.integers(lo, lo + 1 + k % 6)), state(rng)


class TestPcg64Stream:
    """The pure-Python stream against numpy's ``default_rng``, call for call."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_draws_and_states_equal_numpys(self, seed):
        stream, rng = Pcg64(seed), np.random.default_rng(seed)
        assert state(stream) == state(rng)
        assert list(mixed_calls(stream)) == list(mixed_calls(rng))

    @pytest.mark.parametrize("seed", [0, 2**40 + 5])
    def test_wide_ranges_reject_the_draws_numpy_rejects(self, seed):
        # near 2**31 about half of the 32-bit words fall below Lemire's threshold and are redrawn
        stream, rng = Pcg64(seed), np.random.default_rng(seed)
        for width in [2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 5] * 50:
            assert stream.integers(-7, width - 7) == rng.integers(-7, width - 7)
            assert state(stream) == state(rng)

    def test_a_width_one_range_draws_nothing(self):
        stream = Pcg64(3)
        before = stream.getstate()
        assert stream.integers(4, 5) == 4
        assert stream.getstate() == before

    @pytest.mark.parametrize("seed", [0, 7, 2**64 + 3])
    def test_a_state_copied_from_numpy_continues_identically(self, seed):
        rng = np.random.default_rng(seed)
        rng.random(3)
        rng.integers(0, 5)  # leaves half a 64-bit word buffered
        assert rng.bit_generator.state["has_uint32"] == 1
        stream = Pcg64(seed + 1)
        stream.setstate(state(rng))
        assert list(mixed_calls(stream, 60)) == list(mixed_calls(rng, 60))

    @pytest.mark.parametrize("homogeneous", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2**32, 2**130 + 17])
    def test_random_configs_equal_numpys(self, seed, homogeneous):
        # the batch against numpy's generator drawing one game at a time
        sizes, states, rng = [2, 3, 4] * 4, [], np.random.default_rng(seed)
        cfgs = random_configs(Pcg64(seed), sizes, LN, homogeneous, states)
        for m, cfg, after in zip(sizes, cfgs, states):
            want = random_configs(rng, [m], LN, homogeneous)[0]
            assert (cfg.ev.entries, cfg.costs.values) == (want.ev.entries, want.costs.values)
            assert state(rng) == after


class TestSuite:
    def test_four_agent_instances_pass(self):
        report = run_verification(n_agents=4, instances=10, seed=0)
        assert report.ok
        assert len(report.checks) == 13
        assert "OK (13/13 passed)" in report.to_text()

    def test_reports_are_reproducible(self):
        a = run_verification(n_agents=3, instances=5, seed=11)
        b = run_verification(n_agents=3, instances=5, seed=11)
        assert a.to_text() == b.to_text()

    def test_check_names_are_stable(self):
        report = run_verification(n_agents=2, instances=3, seed=0)
        names = [c.name for c in report.checks]
        assert names == [
            "existence_and_minimality",
            "connectivity_thresholds",
            "ne_partition_characterization",
            "strict_ne_structure",
            "poa_homogeneous",
            "mil_bounds",
            "heterogeneous_regions",
            "heterogeneous_partition_characterization",
            "poa_heterogeneous",
            "poa_redundancy_monotonicity",
            "production_sum_characterization",
            "production_max_characterization",
            "producer_fraction_laws",
        ]

    @pytest.mark.parametrize("n_agents", [2, 3, 4])
    @pytest.mark.parametrize("instances", [1, 2, 5, 60, 61, 62, 755, 756])
    def test_instance_profiles_closed_form(self, n_agents, instances):
        assert verification._instance_profiles(n_agents, instances) == sum(
            1 << (m * (m - 1)) for m in (2 + t % (n_agents - 1) for t in range(instances)))

    def test_instances_over_budget_refused_before_any_work(self, monkeypatch):
        assert verification._instance_profiles(4, 60) == 83280
        assert verification._instance_profiles(4, 755) <= CHECK_BUDGET

        def fail(*args, **kwargs):
            raise AssertionError("an enumeration started")
        monkeypatch.setattr(equilibrium, "enumerate_games", fail)
        with pytest.raises(CapExceededError, match="verify with 756 instances of up to 4 agents capped "
                                                   "at 1048576 profiles: it would check 1049328 "):
            run_verification(n_agents=4, instances=756)

    def test_a_check_stopped_mid_way_leaves_later_checks_their_games(self, monkeypatch):
        """Each check draws all its games before it judges any; one that stops at instance t
        puts the generator back to its state after instance t. The digest is that of the report
        when each game was drawn and judged in turn. The predictor prints each failing game's
        joint entropy, so a later check that drew other games would print another number."""
        real = analytic.poa_predict

        def wrong_at_three_agents(cfg):
            pred = real(cfg)
            return dataclasses.replace(pred, value=-cfg.ev.joint_entropy, is_bound=False) \
                if cfg.n_agents == 3 else pred
        monkeypatch.setattr(analytic, "poa_predict", wrong_at_three_agents)
        text = run_verification(n_agents=4, instances=20, seed=0).to_text()
        assert "FAIL poa_homogeneous: instance 1: PoA 1.0 vs exact -4.118122952583705 in K_I" in text
        assert "FAIL poa_heterogeneous: instance 1: PoA 1.0 vs exact -3.8037420975803276 in K_M" in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5073ffdb147de5e7ce2c073989790250d5f175e586099508b47fbe728d5956cc")

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_verification(n_agents=5)
        with pytest.raises(ValueError):
            run_verification(n_agents=3, instances=0)

    @pytest.mark.parametrize("name", ["n_agents", "instances", "seed"])
    @pytest.mark.parametrize("value", [True, False, 3.0, 2.5, "3", None])
    def test_an_argument_that_is_not_an_integer_is_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            run_verification(**{"n_agents": 2, "instances": 1, "seed": 0, name: value})

    def test_a_negative_seed_is_refused_by_name(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            run_verification(2, 1, np.int64(-1))

    def test_numpy_integers_are_accepted_as_plain_ints(self):
        report = run_verification(np.int64(2), np.uint8(1), np.int32(3))
        assert type(report.seed) is int
        assert report.to_text() == run_verification(2, 1, 3).to_text()


class TestPoaCheck:
    def test_bound_holds_vacuously_without_pure_equilibrium(self, monkeypatch):
        cfg = NO_PURE_NE
        assert enumerate_nash(cfg).rows.shape == (0, 3)
        assert poa_predict(cfg).is_bound

        def drawn(rng, sizes, benefit, homogeneous=True, states=None):
            states.extend(rng.getstate() for _ in sizes)
            return [cfg for _ in sizes]
        monkeypatch.setattr(verification, "random_configs", drawn)
        passed, detail = verification._check_poa(Pcg64(0), 3, 2, LN, False, "claim")
        assert passed
        assert detail == "2 instances, claim; 2 without a pure equilibrium"

    def test_detail_unchanged_when_every_game_has_an_equilibrium(self):
        passed, detail = verification._check_poa(Pcg64(0), 3, 4, LN, True, "claim")
        assert passed and detail == "4 instances, claim"


class TestMismatchNamesTheFirstProfile:
    """Flipped mask entries make a check fail; the FAIL detail names the first in
    index order, in the words the per-profile loops used (the strings below are
    what those loops printed for the same flipped profiles)."""

    @staticmethod
    def rows_of(index, n=3):
        return tuple(rows_from_indices(np.array([index]), n)[0].tolist())

    def test_strict_structure(self, monkeypatch):
        flipped = {self.rows_of(50), self.rows_of(12)}
        mask = analytic.strict_structure_mask

        def flip(cfg, rows):
            return mask(cfg, rows) != np.array([tuple(r) in flipped for r in rows.tolist()], dtype=bool)
        monkeypatch.setattr(analytic, "strict_structure_mask", flip)
        assert verification._check_strict_equivalence(Pcg64(0), 3, 2, LN) == (
            False, "instance 1: profile 000101000 misclassified")

    @pytest.mark.parametrize("extra, witness", [
        ([(2, 1, 0)], "010100000 has a duplicate link"),
        ([(2, 1, 0), (2, 4, 1)], "010001100 has a cycle"),  # the cycle comes first in index order
        ([(6, 5, 0)], "011101000 has a duplicate link"),  # and a cycle: the duplicate is named
    ], ids=["duplicate", "first-of-two", "both"])
    def test_existence_and_minimality(self, monkeypatch, extra, witness):
        real = equilibrium.enumerate_games

        def with_extra(report):
            if report.rows.shape[1] < 3:
                return report
            rows = np.concatenate([report.rows, np.array(extra, dtype=np.int64)])
            rows = rows[np.argsort(profile_indices(rows))]
            return dataclasses.replace(report, rows=rows, components=components(rows))
        monkeypatch.setattr(equilibrium, "enumerate_games",
                            lambda cfgs: [with_extra(r) for r in real(cfgs)])
        assert verification._check_existence_minimality(Pcg64(0), 3, 2, LN) == (
            False, f"2 instances; instance 1 equilibrium {witness}")

    @pytest.mark.parametrize("agg", list(Aggregation))
    def test_production_shapes(self, monkeypatch, agg):
        levels = production.grid_levels(ProductionGameConfig(3, LN, 0.25, 0.2, agg))
        # two flips on one link row and one on a later row: the first in grid order is named
        flipped = {(self.rows_of(9), (levels[2], levels[1], levels[3])),
                   (self.rows_of(9), (levels[0], levels[6], levels[0])),
                   (self.rows_of(37), (levels[1], levels[1], levels[1]))}
        mask = production.shape_mask

        def flip(cfg, rows, prods):
            hit = [[(tuple(r), tuple(p)) in flipped for p in prods.tolist()] for r in rows.tolist()]
            return mask(cfg, rows, prods) != np.array(hit, dtype=bool)
        monkeypatch.setattr(production, "shape_mask", flip)
        assert verification._check_production(agg, LN) == (
            False, "c=0.2: profile 000100010 0,2.9999999999708962,0 misclassified")
