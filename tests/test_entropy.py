"""Entropic-vector construction, validation, queries, and the text format."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import entropy
from infogame.entropy import (
    EntropicVector,
    JointPmf,
    family_pair_redundancy,
    family_independent,
    family_max_correlated,
    from_joint_pmfs,
    from_text,
    subset_agents,
    validate_shannon,
)
from scalar_kernel import cond_entropy, kl_total, mutual_info


def table_entropy(rows, keep):
    """Independent oracle: marginal entropy (bits) of `keep` columns from
    explicit (outcome tuple, probability) rows."""
    marg = {}
    for outcome, p in rows:
        key = tuple(outcome[i] for i in keep)
        marg[key] = marg.get(key, 0.0) + p
    return -sum(p * math.log2(p) for p in marg.values() if p > 0)


XOR_ROWS = [((x1, x2, x1 ^ x2), 0.25) for x1 in (0, 1) for x2 in (0, 1)]


class TestFromJointPmf:
    def test_two_independent_fair_bits(self):
        ev = from_joint_pmfs([JointPmf([[0.25, 0.25], [0.25, 0.25]])])[0]
        assert ev.entries == pytest.approx((1.0, 1.0, 2.0), abs=1e-12)

    def test_two_identical_fair_bits(self):
        ev = from_joint_pmfs([JointPmf([[0.5, 0.0], [0.0, 0.5]])])[0]
        assert ev.entries == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)

    def test_xor_triple_matches_direct_table_computation(self):
        table = np.zeros((2, 2, 2))
        for outcome, p in XOR_ROWS:
            table[outcome] = p
        ev = from_joint_pmfs([JointPmf(table)])[0]
        for mask in range(1, 8):
            expect = table_entropy(XOR_ROWS, subset_agents(mask))
            assert ev.h(mask) == pytest.approx(expect, abs=1e-12)
        assert ev.singletons == pytest.approx((1, 1, 1))
        assert ev.h(0b011) == pytest.approx(2.0)
        assert ev.h(0b111) == pytest.approx(2.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sums to"):
            JointPmf([[0.5, 0.2], [0.1, 0.1]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            JointPmf([[0.6, -0.1], [0.3, 0.2]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_cell(self, bad):
        # NaN passed both the sign and the sum check, and read as probability 0
        with pytest.raises(ValueError, match="non-finite"):
            JointPmf([[bad, 0.5], [0.25, 0.25]])


def per_marginal_entropies(pmf):
    """The entries of a pmf's vector one marginal at a time: its table summed over the agents
    outside the mask, then -sum p log2 p over the positive cells."""
    n = pmf.n_agents
    out = []
    for mask in range(1, 1 << n):
        p = pmf.table.sum(axis=tuple(i for i in range(n) if not mask >> i & 1)).ravel()
        p = p[p > 0.0]
        out.append(float(-np.sum(p * np.log2(p))))
    return tuple(out)


def drawn_pmfs(rng, zero_share=0.0, per_shape=4):
    """``per_shape`` pmfs of every table shape of 2 to 4 agents with 2 or 3 outcomes each, drawn as
    verify draws them, with about ``zero_share`` of the cells set to zero."""
    pmfs = []
    for n in (2, 3, 4):
        for shape in itertools.product((2, 3), repeat=n):
            for _ in range(per_shape):
                raw = rng.random(shape) ** 2 + 1e-6
                raw[rng.random(shape) < zero_share] = 0.0
                raw.flat[0] += 1.0  # never all zero
                pmfs.append(JointPmf(raw / raw.sum()))
    rng.shuffle(pmfs)
    return pmfs


class TestBatchVectors:
    """``from_joint_pmfs`` stacks the pmfs of one table shape and takes each mask's marginals and
    entropies for all of them at once, each as its own batch of one would."""

    def test_drawn_pmfs_of_every_shape_match_per_marginal_sums_bit_for_bit(self):
        pmfs = drawn_pmfs(np.random.default_rng(7))
        assert len({p.table.shape for p in pmfs}) == 4 + 8 + 16
        batch = from_joint_pmfs(pmfs)
        assert [ev.entries for ev in batch] == [from_joint_pmfs([p])[0].entries for p in pmfs]
        assert [ev.entries for ev in batch] == [per_marginal_entropies(p) for p in pmfs]
        assert [ev.n_agents for ev in batch] == [p.n_agents for p in pmfs]

    def test_pmfs_with_zero_cells(self):
        pmfs = drawn_pmfs(np.random.default_rng(8), zero_share=0.4, per_shape=3)
        assert sum(int((p.table == 0.0).sum()) for p in pmfs) > 100
        batch = from_joint_pmfs(pmfs)
        assert [ev.entries for ev in batch] == [from_joint_pmfs([p])[0].entries for p in pmfs]
        for ev, pmf in zip(batch, pmfs):
            assert ev.entries == pytest.approx(per_marginal_entropies(pmf), abs=1e-12)
            assert all(math.isfinite(v) for v in ev.entries)

    def test_empty_batch(self):
        assert from_joint_pmfs([]) == []


class TestValidateShannon:
    def test_pmf_output_always_valid(self):
        rng = np.random.default_rng(3)
        raw = rng.random((2, 3, 2)) + 0.01
        ev = from_joint_pmfs([JointPmf(raw / raw.sum())])[0]
        assert validate_shannon(ev).ok

    def test_additivity_violation_reported(self):
        report = validate_shannon(EntropicVector(2, (1.0, 1.0, 3.0)))
        assert not report.ok
        kinds = {(v.kind, v.subsets) for v in report.violations}
        assert ("submodularity", (0b01, 0b10, 0b11, 0)) in kinds

    def test_monotonicity_violation_reported(self):
        report = validate_shannon(EntropicVector(2, (2.0, 1.0, 1.5)))
        assert not report.ok
        assert any(v.kind == "monotonicity" and v.subsets == (0b01, 0b11)
                   for v in report.violations)
        assert "H({0}) <= H({0,1})" in report.describe()

    def test_single_agent_negative(self):
        assert not validate_shannon(EntropicVector(1, (-1.0,))).ok
        assert validate_shannon(EntropicVector(1, (0.5,))).ok


class TestInformationMeasures:
    def test_independent_bits_mutual_info_zero(self):
        ev = family_independent([1, 1])
        assert mutual_info(ev, 0b01, 0b10) == 0.0

    def test_identical_bits(self):
        ev = from_joint_pmfs([JointPmf([[0.5, 0.0], [0.0, 0.5]])])[0]
        assert mutual_info(ev, 0b01, 0b10) == pytest.approx(1.0, abs=1e-12)
        assert cond_entropy(ev, 0b01, 0b10) == pytest.approx(0.0, abs=1e-12)

    def test_xor_pair_vs_third(self):
        table = np.zeros((2, 2, 2))
        for outcome, p in XOR_ROWS:
            table[outcome] = p
        ev = from_joint_pmfs([JointPmf(table)])[0]
        h12 = table_entropy(XOR_ROWS, (0, 1))
        h3 = table_entropy(XOR_ROWS, (2,))
        h123 = table_entropy(XOR_ROWS, (0, 1, 2))
        assert mutual_info(ev, 0b011, 0b100) == pytest.approx(h12 + h3 - h123, abs=1e-12)
        assert mutual_info(ev, 0b011, 0b100) == pytest.approx(1.0, abs=1e-12)

    def test_overlapping_subsets_rejected(self):
        ev = family_independent([1, 1, 1])
        with pytest.raises(ValueError, match="overlap"):
            mutual_info(ev, 0b011, 0b010)
        with pytest.raises(ValueError, match="overlap"):
            cond_entropy(ev, 0b001, 0b101)

    def test_empty_subset_rejected(self):
        ev = family_independent([1, 1])
        with pytest.raises(ValueError):
            ev.h(0)
        with pytest.raises(ValueError):
            mutual_info(ev, 0, 0b10)


class TestKlTotal:
    def test_independent_family_is_zero(self):
        assert kl_total(family_independent([5, 4, 4])) == 0.0

    def test_pair_redundancy_family(self):
        # singleton sum 13 against joint 11
        assert kl_total(family_pair_redundancy(5, 4, 4, 2)) == pytest.approx(2.0, abs=1e-12)

    def test_max_correlated(self):
        # sum 6 against max 3
        assert kl_total(family_max_correlated([3, 2, 1])) == pytest.approx(3.0, abs=1e-12)


class TestFamilies:
    def test_independent_entries(self):
        ev = family_independent([1, 1])
        assert ev.h(0b11) == 2.0
        ev = family_independent([5, 4, 4])
        assert ev.joint_entropy == 13.0
        ev = family_independent([7, 4, 2])
        assert ev.joint_entropy == 13.0

    def test_max_correlated_entries(self):
        ev = family_max_correlated([3, 3, 3])
        assert all(v == 3.0 for v in ev.entries)
        ev = family_max_correlated([3, 2, 1])
        assert ev.h(0b110) == 2.0
        assert ev.joint_entropy == 3.0
        ev = family_max_correlated([7.5, 0, 0])
        assert ev.joint_entropy == 7.5

    def test_pair_redundancy_entries(self):
        ev = family_pair_redundancy(5, 4, 4, 0)
        assert ev.joint_entropy == 13.0
        ev = family_pair_redundancy(5, 4, 4, 4)
        assert ev.h(0b110) == 4.0
        assert ev.joint_entropy == 9.0
        ev = family_pair_redundancy(7, 4, 2, 2)
        assert ev.h(0b110) == 4.0
        assert ev.joint_entropy == 11.0

    def test_pair_redundancy_kl_bounds(self):
        with pytest.raises(ValueError, match="kl"):
            family_pair_redundancy(5, 4, 4, 4.5)
        with pytest.raises(ValueError, match="kl"):
            family_pair_redundancy(5, 4, 4, -0.1)

    def test_negative_entropy_rejected(self):
        for fam in (family_independent, family_max_correlated):
            with pytest.raises(ValueError, match="nonnegative"):
                fam([1, -1])

    @pytest.mark.parametrize("family", [family_independent, family_max_correlated])
    def test_too_many_agents_rejected_before_any_entry_is_built(self, monkeypatch, family):
        def fail(mask):
            raise AssertionError("an entry was built")
        monkeypatch.setattr(entropy, "subset_agents", fail)
        with pytest.raises(ValueError, match=r"1\.\.16, got 17"):
            family([1.0] * 17)

    @given(st.lists(st.floats(0, 16), min_size=1, max_size=4),
           st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_families_satisfy_shannon(self, h, frac):
        assert validate_shannon(family_independent(h)).ok
        assert validate_shannon(family_max_correlated(h)).ok
        if len(h) >= 3:
            kl = frac * min(h[1], h[2])
            assert validate_shannon(family_pair_redundancy(h[0], h[1], h[2], kl)).ok


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_pmf_vectors_shannon_valid_with_nonneg_redundancy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n))
        raw = rng.random(sizes) ** 2 + 1e-9
        ev = from_joint_pmfs([JointPmf(raw / raw.sum())])[0]
        assert validate_shannon(ev).ok
        assert kl_total(ev) >= -1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_mutual_info_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((2, 2, 3)) + 0.01
        ev = from_joint_pmfs([JointPmf(raw / raw.sum())])[0]
        for a, b in [(0b001, 0b010), (0b001, 0b110), (0b011, 0b100)]:
            assert abs(mutual_info(ev, a, b) - mutual_info(ev, b, a)) <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_chain_rule_accumulation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n))
        raw = rng.random(sizes) + 0.01
        ev = from_joint_pmfs([JointPmf(raw / raw.sum())])[0]
        order = list(rng.permutation(n))
        i, rest = order[0], order[1:]
        total = ev.h(1 << i)
        acc = 1 << i
        for j in rest:
            total += cond_entropy(ev, 1 << j, acc)
            acc |= 1 << j
        assert total == pytest.approx(ev.h(acc), abs=1e-9)


class TestSerialization:
    def test_reads_the_documented_format(self):
        # records in any order; blank lines and comments skipped
        text = "# a comment\n\nn_agents,2\n3,2.5\n1,1.0\n  # another\n2,1.5\n"
        assert from_text(text) == family_independent([1.0, 1.5])

    def test_reads_seventeen_digit_precision(self):
        ev = family_independent([math.pi, math.e])
        text = f"n_agents,2\n1,{math.pi!r}\n2,{math.e!r}\n3,{ev.entries[2]!r}\n"
        assert from_text(text).entries == ev.entries

    def test_missing_record_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            from_text("n_agents,2\n1,1.0\n2,1.0\n")

    def test_duplicate_record_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_text("n_agents,1\n1,1.0\n1,2.0\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty"),
        ("# only a comment\n\n", "empty"),
        ("agents,2\n1,1.0\n2,1.0\n3,2.0\n", "first line"),
        ("n_agents,1\n1,1.0,2.0\n", "bad record"),
        ("n_agents,1\n2,1.0\n", "out of range"),
        ("n_agents,17\n", "n_agents must be in 1..16"),
    ], ids=["empty", "comments-only", "bad-first-line", "bad-record", "mask-out-of-range", "too-many-agents"])
    def test_malformed_document_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            from_text(text)
