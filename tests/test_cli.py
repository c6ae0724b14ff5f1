"""The batch front end: spec documents, CSV schemas, exit codes, determinism."""
import hashlib
import importlib.util
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from infogame import analytic, cli, csvtable, equilibrium, kernel, production
from infogame.cli import main
from infogame.entropy import family_independent, family_max_correlated, family_pair_redundancy, from_joint_pmfs
from infogame.equilibrium import enumerate_nash
from infogame.formation_game import BenefitFunction, CostModel, GameConfig
from infogame.verification import random_joint_pmf
from scalar_kernel import bitstring, csv_of, csv_text, report_csv

LN = BenefitFunction.log1p(math.e)

REGION_SPEC = """\
command: regions
seed: 0
game:
  entropic_vector: {family: pair_redundancy, h: [5, 4, 4]}
  benefit: {name: log1p, base: e}
grid:
  kl: [0, 1, 2, 3, 4]
  c: {start: 0.02, stop: 1.4, points: 20}
"""


DENSE_KL = "{start: 0, stop: 4, points: 17}"
DENSE_C = "{start: 0.0, stop: 1.0, points: 41}"
ISOLATED_C = "{start: 1.04, stop: 1.5, points: 24}"


def run_cli(tmp_path, spec_text, name="exp.yaml", extra=()):
    spec = tmp_path / name
    spec.write_text(spec_text)
    out = tmp_path / (name + ".csv")
    code = main(["--spec", str(spec), "--out", str(out)] + list(extra))
    return code, out.read_text() if out.exists() else ""


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestRegions:
    def test_fully_redundant_band_has_no_mixed_region(self, tmp_path):
        code, text = run_cli(tmp_path, REGION_SPEC)
        assert code == 0
        rows = parse_csv(text)
        assert len(rows) == 100
        kl4 = [r for r in rows if float(r["kl"]) == 4.0]
        assert kl4 and all(r["region"] != "K_M" for r in kl4)
        kl0 = [r for r in rows if float(r["kl"]) == 0.0]
        assert any(r["region"] == "K_M" for r in kl0)

    def test_second_family_keeps_mixed_region(self, tmp_path):
        spec = REGION_SPEC.replace("[5, 4, 4]", "[7, 4, 2]").replace(
            "kl: [0, 1, 2, 3, 4]", "kl: [0, 1, 2]")
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        rows = parse_csv(text)
        for kl in (0.0, 1.0, 2.0):
            band = [r for r in rows if float(r["kl"]) == kl]
            assert any(r["region"] == "K_M" for r in band)

    def test_zero_cost_is_connected(self, tmp_path):
        spec = REGION_SPEC.replace("start: 0.02", "start: 0.0")
        code, text = run_cli(tmp_path, spec)
        rows = parse_csv(text)
        first = [r for r in rows if float(r["c"]) == 0.0 and float(r["kl"]) == 0.0]
        assert first[0]["region"] == "K_C"

    def test_header_comment_records_hash_and_seed(self, tmp_path):
        code, text = run_cli(tmp_path, REGION_SPEC)
        head = text.splitlines()[0]
        assert head.startswith("# spec_sha256=")
        assert "seed=0" in head and "command=regions" in head
        # saved outputs keep their bytes: the field of the retired agent-cap option stays
        assert head.endswith(" seed=0 max_n=default command=regions")

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_cli(tmp_path, REGION_SPEC, name="a.yaml")
        _, second = run_cli(tmp_path, REGION_SPEC, name="b.yaml")
        assert first == second


class TestSweeps:
    def test_poa_column_one_outside_mixed_and_decreasing_inside(self, tmp_path):
        spec = REGION_SPEC.replace("command: regions", "command: poa-sweep")
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        rows = parse_csv(text)
        assert {r["region"] for r in rows} == {"K_C", "K_M", "K_I"}
        for r in rows:
            if r["region"] == "K_C":
                assert float(r["poa_or_bound"]) == 1.0
            elif r["region"] == "K_I":
                cfg = GameConfig(family_pair_redundancy(5, 4, 4, float(r["kl"])), LN,
                                 CostModel.homogeneous(float(r["c"])))
                assert float(r["poa_or_bound"]) == enumerate_nash(cfg).poa
        by_c = {}
        for r in rows:
            if r["region"] == "K_M":
                by_c.setdefault(r["c"], []).append((float(r["kl"]), float(r["poa_or_bound"])))
        decreasing_checked = 0
        for series in by_c.values():
            series.sort()
            for (_, a), (_, b) in zip(series, series[1:]):
                assert b < a
                decreasing_checked += 1
        assert decreasing_checked > 0

    def test_mil_bound_column(self, tmp_path):
        spec = REGION_SPEC.replace("command: regions", "command: mil-sweep")
        code, text = run_cli(tmp_path, spec)
        rows = parse_csv(text)
        for r in rows:
            expect = 13 - float(r["kl"]) - 4 if r["region"] == "K_M" else 0.0
            assert float(r["mil_or_bound"]) == pytest.approx(expect, abs=1e-9)


    @pytest.mark.parametrize("command, kl, c, digest", [
        ("regions", DENSE_KL, DENSE_C, "46348dd4d1034bd17fc44f924448e72d2368aee622d9623f8323b9da9cf39d75"),
        ("poa-sweep", DENSE_KL, DENSE_C, "22948a8226e88af0242059ef09ad2c4f89b0fc51ebdbe60f2023452e96b0a90d"),
        ("mil-sweep", DENSE_KL, DENSE_C, "9666b230b31007c5438e5c14a693d97036ca03927d3b510f4a07ebb26e7d3893"),
        ("regions", "[0, 1, 2]", ISOLATED_C, "41b4ff301339fdc39a832940101a1a2a25dd9e7fcde48a6692dce9736ce2c811"),
        ("poa-sweep", "[0, 1, 2]", ISOLATED_C, "c8beefb14175144c958afb57a1b41e233a49c4b168ed167a932a7fb17f7dd950"),
        ("mil-sweep", "[0, 1, 2]", ISOLATED_C, "3f460cae177bbc39afb6a849bb8a596fdf26f21343d708e31af1f1ee21f444ac"),
    ], ids=["regions-dense", "poa-sweep-dense", "mil-sweep-dense", "regions-isolated", "poa-sweep-isolated",
            "mil-sweep-isolated"])
    def test_golden_bytes(self, tmp_path, command, kl, c, digest):
        # pinned sweeps: 17 kl x 41 c across K_C, K_M and K_I, and a K_I-only grid; a rewrite of
        # the sweeps or of the predictors may not move a byte
        spec = REGION_SPEC.replace("command: regions", f"command: {command}").replace(
            "kl: [0, 1, 2, 3, 4]", f"kl: {kl}").replace("c: {start: 0.02, stop: 1.4, points: 20}", f"c: {c}")
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("c", ["{start: 0.02, stop: 1.4, points: 20}", "[0]"])
    @pytest.mark.parametrize("command", ["regions", "poa-sweep", "mil-sweep"])
    def test_zero_information_exits_2_and_writes_nothing(self, tmp_path, capsys, command, c):
        spec = REGION_SPEC.replace("command: regions", f"command: {command}").replace(
            "h: [5, 4, 4]", "h: [0, 0, 0]").replace("kl: [0, 1, 2, 3, 4]", "kl: [0]").replace(
            "{start: 0.02, stop: 1.4, points: 20}", c)
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""
        assert not (tmp_path / "exp.yaml.csv").exists()
        assert "price of anarchy is undefined" in capsys.readouterr().err


ENUM_SPEC = """\
command: enumerate
game:
  entropic_vector: {family: independent, h: [1, 1]}
  benefit: {name: log1p, base: 2}
  costs: {model: homogeneous, c: 0.3}
"""

# a 4-agent weighted coverage vector (agents hold {a,b}, {b,c}, {c}, {a,d} of
# independent parts weighing 1, 0.5, 0.75 and 1.25 bits) with per-pair costs:
# three equilibria, one strict, two of them leaving two pairs apart
GOLDEN_MATRIX_SPEC = """\
command: enumerate
game:
  entropic_vector:
    inline:
      n_agents: 4
      entries: [[1, 1.5], [2, 1.25], [3, 2.25], [4, 0.75], [5, 2.25], [6, 1.25], [7, 2.25],
                [8, 2.25], [9, 2.75], [10, 3.5], [11, 3.5], [12, 3.0], [13, 3.5], [14, 3.5], [15, 3.5]]
  benefit: {name: log1p, base: 2}
  costs:
    model: matrix
    c: [[0, 0.72, 0.67, 1.01], [0.35, 0, 0.22, 0.54], [0.15, 1.06, 0, 0.76], [0.34, 0.34, 0.79, 0]]
"""

# every sponsored spanning tree is an equilibrium: 2,000 rows
GOLDEN_CHEAP_SPEC = """\
command: enumerate
game:
  entropic_vector: {family: independent, h: [1, 1.5, 2, 1.25, 0.75]}
  benefit: {name: log1p, base: e}
  costs: {model: homogeneous, c: 0.05}
"""

# every sponsored spanning tree of six agents is an equilibrium: 41,472 rows from the
# pruned scan, across many chunks of the writer
GOLDEN_N6_SPEC = """\
command: enumerate
game:
  entropic_vector: {family: independent, h: [1, 1.5, 2, 1.25, 0.75, 0.5]}
  benefit: {name: log1p, base: e}
  costs: {model: homogeneous, c: 0.03}
"""

# six agents with recipient costs in the mixed region: 31 equilibria, all connected; six in
# ten sponsored forests of the pruned scan fail at their first agent
GOLDEN_N6_MIXED_SPEC = """\
command: enumerate
game:
  entropic_vector: {family: independent, h: [1, 1.5, 2, 1.25, 0.75, 0.5]}
  benefit: {name: log1p, base: e}
  costs: {model: recipient, c: [0.3, 0.2, 0.15, 0.25, 0.4, 0.1]}
"""

GOLDEN_PRODUCTION_N3_SUM_SPEC = """\
command: production
production:
  n_agents: 3
  benefit: {name: log1p, base: e}
  k: 0.25
  c: 0.2
  aggregation: sum
"""

GOLDEN_PRODUCTION_N3_MAX_SPEC = GOLDEN_PRODUCTION_N3_SUM_SPEC.replace("aggregation: sum", "aggregation: max")

GOLDEN_PRODUCTION_N5_MAX_SPEC = GOLDEN_PRODUCTION_N3_SUM_SPEC.replace("n_agents: 3", "n_agents: 5").replace(
    "aggregation: sum", "aggregation: max")

INTEGER_ENTROPY_SPEC = """\
command: enumerate
game:
  entropic_vector: {family: pair_redundancy, h: [5, 4, 4], kl: 1}
  benefit: {name: log1p, base: e}
  costs: {model: homogeneous, c: 5.0}
"""


class TestEnumerate:
    def test_two_agent_equilibria(self, tmp_path):
        code, text = run_cli(tmp_path, ENUM_SPEC)
        assert code == 0
        rows = parse_csv(text)
        assert [r["profile"] for r in rows] == ["0010", "0100"]
        assert all(r["strict"] == "1" for r in rows)
        assert float(rows[0]["welfare"]) == pytest.approx(2 * math.log2(3) - 0.3)
        assert any("poa=" in ln for ln in text.splitlines() if ln.startswith("#"))

    def test_cap_exceeded_exit_code(self, tmp_path):
        spec = ENUM_SPEC.replace("[1, 1]", "[1, 1, 1, 1, 1, 1, 1]")
        code, _ = run_cli(tmp_path, spec)
        assert code == 3

    def test_agent_cap_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, ENUM_SPEC, extra=["--max-n", "8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("spec, digest", [
        (GOLDEN_MATRIX_SPEC, "730c7a3a5413dfc92d067173055e52388eed0b85d6d2b36a83ce36033c0f5e0d"),
        (GOLDEN_CHEAP_SPEC, "dc25f881ad8066ecaebe4ee63fa5232d2c6c0f194504919ea8c9c855ad7af93c"),
        (GOLDEN_N6_SPEC, "9fee49a476f30d67c8b358cd0ac973d51585316f5c4ec3db40560f318392c517"),
        (GOLDEN_N6_MIXED_SPEC, "11f8e7bb58183b0d9b2bfaa2aab34aa90e3f663f2886ef876be312cf0b9c8422"),
        (GOLDEN_PRODUCTION_N3_SUM_SPEC, "28f52b718881d617bb70da76c384cff845cfc91f20eb9f912c653a177f96e3c9"),
        (GOLDEN_PRODUCTION_N3_MAX_SPEC, "c3b7f5229028cd627d27d281c5ba42507578875ca395657264693c0ef6761a2b"),
        (GOLDEN_PRODUCTION_N5_MAX_SPEC, "00a8ecbaa240adae5d3582b6e33def8fd8b263fe84282bf9123c2e837c67c5f6"),
    ], ids=["n4-inline-matrix", "n5-independent-cheap", "n6-independent-cheap-pruned", "n6-recipient-mixed-pruned",
            "production-n3-sum-full-grid", "production-n3-max-full-grid", "production-n5-max-candidates"])
    def test_golden_bytes(self, tmp_path, spec, digest):
        # pinned output of fixed games: a change to the report phase or the writer may not move a byte
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_six_agent_enumerate_holds_one_copy_of_its_rows(self):
        # 41,472 equilibria, whose one-byte rows take 0.24 MiB: the scan keeps their profile indices, the
        # report builds the rows once, in the masks' dtype, one SCAN_CHUNK slice at a time, scores them per
        # slice, with a one-byte game index, and takes MIL one agent row at a time (1.28 MiB traced here:
        # the scan's buffer work beside the equilibria found so far; 1.6 MiB when the sorted sponsored
        # forests were built whole, 3.6 MiB with int64 rows and game index)
        cfg = cli._game_config(yaml.safe_load(GOLDEN_N6_SPEC))
        tracemalloc.start()
        try:
            assert len(enumerate_nash(cfg).rows) == 41472
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 << 17, peak

    def test_six_agent_enumerate_writes_its_floats_a_chunk_at_a_time(self, tmp_path):
        # the whole run through the CLI, its welfare column formatted per CHUNK_ROWS slice: 1.3 MiB traced
        # here, 4.3 MiB when the column's texts and codes were built whole before the write
        (tmp_path / "exp.yaml").write_text(GOLDEN_N6_SPEC)
        tracemalloc.start()
        try:
            assert main(["--spec", str(tmp_path / "exp.yaml"), "--out", str(tmp_path / "out.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 19, peak

    @pytest.mark.parametrize("scan_chunk", [512, 100, 10**6])
    @pytest.mark.parametrize("spec", [GOLDEN_N6_SPEC, GOLDEN_N6_MIXED_SPEC], ids=["cheap", "mixed"])
    def test_six_agent_slices_do_not_move_a_byte(self, tmp_path, monkeypatch, spec, scan_chunk):
        # the pruned scan's buffer, the forests' tree slices that fill it (100 rows: 3 trees of 32, split
        # across buffers) and the report's slices, all SCAN_CHUNK
        _, want = run_cli(tmp_path, spec, name="default.yaml")
        monkeypatch.setattr(equilibrium, "SCAN_CHUNK", scan_chunk)
        _, got = run_cli(tmp_path, spec, name="default.yaml")
        assert got == want

    def test_price_of_anarchy_is_never_below_one(self, tmp_path):
        # the optimum is kernel.welfare of its own forest, as every equilibrium welfare is: summed
        # in another order it read 5.8 here, below the worst equilibrium, and the PoA read 0.9999999999999999
        spec = ENUM_SPEC.replace("[1, 1]", "[1, 1, 1]").replace("c: 0.3", "c: 0.1")
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        assert text.splitlines()[1] == ("# social_optimum=5.800000000000001 worst_ne_welfare=5.800000000000001"
                                        " poa=1.0 mil=0.0")

    def test_integer_entropies_print_as_floats(self, tmp_path):
        spec = INTEGER_ENTROPY_SPEC
        _, ints = run_cli(tmp_path, spec, name="ints.yaml")
        _, floats = run_cli(tmp_path, spec.replace("[5, 4, 4]", "[5.0, 4.0, 4.0]"), name="floats.yaml")
        body = ints.split("\n", 1)[1]  # after the line carrying the spec's hash
        assert body == floats.split("\n", 1)[1]
        assert "5.0,4.0,4.0" in body


PRODUCTION_SPEC = """\
command: production
production:
  n_agents: 2
  benefit: {name: log1p, base: e}
  k: 0.25
  c: 1.0
  aggregation: sum
"""


class TestProduction:
    def test_high_cost_unique_equilibrium(self, tmp_path):
        code, text = run_cli(tmp_path, PRODUCTION_SPEC)
        assert code == 0
        rows = parse_csv(text)
        assert len(rows) == 1
        assert rows[0]["links"] == "0000"
        assert float(rows[0]["prod_0"]) == pytest.approx(3.0, abs=1e-9)

    def test_too_many_agents_refused_before_any_check(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("a profile was checked")
        monkeypatch.setattr(production, "production_ne_mask", fail)
        code, text = run_cli(tmp_path, PRODUCTION_SPEC.replace("n_agents: 2", "n_agents: 40")
                             .replace("c: 1.0", "c: 5.0"))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: n_agents must be in 1..16\n"

    @pytest.mark.parametrize("command", ["production", "few-sweep"])
    def test_game_whose_whole_payoff_is_below_tol_exits_2(self, tmp_path, capsys, command):
        spec = PRODUCTION_SPEC.replace("command: production", f"command: {command}").replace(
            "k: 0.25", "k: 0.9999999999").replace("c: 1.0", "c: 1.0e-11")
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""
        assert "within the tolerance 1e-9" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["5.0e-324", "1.0e-6"])
    @pytest.mark.parametrize("command, n, agg", [
        ("production", 3, "sum"), ("production", 4, "sum"), ("production", 4, "max"), ("few-sweep", 2, "sum")])
    def test_fine_grid_refused_before_any_check(self, tmp_path, monkeypatch, capsys, command, n, agg, step):
        # h_bar / 5e-324 overflows a float and reads as over budget; 1e-6 steps make 3,000,001 levels
        def fail(*args, **kwargs):
            raise AssertionError("a production level was scored")
        monkeypatch.setattr(production, "_benefits", fail)
        spec = PRODUCTION_SPEC.replace("command: production", f"command: {command}").replace(
            "n_agents: 2", f"n_agents: {n}").replace("c: 1.0", "c: 0.2").replace("sum", agg)
        code, text = run_cli(tmp_path, spec + f"  grid_step: {step}\n" + f"n_list: [{n}]\n" * (command == "few-sweep"))
        assert code == 3 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "capped at 1048576" in err and err.count("\n") == 1

    def test_few_sweep_columns(self, tmp_path):
        spec = PRODUCTION_SPEC.replace("command: production", "command: few-sweep") \
            .replace("c: 1.0", "c: 0.2").replace("aggregation: sum", "aggregation: max")
        spec += "n_list: [2, 4, 8]\n"
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        rows = parse_csv(text)
        assert [r["n"] for r in rows] == ["2", "4", "8"]
        assert [float(r["producer_fraction"]) for r in rows] == [0.5, 0.25, 0.125]
        assert all(float(r["total_information_bits"]) == pytest.approx(3.0, abs=1e-9)
                   for r in rows)
        assert all(r["agg"] == "max" for r in rows)

    @pytest.mark.parametrize("agg, c, digest", [
        ("sum", 0.2, "511b62281ad0ef6820de0321e8067370622cd791a55da6491b3e1d8722a64f33"),
        ("max", 0.2, "8299ae0e015d6aca9b50b3a1cbe49eb991c180d3eb0e146b42c9fa84f8fe7b57"),
        ("sum", 1.0, "da63bf3fd715f8b6484618729519f63e9963d028f59a7e7d40209f310fac38b2"),
    ], ids=["sum-low-cost", "max-low-cost", "sum-high-cost"])
    def test_few_sweep_golden_bytes(self, tmp_path, agg, c, digest):
        # pinned witnesses from 1 to 16 agents: a rewrite of few_sweep may not move a byte
        spec = PRODUCTION_SPEC.replace("command: production", "command: few-sweep") \
            .replace("c: 1.0", f"c: {c}").replace("aggregation: sum", f"aggregation: {agg}")
        code, text = run_cli(tmp_path, spec + "n_list: [1, 2, 3, 5, 8, 16]\n")
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM, the process's peak RSS")
    def test_fine_grid_few_sweep_runs_in_a_small_process(self, tmp_path):
        """500,001 deviation levels: the check takes them a slice at a time (it peaked near 170 MB
        holding them whole), and the row is the one the whole table gave."""
        spec = tmp_path / "fine.yaml"
        spec.write_text(PRODUCTION_SPEC.replace("command: production", "command: few-sweep").replace("c: 1.0", "c: 0.2")
                        + "  grid_step: 6.0e-6\nn_list: [2]\n")
        # VmHWM, not the parent's rusage: a forked child's ru_maxrss counts the parent's pages
        peak_kb = fresh_python("import sys\nfrom infogame.cli import main\nassert main(sys.argv[1:]) == 0\n"
                               "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM')))",
                               "--spec", str(spec), "--out", str(tmp_path / "fine.csv"))
        assert int(peak_kb) < 40 << 10
        assert (tmp_path / "fine.csv").read_text().splitlines()[1:] == [
            "n,agg,c,k,h_bar,producer_fraction,total_information_bits",
            "2,sum,0.2,0.25,2.999999999970896,1.0,2.999999999970896"]


def package_env() -> dict:
    """This process's environment, with the package's source first on PYTHONPATH."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


VERIFY_SPEC = """\
command: verify
seed: 0
verify: {n_agents: 3, instances: 6}
"""


class TestVerify:
    @pytest.mark.parametrize("spec", [VERIFY_SPEC, ENUM_SPEC], ids=["verify", "enumerate"])
    def test_module_entry_point_writes_what_main_writes(self, tmp_path, spec):
        """``python -m infogame.cli`` freezes the import's objects out of the collector before it
        runs ``main``; the bytes and the exit code are those of ``main`` called in-process."""
        code, _ = run_cli(tmp_path, spec)
        out = tmp_path / "module.csv"
        proc = subprocess.run([sys.executable, "-m", "infogame.cli", "--spec", str(tmp_path / "exp.yaml"),
                               "--out", str(out)], env=package_env(), capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (code, b"")
        assert out.read_bytes() == (tmp_path / "exp.yaml.csv").read_bytes()

    def test_passes_and_is_deterministic(self, tmp_path):
        code1, text1 = run_cli(tmp_path, VERIFY_SPEC, name="v1.yaml")
        code2, text2 = run_cli(tmp_path, VERIFY_SPEC, name="v2.yaml")
        assert code1 == 0 and code2 == 0
        assert text1 == text2
        assert "OK (13/13 passed)" in text1

    @pytest.mark.parametrize("n, digest", [
        (3, "2dc0772ddf5736018835db994cd404108e91a36649e16cab6e719e62095c128e"),
        (4, "661eaf1c8ad49ef805276219bac7556be906de127f3b2f8424ad807d5d0357d7"),
    ], ids=["n3", "n4"])
    def test_golden_bytes(self, tmp_path, n, digest):
        # pinned report of every check at seed 0: a rewrite of a checker may not move a byte
        spec = VERIFY_SPEC.replace("n_agents: 3, instances: 6", f"n_agents: {n}, instances: 20")
        code, text = run_cli(tmp_path, spec)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("where", ["spec", "option"])
    def test_negative_seed_refused_by_name(self, tmp_path, capsys, where):
        if where == "spec":
            spec, extra = VERIFY_SPEC.replace("seed: 0", "seed: -1"), ()
        else:
            spec, extra = VERIFY_SPEC, ("--seed", "-1")
        code, text = run_cli(tmp_path, spec, extra=extra)
        assert code == 2 and text == ""
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"

    def test_seed_override_changes_instances_not_structure(self, tmp_path):
        code, text = run_cli(tmp_path, VERIFY_SPEC, extra=["--seed", "7"])
        assert code == 0
        assert "seed=7" in text.splitlines()[1]

    def test_instances_over_budget_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the verification started")
        monkeypatch.setattr(equilibrium, "enumerate_games", refuse)
        # 252 cycles of 2-, 3- and 4-agent games, 4 + 64 + 4096 profiles each
        spec = VERIFY_SPEC.replace("n_agents: 3, instances: 6", "n_agents: 4, instances: 756")
        code, text = run_cli(tmp_path, spec)
        assert code == 3 and text == ""
        assert "it would check 1049328 profiles" in capsys.readouterr().err


# CPython's own SHA-256 module (_sha2 from 3.12, _sha256 before), which the CLI hashes the spec with
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports the package from this checkout; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=package_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestSpecDigest:
    """The header's digest comes from CPython's built-in SHA-256, and ``verify`` draws its games
    from a pure-Python PCG64 stream, so no command loads numpy's random module or maps OpenSSL
    (``_hashlib``), which that module imports. The flags are read without argparse."""

    def test_importing_the_cli_loads_neither_openssl_nor_numpy_random(self):
        loaded = fresh_python("import sys, infogame.cli; print('_hashlib' in sys.modules, 'numpy.random' in sys.modules)")
        hashlib_loaded, random_loaded = loaded.split()
        assert random_loaded == "False"
        if BUILTIN_SHA256:
            assert hashlib_loaded == "False"

    def test_no_command_loads_openssl_or_numpy_random(self, tmp_path):
        specs = [ENUM_SPEC, PRODUCTION_SPEC, GOLDEN_PRODUCTION_N5_MAX_SPEC, FEW_SWEEP_SPEC, REGION_SPEC, VERIFY_SPEC]
        paths = []
        for k, spec in enumerate(specs):
            paths.append(str(tmp_path / f"spec{k}.yaml"))
            Path(paths[-1]).write_text(spec)
        loaded = fresh_python("import sys\nfrom infogame.cli import main\n"
                              "codes = [main(['--spec', p, '--out', p + '.csv']) for p in sys.argv[1:]]\n"
                              "print(codes, '_hashlib' in sys.modules, 'numpy.random' in sys.modules)\n"
                              "print(sorted({'argparse', 'gettext', 'locale'} & sys.modules.keys()))", *paths)
        loaded, parsers = loaded.splitlines()
        codes, hashlib_loaded, random_loaded = loaded.rsplit(maxsplit=2)
        assert (codes, random_loaded) == (str([0] * len(specs)), "False")
        assert parsers == "[]"  # reading three flags costs no argparse, gettext or locale tables (about 0.6 MB)
        if BUILTIN_SHA256:
            assert hashlib_loaded == "False"

    def test_header_digest_is_the_sha256_of_the_spec_bytes(self, tmp_path):
        # CRLF line endings, a UTF-8 comment and no final newline: the digest is of the bytes as read
        text = "# coût du lien — c\n" + PRODUCTION_SPEC.rstrip("\n")
        spec_bytes = text.replace("\n", "\r\n").encode("utf-8")
        (tmp_path / "crlf.yaml").write_bytes(spec_bytes)
        assert main(["--spec", str(tmp_path / "crlf.yaml"), "--out", str(tmp_path / "out.csv")]) == 0
        head = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[0]
        assert head == (f"# spec_sha256={hashlib.sha256(spec_bytes).hexdigest()} seed=0 max_n=default"
                        " command=production")


INLINE_SPEC = ENUM_SPEC.replace("{family: independent, h: [1, 1]}",
                                "{inline: {n_agents: 2, entries: [[1, 1.0], [2, 1.0], [3, 1.5]]}}")


class TestFlags:
    """The three flags, read straight from argv: ``--flag value`` or ``--flag=value``, the last of
    a repeated flag wins, and a usage error exits 2 with the usage line and one error line."""

    def test_equals_form(self, tmp_path):
        code, text = run_cli(tmp_path, VERIFY_SPEC, extra=["--seed", "7"])
        out = tmp_path / "eq.csv"
        assert main([f"--spec={tmp_path / 'exp.yaml'}", f"--out={out}", "--seed=7"]) == code == 0
        assert out.read_text() == text

    def test_repeated_flag_keeps_its_last_value(self, tmp_path):
        spec = tmp_path / "exp.yaml"
        spec.write_text(VERIFY_SPEC)
        first, last = tmp_path / "first.csv", tmp_path / "last.csv"
        assert main(["--spec", str(tmp_path / "nope.yaml"), "--out", str(first), "--seed", "3",
                     "--spec", str(spec), "--out", str(last), "--seed", "7"]) == 0
        assert not first.exists() and "seed=7" in last.read_text().splitlines()[1]

    @pytest.mark.parametrize("extra, message", [
        (["--seed", "1.5"], "--seed must be an integer, got '1.5'"),
        (["--seed", "x"], "--seed must be an integer, got 'x'"),
        (["--seed="], "--seed must be an integer, got ''"),
        (["--out"], "--out expects a value"),
        (["--out", "--seed", "7"], "--out expects a value"),
        (["--sp", "exp.yaml"], "unrecognized argument: --sp"),
        (["stray"], "unrecognized argument: stray"),
    ], ids=["seed-float", "seed-text", "seed-empty", "trailing-out", "out-then-flag", "abbreviation", "positional"])
    def test_usage_errors_exit_2(self, tmp_path, capsys, extra, message):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, VERIFY_SPEC, extra=extra)
        assert exc.value.code == 2 and not (tmp_path / "exp.yaml.csv").exists()
        assert capsys.readouterr().err == f"{cli.USAGE}\nerror: {message}\n"

    def test_spec_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"{cli.USAGE}\nerror: --spec is required\n"

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_the_usage_and_the_schema(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["--spec", "exp.yaml", flag, "--bogus"])
        out = capsys.readouterr()
        assert exc.value.code == 0 and out.err == ""
        assert out.out.startswith("usage: infogame [-h] --spec SPEC [--out OUT] [--seed SEED]\n")
        assert "command:" in out.out

    def test_closed_stdout_is_a_write_error(self, tmp_path):
        """A pipe whose reader is gone: exit 2 and one error line, as an unopenable --out."""
        (tmp_path / "exp.yaml").write_text(ENUM_SPEC)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "infogame.cli", "--spec", str(tmp_path / "exp.yaml")],
                                  stdout=write, stderr=subprocess.PIPE, env=package_env(), text=True, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write output: ") and len(proc.stderr.splitlines()) == 1


class TestSpecValidation:
    def test_unknown_command(self, tmp_path):
        code, _ = run_cli(tmp_path, "command: dance\n")
        assert code == 2

    def test_missing_section(self, tmp_path):
        code, _ = run_cli(tmp_path, "command: enumerate\n")
        assert code == 2

    def test_shannon_violating_vector_rejected_at_load(self, tmp_path):
        spec = """\
command: enumerate
game:
  entropic_vector:
    inline: {n_agents: 2, entries: [[1, 1.0], [2, 1.0], [3, 3.0]]}
  benefit: {name: log1p, base: 2}
  costs: {model: homogeneous, c: 0.3}
"""
        code, _ = run_cli(tmp_path, spec)
        assert code == 2

    def test_yaml_syntax_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "command: [unclosed\n")
        assert code == 2

    def test_bad_grid(self, tmp_path):
        code, _ = run_cli(tmp_path, REGION_SPEC.replace("kl: [0, 1, 2, 3, 4]", "kl: []"))
        assert code == 2

    @pytest.mark.parametrize("grid", [
        "kl: [0, .nan]\n  c: [0.1]",
        "kl: [0]\n  c: [0.1, .inf]",
        "kl: [0]\n  c: {start: 0.0, stop: -.inf, points: 3}",
    ])
    def test_non_finite_grid_rejected(self, tmp_path, grid):
        spec = REGION_SPEC.split("grid:")[0] + "grid:\n  " + grid + "\n"
        code, _ = run_cli(tmp_path, spec)
        assert code == 2

    @pytest.mark.parametrize("spec", [
        REGION_SPEC.split("game:")[0] + "game: [1, 2]\n" + "grid:" + REGION_SPEC.split("grid:")[1],
        REGION_SPEC.split("grid:")[0] + "grid: [1, 2]\n",
        "command: production\nproduction: [1]\n",
    ], ids=["game", "grid", "production"])
    def test_non_mapping_section_rejected(self, tmp_path, spec):
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""

    def test_oversized_sweep_grid_refused_before_any_work(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep started")
        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(analytic, "classify_homogeneous", refuse)
        spec = REGION_SPEC.replace("points: 20", "points: 100000000000")
        code, text = run_cli(tmp_path, spec)
        assert code == 3 and text == ""
        assert "it would check 500000000000 grid points" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        REGION_SPEC.replace("h: [5, 4, 4]", "h: 5"),
        REGION_SPEC.replace("h: [5, 4, 4]", "h: [5, [4], 4]"),
        PRODUCTION_SPEC.replace("k: 0.25", "k: [1]"),
        PRODUCTION_SPEC.replace("n_agents: 2", "n_agents: {two: 2}"),
        REGION_SPEC.replace("points: 20", "points: [3]"),
        REGION_SPEC.replace("points: 20", "points: .inf"),
        REGION_SPEC.replace("start: 0.02", "start: [0]"),
        REGION_SPEC.replace("kl: [0, 1, 2, 3, 4]", "kl: [0, [1]]"),
        VERIFY_SPEC.replace("n_agents: 3", "n_agents: [4]"),
        VERIFY_SPEC.replace("instances: 6", "instances: [6]"),
        VERIFY_SPEC.replace("seed: 0", "seed: [0]"),
        PRODUCTION_SPEC.replace("command: production", "command: few-sweep") + "n_list: [2, [3]]\n",
        # YAML booleans, which int() and float() would read as 1
        PRODUCTION_SPEC.replace("k: 0.25", "k: true"),
        PRODUCTION_SPEC.replace("c: 1.0", "c: yes"),
        ENUM_SPEC.replace("c: 0.3", "c: yes"),
        REGION_SPEC.replace("kl: [0, 1, 2, 3, 4]", "kl: [0, true]"),
        REGION_SPEC.replace("start: 0.02", "start: true"),
        INLINE_SPEC.replace("[3, 1.5]", "[3, yes]"),
    ], ids=["sweep-h-scalar", "sweep-h-entry", "production-k", "production-n", "grid-points",
            "grid-points-inf", "grid-start", "grid-value", "verify-n", "verify-instances", "seed",
            "few-sweep-n", "production-k-bool", "production-c-bool", "enumerate-c-bool", "grid-value-bool",
            "grid-start-bool", "inline-entropy-bool"])
    def test_wrong_typed_value_rejected(self, tmp_path, spec, capsys):
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("spec, value", [
        (PRODUCTION_SPEC.replace("n_agents: 2", "n_agents: {}"), 2),
        (VERIFY_SPEC.replace("n_agents: 3", "n_agents: {}"), 3),
        (VERIFY_SPEC.replace("instances: 6", "instances: {}"), 6),
        (VERIFY_SPEC.replace("seed: 0", "seed: {}"), 0),
        (REGION_SPEC.replace("points: 20", "points: {}"), 20),
        (PRODUCTION_SPEC.replace("command: production", "command: few-sweep") + "n_list: [2, {}]\n", 3),
        (INLINE_SPEC.replace("n_agents: 2", "n_agents: {}"), 2),
        (INLINE_SPEC.replace("[3, 1.5]", "[{}, 1.5]"), 3),
    ], ids=["production-n", "verify-n", "verify-instances", "seed", "grid-points", "few-sweep-n",
            "inline-n-agents", "inline-mask"])
    def test_non_integral_count_rejected(self, tmp_path, capsys, spec, value):
        # a count written as a float is accepted when it is whole, and refused, not truncated, when not
        code, text = run_cli(tmp_path, spec.replace("{}", f"{value}.9"), name="frac.yaml")
        assert code == 2 and text == ""
        assert "must be an integer, got " in capsys.readouterr().err
        code, text = run_cli(tmp_path, spec.replace("{}", "true"), name="bool.yaml")
        assert code == 2 and text == ""
        assert "must be a number, got True" in capsys.readouterr().err
        code, whole = run_cli(tmp_path, spec.replace("{}", f"{value}.0"), name="whole.yaml")
        expect, same = run_cli(tmp_path, spec.replace("{}", f"{value}"), name="int.yaml")
        assert code == expect == 0
        assert whole.split("\n", 1)[1] == same.split("\n", 1)[1]

    @pytest.mark.parametrize("spec, old, new", [
        (VERIFY_SPEC, "n_agents: 3", 'n_agents: "3"'),
        (VERIFY_SPEC, "seed: 0", "seed: '0'"),
        (PRODUCTION_SPEC, "n_agents: 2", 'n_agents: "2"'),
        (ENUM_SPEC, "c: 0.3", 'c: "0.3"'),
        (REGION_SPEC, "points: 20", 'points: "20"'),
    ], ids=["verify-n", "seed", "production-n", "cost", "grid-points"])
    def test_quoted_number_rejected(self, tmp_path, capsys, spec, old, new):
        assert old in spec
        code, text = run_cli(tmp_path, spec.replace(old, new))
        assert code == 2 and text == ""
        assert "must be a number, got '" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, hint", [
        ("c: 1.0", "c: 1e-9", "1.0e-09"),
        ("c: 1.0", "c: 1e-3", "0.001"),
        ("k: 0.25", "k: 25E-2", "0.25"),
        ("aggregation: sum", "aggregation: sum\n  grid_step: 5e-1", "0.5"),
        ("c: 1.0", 'c: "1e-3"', "0.001"),
        ("n_agents: 2", "n_agents: '2'", "2"),
    ], ids=["c-tiny", "c", "k", "grid-step", "c-quoted", "n-quoted"])
    def test_number_read_as_text_refused_with_a_hint(self, tmp_path, capsys, old, new, hint):
        # YAML 1.1 reads a float only with a point and a signed exponent, so PyYAML takes 1e-9 for
        # the text '1e-9'; the refusal names a way to write it that reads as the same number
        key, value = new.rsplit("\n  ", 1)[-1].split(": ")
        unquoted = value.strip("'\"")
        code, text = run_cli(tmp_path, PRODUCTION_SPEC.replace(old, new), name="text.yaml")
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (f"error: {key} must be a number, got '{unquoted}';"
                                           f" YAML reads it as text: write {hint} unquoted\n")
        assert yaml.safe_load(hint) == float(unquoted)
        code, _ = run_cli(tmp_path, PRODUCTION_SPEC.replace(old, new.replace(value, hint)), name="hint.yaml")
        assert code == 0

    @pytest.mark.parametrize("spec, old, new, message", [
        (REGION_SPEC, "kl: [0, 1, 2, 3, 4]", "kl: [0, 4.5]", "kl=4.5 outside [0, min(h2, h3)=4.0]"),
        (PRODUCTION_SPEC, "k: 0.25", "k: 0", "production cost k must be finite and positive"),
        (VERIFY_SPEC, "n_agents: 3", "n_agents: 5", "verification brute force supports 2..4 agents"),
    ], ids=["sweep-kl", "production-k", "verify-n"])
    def test_model_refusal_exits_2_with_its_message(self, tmp_path, capsys, spec, old, new, message):
        # the model's own ValueError reaches main, which prints it and exits 2, whatever raised it
        assert old in spec
        code, text = run_cli(tmp_path, spec.replace(old, new))
        assert (code, text, capsys.readouterr().err) == (2, "", f"error: {message}\n")

    def test_nan_cost_rejected(self, tmp_path):
        code, text = run_cli(tmp_path, ENUM_SPEC.replace("c: 0.3", "c: .nan"))
        assert code == 2 and text == ""

    def test_missing_file(self, tmp_path):
        assert main(["--spec", str(tmp_path / "nope.yaml")]) == 2

    def test_output_written_to_spec_path(self, tmp_path):
        spec = tmp_path / "exp.yaml"
        target = tmp_path / "named.csv"
        spec.write_text(ENUM_SPEC + f"output: {target}\n")
        assert main(["--spec", str(spec)]) == 0
        assert target.exists()

    @pytest.mark.parametrize("output, extra", [
        ("output: 7\n", []),
        ("output: true\n", []),
        ("", ["--out", "missing/out.csv"]),
    ], ids=["output-int", "output-bool", "out-missing-directory"])
    def test_output_errors_exit_2_without_a_traceback(self, tmp_path, output, extra):
        """An int or a bool would be opened as a file descriptor (7 is not open, true is stdout,
        which the run would close); a path under a missing directory cannot be created."""
        spec = tmp_path / "exp.yaml"
        spec.write_text(ENUM_SPEC + output)
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "infogame.cli", "--spec", str(spec)] + extra, cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: output must be a file path, got " if output else
                                      "error: cannot write output: ")
        assert len(proc.stderr.splitlines()) == 1


class TestGameSection:
    def test_benefit_parsing(self):
        assert cli._benefit({"name": "log1p", "base": "e"}) == LN
        assert cli._benefit({"name": "power", "alpha": 0.5}).name == "power"
        with pytest.raises(ValueError):
            cli._benefit({"name": "cubic"})

    def test_costs_parsing(self):
        assert cli._cost_model({"model": "homogeneous", "c": 0.5}).kind == "homogeneous"
        assert cli._cost_model({"model": "recipient", "c": [1, 2]}).values == (1.0, 2.0)
        assert cli._cost_model({"model": "matrix", "c": [[0, 1], [2, 0]]}).values == ((0.0, 1.0), (2.0, 0.0))
        with pytest.raises(ValueError):
            cli._cost_model({"model": "exotic", "c": 1})

    def test_vector_families(self):
        ev = cli._entropic_vector({"family": "pair_redundancy", "h": [5, 4, 4], "kl": 2})
        assert ev.joint_entropy == 11.0
        ev = cli._entropic_vector({"family": "independent", "h": [1, 1]})
        assert ev.joint_entropy == 2.0

    def test_inline_vector_validated(self):
        good = {"inline": {"n_agents": 2, "entries": [[1, 1.0], [2, 1.0], [3, 1.5]]}}
        assert cli._entropic_vector(good).joint_entropy == 1.5
        bad = {"inline": {"n_agents": 2, "entries": [[1, 1.0], [2, 1.0], [3, 3.0]]}}
        with pytest.raises(ValueError, match="rejected"):
            cli._entropic_vector(bad)

    def test_full_game_config(self):
        cfg = cli._game_config({"game": {
            "entropic_vector": {"family": "independent", "h": [1, 1]},
            "benefit": {"name": "log1p", "base": 2},
            "costs": {"model": "homogeneous", "c": 0.3},
        }})
        assert cfg.n_agents == 2
        with pytest.raises(ValueError, match="missing"):
            cli._game_config({"game": {"benefit": {"name": "linear"}}})

    def test_inline_spec_runs(self, tmp_path):
        code, text = run_cli(tmp_path, INLINE_SPEC)
        assert code == 0 and parse_csv(text)

    @pytest.mark.parametrize("spec, message", [
        (ENUM_SPEC.replace("c: 0.3", "c: [1]"), "c must be a finite number"),
        (ENUM_SPEC.replace("{model: homogeneous, c: 0.3}", "{model: recipient, c: 5}"),
         "recipient costs c must be a list"),
        (ENUM_SPEC.replace("h: [1, 1]", "h: 5"), "h must be a list"),
        (ENUM_SPEC.replace("{family: independent, h: [1, 1]}",
                           "{family: pair_redundancy, h: [5, 4, 4], kl: [1]}"), "kl must be a finite number"),
        (ENUM_SPEC.replace("{name: log1p, base: 2}", "{name: power, alpha: [1]}"),
         "alpha must be a finite number"),
        (INLINE_SPEC.replace("n_agents: 2", "n_agents: [2]"), "inline n_agents must be a finite number"),
        (ENUM_SPEC.replace("game:\n", "game:\n  n_agents: [3]\n"), "n_agents must be a finite number"),
        (INLINE_SPEC.replace("[3, 1.5]", "[7, 1.5]"), "subset mask 7 out of range"),
        (INLINE_SPEC.replace("[3, 1.5]", "[3, 1.5], [0, 1.5]"), "subset mask 0 out of range"),
        (INLINE_SPEC.replace("[3, 1.5]", "[3, 2.0], [3, 1.5]"), "duplicate record for mask 3"),
        (INLINE_SPEC.replace("[[1, 1.0],", "[1, [1, 1.0],"), "inline entries must be a list of"),
    ], ids=["homogeneous-c-list", "recipient-c-scalar", "family-h-scalar", "pair-redundancy-kl-list",
            "power-alpha-list", "inline-n-agents-list", "game-n-agents-list", "inline-mask-too-large",
            "inline-mask-zero", "inline-mask-duplicate", "inline-entry-scalar"])
    def test_bad_game_value_exits_2(self, tmp_path, capsys, spec, message):
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("name", ["none.txt", "."], ids=["missing", "directory"])
    def test_unreadable_vector_file_exits_2(self, tmp_path, capsys, name):
        spec = ENUM_SPEC.replace("{family: independent, h: [1, 1]}", f"{{file: {tmp_path / name}}}")
        code, text = run_cli(tmp_path, spec)
        assert code == 2 and text == ""
        assert capsys.readouterr().err.startswith("error: cannot read the entropic-vector file")


FEW_SWEEP_SPEC = PRODUCTION_SPEC.replace("command: production", "command: few-sweep") + "n_list: [2, 3, 5]\n"


def written(write) -> str:
    """What a writer returned by ``run_spec`` or a command puts in a text file."""
    out = io.StringIO()
    write(out)
    return out.getvalue()


@st.composite
def small_games(draw):
    """Games of 1 to 4 agents: pmf-realized or integer information, each benefit, and
    homogeneous or recipient costs, some of them zero."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        ev = from_joint_pmfs([random_joint_pmf(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)])[0]
    else:
        h = [float(x) for x in draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
        ev = draw(st.sampled_from([family_independent, family_max_correlated]))(h)
    f = draw(st.sampled_from([LN, BenefitFunction.linear(), BenefitFunction.power(0.5)]))
    cost = st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5])
    if draw(st.booleans()):
        return GameConfig(ev, f, CostModel.homogeneous(draw(cost)))
    return GameConfig(ev, f, CostModel.recipient(draw(st.lists(cost, min_size=n, max_size=n))))


class TestCsvWriter:
    """The array writer against the per-profile and per-cell formatters it replaced."""

    @pytest.mark.parametrize("spec", [ENUM_SPEC, GOLDEN_MATRIX_SPEC, GOLDEN_CHEAP_SPEC, GOLDEN_N6_SPEC, INLINE_SPEC,
                                      INTEGER_ENTROPY_SPEC],
                             ids=["n2", "n4-inline-matrix", "n5-cheap", "n6-cheap-pruned", "inline", "integer"])
    def test_report_matches_per_profile_oracle(self, spec):
        report = enumerate_nash(cli._game_config(yaml.safe_load(spec)))
        assert csv_of(report) == report_csv(report)

    @settings(max_examples=40, deadline=None)
    @given(small_games())
    def test_small_games_match_per_profile_oracle(self, cfg):
        report = enumerate_nash(cfg)
        assert csv_of(report) == report_csv(report)

    @pytest.mark.parametrize("n, agg, c", [(2, "sum", 0.2), (2, "max", 1.0), (3, "sum", 0.2), (3, "max", 0.2),
                                           (4, "sum", 0.2), (5, "max", 0.2)])
    def test_production_matches_per_cell_oracle(self, n, agg, c):
        spec = yaml.safe_load(PRODUCTION_SPEC.replace("n_agents: 2", f"n_agents: {n}")
                              .replace("aggregation: sum", f"aggregation: {agg}").replace("c: 1.0", f"c: {c}"))
        rows, prods = production.production_equilibria(cli._production_config(spec))
        want = csv_text(["links"] + [f"prod_{i}" for i in range(n)],
                        [(bitstring(r),) + tuple(p)
                         for r, p in zip(rows.tolist(), prods.tolist())])
        assert written(cli._run_production(spec)) == want

    @pytest.mark.parametrize("command", ["regions", "poa-sweep", "mil-sweep"])
    def test_sweeps_match_per_cell_oracle(self, command):
        spec = yaml.safe_load(REGION_SPEC.replace("command: regions", f"command: {command}"))
        rows = []
        for kl in [0.0, 1.0, 2.0, 3.0, 4.0]:
            for c in np.linspace(0.02, 1.4, 20).tolist():
                cfg = GameConfig(family_pair_redundancy(5.0, 4.0, 4.0, kl), LN, CostModel.homogeneous(c))
                region = analytic.classify_homogeneous(cfg.ev, LN, c)
                rows.append((c, kl, region.label, region.c_l, region.c_u, analytic.poa_predict(cfg).value,
                             analytic.mil_predict(cfg).value))
        want = csv_text(["c", "kl", "region", "c_l", "c_u", "poa_or_bound", "mil_or_bound"], rows)
        assert written(cli._run_sweep(spec)) == want

    def test_few_sweep_matches_per_cell_oracle(self):
        spec = yaml.safe_load(FEW_SWEEP_SPEC)
        points = production.few_sweep(cli._production_config(spec), [2, 3, 5])
        want = csv_text(["n", "agg", "c", "k", "h_bar", "producer_fraction", "total_information_bits"],
                        [(pt.n, pt.agg.value, pt.c, pt.k, pt.h_bar, pt.producer_fraction,
                          pt.total_information_bits) for pt in points])
        assert written(cli._run_few_sweep(spec)) == want

    @pytest.mark.parametrize("chunk", [1, 3, 10**9])
    @pytest.mark.parametrize("spec", [GOLDEN_CHEAP_SPEC, GOLDEN_PRODUCTION_N3_SUM_SPEC,
                                      GOLDEN_PRODUCTION_N5_MAX_SPEC, REGION_SPEC, FEW_SWEEP_SPEC],
                             ids=["enumerate", "production", "production-candidates", "regions", "few-sweep"])
    def test_chunk_size_does_not_move_a_byte(self, tmp_path, monkeypatch, spec, chunk):
        _, want = run_cli(tmp_path, spec, name="default.yaml")
        monkeypatch.setattr(csvtable, "CHUNK_ROWS", chunk)
        _, got = run_cli(tmp_path, spec, name="default.yaml")
        assert got == want and len(want.splitlines()) > 3

    @pytest.mark.parametrize("spec", [ENUM_SPEC, GOLDEN_MATRIX_SPEC, PRODUCTION_SPEC, REGION_SPEC, FEW_SWEEP_SPEC,
                                      VERIFY_SPEC],
                             ids=["enumerate", "matrix", "production", "regions", "few-sweep", "verify"])
    def test_stdout_and_out_file_hold_the_same_bytes(self, tmp_path, capsys, spec):
        code, text = run_cli(tmp_path, spec)
        assert main(["--spec", str(tmp_path / "exp.yaml")]) == code == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("spec, want", [
        (ENUM_SPEC.replace("c: 0.3", "c: .nan"), 2),
        (ENUM_SPEC.replace("[1, 1]", "[1, 1, 1, 1, 1, 1, 1]"), 3),
        (PRODUCTION_SPEC.replace("n_agents: 2", "n_agents: 6").replace("c: 1.0", "c: 0.2"), 3),
    ], ids=["spec-error", "enumerate-over-budget", "production-over-budget"])
    def test_a_failed_run_leaves_no_output_file(self, tmp_path, spec, want):
        (tmp_path / "exp.yaml").write_text(spec)
        out = tmp_path / "out.csv"
        assert main(["--spec", str(tmp_path / "exp.yaml"), "--out", str(out)]) == want
        assert not out.exists()

    def test_floats_keep_the_sign_of_zero(self):
        strings, codes = csvtable.floats([0.0, -0.0, 1.5, 0.0])
        assert strings[codes].tolist() == ["0.0", "-0.0", "1.5", "0.0"]

    def test_row_strings_put_bit_j_at_position_j(self):
        assert csvtable.row_strings(3).tolist() == ["000", "100", "010", "110", "001", "101", "011", "111"]
