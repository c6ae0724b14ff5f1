"""Benchmark entry point: run one workload against the infogame CLI.

    python3 bench/run.py --workload nash-scan --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` each operation of the workload runs as a fresh
``python -m infogame.cli`` process, one at a time, in whole passes until
``--seconds`` have elapsed; the end-to-end metrics come from these passes.
With ``--trace 1`` the same operations run in this process, once plain and
once with every public function of the package wrapped in a span, and the
per-layer metrics come from the spans.

Every output is checked against the reference in ``oracle.py``. A short
report goes to stdout and the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Generated specs, outputs
and span dumps are written under ``bench/out/<workload>/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7

sys.path.insert(0, str(BENCH))


@dataclass
class Result:
    op: "workloads.Op"
    code: int
    text: str
    wall_s: float
    rss_mb: float
    problem: str | None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


class Launcher:
    """The helper process that starts every CLI child (see launcher.py)."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> tuple[int, float, float]:
        """Run a child to completion; (exit code, wall seconds, peak RSS in MB)."""
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        if reply["code"] not in (0, 1, 2, 3):
            print(f"child {argv[1:]} exited {reply['code']}: {reply['stderr']}", file=sys.stderr)
        return reply["code"], reply["wall_s"], reply["rss_mb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def measure_setup(launcher: Launcher) -> list[float]:
    """Wall time of a fresh interpreter importing infogame.cli, after one warm-up."""
    argv = [sys.executable, "-c", "import infogame.cli"]
    launcher.run(argv)
    times = []
    for _ in range(SETUP_SAMPLES):
        code, wall, _ = launcher.run(argv)
        if code != 0:
            raise RuntimeError("importing infogame.cli failed")
        times.append(wall)
    return times


def run_cli(launcher: Launcher, op, spec_path: Path, out_path: Path) -> Result:
    out_path.unlink(missing_ok=True)
    code, wall, rss = launcher.run([sys.executable, "-m", "infogame.cli",
                                    "--spec", str(spec_path), "--out", str(out_path)])
    text = out_path.read_text() if out_path.exists() else ""
    return Result(op, code, text, wall, rss, op.check(text, code))


def run_inprocess(cli, op, spec_path: Path, out_path: Path) -> Result:
    out_path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code, problem = cli.main(["--spec", str(spec_path), "--out", str(out_path)]), None
    except Exception as e:  # an uncaught error is a wrong answer, not a crash of the benchmark
        code, problem = -1, f"uncaught {type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    text = out_path.read_text() if out_path.exists() else ""
    return Result(op, code, text, wall, 0.0, problem or op.check(text, code))


class Tally:
    """Attempted/failed operations and whether every non-fault output was right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def add(self, r: Result) -> None:
        self.attempted += 1
        if r.problem is None:
            return
        self.failed += 1
        if r.op.fault is None:
            self.correct = False
            self.notes.append(f"WRONG {r.op.name}: {r.problem}")
        elif len(self.notes) < 50:
            self.notes.append(f"known fault {r.op.name}: {r.problem}")

    def same_bytes(self, a: Result, b: Result) -> None:
        if a.digest != b.digest:
            self.correct = False
            self.notes.append(f"NONDETERMINISTIC {a.op.name}: {a.digest[:16]} vs {b.digest[:16]}")


def _report(results: list[Result], label: str) -> None:
    for r in results:
        status = "ok" if r.problem is None else ("FAULT" if r.op.fault else "WRONG")
        print(f"{label} {r.op.name:44s} {r.wall_s:8.3f} s {r.rss_mb:6.1f} MB "
              f"exit={r.code} sha256={r.digest[:16]} {status}")


def untraced(launcher: Launcher, ops, paths, seed: int, seconds: float, tally: Tally) -> dict:
    setup = measure_setup(launcher)
    pass_times, rss = [], 0.0
    first: list[Result] = []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start < seconds:
        results = [run_cli(launcher, op, *paths[op.name]) for op in ops]
        for r in results:
            tally.add(r)
        if first:
            for a, b in zip(first, results):
                tally.same_bytes(a, b)
        else:
            first = results
        _report(results, f"pass{len(pass_times) + 1}")
        pass_times.append(sum(r.wall_s for r in results))
        rss = max(rss, max(r.rss_mb for r in results))
    # determinism: one operation, chosen by the seed, runs once more
    again = first[seed % len(ops)]
    repeat = run_cli(launcher, again.op, *paths[again.op.name])
    tally.same_bytes(again, repeat)
    print(f"determinism {again.op.name}: {'identical' if repeat.digest == again.digest else 'DIFFERENT'}")
    print(f"passes={len(pass_times)} pass_s={[round(t, 3) for t in pass_times]} "
          f"setup_s={[round(t, 4) for t in setup]}")
    return {
        "run_s": {"value": statistics.median(pass_times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def traced(ops, paths, out_dir: Path, tally: Tally) -> dict:
    import tracer

    sys.path.insert(0, str(SRC))
    from infogame import cli

    plain = [run_inprocess(cli, op, *paths[op.name]) for op in ops]
    _report(plain, "plain ")
    spans = tracer.Tracer()
    wrapped = []
    with spans.installed():
        for op in ops:
            spans.begin_op(op.name)
            wrapped.append(run_inprocess(cli, op, *paths[op.name]))
    _report(wrapped, "traced")
    for a, b in zip(plain, wrapped):
        tally.add(a)
        tally.add(b)
        tally.same_bytes(a, b)
    spans.dump(out_dir / "spans.npz")
    metrics = tracer.layer_metrics(spans, SRC / "infogame")
    traced_s = sum(r.wall_s for r in wrapped)
    metrics["trace.overhead_s"] = traced_s - sum(r.wall_s for r in plain)
    metrics["cli.output_bytes"] = float(sum(len(r.text.encode()) for r in wrapped))
    print(f"spans={len(spans)} traced_s={traced_s:.3f} written to {out_dir / 'spans.npz'}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _ in tracer.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' for every "
                        "workload untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "infogame" / "cli.py").is_file():
        print(f"error: no infogame sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # started while this process is still small; see launcher.py
    launcher = None if args.trace else Launcher()
    try:
        return _run(args, launcher)
    finally:
        if launcher is not None:
            launcher.close()


def _run(args, launcher: Launcher | None) -> int:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    out_dir = BENCH / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    paths = {}
    for t, op in enumerate(ops):
        spec_path = out_dir / f"{t:02d}-{op.name}.yaml"
        spec_path.write_bytes(op.spec_bytes())
        paths[op.name] = (spec_path, out_dir / f"{t:02d}-{op.name}.out")

    tally = Tally()
    if args.trace:
        metrics = traced(ops, paths, out_dir, tally)
    else:
        metrics = untraced(launcher, ops, paths, args.seed, args.seconds, tally)
    for note in tally.notes:
        print(note)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _run_all(args) -> int:
    """Every workload, untraced then traced, each run in its own process; a summary last."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            print(child.stdout, end="", flush=True)
            if child.returncode != 0:
                return child.returncode
            result = json.loads(child.stdout.splitlines()[-1])
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                total["metrics"][f"{workload}/{name}"] = metric
            summary.append(f"{workload} trace={trace} correct={result['correct']} "
                           f"attempted={result['attempted']} failed={result['failed']}")
            summary += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    print("\n".join(summary))
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
