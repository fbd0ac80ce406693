"""commprob benchmark: the CLI run as users run it, one fresh interpreter per
run, with every run's stdout checked.

    python3 perfbench/run.py --workload catalog|s6 --seed N \\
        --seconds S --trace 0|1

Fresh processes are required: ``structure._SSOLV_MEMO`` and
``theorems._reference`` are process-global memos, so repeating a command
inside one interpreter would time a warm program that no user runs.  The
checkout's ``src/`` is put on the import path, so each checkout measures its
own code.

Workloads, and why each was chosen:

- ``catalog``: ``verify --all --format json`` over the 32 catalog groups,
  the north-star output.  The only workload that leans on ``constructors``,
  the cross-group supersolvability memo and its isomorphism tests, and the
  isoclinism layer.  The seed does not apply.
- ``s6``: ``analyze`` on S6 (order 720) from a file.  One large group with
  three normal subgroups: conjugacy classes dominate and the working set is
  the largest, so changes to the kernel or the table layout show here.
  ``catalog`` builds its groups by name and ``s6`` parses a file, so the
  two also split set-up work between ``constructors`` and ``cli``/``perm``.

Left out: ``analyze`` on the order-375 group is about 95% of ``catalog``, so
it adds no separate signal; the isoclinism pair does about 10 ms of work,
below interpreter start-up.  ``verify`` on C2^5 (order 32, 374 normal
subgroups) is unsteady on a shared machine: one run took 32-61 s, so a run
of the benchmark holds a single sample, and over five seeds the spread
(IQR/median) of its wall time was 26%.  C2^4 (0.5 s) was tried in its place;
the machine's speed drifts over minutes, and its spread reached 32% in runs
of 30 s.  Its layers (the normal-subgroup lattice, complements, many small
quotients) are the largest in ``catalog`` too, so the time went into longer
runs of the other two instead.

The seed relabels the points of the ``s6`` generators with a seeded
permutation and shuffles the generator order: the group stays isomorphic
but its canonical element order changes.  Seed 0 is the identity
relabeling.  At seed 0 (and for ``catalog`` always) stdout must match a
SHA-256 taken from the program as it was when this benchmark was written;
at every seed the fields no relabeling can change must match.

``--trace 0`` reports the end-to-end metrics: the medians of ``wall_s`` and
``peak_rss_mb`` over the CLI runs made in ``--seconds`` (at least one), the
median ``setup_s`` of fresh set-up processes spread between those runs, and
``pass_ratio``.  ``--trace 1`` makes the same untraced runs as a reference,
then two runs of ``perfbench/traced.py`` for per-layer self times and
counts; the counts of the two must agree exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
WORK = ".perfbench_work"  # generated inputs and captured output, under ROOT
SETUP_PER_RUN = 3  # set-up probes before each CLI run
SETUP_MIN = 9  # set-up probes per invocation, at least
ENTRY = "import sys; from commprob.cli import main; sys.exit(main())"

S6_GENS = ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5))  # a 6-cycle and a transposition

# SHA-256 of the seed-0 stdout, taken from the program as it was when this
# benchmark was written.  The ROADMAP fixes outputs, so a mismatch is a
# defect in the program, not in this table.
SEED0_SHA256 = {
    "catalog": "aea612bbe96f71fa48e646a27ca317b54ccbffa15140b33f52957ac558349665",
    "s6": "b001ac90d142f6e3e4b3fe3728ce8bf9dd623a486f875801056b47994cad9d1d",
}

CATALOG_SUMMARY = {
    "groups": 32,
    "verdicts": 923,
    "applicable": 729,
    "vacuous": 118,
    "precondition_skips": 76,
    "failures": 0,
}
CATALOG_ORDERS = (
    "1 2 3 4 4 5 6 6 7 8 8 8 8 8 9 9 10 10 12 12 12 12 15 21 24 24 24 25 56 60 75 375"
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
DETERMINISTIC_SUFFIXES = (".calls", ".count", ".size", ".built", ".found")


def relabel(gens, seed: int) -> list[tuple[int, ...]]:
    """Conjugate the generators by a seeded point permutation and shuffle
    their order; seed 0 returns them unchanged."""
    if seed == 0:
        return [tuple(g) for g in gens]
    rng = random.Random(seed)
    n = len(gens[0])
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = []
    for g in gens:
        h = [0] * n
        for i in range(n):
            h[sigma[i]] = sigma[g[i]]
        out.append(tuple(h))
    rng.shuffle(out)
    return out


def write_group_file(path: Path, gens) -> None:
    lines = [str(len(gens[0]))] + [" ".join(map(str, g)) for g in gens]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_line(stdout: str) -> dict:
    return json.loads(stdout.rstrip("\n").rsplit("\n", 1)[-1])["summary"]


def check_catalog(stdout: str) -> bool:
    summary = summary_line(stdout)
    return all(summary[k] == v for k, v in CATALOG_SUMMARY.items())


def check_s6(stdout: str) -> bool:
    report = json.loads(stdout)
    return (report["order"], report["class_count"], report["d"]) == (720, 11, "11/720")


@dataclass(frozen=True)
class Workload:
    name: str
    gens: tuple | None  # None: the catalog, built by name
    cli_args: tuple[str, ...]
    check: Callable[[str], bool]  # fields of stdout that no seed can change
    probe_orders: str  # stdout of a correct set-up probe


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalog",
            None,
            ("verify", "--all", "--format", "json"),
            check_catalog,
            CATALOG_ORDERS,
        ),
        Workload("s6", S6_GENS, ("analyze", f"{WORK}/s6.grp"), check_s6, "720"),
    )
}


class Runner:
    """Runs child processes from ROOT with the checkout's src/ importable,
    checks every CLI run's output and tallies runs attempted and failed."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = ROOT / WORK
        # Children get Python's defaults for bytecode caching and stdout
        # buffering, as an installed CLI has, whatever the caller's setting.
        self.env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")
        }
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def spawn(self, argv: list[str]) -> tuple[float, float, int, str]:
        """Run one child to exit; return (wall s, peak RSS MB, exit code, stdout).

        Peak RSS comes from the child's own rusage (wait4), not from
        RUSAGE_CHILDREN, which is the maximum over every child reaped so far.
        """
        out_path = self.work / "stdout.txt"
        with open(out_path, "wb") as out, open(self.work / "stderr.txt", "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout

    def probe(self) -> float:
        """One set-up process; returns its wall time."""
        w = self.workload
        source = "catalog" if w.gens is None else f"{WORK}/{w.name}.grp"
        wall, _, code, stdout = self.spawn([sys.executable, "perfbench/probe.py", source])
        if code != 0 or stdout.strip() != w.probe_orders:
            raise SystemExit(f"set-up probe failed (exit {code}): {stdout.strip()!r}")
        return wall

    def output_ok(self, code: int, stdout: str) -> bool:
        w = self.workload
        if code != 0:
            return False
        if (w.gens is None or self.seed == 0) and (
            hashlib.sha256(stdout.encode("utf-8")).hexdigest() != SEED0_SHA256[w.name]
        ):
            return False
        try:
            return w.check(stdout)
        except (ValueError, KeyError, TypeError):
            return False

    def cli(self, trace_to: str | None = None) -> tuple[float, float]:
        """One CLI run, traced when ``trace_to`` names a file for the trace;
        returns (wall s, peak RSS MB) and tallies the output check."""
        if trace_to is None:
            argv = [sys.executable, "-c", ENTRY]
        else:
            argv = [sys.executable, "perfbench/traced.py", trace_to]
        wall, rss, code, stdout = self.spawn(argv + list(self.workload.cli_args))
        self.attempted += 1
        if not self.output_ok(code, stdout):
            self.failed += 1
            self.correct = False
            print(f"run {self.attempted}: wrong output or exit code {code}", file=sys.stderr)
        return wall, rss

    def timed_runs(self, seconds: float) -> tuple[list[float], list[float], list[float]]:
        """CLI runs, each after SETUP_PER_RUN set-up probes, until ``seconds``
        have passed (at least one run), so that the set-up and CLI medians
        sample the machine over the same stretch of time.  Returns CLI walls,
        CLI peak RSS and set-up walls."""
        walls: list[float] = []
        rss: list[float] = []
        setup: list[float] = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            setup += [self.probe() for _ in range(SETUP_PER_RUN)]
            wall, peak = self.cli()
            walls.append(wall)
            rss.append(peak)
        while len(setup) < SETUP_MIN:
            setup.append(self.probe())
        return walls, rss, setup


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, float], dict[str, str]]:
    walls, rss, setup = runner.timed_runs(seconds)
    print(f"# {len(walls)} CLI runs, {len(setup)} set-up runs", file=sys.stderr)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "pass_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    return metrics, END_TO_END_UNITS


def per_layer(runner: Runner, seconds: float) -> tuple[dict[str, float], dict[str, str]]:
    untraced, _, _ = runner.timed_runs(seconds)
    traces = []
    for k in (1, 2):
        path = f"{WORK}/trace{k}.json"
        (ROOT / path).unlink(missing_ok=True)  # never read a trace left by an earlier run
        wall, _ = runner.cli(trace_to=path)
        traces.append((wall, json.loads((ROOT / path).read_text(encoding="utf-8"))))
    (wall, metrics), (_, again) = traces
    for name, value in metrics.items():
        if name.endswith(DETERMINISTIC_SUFFIXES) and again[name] != value:
            runner.correct = False
            print(f"traced runs disagree on {name}: {value} vs {again[name]}", file=sys.stderr)
    metrics["trace.overhead_s"] = wall - statistics.median(untraced)
    metrics["src.lines"] = src_lines()
    units = {
        name: "lines" if name == "src.lines" else "s" if name.endswith("_s") else "count"
        for name in metrics
    }
    return metrics, units


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "commprob" / "cli.py").is_file():
        print(f"error: no commprob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed)
    runner.work.mkdir(exist_ok=True)
    if workload.gens is not None:
        write_group_file(runner.work / f"{workload.name}.grp", relabel(workload.gens, args.seed))
    runner.probe()  # untimed warm-up: byte-compiles src/ before any sample

    measure = per_layer if args.trace else end_to_end
    metrics, units = measure(runner, args.seconds)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value} {units[name]}")
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
