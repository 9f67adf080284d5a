#!/usr/bin/env python3
"""End-to-end benchmark of the ``loopstable-verify`` CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 55 --trace 0

``--workload all`` runs every workload in turn.

Every invocation of the CLI is a fresh ``python -m loopstable.cli ...
--format json`` process with ``src`` on its path, so each one starts with
cold module caches, as a user's does.  The workloads are closed loops with
one client: one process at a time, each waiting for the previous one.  A
*round* is the workload's group of processes at one CLI seed; rounds at
CLI seeds drawn from ``--seed`` run until ``--seconds`` is used up, then
the first round is replayed to check that the reports are deterministic.
CPU time, wall time and peak RSS are read from outside each process with
``os.wait4``.  Timings are medians over the rounds.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
first round under the span recorder in ``spans.py`` and prints the
per-layer metrics.  No layer has a queue, lock or I/O wait (one thread,
no network, output only at exit), so per-layer waiting time is zero by
construction and is not reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only if every check passed every gate.  A full record of the run is
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

OK_STATUSES = {"PASS", "SEARCH-DERIVED", "NOT-FOUND"}
SETUP_REPEATS = 5
MIN_ROUNDS = 3
TRACED_COST = 2.5  # traced replay / untraced round, for planning only
# no new round starts after ROUNDS_STOP_S; a process still running at
# DEADLINE_S is killed and counts as failed, so a run ends within 180 s
ROUNDS_STOP_S = 100
DEADLINE_S = 170

CATALOG_IDS = (
    "subdi1-presentations", "mu-properties-1-4", "kappa-pq", "penta",
    "lambda-curvature-formula", "classifying-uniqueness",
    "splitting-independence", "tr2-homotopy", "tr4-homotopies",
    "pb-contraction", "cylinder-classifying", "star-unit",
    "star-lambda-identities", "triangle-boundary-signs", "appendix-m1n1",
)

# κ^{2,1} output size band of the exchange-m2q inputs, in coefficients
M2Q_BAND = (10_000, 20_000)


def m2q_inputs() -> List[Dict[str, Any]]:
    """Rows of ``m2q_seeds.json`` whose output size lies in the band."""
    with open(os.path.join(HERE, "m2q_seeds.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["seeds"]
    return [r for r in rows if r["out_coeffs"] is not None
            and M2Q_BAND[0] <= r["out_coeffs"] <= M2Q_BAND[1]]


@dataclass(frozen=True)
class Workload:
    name: str
    processes: Tuple[Tuple[str, ...], ...]  # CLI flags, without --seed
    check_ids: Tuple[str, ...]
    # tabulated inputs to draw CLI seeds from; None draws any seed
    inputs: Optional[Callable[[], List[Dict[str, Any]]]] = None

    def draw_seeds(self, seed: int) -> List[int]:
        """CLI seeds of the rounds, in order; the same seed gives the same
        list."""
        rng = random.Random(f"loopstable/{self.name}/{seed}")
        if self.inputs is not None:
            pool = [r["cli_seed"] for r in self.inputs()]
            rng.shuffle(pool)
            return pool
        return [rng.randrange(1_000_000) for _ in range(200)]


# --jobs is left out of every workload on purpose: whether the flag stays
# is open (a thread pool under the GIL is slower than one thread).  A
# third workload, the five certificate checks on dual, was dropped: with
# three, runs had to stay at 40 s to fit the time budget, and at 40 s its
# spread across seeds reached 0.29 from host-speed swings alone.
WORKLOADS = {
    "catalog": Workload(
        "catalog",
        tuple(("--check", "all", "--algebra", f"builtin:{a}", "--samples", "1")
              for a in ("q", "dual", "sq0")),
        CATALOG_IDS,
    ),
    "exchange-m2q": Workload(
        "exchange-m2q",
        (("--check", "kappa-pq", "--algebra", "builtin:m2q", "--samples", "1"),),
        ("kappa-pq",),
        m2q_inputs,
    ),
}

END_TO_END = {
    "cpu_s": "s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "slowest_check_s": "s",
}


# -- one CLI process -----------------------------------------------------


@dataclass
class Proc:
    flags: List[str]
    exit_code: int
    cpu_s: float
    wall_s: float
    rss_mb: float
    report: Optional[Dict[str, Any]]
    stderr: str
    trace: Optional[Dict[str, Any]] = None


def run_process(flags: List[str], deadline: float,
                trace_path: Optional[str] = None) -> Proc:
    """Run one CLI process; kill it at ``deadline`` (a perf_counter time)."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "loopstable.cli", *flags]
    else:
        cmd = [sys.executable, os.path.join(HERE, "spans.py"),
               "--out", trace_path, "--", *flags]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    trace = None
    if trace_path is not None and os.path.exists(trace_path):
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        os.unlink(trace_path)
    return Proc(flags, proc.returncode,
                ru.ru_utime + ru.ru_stime, wall, ru.ru_maxrss / 1024.0,
                report, stderr[-2000:], trace)


# -- rounds and gates ------------------------------------------------------


@dataclass
class Round:
    cli_seed: int
    procs: List[Proc]

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_mb for p in self.procs)

    def check_seconds(self) -> Dict[Tuple[int, str], float]:
        """Per-check ``seconds`` from the JSON reports, keyed by process
        index and check id."""
        return {(i, r["check"]): r.get("seconds", 0.0)
                for i, p in enumerate(self.procs)
                for r in (p.report or {}).get("results", [])}


def check_medians(rounds: List[Round]) -> Dict[Tuple[int, str], float]:
    """Median over the rounds of each check's seconds in each process."""
    secs = [r.check_seconds() for r in rounds]
    keys = {k for s in secs for k in s}
    return {k: statistics.median(s.get(k, 0.0) for s in secs) for k in keys}


def run_round(wl: Workload, cli_seed: int, deadline: float,
              traced: bool = False) -> Round:
    procs = []
    for i, flags in enumerate(wl.processes):
        path = os.path.join(OUT, f"trace-{os.getpid()}-{i}.json") if traced else None
        procs.append(run_process([*flags, "--seed", str(cli_seed),
                                  "--format", "json"], deadline, path))
    return Round(cli_seed, procs)


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(why)


def check_round(gate: Gate, wl: Workload, rnd: Round) -> None:
    """Every process exits 0 with parseable JSON that lists every
    requested check with an accepted status."""
    for p in rnd.procs:
        gate.attempted += len(wl.check_ids)
        where = f"seed {rnd.cli_seed} {' '.join(p.flags)}"
        if p.exit_code != 0 or p.report is None:
            gate.fail(len(wl.check_ids),
                      f"{where}: exit {p.exit_code}, stderr: {p.stderr.strip()[-300:]}")
            continue
        statuses = {r.get("check"): r.get("status")
                    for r in p.report.get("results", [])}
        for cid in wl.check_ids:
            if statuses.get(cid) not in OK_STATUSES:
                gate.fail(1, f"{where}: {cid} is {statuses.get(cid, 'missing')}")


def timing_free(report: Dict[str, Any]) -> Dict[str, str]:
    """The report without its timing fields, per check, as canonical JSON
    (the content of ``Report.to_json(include_timing=False)``)."""
    out = {"": json.dumps({k: v for k, v in report.items() if k != "results"},
                          indent=2, sort_keys=True)}
    for r in report.get("results", []):
        r = {k: v for k, v in r.items() if k != "seconds"}
        out[r.get("check", "")] = json.dumps(r, indent=2, sort_keys=True)
    return out


def check_replay(gate: Gate, wl: Workload, first: Round, replay: Round) -> None:
    """Same CLI seed, byte-identical timing-free reports."""
    for a, b in zip(first.procs, replay.procs):
        if a.report is None or b.report is None:
            continue  # already counted by check_round
        ta, tb = timing_free(a.report), timing_free(b.report)
        bad = sorted(k for k in set(ta) | set(tb) if ta.get(k) != tb.get(k))
        if bad:
            gate.fail(max(1, len([k for k in bad if k])),
                      f"seed {first.cli_seed} {' '.join(a.flags)}: report "
                      f"differs on replay in {bad}")


def setup_wall_s(wl: Workload, gate: Gate, deadline: float) -> float:
    """Wall time of the workload's processes at ``--samples 0``:
    interpreter start-up, imports, argument parsing, algebra loading."""
    total = 0.0
    for flags in wl.processes:
        flags = list(flags)
        flags[flags.index("--samples") + 1] = "0"
        p = run_process([*flags, "--format", "json"], deadline)
        gate.attempted += 1
        if p.exit_code != 0 or p.report is None:
            gate.fail(1, f"setup {' '.join(flags)}: exit {p.exit_code}")
        total += p.wall_s
    return total


def host_drift_ms(reps: int = 3) -> float:
    """Median time of a fixed pure-Python Fraction multiply-add loop.
    A diagnostic for host speed beside each run, not a gated metric."""
    times = []
    for _ in range(reps):
        t0 = time.process_time()
        a, b, acc = Fraction(1, 3), Fraction(2, 7), Fraction(0)
        for i in range(4000):
            acc = acc * a + b
            if i % 50 == 0:
                acc = Fraction(acc.numerator % 1009, acc.denominator % 1013 + 1)
        times.append((time.process_time() - t0) * 1000.0)
    return statistics.median(times)


# -- per-layer metrics from the traced round ---------------------------------

PER_LAYER_NAMES = {
    # metric: (span name in the trace, field)
    "tensorj.word_image.calls": ("tensorj.word_image", "calls"),
    "tensorj.word_image.self_s": ("tensorj.word_image", "self_s"),
    "poly.cp_mul.calls": ("poly.cp_mul", "calls"),
    "poly.cp_subst.calls": ("poly.cp_subst", "calls"),
    "algebras.mul.calls": ("algebras.mul", "calls"),
    "funalg.mu.calls": ("funalg.mu", "calls"),
    "funalg.mu.self_s": ("funalg.mu", "self_s"),
    "funalg.mul.calls": ("funalg.mul", "calls"),
    "extensions.verify.calls": ("extensions.verify", "calls"),
    "extensions.verify.self_s": ("extensions.verify", "self_s"),
    "extensions.search.calls": ("extensions.search_homotopy", "calls"),
    "simplicial.subdivide.calls": ("simplicial.subdivide", "calls"),
    "kkcat.star.calls": ("kkcat.star", "calls"),
}
LAYERS = ("verifier", "kkcat", "extensions", "tensorj", "funalg",
          "simplicial", "poly", "algebras")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(rounds: List[Round],
                      traced: Round) -> Dict[str, Tuple[float, str]]:
    """Per-check medians of the untraced rounds, and the counters and self
    times of ``traced``, the traced replay of the first round."""
    m: Dict[str, Tuple[float, str]] = {}
    med = check_medians(rounds)
    for cid in CATALOG_IDS:
        m[f"verifier.{cid}.s"] = (
            sum(v for (_, c), v in med.items() if c == cid), "s")
    traces = [p.trace for p in traced.procs if p.trace]

    def total(key: str) -> float:
        return sum(t[key] for t in traces)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(t["layers_self_s"].get(layer, 0.0) for t in traces), "s")
    for metric, (name, fld) in PER_LAYER_NAMES.items():
        val = sum(t["names"].get(name, {}).get(fld, 0) for t in traces)
        m[metric] = (val, "s" if fld == "self_s" else "count")
    m["tensorj.kappa.out_coeffs_max"] = (
        max((t["kappa_out_coeffs_max"] for t in traces), default=0), "count")
    m["sample.in_coeffs_max"] = (
        max((t["input_coeffs_max"] for t in traces), default=0), "count")
    m["coeff.fraction_ratio"] = (
        _ratio(total("coeff_fractions"),
               total("coeff_fractions") + total("coeff_ints")), "ratio")
    m["funalg.function_algebra.reuse_ratio"] = (
        _ratio(total("function_algebra_reused"),
               total("function_algebra_calls")), "ratio")
    m["extensions.build.self_s"] = (total("extensions_build_self_s"), "s")
    m["extensions.search.found_ratio"] = (
        _ratio(total("search_found"), total("search_calls")), "ratio")
    m["trace.cpu_s"] = (traced.cpu_s, "s")
    m["trace.overhead_ratio"] = (_ratio(traced.cpu_s, rounds[0].cpu_s),
                                 "ratio")
    return m


# -- main ----------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"],
                    help="'all' runs every workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "loopstable", "cli.py")):
        print(f"error: no loopstable sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(WORKLOADS[n], args) for n in names]
    return max(codes)


def run_workload(wl: Workload, args: argparse.Namespace) -> int:
    """Measure one workload; print its metrics and, as the last line, the
    result object.  Returns the exit code."""
    gate = Gate()
    seeds = wl.draw_seeds(args.seed)
    reserve = 1.0 if args.trace == 0 else TRACED_COST
    # On a shared host, speed can drift by tens of percent over tens of
    # seconds, so set-up and the drift loop are sampled beside every round
    # rather than once before them.
    rounds: List[Round] = []
    setup_walls: List[float] = []
    drift: List[float] = []
    t0 = time.perf_counter()
    deadline = t0 + DEADLINE_S
    for cli_seed in seeds:
        if args.trace == 0:
            setup_walls.append(setup_wall_s(wl, gate, deadline))
        rnd = run_round(wl, cli_seed, deadline)
        check_round(gate, wl, rnd)
        rounds.append(rnd)
        drift.append(host_drift_ms())
        elapsed = time.perf_counter() - t0
        period = elapsed / len(rounds)
        typical = statistics.median(r.wall_s for r in rounds)
        if elapsed > ROUNDS_STOP_S or (
                len(rounds) >= MIN_ROUNDS
                and elapsed + period + typical * reserve > args.seconds):
            break
    while args.trace == 0 and len(setup_walls) < SETUP_REPEATS:
        setup_walls.append(setup_wall_s(wl, gate, deadline))
    replay = run_round(wl, rounds[0].cli_seed, deadline,
                       traced=args.trace == 1)
    check_round(gate, wl, replay)
    check_replay(gate, wl, rounds[0], replay)
    measured_s = time.perf_counter() - t0

    if args.trace == 0:
        metrics = {
            "cpu_s": statistics.median(r.cpu_s for r in rounds),
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
            "slowest_check_s": max(check_medians(rounds).values()),
        }
        out = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        layer = per_layer_metrics(rounds, replay)
        self_sum = sum(layer[f"{l}.self_s"][0] for l in LAYERS)
        if self_sum > replay.cpu_s:
            gate.fail(1, f"layer self times sum to {self_sum:.3f} s, more "
                      f"than the traced CPU time {replay.cpu_s:.3f} s")
        out = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds + 1 replay in {measured_s:.1f} s, "
          f"CLI seeds {[r.cli_seed for r in rounds]}")
    for k, v in out.items():
        print(f"  {k:40s} {v['value']:14.6g} {v['unit']}")
    print(f"  {'failed_ratio':40s} {_ratio(gate.failed, gate.attempted):14.6g} "
          f"({gate.failed} of {gate.attempted} checks)")
    print(f"  {'host_drift_ms (not gated)':40s} "
          f"{statistics.median(drift):14.6g} ms (median; range "
          f"{min(drift):.2f}-{max(drift):.2f})")
    for why in gate.problems:
        print(f"  FAILED: {why}")

    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s,
        "host_drift_ms": drift, "metrics": out, "problems": gate.problems,
        "rounds": [{"cli_seed": r.cli_seed, "cpu_s": r.cpu_s,
                    "wall_s": r.wall_s, "peak_rss_mb": r.peak_rss_mb,
                    "check_seconds": {f"{i}:{c}": v for (i, c), v
                                      in r.check_seconds().items()}}
                   for r in rounds],
    }
    if wl.inputs is not None:
        sizes = {r["cli_seed"]: r for r in wl.inputs()}
        record["inputs"] = [sizes[r.cli_seed] for r in rounds]
    if args.trace == 1:
        record["spans"] = [p.trace["spans"] if p.trace else None
                           for p in replay.procs]
        record["trace_names"] = [p.trace["names"] if p.trace else None
                                 for p in replay.procs]
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    correct = gate.failed == 0
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
