"""Benchmark of the lucbat CLI, end to end and per layer.

    python3 perfbench/run.py --workload score-jsonl --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the root of a checkout.  Inputs are generated from ``--seed``
into ``.bench_work/``; lucbat is the checkout's ``src/lucbat``.

``--trace 0`` times the CLI as child processes, one at a time, so
interpreter start and imports count.  A pass is one run of the workload's
CLI calls; passes repeat for ``--seconds`` after one warm-up pass, and every
pass's outputs are checked against the generator's plan.  Each pass is
followed by one run of a fixed reference child (REFERENCE: interpreter
start, ``import numpy`` and pure-Python work, no lucbat) and one
``python -m lucbat --version``.  The speed of a shared host drifts by tens
of percent over minutes, and the reference drifts with it, so pass time is
reported in units of the reference's time (``ref``): ``wall_rel`` is the
median over passes of pass wall / reference wall, and ``items_per_ref``
the work items per ``ref``.  Also reported: the median set-up time of
``python -m lucbat --version`` in seconds and the largest child max-RSS of
a pass (median over passes).  The raw wall times are printed above the
result line.

``--trace 1`` runs the traced in-process replay of layers.py and reports
the per-layer metrics; spans go to ``.bench_work/``.

The last line of stdout is one JSON object: ``correct`` is true when every
output matched its oracle or, for a planted defect probe, the known wrong
answer; ``attempted`` counts passes, reference runs and set-up calls (or
in-process replays), ``failed`` those with an output the oracle cannot
explain.  ``error_rate``, printed above it and reported with ``--trace 1``,
counts wrong outputs by cause, probes included.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import gen, layers, oracle, proc  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402

WORKLOADS = tuple(gen.GENERATORS)
WORK = proc.ROOT / ".bench_work"
MIN_PASSES = 3
MIN_SETUPS = 7
ITEM_NAMES = {"score-jsonl": "quatrains", "filter": "quatrains",
              "creativity": "verses", "losscheck": "fd_evals"}
END_TO_END = {"wall_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB", "items_per_ref": "1/ref"}
# The reference child: fixed work that shares nothing with lucbat.
REFERENCE = (
    "import numpy\n"
    "d = {}\n"
    "for i in range(150_000):\n"
    "    s = str(i * 7919)\n"
    "    d[s[::-1]] = len(s)\n"
    "print(len(d), sum(d.values()))\n"
)
REFERENCE_OUT = "150000 1359685"


def machine(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": version("numpy"), "scipy": version("scipy"), "seed": seed}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_pass(plan: dict, workdir: Path) -> tuple[float, int, oracle.Check]:
    """One pass over the plan's CLI calls: (wall seconds, max RSS in KiB, check)."""
    for name in oracle.output_files(plan):
        (workdir / name).unlink(missing_ok=True)
    children = [proc.lucbat(argv, workdir) for argv in plan["argv"]]
    check = oracle.check_pass(plan, workdir, [(c.status, c.stdout) for c in children])
    return (sum(c.wall_s for c in children), max(c.max_rss_kb for c in children), check)


def setup_time(workdir: Path, check: oracle.Check) -> float:
    child = proc.lucbat(["--version"], workdir)
    check.checked += 1
    if child.status != 0 or not child.stdout.startswith("lucbat "):
        check.wrong("version", f"status {child.status}")
    return child.wall_s


def reference_time(workdir: Path, check: oracle.Check) -> float:
    child = proc.run(["-c", REFERENCE], workdir)
    check.checked += 1
    if child.status != 0 or child.stdout.strip() != REFERENCE_OUT:
        check.wrong("reference", f"status {child.status}")
    return child.wall_s


def end_to_end(plan: dict, workdir: Path, seconds: float) -> dict:
    """Alternate timed passes, reference runs and set-up samples for about ``seconds``.

    The first ``--version`` child and the first pass are a warm-up: they
    byte-compile every module, as an installed package would be, and fill
    the page cache; the warm-up pass is checked but not timed.  No pass
    starts that would likely end after ``seconds``, except the first
    MIN_PASSES.
    """
    setup_check = oracle.Check()
    check = oracle.Check()
    setup_time(workdir, setup_check)
    reference_time(workdir, setup_check)
    _, _, result = run_pass(plan, workdir)
    check.merge(result)
    failed = int(result.unexplained > 0)
    walls, refs, rss, setups = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while len(walls) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        wall, max_rss, result = run_pass(plan, workdir)
        walls.append(wall)
        rss.append(max_rss / 1024)
        check.merge(result)
        failed += result.unexplained > 0
        refs.append(reference_time(workdir, setup_check))
        setups.append(setup_time(workdir, setup_check))
        last = time.perf_counter() - began
    while len(setups) < MIN_SETUPS:
        setups.append(setup_time(workdir, setup_check))
    wall_rel = statistics.median(w / r for w, r in zip(walls, refs))
    return {
        "metrics": {"wall_rel": wall_rel, "setup_s": statistics.median(setups),
                    "peak_rss_mb": statistics.median(rss),
                    "items_per_ref": plan["items"] / wall_rel},
        "walls": walls, "refs": refs, "setups": setups, "check": check, "setup_check": setup_check,
        "attempted": 1 + len(walls) + len(refs) + 2 + len(setups),
        "failed": failed + setup_check.unexplained,
    }


def planted_share(plan: dict) -> float:
    return sum(plan["probes"].values()) / oracle.planted_units(plan)


def describe_check(check: oracle.Check) -> str:
    causes = ", ".join(f"{c} {n}" for c, n in sorted(check.causes.items())) or "none"
    return f"{check.wrong_count} wrong of {check.checked} checked; causes: {causes}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    desc = machine(seed)
    print(f"machine: {json.dumps(desc)}")
    if trace:
        recorder = Recorder()
        result = layers.trace_run(workload, seed, seconds, workdir, recorder)
        recorder.write(workdir / "spans.jsonl")
        units = layers.per_layer_metrics()
        values = result["values"]
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in units.items()}
        plan = result["plans"][workload]
        samples = {}
        checks = result["checks"]
        failed, attempted = result["failed"], result["attempted"]
        print(f"workload {workload}: traced replay of {', '.join(layers.PIPELINES)}, "
              f"{result['reps']} rep(s); spans in {workdir / 'spans.jsonl'}")
        print_self_times(recorder)
        for name, check in checks.items():
            print(f"  {name}: {describe_check(check)}")
        print(f"error_rate = {values['error_rate']:.6f} ratio ({workload}: "
              f"{describe_check(checks[workload])}; planted probe share "
              f"{planted_share(plan):.6f})")
    else:
        plan = gen.generate(workload, seed, workdir)
        result = end_to_end(plan, workdir, seconds)
        check = result["check"]
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in result["metrics"].items()}
        failed, attempted = result["failed"], result["attempted"]
        samples = {key: result[key] for key in ("walls", "refs", "setups")}
        q1, med, q3 = quartiles(result["walls"])
        ref = statistics.median(result["refs"])
        print(f"workload {workload}: {plan['items']} {ITEM_NAMES[workload]} per pass, "
              f"{len(result['walls'])} timed passes; pass wall min {min(result['walls']):.4f} s, "
              f"p25 {q1:.4f} s, median {med:.4f} s, p75 {q3:.4f} s; "
              f"reference median {ref:.4f} s")
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        print(f"{ITEM_NAMES[workload]}_per_ref = {metrics['items_per_ref']['value']:.6g} 1/ref")
        print(f"wall_s = {med:.6g} s; {ITEM_NAMES[workload]}_per_s = "
              f"{plan['items'] / med:.6g} 1/s (raw, not reference-normalized)")
        print(f"error_rate = {check.wrong_count / max(1, check.checked):.6f} ratio "
              f"({describe_check(check)}; planted probe share {planted_share(plan):.6f})")
        notes = check.notes + result["setup_check"].notes
        for note in notes:
            print(f"  unexplained: {note}")
    print(f"probes planted per pass: {json.dumps(plan['probes'])}; "
          f"malformed: {json.dumps(plan['malformed'])}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (workdir / "result.json").write_text(
        json.dumps({"machine": desc, "workload": workload, "trace": trace, **summary,
                    "samples_s": samples}, indent=1) + "\n", "utf-8")
    return summary


def print_self_times(recorder: Recorder) -> None:
    rows: dict[str, dict] = {}
    for (run_id, name), row in recorder.report().items():
        total = rows.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        for key in total:
            total[key] += row[key]
    print(f"  {'span':40} {'calls':>8} {'errors':>6} {'total_ms':>10} {'self_ms':>10}")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:40} {row['calls']:8d} {row['errors']:6d} "
              f"{1e3 * row['total_s']:10.2f} {1e3 * row['self_s']:10.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not proc.checkout_ok():
        print(f"perfbench: no lucbat sources at {proc.SRC}; run from a lucbat checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        summaries = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                     for w in WORKLOADS}
        summary = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{name}": metric for w, s in summaries.items()
                        for name, metric in s["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
