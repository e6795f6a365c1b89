"""Benchmark of the qembezzle CLI: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload montecarlo --seed 0 --seconds 30 --trace 0

Builds nothing: it imports ``qembezzle`` from ``src/`` of the checkout it
sits in. Set-up time is measured in fresh processes; the CLI calls run in
one fresh single-threaded run process (``worker.py``); every output is then
checked here (``checks.py``). End-to-end times are rescaled to a fixed
machine speed measured around each call (``calibrate.py``). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
WORKER_GRACE_S = 120  # on top of --seconds, for the last round and start-up
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import qembezzle
qembezzle.all_fixtures()
print(time.perf_counter() - start)
"""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(SINGLE_THREAD)
    return env


def measure_setup() -> float:
    """Median time, in a fresh process, to import qembezzle and load the four fixture tables.

    Each time is rescaled by the reference kernel timed just before and after
    its process, like the CLI calls in the run process.
    """
    cmd = [sys.executable, "-c", _SETUP_SNIPPET, str(ROOT / "src")]
    times = []
    before = calibrate.kernel_seconds()
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        after = calibrate.kernel_seconds()
        if i:  # the first process also writes the bytecode caches
            seconds = float(done.stdout.strip().splitlines()[-1])
            times.append(calibrate.rescale(seconds, before, after))
        before = after
    return statistics.median(times)


def run_worker(args, out_dir: Path) -> dict:
    result = out_dir / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--result", str(result)]
    with open(out_dir / "worker.log", "w", encoding="utf-8") as log:
        subprocess.run(cmd, env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                       timeout=args.seconds + WORKER_GRACE_S, check=True)
    return json.loads(result.read_text(encoding="utf-8"))


def csv_path(argv: list[str]) -> Path:
    return Path(argv[argv.index("--out") + 1])


def check_all(doc: dict, data_dir: Path) -> tuple[int, int, int, list[str]]:
    """Check every CLI call of every pass.

    Returns (attempted, failed, wrong, messages): a call fails if it exits
    non-zero or its output fails a check; ``wrong`` counts the latter.
    """
    memo: dict[tuple, list[str]] = {}
    attempted = failed = wrong = 0
    messages: list[str] = []
    for rnd in doc["rounds"]:
        passes = [rnd["plain"]] + ([rnd["traced"]] if "traced" in rnd else [])
        for ps in passes:
            for i, call in enumerate(ps["calls"]):
                attempted += 1
                argv, path = call["argv"], csv_path(call["argv"])
                if call["exit"] != 0:
                    msgs = [f"{argv[0]}: exit {call['exit']}"]
                elif not path.is_file():
                    msgs = [f"{argv[0]}: no CSV at {path}"]
                else:
                    key = (tuple(a if a != str(path) else "" for a in argv), path.read_bytes())
                    if key not in memo:
                        memo[key] = checks.check_operation(argv, path, data_dir)
                    msgs = list(memo[key])
                if ps is not passes[0]:
                    plain = csv_path(passes[0]["calls"][i]["argv"])
                    if plain.exists() and path.exists() and plain.read_bytes() != path.read_bytes():
                        msgs.append(f"{argv[0]}: traced output differs from untraced output")
                if msgs:
                    failed += 1
                    wrong += call["exit"] == 0
                    messages += [f"round {rnd['round']}: {m}" for m in msgs]
    return attempted, failed, wrong, messages


def end_to_end(doc: dict, setup_s: float) -> dict:
    walls = [r["plain"]["scaled_s"] for r in doc["rounds"]]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": doc["maxrss_kb"] / 1024.0, "unit": "MB"},
    }


PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "experiments.runner_s": "s",
    "experiments.write_s": "s",
    "experiments.rows": "count",
    "experiments.csv_bytes": "bytes",
    "convex_split.search_s": "s",
    "convex_split.searches": "count",
    "convex_split.candidate_ms": "ms",
    "qstates.sampler_s": "s",
    "qstates.samples": "count",
    "teleport.fraction_s": "s",
    "teleport.fraction_calls": "count",
    "qmat.dmax_s": "s",
    "qmat.dmax_calls": "count",
    "correlated.region_s": "s",
    "correlated.point_us": "us",
    "embezzle.residual_s": "s",
    "embezzle.closed_form_s": "s",
    "embezzle.rank_s": "s",
    "distill.plan_s": "s",
    "distill.plans": "count",
    "fixtures.load_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "machine.kernel_ms": "ms",
}


def layer_values(rnd: dict, fixtures_s: float) -> dict:
    """Per-layer figures of one traced pass."""
    spans, counts = rnd["spans"], rnd["counts"]

    def span(name: str, key: str = "total_s") -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(num: float, den: float, scale: float) -> float:
        return scale * num / den if den else 0.0

    runner = rows = size = 0.0
    for call in rnd["traced"]["calls"]:
        path = csv_path(call["argv"])
        manifest = path.with_name(path.name + ".manifest.json")
        if call["exit"] == 0 and manifest.exists():
            runner += json.loads(manifest.read_text(encoding="utf-8"))["wall_time_s"]
            blob = path.read_bytes()
            rows += blob.count(b"\n") - 1
            size += len(blob)
    search_self = span("convex_split.min_copies_search", "self_s")
    region_self = span("correlated.qutrit_region_map", "self_s")
    traced, plain = rnd["traced"]["scaled_s"], rnd["plain"]["scaled_s"]
    return {
        "cli.self_s": span("cli.main") - span("experiments.run_experiment"),
        "experiments.runner_s": runner,
        "experiments.write_s": span("experiments.run_experiment") - runner,
        "experiments.rows": rows,
        "experiments.csv_bytes": size,
        "convex_split.search_s": search_self,
        "convex_split.searches": span("convex_split.min_copies_search", "calls"),
        "convex_split.candidate_ms": ratio(search_self, counts.get("convex_split.candidates", 0), 1e3),
        "qstates.sampler_s": span("qstates.sampler"),
        "qstates.samples": span("qstates.sampler", "calls"),
        "teleport.fraction_s": span("teleport.entanglement_fraction"),
        "teleport.fraction_calls": span("teleport.entanglement_fraction", "calls"),
        "qmat.dmax_s": span("qmat.max_relative_entropy"),
        "qmat.dmax_calls": span("qmat.max_relative_entropy", "calls"),
        "correlated.region_s": region_self,
        "correlated.point_us": ratio(region_self, counts.get("correlated.points", 0), 1e6),
        "embezzle.residual_s": span("embezzle.catalyst_residual"),
        "embezzle.closed_form_s": span("embezzle.residual_fidelity_closed_form"),
        "embezzle.rank_s": span("embezzle.rank"),
        "distill.plan_s": span("distill.plan"),
        "distill.plans": span("distill.plan", "calls"),
        "fixtures.load_s": fixtures_s,
        "trace.wall_s": traced,
        "trace.untraced_wall_s": plain,
        "trace.overhead_s": traced - plain,
        "machine.kernel_ms": 1e3 * statistics.median(
            c["kernel_s"] for c in rnd["traced"]["calls"] + rnd["plain"]["calls"]),
    }


def per_layer(doc: dict) -> dict:
    per_round = [layer_values(r, doc["fixtures_s"]) for r in doc["rounds"]]
    return {name: {"value": statistics.median(v[name] for v in per_round), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description="qembezzle benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    data_dir = ROOT / "src" / "qembezzle" / "_data"
    if not (ROOT / "src" / "qembezzle" / "__init__.py").is_file() or not data_dir.is_dir():
        print(f"no qembezzle source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        setup_s = measure_setup() if args.trace == 0 else None
        doc = run_worker(args, out_dir)
    except subprocess.CalledProcessError as exc:
        print(f"benchmark process failed ({exc}); see {out_dir}/worker.log", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"benchmark process timed out ({exc})", file=sys.stderr)
        return 1

    attempted, failed, wrong, messages = check_all(doc, data_dir)
    for msg in messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    metrics = end_to_end(doc, setup_s) if args.trace == 0 else per_layer(doc)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
