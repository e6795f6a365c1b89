"""The run process: import qembezzle, then drive ``qembezzle.cli.main`` round by round.

Started by ``run.py`` as a fresh, single-threaded Python process, so its
peak resident memory is that of the program and the CLI calls alone. Each
call is timed on its own, between two timings of the reference kernel in
``calibrate.py``. It writes a JSON record of every pass to ``--result``; the
CSV files and manifests stay on disk for ``run.py`` to check.

In trace mode each round runs twice on the same inputs: first with spans
recorded around the program's layers, then untraced. The difference of the
two wall times is the tracing overhead; since the traced pass of the first
round also pays the process's first-call costs, it is an upper bound.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import calibrate
import workloads
from spans import Tracer


def import_program(root: Path) -> tuple[dict, float, float]:
    """Import qembezzle from ``root/src`` and load the four fixture tables."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import qembezzle
    import qembezzle.cli

    imported = time.perf_counter()
    qembezzle.all_fixtures()
    loaded = time.perf_counter()
    if Path(qembezzle.__file__).resolve().parents[1] != src:
        raise RuntimeError(f"imported qembezzle from {qembezzle.__file__}, not from {src}")
    modules = {name: sys.modules[f"qembezzle.{name}"] for name in (
        "cli", "experiments", "convex_split", "qstates", "teleport",
        "embezzle", "correlated", "distill")}
    return modules, imported - start, loaded - imported


def layer_tracer(m: dict) -> Tracer:
    """Spans at the names the program's callers look up."""
    t = Tracer()
    ex, cs, di = m["experiments"], m["convex_split"], m["distill"]
    t.add(m["cli"], "run_experiment", "experiments.run_experiment")
    t.add(ex, "min_copies_search", "convex_split.min_copies_search",
          lambda args, res: {"convex_split.candidates": args[0].candidate_count + 1})
    t.add(cs, "random_flat_spectrum", "qstates.sampler")
    t.add(ex, "random_density", "qstates.sampler")
    for mod in (ex, cs, di):
        t.add(mod, "entanglement_fraction", "teleport.entanglement_fraction")
    for mod in (cs, di):
        t.add(mod, "max_relative_entropy", "qmat.max_relative_entropy")
    t.add(ex, "qutrit_region_map", "correlated.qutrit_region_map",
          lambda args, res: {"correlated.points": len(res.points)})
    t.add(ex, "catalyst_residual", "embezzle.catalyst_residual")
    t.add(m["embezzle"], "residual_fidelity_closed_form", "embezzle.residual_fidelity_closed_form")
    t.add(ex, "schmidt_rank_for_fidelity", "embezzle.rank")
    t.add(m["correlated"], "schmidt_rank_for_fidelity", "embezzle.rank")
    t.add(di, "distill_schmidt_rank", "embezzle.rank")
    t.add(ex, "convex_split_plan", "distill.plan")
    t.add(ex, "embezzle_plan", "distill.plan")
    return t


def run_pass(main, calls: list[list[str]], tracer: Tracer | None) -> dict:
    """Run the calls in order, timing the reference kernel before and after each."""
    results = []
    wall = scaled = 0.0
    before = calibrate.kernel_seconds()
    for argv in calls:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.call("cli.main", main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        after = calibrate.kernel_seconds()
        results.append({"argv": argv, "exit": code, "wall_s": seconds, "kernel_s": after})
        wall += seconds
        scaled += calibrate.rescale(seconds, before, after)
        before = after
    return {"wall_s": wall, "scaled_s": scaled, "calls": results}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    modules, import_s, fixtures_s = import_program(args.root)
    main_fn = modules["cli"].main
    tracer = layer_tracer(modules) if args.trace else None

    rounds = []
    start = time.perf_counter()
    for rnd in range(workloads.ROUND_LIMIT):
        round_dir = args.out_dir / f"r{rnd:02d}"
        record = {"round": rnd}
        if tracer is not None:
            calls = workloads.build_round(args.workload, args.seed, rnd, round_dir / "traced")
            tracer.reset()
            tracer.install()
            try:
                record["traced"] = run_pass(main_fn, calls, tracer)
            finally:
                tracer.uninstall()
            record["spans"] = tracer.summary()
            record["counts"] = dict(tracer.counts)
        calls = workloads.build_round(args.workload, args.seed, rnd, round_dir / "plain")
        record["plain"] = run_pass(main_fn, calls, None)
        last = record["plain"]["wall_s"] + record.get("traced", {}).get("wall_s", 0.0)
        rounds.append(record)
        # Start another round only if it should end by about the deadline.
        if time.perf_counter() - start + 0.5 * last > args.seconds:
            break

    doc = {
        "import_s": import_s,
        "fixtures_s": fixtures_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rounds": rounds,
    }
    args.result.write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
