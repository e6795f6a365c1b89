"""Experiment harness: declarative configs, CSV results, and run manifests.

Each experiment is a pure function of its configuration (seed included),
so a run manifest pins everything needed to reproduce its CSV byte for
byte. Floats are serialised with 12 significant digits.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import platform
import time
import types
import typing
from dataclasses import dataclass, field, asdict
from pathlib import Path

import mpmath
import numpy as np

from . import __version__
from .convex_split import (
    CatalystSearchQuery,
    SearchCounters,
    Task,
    convex_split_plan,
    min_copies_search,
)
from .correlated import qutrit_region_map
from .distill import embezzle_plan
from .embezzle import (
    EXACT_RESIDUAL_RANK_CAP,
    _extraction_overlap,
    catalyst_residual,
    extraction_fidelity_bound,
    schmidt_rank_for_fidelity,
)
from .errors import ConfigError, QEmbezzleError
from .fixtures import FIXTURE_TABLES, LABEL_KINDS, fixture_label, fixture_row_count, load_fixture
from .qstates import SeededRng, maximally_mixed, random_density, read_density
from .teleport import average_fidelity_from_fraction, entanglement_fraction

EXPERIMENTS = (
    "fidelity",
    "nmin",
    "montecarlo",
    "embezzle",
    "consumption",
    "qutrit-map",
    "distill",
)

_DEFAULT_EPS_GRID = {
    "nmin": [0.02, 0.05, 0.1, 0.15, 0.2],
    "embezzle": [0.05, 0.1, 0.15, 0.2, 0.3],
    "distill": [0.1, 0.2, 0.3],
}


@dataclass
class ExperimentConfig:
    experiment: str
    d: int = 2
    epsilon: float | None = None
    epsilon_grid: list[float] = field(default_factory=list)
    candidates: int = 100
    samples: int = 200
    seed: int = 0
    state_source: str | None = None
    output_path: str = "results.csv"
    resolution: int = 100
    threshold: float = 0.9
    margin: float = 0.01
    m_values: list[int] = field(default_factory=list)
    # Ignored: the sample loop is bound by the interpreter lock, so it runs in
    # one thread. Kept, and still validated, so older configs and manifests replay.
    threads: int = 1

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.d < 2:
            raise ConfigError("d", f"must be >= 2, got {self.d}")
        if self.samples < 1:
            raise ConfigError("samples", f"must be >= 1, got {self.samples}")
        if self.candidates < 0:
            raise ConfigError("candidates", f"must be >= 0, got {self.candidates}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "must be a 64-bit unsigned integer")
        if self.threads < 1:
            raise ConfigError("threads", f"must be >= 1, got {self.threads}")
        for i, eps in enumerate(self.epsilon_grid):
            if not 0.0 < eps < 1.0:
                raise ConfigError(f"epsilon_grid[{i}]", f"must lie in (0, 1), got {eps}")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon", f"must lie in (0, 1), got {self.epsilon}")
        for i, m in enumerate(self.m_values):
            if m < 1:
                raise ConfigError(f"m_values[{i}]", f"must be >= 1, got {m}")
        if self.experiment == "qutrit-map":
            if self.resolution < 50:
                raise ConfigError("resolution", f"must be >= 50, got {self.resolution}")
            if not 0.0 < self.threshold < 1.0:
                raise ConfigError("threshold", f"must lie in (0, 1), got {self.threshold}")
            eps = 1.0 - self.threshold - self.margin
            if not eps > 0:
                raise ConfigError("margin", f"1 - threshold - margin must be > 0, got {eps}")
            _check_rank_budget("threshold", eps, 3)
        if self.experiment == "embezzle":
            name = "epsilon_grid" if self.epsilon_grid else "epsilon"
            for eps in self.eps_values():
                _check_rank_budget(name, eps, self.d)

    def eps_values(self) -> list[float]:
        if self.epsilon_grid:
            return list(self.epsilon_grid)
        if self.epsilon is not None:
            return [self.epsilon]
        default = _DEFAULT_EPS_GRID.get(self.experiment)
        if default is None:
            raise ConfigError("epsilon", "this experiment needs epsilon or epsilon_grid")
        return list(default)


def _check_rank_budget(name: str, eps: float, d: int) -> None:
    """An embezzling catalyst rank exists for budget eps only while eps (d+1)/d < 1."""
    if not eps * (d + 1) / d < 1.0:
        raise ConfigError(name, f"epsilon {eps} needs eps (d+1)/d < 1 at d={d}")


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a field annotation; ints fit floats, bools fit neither."""
    if isinstance(hint, types.UnionType):
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def config_from_dict(doc: dict) -> ExperimentConfig:
    fields, hints = ExperimentConfig.__dataclass_fields__, typing.get_type_hints(ExperimentConfig)
    for key, value in doc.items():
        if key not in fields:
            raise ConfigError(key, "unknown configuration field")
        if not _conforms(value, hints[key]):
            raise ConfigError(key, f"expected {fields[key].type}, got {value!r}")
    if "experiment" not in doc:
        raise ConfigError("experiment", "missing required field")
    try:
        cfg = ExperimentConfig(**doc)
    except TypeError as exc:
        raise ConfigError("<config>", str(exc)) from exc
    cfg.validate()
    return cfg


def _resolve_states(cfg: ExperimentConfig, default: str) -> list[tuple[str, int, object]]:
    """Expand a state-source spec into (origin, row, DensityMatrix) triples."""
    src = cfg.state_source or default
    if src == "random":
        rho = random_density(cfg.d * cfg.d, SeededRng(cfg.seed).derive(0x5EED), split=(cfg.d, cfg.d))
        return [("random", 0, rho)]
    if src.startswith("file:"):
        try:
            return [("file", 0, read_density(src[5:]))]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError("state_source", f"cannot read a matrix document: {exc}") from exc
    parts = src.split(":")
    if parts[0] != "fixture" or len(parts) not in (2, 3):
        raise ConfigError("state_source", f"cannot parse {src!r}")
    table = parts[1]
    if table not in FIXTURE_TABLES:
        raise ConfigError("state_source", f"unknown table {table!r}, not in {FIXTURE_TABLES}")
    rows = range(fixture_row_count(table))
    if len(parts) == 3:
        if not (parts[2].isdecimal() and int(parts[2]) in rows):
            raise ConfigError("state_source", f"no row {parts[2]!r} in {len(rows)}-row {table}")
        rows = [int(parts[2])]
    return [(table, row, load_fixture(table, row)) for row in rows]


def _resolve_states_at_d(cfg: ExperimentConfig, default: str) -> list[tuple[str, int, object]]:
    """``_resolve_states`` for experiments that run at ``cfg.d``: every split must be d x d."""
    states = _resolve_states(cfg, default)
    for origin, row, rho in states:
        if rho.split is not None and rho.split != (cfg.d, cfg.d):
            raise ConfigError(
                "state_source",
                f"{origin} row {row} is split {rho.split_a}x{rho.split_b}, "
                f"which does not match d={cfg.d}",
            )
    return states


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


@dataclass(frozen=True)
class ResultTable:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    # Work counters of the run, recorded in the manifest and never in the CSV.
    counters: dict = field(default_factory=dict, compare=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow([_fmt(v) for v in row])
        return buf.getvalue()


def parse_result_csv(text: str) -> ResultTable:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    return ResultTable(header=tuple(rows[0]), rows=tuple(tuple(r) for r in rows[1:]))


# ---------------------------------------------------------------------------
# Experiment bodies
# ---------------------------------------------------------------------------


def _run_fidelity(cfg: ExperimentConfig) -> ResultTable:
    rows = []
    sources = (
        _resolve_states(cfg, "fixture:I")
        if cfg.state_source
        else [
            (t, r, load_fixture(t, r))
            for t in ("I", "II", "III", "reference")
            for r in range(fixture_row_count(t))
        ]
    )
    for table, row, state in sources:
        frac = entanglement_fraction(state)
        avg = average_fidelity_from_fraction(frac, state.split_a)
        label = fixture_label(table, row) if table in LABEL_KINDS else None
        rows.append(
            (
                table,
                row,
                "" if label is None else _fmt(float(label)),
                LABEL_KINDS.get(table) or "",
                frac,
                avg,
            )
        )
    return ResultTable(
        header=("table", "row", "label", "label_kind", "fraction", "avg_fidelity"),
        rows=tuple(rows),
    )


def _run_nmin(cfg: ExperimentConfig) -> ResultTable:
    _, _, rho = _resolve_states_at_d(cfg, "fixture:reference:0")[0]
    rows, counters = [], SearchCounters()
    for idx, eps in enumerate(cfg.eps_values()):
        query = CatalystSearchQuery(
            rho=rho,
            epsilon=eps,
            candidate_count=cfg.candidates,
            rng=SeededRng(cfg.seed).derive((idx + 1) << 32),
        )
        res = min_copies_search(query)
        rows.append((eps, res.n_mixed, res.n_best, res.p_mixed, res.p_best, res.ratio))
        counters += res.counters
    return ResultTable(
        header=("epsilon", "n_mixed", "n_best", "p_mixed", "p_best", "descent_ratio"),
        rows=tuple(rows),
        counters=asdict(counters),
    )


def _montecarlo_sample(cfg: ExperimentConfig, index: int) -> tuple[tuple, SearchCounters]:
    master = SeededRng(cfg.seed)
    rho = random_density(cfg.d * cfg.d, master.derive(2 * index + 1), split=(cfg.d, cfg.d))
    f0 = average_fidelity_from_fraction(entanglement_fraction(rho), cfg.d)
    gen = master.derive(2 * index + 2).generator()
    eps = float(gen.uniform(0.0, 1.0 - f0))
    eps = min(max(eps, 1e-9), 1.0 - 1e-9)
    query = CatalystSearchQuery(
        rho=rho, epsilon=eps, candidate_count=cfg.candidates, rng=master.derive((index + 1) << 20)
    )
    res = min_copies_search(query)
    return (index, eps, f0, res.n_mixed, res.n_best, res.ratio), res.counters


def _run_montecarlo(cfg: ExperimentConfig) -> ResultTable:
    rows, counters = zip(*(_montecarlo_sample(cfg, i) for i in range(cfg.samples)))
    return ResultTable(
        header=("sample", "epsilon", "avg_fidelity_unassisted", "n_mixed", "n_best", "descent_ratio"),
        rows=rows,
        counters=asdict(sum(counters, SearchCounters())),
    )


def _run_embezzle(cfg: ExperimentConfig) -> ResultTable:
    rows = []
    for eps in cfg.eps_values():
        rank = schmidt_rank_for_fidelity(cfg.d, eps)
        bound = extraction_fidelity_bound(cfg.d, rank)
        exact = (
            _extraction_overlap(cfg.d, rank) ** 2 if rank <= EXACT_RESIDUAL_RANK_CAP else math.nan
        )
        avg_lb = average_fidelity_from_fraction(bound, cfg.d)
        rows.append((eps, rank, bound, exact, avg_lb))
    return ResultTable(
        header=("epsilon", "schmidt_rank", "fraction_bound", "fraction_exact", "avg_fidelity_lb"),
        rows=tuple(rows),
    )


def _run_consumption(cfg: ExperimentConfig) -> ResultTable:
    m_values = cfg.m_values or list(range(max(cfg.d, 4), 65))
    rows = []
    for m in m_values:
        res = catalyst_residual(cfg.d, m)
        rows.append((cfg.d, m, res.p_exact, res.p_closed_form, res.p_bound))
    return ResultTable(
        header=("d", "schmidt_rank", "p_exact", "p_closed_form", "p_bound"),
        rows=tuple(rows),
    )


def _run_qutrit_map(cfg: ExperimentConfig) -> ResultTable:
    region = qutrit_region_map(cfg.resolution, cfg.threshold, cfg.margin)
    rows = [
        (
            pt.weights[0],
            pt.weights[1],
            pt.weights[2],
            pt.fidelity,
            pt.correlated_bound,
            pt.label_correlated.value,
            pt.label_embezzling.value,
            pt.rank_required,
        )
        for pt in region.points
    ]
    return ResultTable(
        header=(
            "lambda1",
            "lambda2",
            "lambda3",
            "f",
            "correlated_bound",
            "label_correlated",
            "label_embezzling",
            "M_required",
        ),
        rows=tuple(rows),
    )


def _run_distill(cfg: ExperimentConfig) -> ResultTable:
    rows = []
    zeta = maximally_mixed(cfg.d * cfg.d, split=(cfg.d, cfg.d))
    states = _resolve_states_at_d(cfg, "fixture:III")
    eps_values = cfg.eps_values()
    plans_e = [embezzle_plan(cfg.d, eps) for eps in eps_values]  # independent of the state
    for table, row, state in states:
        for eps, plan_e in zip(eps_values, plans_e):
            plan_cs = convex_split_plan(state, zeta, eps, Task.DISTILL)
            rows.append(
                (
                    table,
                    row,
                    eps,
                    "CS",
                    plan_cs.p,
                    plan_cs.copies,
                    plan_cs.k,
                    plan_cs.output_fraction,
                    "exact",
                    plan_cs.consumption,
                )
            )
            rows.append(
                (
                    table,
                    row,
                    eps,
                    "E",
                    "",
                    plan_e.schmidt_rank,
                    "",
                    plan_e.predicted_fidelity_lb,
                    "bound",
                    plan_e.predicted_consumption,
                )
            )
    return ResultTable(
        header=(
            "table",
            "row",
            "epsilon",
            "kind",
            "p",
            "copies_or_rank",
            "k",
            "fidelity",
            "fidelity_kind",
            "consumption",
        ),
        rows=tuple(rows),
    )


_RUNNERS = {
    "fidelity": _run_fidelity,
    "nmin": _run_nmin,
    "montecarlo": _run_montecarlo,
    "embezzle": _run_embezzle,
    "consumption": _run_consumption,
    "qutrit-map": _run_qutrit_map,
    "distill": _run_distill,
}


def _write_files(files: list[tuple[Path, str]]) -> None:
    """Write each (path, text) to a temp file beside its path, then rename them all.

    A path is replaced only once every temp file is written in full, so a
    failed write leaves no partial output, and no temp file stays behind.
    """
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path, _ in files]
    try:
        for tmp, (_, text) in zip(temps, files):
            tmp.write_text(text, encoding="utf-8", newline="")
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class RunResult:
    table: ResultTable
    csv_path: Path
    manifest_path: Path
    manifest: dict


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Run one experiment, writing its CSV and reproduction manifest."""
    cfg.validate()
    start = time.perf_counter()
    table = _RUNNERS[cfg.experiment](cfg)
    wall = time.perf_counter() - start

    csv_text = table.to_csv()
    csv_path = Path(cfg.output_path)
    if csv_path.parent != Path(""):
        csv_path.parent.mkdir(parents=True, exist_ok=True)

    manifest = {
        "config": asdict(cfg),
        "seed": cfg.seed,
        "versions": {
            "qembezzle": __version__,
            "numpy": np.__version__,
            "mpmath": mpmath.__version__,
            "python": platform.python_version(),
        },
        "environment": {"platform": platform.platform(), "cpu_count": os.cpu_count()},
        "wall_time_s": wall,
        **({"counters": table.counters} if table.counters else {}),
        "csv_path": str(csv_path),
        "csv_sha256": hashlib.sha256(csv_text.encode("utf-8")).hexdigest(),
    }
    manifest_path = csv_path.with_name(csv_path.name + ".manifest.json")
    _write_files([(csv_path, csv_text), (manifest_path, json.dumps(manifest, indent=1) + "\n")])
    return RunResult(table=table, csv_path=csv_path, manifest_path=manifest_path, manifest=manifest)


def replay_manifest(manifest_path: str | Path, output_path: str | Path | None = None) -> RunResult:
    """Re-run the manifest's config and require a byte-identical CSV."""
    try:
        doc = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
        config, digest = doc["config"], doc["csv_sha256"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError("manifest", f"cannot read a run manifest: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("manifest", "config must be an object")
    cfg = config_from_dict(config)
    if output_path is not None:
        cfg.output_path = str(output_path)
    result = run_experiment(cfg)
    if result.manifest["csv_sha256"] != digest:
        raise QEmbezzleError(
            "replay mismatch: csv digest "
            f"{result.manifest['csv_sha256']} != recorded {digest}"
        )
    return result
