"""Campaigns: manifest-driven batch runs with aggregate reporting.

A *manifest* is a plain mapping (YAML or JSON on disk) describing a batch
of jobs:

.. code-block:: yaml

    schema: 1
    defaults:            # optional JobSpec config applied to every job
      p: 1
      restarts: 3
      maxiter: 40
    jobs:
      - kind: maxcut     # graph workload (the paper's); other kinds are
        nodes: 14        #   problem workloads from repro.datasets
        seed: 3
        weight_dist: uniform
      - kind: sk
        nodes: 12
        p: 2             # per-job overrides beat defaults
        repeat: 4        # deliberate duplicates (deduped by fingerprint)

Generator keys (``nodes``, ``seed``, ``edge_probability``, ``weight_dist``,
``penalty``, ``qubo_density``) feed the deterministic instance generators
in :mod:`repro.datasets`; everything else is
:class:`~repro.service.jobs.JobSpec` configuration.  ``seed`` seeds both
the generator and the job, so one integer pins the whole job.
:func:`repro.datasets.suite_manifest` builds such a mapping for a whole
generated dataset suite.

:class:`Campaign` runs a manifest through the
:class:`~repro.service.scheduler.BatchScheduler` against an optional
persistent store and aggregates the outcome per label/kind; re-running a
finished campaign against the same store recomputes nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.service.jobs import JobSpec, check_seed
from repro.service.scheduler import BatchReport, BatchScheduler
from repro.service.store import ResultStore

__all__ = [
    "Campaign",
    "CampaignReport",
    "load_manifest",
    "manifest_specs",
]

MANIFEST_SCHEMA = 1

_GENERATOR_KEYS = ("edge_probability", "weight_dist", "penalty", "qubo_density")
_CONFIG_KEYS = (
    "p",
    "restarts",
    "maxiter",
    "finetune_maxiter",
    "shots",
    "warm_start",
    "and_ratio_threshold",
    "seed",
    "label",
)


def load_manifest(path: str | Path) -> dict:
    """Parse a manifest file: YAML when available, JSON always.

    ``.json`` files parse as JSON; anything else tries YAML first (when
    PyYAML is installed -- it is optional, never a hard dependency) and
    falls back to JSON, so a JSON manifest under any extension works in
    minimal environments.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() != ".json":
        try:
            import yaml
        except ImportError:
            pass
        else:
            try:
                manifest = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ValueError(f"manifest {path} is not valid YAML: {exc}") from exc
            if not isinstance(manifest, dict):
                raise ValueError(f"manifest {path} must be a mapping, got {type(manifest).__name__}")
            return manifest
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} must be a mapping, got {type(manifest).__name__}")
    return manifest


def manifest_specs(manifest: dict) -> list[JobSpec]:
    """Expand a manifest mapping into concrete :class:`JobSpec` objects.

    A bad entry raises one ``ValueError`` prefixed ``job N:`` (N is the
    entry's position), so nothing of a manifest is built unless all of it is.
    """
    schema = manifest.get("schema", MANIFEST_SCHEMA)
    if schema != MANIFEST_SCHEMA:
        raise ValueError(f"unsupported manifest schema {schema!r} (supported: {MANIFEST_SCHEMA})")
    entries = manifest.get("jobs")
    if not entries:
        raise ValueError("manifest has no jobs")
    defaults = manifest.get("defaults", {})
    specs: list[JobSpec] = []
    for position, entry in enumerate(entries):
        try:
            merged = {**defaults, **entry}
            repeat = int(merged.pop("repeat", 1))
            if repeat < 1:
                raise ValueError(f"repeat must be >= 1, got {repeat}")
            specs.extend(_entry_spec(merged) for _ in range(repeat))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"job {position}: {exc}") from exc
    return specs


def _entry_spec(entry: dict) -> JobSpec:
    entry = dict(entry)
    kind = entry.pop("kind", "maxcut")
    nodes = int(entry.pop("nodes", 12))
    seed = entry.get("seed", 0)
    check_seed(seed)  # before it seeds the generator
    generator = {key: entry.pop(key) for key in _GENERATOR_KEYS if key in entry}
    unknown = set(entry) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown manifest keys {sorted(unknown)}")
    config = dict(entry)
    config.setdefault("label", f"{kind}-n{nodes}-s{seed}")

    if kind == "maxcut":
        from repro.datasets import attach_weights, random_connected_gnp

        graph = random_connected_gnp(
            nodes, float(generator.get("edge_probability", 0.35)), seed=seed
        )
        distribution = generator.get("weight_dist")
        if distribution is not None:
            graph = attach_weights(graph, distribution, seed=seed)
        return JobSpec(graph=graph, **config)

    from repro.datasets import problem_instance

    problem = problem_instance(
        kind,
        nodes,
        seed=seed,
        edge_probability=float(generator.get("edge_probability", 0.35)),
        penalty=float(generator.get("penalty", 2.0)),
        weight_distribution=generator.get("weight_dist"),
        qubo_density=float(generator.get("qubo_density", 0.5)),
    )
    return JobSpec(problem=problem, **config)


@dataclass
class CampaignReport:
    """A batch report plus per-label aggregates, JSON-serializable.

    ``store`` (when a persistent store backed the run) summarizes the
    store's accesses -- fed from the same counters the metrics registry
    tracks (``redqaoa_store_hits_total`` / ``redqaoa_store_misses_total``).
    """

    batch: BatchReport
    aggregates: dict
    store: dict | None = None

    def to_dict(self) -> dict:
        report = self.batch.to_dict()
        report["aggregates"] = self.aggregates
        if self.store is not None:
            report["store"] = self.store
        return report

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")


class Campaign:
    """A batch of job specs bound to an optional persistent store.

    ``store_path`` opens (or creates) a
    :class:`~repro.service.store.ResultStore`; omit it for a purely
    in-memory run.  ``reduction_reuse``, ``workers``, and ``pool`` are
    forwarded to the scheduler (``workers=N`` executes on N processes of
    the :mod:`repro.serve` worker pool, bit-identical to 1).
    """

    def __init__(
        self,
        specs,
        store_path: str | Path | None = None,
        reduction_reuse: str = "exact",
        workers: int = 1,
        pool: str | None = None,
    ) -> None:
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("campaign has no jobs")
        self.store = ResultStore(store_path) if store_path is not None else None
        self.scheduler = BatchScheduler(
            store=self.store,
            reduction_reuse=reduction_reuse,
            workers=workers,
            pool=pool,
        )

    @classmethod
    def from_manifest(
        cls,
        manifest: dict,
        store_path: str | Path | None = None,
        reduction_reuse: str = "exact",
        workers: int = 1,
        pool: str | None = None,
    ) -> "Campaign":
        return cls(
            manifest_specs(manifest),
            store_path=store_path,
            reduction_reuse=reduction_reuse,
            workers=workers,
            pool=pool,
        )

    def run(self, on_result=None) -> CampaignReport:
        """Execute the campaign and aggregate per-label statistics."""
        batch = self.scheduler.run(self.specs, on_result=on_result)
        groups: dict[str, list] = {}
        for view in batch.results:
            groups.setdefault(view.label or view.kind, []).append(view)
        aggregates = {}
        for label in sorted(groups):
            views = groups[label]
            expectations = [v.result.expectation for v in views]
            best_values = [
                v.result.best_value
                for v in views
                if v.result.best_value == v.result.best_value  # drop NaN
            ]
            aggregates[label] = {
                "count": len(views),
                "mean_expectation": sum(expectations) / len(expectations),
                "mean_best_value": (
                    sum(best_values) / len(best_values) if best_values else None
                ),
            }
        store = None
        if self.store is not None:
            store = {
                "path": str(self.store.path),
                "results": len(self.store),
                "hits": self.store.hits,
                "misses": self.store.misses,
                "dead_letters": len(self.store.dead_letters()),
            }
        return CampaignReport(batch=batch, aggregates=aggregates, store=store)
