"""Job manifests: YAML/JSON batch descriptions expanded into job specs.

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

:class:`~repro.service.scheduler.BatchScheduler` runs the expanded specs
(``red-qaoa batch`` does both steps); the ``red-qaoa serve`` daemon admits
a manifest through :func:`manifest_specs` as well.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.service.jobs import JobSpec, check_seed

__all__ = ["load_manifest", "manifest_specs"]

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
