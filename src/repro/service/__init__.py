"""Batch serving: deterministic batches with a persistent result store.

The amortization layer the paper's economics call for: one cheap
reduced-graph landscape should serve many expensive evaluations, and one
batch of similar instances should share reductions, compiled lightcone
plans, and previously computed results.  The pieces:

``jobs``
    :class:`JobSpec` -- workload + config with a canonical,
    relabeling-invariant content fingerprint (built on the weighted
    signature machinery of :mod:`repro.qaoa.lightcone`) and
    fingerprint-derived execution seeds, so a job's result is a pure
    function of its fingerprint.
``store``
    :class:`ResultStore` -- append-only, fsync'd, schema-versioned JSONL
    keyed by fingerprint; repeated jobs are free across process restarts.
``scheduler``
    :class:`BatchScheduler` -- the one batch entry point: admits the
    manifest through the serve layer's queue (which dedups
    exact/isomorphic duplicates, serves stored results, stores new ones
    and parks failures), shares reductions per instance (and, given a
    reduction bank, across similar instances) and compiled plans per
    structure, orders execution by a cost model, streams bit-identical
    per-job results regardless of grouping, and reports per-label
    aggregates.
``campaign``
    :func:`load_manifest` / :func:`manifest_specs` -- YAML/JSON manifests
    (or generated dataset suites) expanded into job specs.
"""

from repro.service.campaign import load_manifest, manifest_specs
from repro.service.jobs import (
    JobResult,
    JobSpec,
    canonical_graph_form,
    canonical_problem_form,
    run_job,
)
from repro.service.scheduler import BatchReport, BatchScheduler, JobFailedError, JobView
from repro.service.store import ResultStore

__all__ = [
    "BatchReport",
    "BatchScheduler",
    "JobFailedError",
    "JobResult",
    "JobSpec",
    "JobView",
    "ResultStore",
    "canonical_graph_form",
    "canonical_problem_form",
    "load_manifest",
    "manifest_specs",
    "run_job",
]
