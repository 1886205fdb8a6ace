#!/usr/bin/env python3
"""Batch-serving study: a deduplicated batch against the result store.

Builds a duplicate-heavy manifest (the traffic pattern the service layer
amortizes: repeated submissions, isomorphic relabelings, and config scans
over shared instances), then runs it three ways:

1. a first batch against a fresh store -- only the unique jobs execute,
   duplicates and isomorphic relabelings are served by fingerprint dedup;
2. a resumed batch against the same store, as a restarted process would
   see it -- zero jobs recompute, everything is a store hit, and per-job
   results are bit-identical to the first pass;
3. the same unique work as independent ``RedQAOA.run`` calls, for the
   wall-clock comparison.

Usage::

    python examples/campaign_study.py [--nodes 12] [--count 4] [--seed 0]
"""

import argparse
import tempfile
import time
from pathlib import Path

from repro.datasets import suite_manifest
from repro.service import BatchScheduler, ResultStore, manifest_specs, run_job


def build_manifest(args) -> dict:
    manifest = suite_manifest(
        "maxcut",
        count=args.count,
        num_qubits=args.nodes,
        seed=args.seed,
        generator={"edge_probability": 0.35, "weight_dist": "uniform"},
        restarts=2,
        maxiter=20,
    )
    # Duplicate traffic: resubmit the first instance three more times and
    # scan a second optimizer budget over the second instance.
    manifest["jobs"][0]["repeat"] = 4
    deeper = dict(manifest["jobs"][1])
    deeper["maxiter"] = 30
    deeper["label"] = "deeper-budget"
    manifest["jobs"].append(deeper)
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=12)
    parser.add_argument("--count", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    manifest = build_manifest(args)
    specs = manifest_specs(manifest)
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "results.jsonl"

        print("=== first batch (fresh store) ===")
        start = time.perf_counter()
        batch = BatchScheduler(store=ResultStore(store_path)).run(specs)
        first_seconds = time.perf_counter() - start
        print(f"jobs={batch.num_jobs} unique={batch.num_unique} "
              f"deduped={batch.deduped} computed={batch.computed} "
              f"shared reductions={batch.reduction_reuses}")
        for label, agg in sorted(batch.aggregates.items()):
            print(f"  {label:<24} count={agg['count']} "
                  f"expectation={agg['mean_expectation']:.4f}")

        print("\n=== resumed batch (same store, fresh process state) ===")
        resumed = BatchScheduler(store=ResultStore(store_path)).run(specs)
        print(f"computed={resumed.computed} "
              f"store_hits={resumed.store_hits} "
              f"(of {resumed.num_unique} unique)")
        identical = all(
            (a.result.gammas, a.result.expectation, a.result.best_value)
            == (b.result.gammas, b.result.expectation, b.result.best_value)
            for a, b in zip(batch.results, resumed.results)
        )
        print(f"per-job results bit-identical to the first pass: {identical}")
        if resumed.computed or not identical:
            raise SystemExit("the resumed batch broke the resume contract")

        print("\n=== N independent RedQAOA.run calls (no sharing) ===")
        start = time.perf_counter()
        for spec in specs:
            run_job(spec)
        sequential_seconds = time.perf_counter() - start
        print(f"sequential {sequential_seconds:.2f} s vs batch "
              f"{first_seconds:.2f} s "
              f"({sequential_seconds / max(first_seconds, 1e-9):.2f}x)")


if __name__ == "__main__":
    main()
