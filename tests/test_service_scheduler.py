"""Tests for repro.service.scheduler and manifests: dedup, reuse, resume.

The acceptance contract under test: per-job results are bit-identical
between batched execution, N sequential :func:`run_job` calls, and a
store-resumed pass -- regardless of manifest order or grouping -- while the
scheduler provably skips duplicate, isomorphic, already-stored, and
shared-reduction work.
"""

import json

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cache import ReductionCache
from repro.datasets import random_connected_gnp, suite_manifest
from repro.service import (
    BatchScheduler,
    JobFailedError,
    JobSpec,
    ResultStore,
    load_manifest,
    manifest_specs,
    run_job,
)


def _weighted_graph(n, seed):
    rng = np.random.default_rng(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    order = list(rng.permutation(n))
    for a, b in zip(order, order[1:]):
        graph.add_edge(int(a), int(b))
    for _ in range(n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            graph.add_edge(int(u), int(v))
    for index, (u, v) in enumerate(sorted((min(u, v), max(u, v)) for u, v in graph.edges())):
        graph[u][v]["weight"] = 0.25 * (index + 1)
    return graph


def _permuted(graph, seed):
    rng = np.random.default_rng(seed)
    nodes = sorted(graph.nodes())
    shuffled = list(rng.permutation(nodes))
    return nx.relabel_nodes(graph, {a: int(b) for a, b in zip(nodes, shuffled)})


def _specs_with_duplicates():
    """5 manifest entries, 3 unique jobs, 2 unique instances."""
    graph_a = _weighted_graph(9, 0)
    graph_b = _weighted_graph(9, 1)
    config = dict(restarts=1, maxiter=8)
    return [
        JobSpec(graph=graph_a, label="a", **config),
        JobSpec(graph=nx.Graph(graph_a), label="a-copy", **config),  # exact dup
        JobSpec(graph=_permuted(graph_a, 5), label="a-iso", **config),  # isomorphic dup
        JobSpec(graph=graph_b, label="b", **config),
        JobSpec(graph=graph_a, label="a-deeper", maxiter=14, restarts=1),  # shares instance
    ]


def _key(result):
    return (result.gammas, result.betas, result.expectation, result.best_value, result.bits)


class TestDedupAndBitIdentity:
    def test_batched_matches_sequential_run_job(self):
        specs = _specs_with_duplicates()
        report = BatchScheduler().run(specs)
        sequential = [run_job(spec) for spec in specs]
        assert report.num_jobs == 5
        assert report.num_unique == 3
        assert report.num_instances == 2
        assert report.computed == 3
        assert report.deduped == 2
        assert report.reduction_reuses == 1  # a-deeper reuses instance a's reduction
        for view, expected in zip(report.results, sequential):
            assert _key(view.result) == _key(expected)

    def test_views_follow_manifest_order_and_tag_sources(self):
        specs = _specs_with_duplicates()
        report = BatchScheduler().run(specs)
        assert [view.index for view in report.results] == [0, 1, 2, 3, 4]
        assert [view.source for view in report.results] == [
            "computed", "dedup", "dedup", "computed", "computed",
        ]
        # Isomorphic duplicates answer in their own labels.
        assert sorted(report.results[2].assignment) == sorted(specs[2].graph.nodes())

    def test_manifest_order_cannot_change_results(self):
        specs = _specs_with_duplicates()
        forward = BatchScheduler().run(specs)
        backward = BatchScheduler().run(list(reversed(specs)))
        by_fp_forward = {v.fingerprint: _key(v.result) for v in forward.results}
        by_fp_backward = {v.fingerprint: _key(v.result) for v in backward.results}
        assert by_fp_forward == by_fp_backward

    def test_on_result_streams_computed_jobs(self):
        specs = _specs_with_duplicates()
        seen = []
        BatchScheduler().run(specs, on_result=lambda spec, result: seen.append(spec.label))
        assert len(seen) == 3  # one callback per unique computed job


class TestStoreResume:
    def test_resume_recomputes_nothing(self, tmp_path):
        path = tmp_path / "store.jsonl"
        specs = _specs_with_duplicates()
        first = BatchScheduler(store=ResultStore(path)).run(specs)
        resumed_store = ResultStore(path)
        second = BatchScheduler(store=resumed_store).run(_specs_with_duplicates())
        assert first.computed == 3
        assert second.computed == 0
        assert second.store_hits == second.num_unique == 3
        assert resumed_store.hits == 3
        for before, after in zip(first.results, second.results):
            assert _key(before.result) == _key(after.result)

    def test_partial_store_runs_only_the_new_jobs(self, tmp_path):
        path = tmp_path / "store.jsonl"
        specs = _specs_with_duplicates()
        BatchScheduler(store=ResultStore(path)).run(specs[:2])
        report = BatchScheduler(store=ResultStore(path)).run(specs)
        assert report.store_hits == 1
        assert report.computed == 2


class TestCrossInstanceMode:
    def test_mode_validation(self):
        # The bank is the mode: no string option is accepted, and the
        # default scheduler has no bank (exact reuse only).
        with pytest.raises(TypeError):
            BatchScheduler(reduction_reuse="cross-instance")
        assert BatchScheduler().reduction_cache is None

    def test_cross_instance_is_deterministic_for_a_manifest_set(self):
        # A stream of similar unweighted instances: the AND-matched bank can
        # serve later ones from earlier reductions (approximate mode), but
        # sorted-instance-fingerprint processing keeps the outcome a pure
        # function of the manifest *set*.
        def build(seed):
            graph = nx.erdos_renyi_graph(10, 0.45, seed=seed)
            while not (graph.number_of_edges() and nx.is_connected(graph)):
                seed += 100
                graph = nx.erdos_renyi_graph(10, 0.45, seed=seed)
            return JobSpec(graph=graph, restarts=1, maxiter=8, label=f"g{seed}")

        specs = [build(seed) for seed in range(4)]
        forward = BatchScheduler(reduction_cache=ReductionCache()).run(specs)
        backward = BatchScheduler(reduction_cache=ReductionCache()).run(
            list(reversed(specs))
        )
        assert forward.reduction_cross_hits == backward.reduction_cross_hits
        by_fp_forward = {v.fingerprint: _key(v.result) for v in forward.results}
        by_fp_backward = {v.fingerprint: _key(v.result) for v in backward.results}
        assert by_fp_forward == by_fp_backward

    def test_cross_instance_banks_and_hits(self):
        base = nx.erdos_renyi_graph(10, 0.45, seed=2)
        assert nx.is_connected(base)
        similar = nx.Graph(base)
        similar.add_edges_from([(10, 0), (10, 1), (10, 2), (10, 3), (10, 4)])
        scheduler = BatchScheduler(reduction_cache=ReductionCache())
        report = scheduler.run([
            JobSpec(graph=base, restarts=1, maxiter=8),
            JobSpec(graph=similar, restarts=1, maxiter=8),
        ])
        # The second instance's AND is close to the first's, so the banked
        # reduction serves it (the paper's 10-vs-11-node scenario).
        assert report.reduction_cross_hits == 1
        assert scheduler.reduction_cache.size == 1

    def test_a_passed_bank_turns_on_cross_instance_reuse(self):
        """Passing a bank is the whole switch: no second option is needed."""
        base = nx.erdos_renyi_graph(10, 0.45, seed=2)
        similar = nx.Graph(base)
        similar.add_edges_from([(10, 0), (10, 1), (10, 2), (10, 3), (10, 4)])
        bank = ReductionCache()
        report = BatchScheduler(reduction_cache=bank).run([
            JobSpec(graph=base, restarts=1, maxiter=8),
            JobSpec(graph=similar, restarts=1, maxiter=8),
        ])
        assert report.reduction_cross_hits == 1
        assert (bank.hits, bank.misses) == (1, 1)

    def test_bank_hit_results_never_reach_the_store(self, tmp_path):
        """A job optimized on another instance's banked reduction is not its
        fingerprint's exact answer: a later exact batch on the same store
        must recompute it (and only it)."""
        base = nx.erdos_renyi_graph(10, 0.45, seed=2)
        similar = nx.Graph(base)
        similar.add_edges_from([(10, 0), (10, 1), (10, 2), (10, 3), (10, 4)])
        specs = [
            JobSpec(graph=base, restarts=1, maxiter=8),
            JobSpec(graph=similar, restarts=1, maxiter=8),
        ]
        path = tmp_path / "store.jsonl"
        cross = BatchScheduler(
            store=ResultStore(path), reduction_cache=ReductionCache()
        ).run(specs)
        assert cross.reduction_cross_hits == 1
        assert [view.source for view in cross.results] == ["computed", "bank"]
        stored = ResultStore(path)
        assert stored.fingerprints() == [
            view.fingerprint for view in cross.results if view.source != "bank"
        ]
        assert cross.to_dict()["store"]["results"] == 1
        exact = BatchScheduler(store=ResultStore(path)).run(specs)
        assert (exact.store_hits, exact.computed) == (1, 1)
        for view, spec in zip(exact.results, specs):
            assert _key(view.result) == _key(run_job(spec))

    def test_bank_counts_every_lookup(self):
        """One bank lookup per graph instance: hits are the report's cross
        hits, misses the instances reduced and banked."""
        specs = manifest_specs(suite_manifest(
            "maxcut", count=6, num_qubits=10, seed=0, restarts=1, maxiter=6,
        ))
        specs += manifest_specs(suite_manifest(
            "mis", count=1, num_qubits=8, seed=0, restarts=1, maxiter=6,
        ))
        scheduler = BatchScheduler(reduction_cache=ReductionCache())
        report = scheduler.run(specs)
        cache = scheduler.reduction_cache
        assert report.reduction_cross_hits > 0
        assert cache.hits == report.reduction_cross_hits
        assert cache.hits + cache.misses == 6  # the MIS job never looks up
        assert cache.size == cache.misses


class TestProblemJobs:
    def test_problem_suite_shares_plans_across_configs(self):
        # Two field-free SK-style jobs on one instance but different
        # optimizer budgets at n > 20 would be needed to force lightcones;
        # keep it dense-engine sized and just assert reduction sharing and
        # bit-identity through the problem path.
        from repro.datasets import problem_instance

        problem = problem_instance("mis", 10, seed=0, edge_probability=0.3)
        specs = [
            JobSpec(problem=problem, restarts=1, maxiter=8),
            JobSpec(problem=problem, restarts=1, maxiter=12),
        ]
        report = BatchScheduler().run(specs)
        assert report.num_instances == 1
        assert report.reduction_reuses == 1
        for view, expected in zip(report.results, [run_job(s) for s in specs]):
            assert _key(view.result) == _key(expected)


class TestPoolConfig:
    @pytest.mark.parametrize(
        "config, message",
        [
            (dict(pool="bogus"), "pool must be"),
            (dict(pool="inline", workers=2), "single-worker"),
            (dict(workers=0), "workers must be"),
        ],
    )
    def test_bad_pool_config_fails_before_any_reduction(self, monkeypatch, config, message):
        """A pool no worker can run is refused by the constructor, before
        phase 1 spends a single annealing run."""
        import repro.core.reduction as reduction

        runs = []
        original = reduction.simulated_annealing

        def counting(*args, **kwargs):
            runs.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(reduction, "simulated_annealing", counting)
        with pytest.raises(ValueError, match=message):
            BatchScheduler(**config).run(_specs_with_duplicates())
        assert runs == []


class TestUnevaluableJobs:
    def test_batch_dispatches_before_reducing(self, reduce_calls, unevaluable_spec):
        """Phase 1 reduces the evaluable instance only; the other job fails
        at dispatch without a reduction spent on it."""
        good = JobSpec(graph=_weighted_graph(9, 3), restarts=1, maxiter=6)
        with pytest.raises(JobFailedError, match="EngineLimitError"):
            BatchScheduler().run([good, unevaluable_spec])
        assert len(reduce_calls) == 1
        assert reduce_calls[0].number_of_nodes() == 9


class TestFailures:
    def test_failed_job_is_parked_after_finished_jobs_are_stored(
        self, tmp_path, unevaluable_spec
    ):
        """A batch parks a failed job in its store, as the daemon does,
        and every job that landed before the failure is stored."""
        path = tmp_path / "store.jsonl"
        good = [JobSpec(graph=_weighted_graph(9, seed), restarts=1, maxiter=6) for seed in (3, 4)]
        landed = []
        with pytest.raises(JobFailedError, match="EngineLimitError"):
            BatchScheduler(store=ResultStore(path)).run(
                good + [unevaluable_spec],
                on_result=lambda spec, result: landed.append(spec.fingerprint),
            )
        survivor = ResultStore(path)
        assert list(survivor.dead_letters()) == [unevaluable_spec.fingerprint]
        assert survivor.dead_letters()[unevaluable_spec.fingerprint]["attempts"] == 1
        assert landed  # the cheap jobs ran before the costly failing one
        assert sorted(survivor.fingerprints()) == sorted(landed)

    def test_a_failure_keeps_its_shard_mates_results(self, tmp_path, unevaluable_spec):
        """A job sharing the failing job's shard and executing after it
        still lands and is stored before the batch raises."""
        sk = unevaluable_spec.fingerprint
        mate = next(
            spec
            for spec in (
                JobSpec(graph=random_connected_gnp(8, 0.4, seed=seed), restarts=1, maxiter=6)
                for seed in range(2000)
            )
            if spec.fingerprint[0] == sk[0] and spec.fingerprint > sk
        )
        path = tmp_path / "store.jsonl"
        landed = []
        with pytest.raises(JobFailedError, match="EngineLimitError"):
            BatchScheduler(store=ResultStore(path)).run(
                [unevaluable_spec, mate],
                on_result=lambda spec, result: landed.append(spec.fingerprint),
            )
        assert landed == [mate.fingerprint]
        survivor = ResultStore(path)
        assert list(survivor.fingerprints()) == [mate.fingerprint]
        assert list(survivor.dead_letters()) == [sk]

    def test_the_error_names_the_first_parked_entry_in_manifest_order(self):
        from repro.problems import sk_problem

        failing = [
            JobSpec(problem=sk_problem(30, seed=s), p=2, restarts=1, maxiter=4, label=f"sk{s}")
            for s in (0, 1)
        ]
        for manifest in (failing, failing[::-1]):
            first = manifest[0].label
            with pytest.raises(JobFailedError, match=f"^job {first} failed: EngineLimitError"):
                BatchScheduler().run(manifest)


class TestCampaign:
    def test_manifest_expansion_defaults_overrides_and_repeat(self):
        manifest = {
            "schema": 1,
            "defaults": {"restarts": 1, "maxiter": 8, "p": 1},
            "jobs": [
                {"kind": "maxcut", "nodes": 8, "seed": 0, "repeat": 2},
                {"kind": "mis", "nodes": 8, "seed": 1, "maxiter": 10},
            ],
        }
        specs = manifest_specs(manifest)
        assert len(specs) == 3
        assert specs[0].fingerprint == specs[1].fingerprint
        assert specs[0].maxiter == 8
        assert specs[2].maxiter == 10
        assert specs[2].kind == "problem"

    @pytest.mark.parametrize("seed", ["3", 2.7, True])
    def test_non_int_manifest_seed_fails_the_entry(self, seed):
        """Not coerced into another job's instance under a new fingerprint."""
        manifest = {"jobs": [{"kind": "maxcut", "nodes": 8, "seed": seed}]}
        with pytest.raises(ValueError, match=r"^job 0: seed must be an int, got "):
            manifest_specs(manifest)

    def test_unknown_manifest_keys_are_rejected(self):
        with pytest.raises(ValueError, match="unknown manifest keys"):
            manifest_specs({"jobs": [{"kind": "maxcut", "nodes": 8, "wat": 1}]})
        with pytest.raises(ValueError, match="no jobs"):
            manifest_specs({"jobs": []})
        with pytest.raises(ValueError, match="schema"):
            manifest_specs({"schema": 99, "jobs": [{"kind": "maxcut"}]})

    def test_suite_manifest_round_trip(self):
        manifest = suite_manifest(
            "mis", count=3, num_qubits=8, seed=5,
            generator={"edge_probability": 0.3}, restarts=1, maxiter=8,
        )
        specs = manifest_specs(manifest)
        assert len(specs) == 3
        assert len({spec.fingerprint for spec in specs}) == 3
        assert all(spec.restarts == 1 for spec in specs)

    def test_campaign_run_and_aggregates(self, tmp_path):
        manifest = suite_manifest(
            "maxcut", count=2, num_qubits=8, seed=0, restarts=1, maxiter=8,
        )
        manifest["jobs"][0]["repeat"] = 3
        scheduler = BatchScheduler(store=ResultStore(tmp_path / "store.jsonl"))
        report = scheduler.run(manifest_specs(manifest))
        payload = report.to_dict()
        assert payload["jobs"] == 4
        assert payload["unique_jobs"] == 2
        labels = sorted(payload["aggregates"])
        assert payload["aggregates"][labels[0]]["count"] == 3
        json.dumps(payload)  # the whole report is JSON-serializable
        # Resume against the same store file.
        second = BatchScheduler(store=ResultStore(tmp_path / "store.jsonl")).run(
            manifest_specs(manifest)
        )
        assert second.to_dict()["computed"] == 0

    def test_manifest_files_json_and_yaml(self, tmp_path):
        manifest = {
            "schema": 1,
            "jobs": [{"kind": "maxcut", "nodes": 8, "seed": 0}],
        }
        json_path = tmp_path / "manifest.json"
        json_path.write_text(json.dumps(manifest))
        assert load_manifest(json_path) == manifest
        yaml_path = tmp_path / "manifest.yaml"
        yaml_path.write_text(
            "schema: 1\njobs:\n  - kind: maxcut\n    nodes: 8\n    seed: 0\n"
        )
        try:
            import yaml  # noqa: F401
        except ImportError:
            pytest.skip("PyYAML not installed")
        assert load_manifest(yaml_path) == manifest

    def test_malformed_manifest_files_raise_value_error(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{unclosed")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_manifest(bad_json)
        try:
            import yaml  # noqa: F401
        except ImportError:
            return
        bad_yaml = tmp_path / "bad.yaml"
        bad_yaml.write_text("{unclosed: [")
        with pytest.raises(ValueError, match="not valid YAML"):
            load_manifest(bad_yaml)

    def test_specs_are_frozen(self):
        spec = JobSpec(graph=_weighted_graph(6, 0))
        with pytest.raises(AttributeError):
            spec.maxiter = 99

    def test_empty_campaign_is_rejected(self):
        with pytest.raises(ValueError, match="no jobs"):
            BatchScheduler().run([])


_CONFIG_KEYS = ("p", "restarts", "maxiter", "finetune_maxiter", "shots", "warm_start",
                "and_ratio_threshold", "seed")
_CONFIG_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(), st.text())


@settings(max_examples=80, deadline=None)
@example(kind="maxcut", nodes=8, config={"seed": float("inf")})  # int(inf): OverflowError
@given(
    kind=st.sampled_from(["maxcut", "mis", "sk"]),
    nodes=st.integers(1, 8),
    config=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _CONFIG_VALUES, max_size=3),
)
def test_property_manifest_entry_builds_or_fails_in_one_line(kind, nodes, config):
    """Every entry either expands to specs whose pipelines construct, or the
    manifest fails as a whole with one ``job 0: ...`` line."""
    manifest = {"jobs": [{"kind": kind, "nodes": nodes, **config}]}
    try:
        specs = manifest_specs(manifest)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith("job 0: ") and "\n" not in message
        return
    for spec in specs:
        spec.pipeline()
