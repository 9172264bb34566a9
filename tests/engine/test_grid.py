"""Tests for the structure-grouped scenario-grid orchestrator."""

import json
import pickle
from dataclasses import replace

import numpy as np

import pytest

from repro.casestudy.grid import CaseStudyGrid, evaluate_grid, scenario_case
from repro.core import CaseStudyParameters
from repro.core.scenarios import (
    CITY_PAIRS,
    DistributedScenario,
    MultiDataCenterScenario,
    SingleDataCenterScenario,
    homogeneous_mesh_scenario,
)
from repro.engine import (
    GridCase,
    ScenarioBatchEngine,
    ScenarioGridOrchestrator,
    ScenarioSpec,
    TRGCache,
)
from repro.engine.cache import load_or_generate
from repro.engine.grid import _generate_into_cache
from repro.engine.parallel import shared_pool, shutdown_shared_pool
from repro.exceptions import ExpressionError, ModelError
from repro.network.geo import BRASILIA, RECIFE, RIO_DE_JANEIRO
from repro.spn.enabling import CompiledNet
from repro.spn.reachability import (
    DEFAULT_MAX_TANGIBLE_MARKINGS,
    generate_tangible_reachability_graph,
)
from repro.spn.rewards import ProbabilityMeasure
from repro.spn.validation import validate

REDUCED = CaseStudyParameters(required_running_vms=1)


def reduced_case(scenario, **kwargs):
    return scenario_case(scenario, parameters=REDUCED, **kwargs)


def distributed(alpha=0.35, years=100.0, machines=1, pair=0):
    first, second = CITY_PAIRS[pair]
    return DistributedScenario(
        first,
        second,
        alpha=alpha,
        disaster_mean_time_years=years,
        machines_per_datacenter=machines,
    )


def structure_key(case):
    return ScenarioGridOrchestrator().group_key(CompiledNet(case.net), case.symmetry)


def case_engine(case):
    """A batch engine over a freshly generated graph of ``case``'s structure."""
    graph, _ = case.graph()
    return ScenarioBatchEngine(graph)


def solve_case(case):
    """Availability of ``case`` solved alone on its own engine."""
    (result,) = case_engine(case).run(
        [ScenarioSpec(name=case.name, rates=case.full_rates())], list(case.measures)
    )
    return result.value(case.measures[0].name)


def serial_oracle(cases):
    """Measures per case name from one serial batch engine per structure."""
    engines = {}
    values = {}
    for case in cases:
        key = structure_key(case)
        if key not in engines:
            engines[key] = case_engine(case)
        (result,) = engines[key].run(
            [ScenarioSpec(name=case.name, rates=case.full_rates())],
            list(case.measures),
        )
        values[case.name] = result.measures
    return values


def assert_matches_oracle(outcome, cases):
    reference = serial_oracle(cases)
    assert sorted(row.name for row in outcome.results) == sorted(reference)
    for row in outcome.results:
        for name, value in row.measures.items():
            assert abs(value - reference[row.name][name]) < 1e-12


class TestGrouping:
    def group_key(self, case):
        return structure_key(case)

    def test_rate_only_differences_share_a_group(self):
        # Different α, disaster mean time AND city pair: all pure rate
        # changes of one structure.
        keys = {
            self.group_key(reduced_case(distributed(alpha=0.35))),
            self.group_key(reduced_case(distributed(alpha=0.45))),
            self.group_key(reduced_case(distributed(years=300.0))),
            self.group_key(reduced_case(distributed(pair=3))),
        }
        assert len(keys) == 1

    def test_machine_counts_split_groups(self):
        assert self.group_key(reduced_case(distributed(machines=1))) != self.group_key(
            reduced_case(distributed(machines=2))
        )

    def test_backup_ablation_splits_groups(self):
        with_backup = MultiDataCenterScenario(
            locations=CITY_PAIRS[0], machines_per_datacenter=1
        )
        without = MultiDataCenterScenario(
            locations=CITY_PAIRS[0], machines_per_datacenter=1, has_backup_server=False
        )
        assert self.group_key(reduced_case(with_backup)) != self.group_key(
            reduced_case(without)
        )

    def test_l_threshold_splits_groups(self):
        base = MultiDataCenterScenario(locations=CITY_PAIRS[0], machines_per_datacenter=1)
        stricter = MultiDataCenterScenario(
            locations=CITY_PAIRS[0], machines_per_datacenter=1, minimum_operational_pms=2
        )
        assert self.group_key(reduced_case(base)) != self.group_key(
            reduced_case(stricter)
        )

    def test_canonicalizer_identity_part_of_group(self):
        lumped = reduced_case(distributed(machines=2))
        unlumped = reduced_case(distributed(machines=2), symmetry_reduction=False)
        assert lumped.symmetry is not None and unlumped.symmetry is None
        assert self.group_key(lumped) != self.group_key(unlumped)

    def test_duplicate_names_rejected(self):
        case = reduced_case(distributed())
        with pytest.raises(ValueError):
            ScenarioGridOrchestrator().run([case, case])


#: One VM per machine, k = 1: small mesh state spaces, lumped or not.
TINY = CaseStudyParameters(required_running_vms=1, vms_per_physical_machine=1)


def mesh_case(datacenters):
    """A lumped grid case of a homogeneous one-PM-per-DC mesh."""
    return scenario_case(
        homogeneous_mesh_scenario(
            datacenters, machines_per_datacenter=1, capacity_aware_migration=True
        ),
        parameters=TINY,
    )


def graph_arrays(graph):
    """Every array of a graph, by name (markings and initial state included)."""
    arrays = {
        "markings": np.asarray(graph.markings, dtype=np.int64),
        "initial_ids": np.asarray(list(graph.initial_distribution)),
        "initial_probabilities": np.asarray(list(graph.initial_distribution.values())),
        "edge_sources": graph.edge_sources,
        "edge_targets": graph.edge_targets,
        "edge_rates": graph.edge_rates,
    }
    for name in ("edge_coefficient_matrix", "state_coefficient_matrix"):
        matrix = getattr(graph, name)
        for part in ("data", "indices", "indptr"):
            arrays[f"{name}.{part}"] = getattr(matrix, part)
    return arrays


class TestSymmetrySpecCases:
    """A grid case's lumping is its picklable ``SymmetrySpec``."""

    def stale_case(self):
        # The 3-DC mesh's net offered with the 2-DC mesh's spec (the
        # generator's own refusal is tests/symmetry/test_validate.py's).
        return replace(mesh_case(3), symmetry=mesh_case(2).symmetry)

    def test_spec_case_survives_pickling(self):
        case = mesh_case(3)
        assert case.symmetry is not None
        clone = pickle.loads(pickle.dumps(case))
        assert clone.symmetry == case.symmetry
        assert clone.symmetry.cache_id == case.symmetry.cache_id
        assert structure_key(clone) == structure_key(case)

    def test_pool_worker_graph_equals_in_process(self, tmp_path):
        case = pickle.loads(pickle.dumps(mesh_case(3)))
        compiled = CompiledNet(case.net)
        future = shared_pool.submit(
            "generate",
            1,
            _generate_into_cache,
            case.net,
            DEFAULT_MAX_TANGIBLE_MARKINGS,
            str(tmp_path),
            case.symmetry,
        )
        future.result(timeout=300)
        pooled = TRGCache(tmp_path).load(
            compiled, DEFAULT_MAX_TANGIBLE_MARKINGS, case.symmetry
        )
        local = generate_tangible_reachability_graph(compiled, symmetry=case.symmetry)
        unlumped = generate_tangible_reachability_graph(compiled)
        assert pooled is not None
        assert local.number_of_states < unlumped.number_of_states
        expected = graph_arrays(local)
        for name, array in graph_arrays(pooled).items():
            assert np.array_equal(array, expected[name]), name

    @pytest.mark.parametrize("representation", ["in_ram", "chunked"])
    def test_stale_spec_rejected_by_load_or_generate(self, tmp_path, representation):
        case = self.stale_case()
        cache = TRGCache(tmp_path)
        with pytest.raises(ModelError, match="different net"):
            load_or_generate(
                CompiledNet(case.net),
                cache,
                symmetry=case.symmetry,
                representation=representation,
            )
        assert cache.entries() == []

    def test_stale_spec_rejected_by_the_orchestrator_before_generation(
        self, tmp_path
    ):
        # The valid first case would generate first if the check came late.
        cases = [mesh_case(2), replace(self.stale_case(), name="stale")]
        cache = TRGCache(tmp_path)
        with pytest.raises(ModelError, match="different net"):
            ScenarioGridOrchestrator(cache=cache, jobs=1).run(cases)
        assert cache.entries() == []


class TestOrchestratedRun:
    @pytest.fixture(scope="class")
    def mixed_outcome_and_cases(self):
        cases = [
            reduced_case(distributed(alpha=0.35)),
            reduced_case(distributed(alpha=0.45)),
            reduced_case(distributed(pair=1, years=300.0)),
            reduced_case(
                SingleDataCenterScenario(machines=1, label="single-1", parameters=REDUCED)
            ),
            reduced_case(
                SingleDataCenterScenario(machines=2, label="single-2", parameters=REDUCED)
            ),
        ]
        outcome = ScenarioGridOrchestrator().run(cases)
        return outcome, cases

    def test_results_preserve_input_order_and_grouping(self, mixed_outcome_and_cases):
        outcome, cases = mixed_outcome_and_cases
        assert [row.name for row in outcome.results] == [case.name for case in cases]
        assert len(outcome.groups) == 3
        two_dc = outcome.results[0].group
        assert outcome.results[1].group == two_dc == outcome.results[2].group
        assert outcome.results[3].group != outcome.results[4].group != two_dc

    def test_grid_matches_per_scenario_serial_evaluation(self, mixed_outcome_and_cases):
        """The acceptance bar: orchestration must not change any number."""
        outcome, cases = mixed_outcome_and_cases
        for case, row in zip(cases, outcome.results):
            assert abs(solve_case(case) - row.value("availability")) < 1e-12

    def test_provenance_recorded(self, mixed_outcome_and_cases):
        outcome, _ = mixed_outcome_and_cases
        for group in outcome.groups:
            assert group.graph_source in {"generated", "generated:pool", "cache"}
            assert group.number_of_states > 0
            assert group.backend in {"serial", "process"}


class TestCacheAndShards:
    def test_second_run_hits_cache_and_agrees(self, tmp_path):
        cases = [
            reduced_case(distributed(alpha=0.35)),
            reduced_case(distributed(alpha=0.45)),
        ]
        cache = TRGCache(tmp_path / "cache")
        first = ScenarioGridOrchestrator(cache=cache).run(cases)
        second = ScenarioGridOrchestrator(cache=cache).run(cases)
        assert all(
            group.graph_source in {"generated", "generated:pool"}
            for group in first.groups
        )
        assert all(group.cache_hit for group in second.groups)
        for a, b in zip(first.results, second.results):
            assert a.measures == b.measures

    def test_shards_stream_every_row(self, tmp_path):
        cases = [
            reduced_case(distributed(alpha=0.35)),
            reduced_case(distributed(alpha=0.45)),
            reduced_case(
                SingleDataCenterScenario(machines=1, label="single-1", parameters=REDUCED)
            ),
        ]
        outcome = ScenarioGridOrchestrator(
            shard_directory=tmp_path / "shards", shard_size=2
        ).run(cases)
        assert len(outcome.shard_paths) == 2
        records = []
        for path in outcome.shard_paths:
            with open(path) as handle:
                records.extend(json.loads(line) for line in handle)
        assert sorted(record["index"] for record in records) == [0, 1, 2]
        by_index = {record["index"]: record for record in records}
        for index, row in enumerate(outcome.results):
            assert by_index[index]["measures"] == row.measures
            assert by_index[index]["group"] == row.group

    def test_rate_only_variants_hit_the_cache_across_runs(self, tmp_path):
        """A new rate point (new α) must not regenerate the shared structure."""
        cache = TRGCache(tmp_path / "cache")
        first = ScenarioGridOrchestrator(cache=cache).run(
            [reduced_case(distributed(alpha=0.35))]
        )
        assert first.groups[0].graph_source in {"generated", "generated:pool"}
        second = ScenarioGridOrchestrator(cache=cache).run(
            [reduced_case(distributed(alpha=0.45)), reduced_case(distributed(years=300.0))]
        )
        assert [group.graph_source for group in second.groups] == ["cache"]
        # Values still match a fresh serial evaluation of the new rate point.
        case = reduced_case(distributed(alpha=0.45))
        reference = solve_case(case)
        assert abs(reference - second.results[0].value("availability")) < 1e-12

    def test_rerun_removes_stale_shards(self, tmp_path):
        directory = tmp_path / "shards"
        big = [
            reduced_case(distributed(alpha=0.35)),
            reduced_case(distributed(alpha=0.45)),
            reduced_case(distributed(years=300.0)),
        ]
        ScenarioGridOrchestrator(shard_directory=directory, shard_size=1).run(big)
        assert len(list(directory.glob("grid-shard-*.jsonl"))) == 3
        small = ScenarioGridOrchestrator(
            shard_directory=directory, shard_size=1
        ).run(big[:1])
        assert len(list(directory.glob("grid-shard-*.jsonl"))) == 1
        assert len(small.shard_paths) == 1

    def test_concurrent_generation_on_pool(self, tmp_path):
        # Two distinct structures, two generation workers: both graphs must
        # come back through the cache transport bit-identically.
        cases = [
            reduced_case(distributed(alpha=0.35)),
            reduced_case(
                SingleDataCenterScenario(machines=1, label="single-1", parameters=REDUCED)
            ),
        ]
        pooled = ScenarioGridOrchestrator(generation_workers=2).run(cases)
        serial = ScenarioGridOrchestrator(generation_workers=1).run(cases)
        for a, b in zip(pooled.results, serial.results):
            assert a.measures == b.measures


class TestMergedMeasures:
    def test_same_name_different_expressions_in_one_group(self):
        scenario = distributed()
        model = scenario.build_model(REDUCED)
        net = model.build()
        loose = GridCase(
            name="k1",
            net=net,
            measures=(
                ProbabilityMeasure(
                    "availability", model.availability_expression(required_running_vms=1)
                ),
            ),
        )
        strict = GridCase(
            name="k2",
            net=net,
            measures=(
                ProbabilityMeasure(
                    "availability", model.availability_expression(required_running_vms=2)
                ),
            ),
        )
        outcome = ScenarioGridOrchestrator().run([loose, strict])
        assert len(outcome.groups) == 1
        assert outcome.result("k1").value("availability") > outcome.result("k2").value(
            "availability"
        )


class TestMeasureValidation:
    def test_malformed_measure_fails_before_generation(self, tmp_path):
        """Every measure parses before any group generates, not at its solve."""
        case = replace(
            reduced_case(distributed()),
            measures=(ProbabilityMeasure("availability", "NOT (#VM_UP_1 = "),),
        )
        orchestrator = ScenarioGridOrchestrator(cache=TRGCache(tmp_path), jobs=1)
        with pytest.raises(ExpressionError):
            orchestrator.run([case])
        assert list(tmp_path.glob("trg-*")) == []


class TestMultiDataCenterTopologies:
    def test_three_datacenter_mesh_passes_structural_validation(self):
        scenario = MultiDataCenterScenario(
            locations=(RIO_DE_JANEIRO, BRASILIA, RECIFE), machines_per_datacenter=1
        )
        net = scenario.build_model(REDUCED).build()
        issues = validate(net)
        assert not issues
        names = set(net.transition_names)
        for i, j in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            assert f"TRI_{i}{j}" in names
            assert f"TBE_{i}{j}" in names

    def test_grid_axes_prune_single_site_scenarios(self):
        grid = CaseStudyGrid(
            city_sets=((RIO_DE_JANEIRO, BRASILIA), (RIO_DE_JANEIRO,)),
            alphas=(0.35, 0.45),
            disaster_years=(100.0,),
            machines_per_datacenter=(1,),
            backup=(True, False),
        )
        scenarios = grid.scenarios()
        # 2-DC: 2 alphas x 2 backup = 4; single site: 1 (alpha/backup pruned).
        assert len(scenarios) == 5
        labels = [s.label for s in scenarios]
        assert len(set(labels)) == 5

    def test_evaluate_grid_end_to_end(self, tmp_path):
        grid = CaseStudyGrid(
            city_sets=((RIO_DE_JANEIRO, BRASILIA), (RIO_DE_JANEIRO,)),
            machines_per_datacenter=(1,),
        )
        outcome = evaluate_grid(
            grid.scenarios(),
            parameters=REDUCED,
            use_cache=True,
            cache_dir=str(tmp_path / "cache"),
        )
        assert len(outcome.results) == 2
        assert all(0.9 < row.value("availability") <= 1.0 for row in outcome.results)

    def test_evaluate_grid_shares_nets_across_rate_variants(self):
        grid = CaseStudyGrid(
            city_sets=((RIO_DE_JANEIRO, BRASILIA), (RIO_DE_JANEIRO, RECIFE)),
            alphas=(0.35, 0.45),
            machines_per_datacenter=(1,),
        )
        outcome = evaluate_grid(grid.scenarios(), parameters=REDUCED, use_cache=False)
        # Four rate-only variants of one structure: one group, one state
        # space — and every value still matches its own serial evaluation.
        assert len(outcome.groups) == 1
        assert outcome.groups[0].cases == 4
        for scenario, row in zip(grid.scenarios(), outcome.results):
            reference = solve_case(reduced_case(scenario))
            assert abs(reference - row.value("availability")) < 1e-12


class TestPipeline:
    """Work-stealing generate→solve pipeline against the serial oracle."""

    def cases(self):
        return [
            reduced_case(distributed(alpha=0.35)),
            reduced_case(distributed(alpha=0.45)),
            reduced_case(
                SingleDataCenterScenario(machines=1, label="single-1", parameters=REDUCED)
            ),
            reduced_case(
                SingleDataCenterScenario(machines=2, label="single-2", parameters=REDUCED)
            ),
        ]

    def test_pipeline_matches_serial_oracle_below_1e_12(self, tmp_path):
        cases = self.cases()
        outcome = ScenarioGridOrchestrator(
            jobs=2, shard_directory=tmp_path / "pipe"
        ).run(cases)
        assert [row.name for row in outcome.results] == [case.name for case in cases]
        assert_matches_oracle(outcome, cases)

        records = {}
        for path in outcome.shard_paths:
            with open(path) as handle:
                for line in handle:
                    record = json.loads(line)
                    records[record["index"]] = record
        assert set(records) == set(range(len(cases)))
        for index, record in records.items():
            assert record["name"] == outcome.results[index].name
            assert record["measures"] == outcome.results[index].measures

    def test_single_core_budget_generates_in_process(self, monkeypatch):
        """One effective core: generation width one, so every graph is
        generated in the parent and no pool worker is ever forked."""
        monkeypatch.setattr(
            "repro.engine.dispatch.effective_cpu_count", lambda: 1
        )
        shutdown_shared_pool()
        cases = self.cases()
        outcome = ScenarioGridOrchestrator().run(cases)
        assert shared_pool._pool is None
        assert len(outcome.groups) == 3
        assert all(group.graph_source == "generated" for group in outcome.groups)
        assert all(group.backend == "serial" for group in outcome.groups)
        assert_matches_oracle(outcome, cases)

    def test_forced_pipeline_records_timeline(self):
        outcome = ScenarioGridOrchestrator(jobs=2).run(self.cases()[:3])
        for group in outcome.groups:
            assert group.solve_started_at >= 0.0
            assert group.generate_finished_at >= 0.0
            assert group.solve_started_at >= group.generate_finished_at - 1e-9
            timeline = group.timeline()
            assert set(timeline) == {
                "generate_finished_at",
                "solve_started_at",
                "queue_wait_seconds",
                "generate_seconds",
                "solve_seconds",
            }

    def test_pipeline_reports_groups_in_first_appearance_order(self):
        cases = self.cases()
        outcome = ScenarioGridOrchestrator(jobs=2).run(cases)
        expected = list(dict.fromkeys(structure_key(case) for case in cases))
        assert [g.key for g in outcome.groups] == expected

    def test_progress_callback_receives_lines(self):
        lines = []
        ScenarioGridOrchestrator(jobs=2, log_callback=lines.append).run(
            self.cases()[:3]
        )
        assert lines
        assert any("groups done" in line for line in lines)

    def test_broken_pool_submission_falls_back_in_process(self, monkeypatch):
        from pickle import PicklingError

        from repro.engine import parallel as parallel_module

        def refuse(kind, workers, fn, /, *args, **kwargs):
            raise PicklingError("nope")

        monkeypatch.setattr(parallel_module.shared_pool, "submit", refuse)
        cases = self.cases()[:3]
        with pytest.warns(UserWarning, match="generating in-process"):
            outcome = ScenarioGridOrchestrator(jobs=2).run(cases)
        assert_matches_oracle(outcome, cases)
        assert all(
            group.graph_source in {"generated", "cache"} for group in outcome.groups
        )


class TestGridDedupe:
    """Cross-case stationary-vector sharing inside one structure group."""

    def threshold_cases(self):
        scenario = distributed()
        model = scenario.build_model(REDUCED)
        net = model.build()
        return [
            GridCase(
                name=f"k{required}",
                net=net,
                measures=(
                    ProbabilityMeasure(
                        "availability",
                        model.availability_expression(required_running_vms=required),
                    ),
                ),
            )
            for required in (1, 2, 3)
        ]

    def test_rate_identical_cases_solve_once(self):
        outcome = ScenarioGridOrchestrator().run(self.threshold_cases())
        assert len(outcome.groups) == 1
        assert outcome.deduped_cases == 2
        assert outcome.groups[0].deduped_cases == 2
        sources = [row.solve_source for row in outcome.results]
        assert sources == ["solved", "deduped", "deduped"]

    def test_deduped_measures_stay_per_case(self):
        cases = self.threshold_cases()
        outcome = ScenarioGridOrchestrator().run(cases)
        values = [row.value("availability") for row in outcome.results]
        assert values[0] > values[1] > values[2]  # stricter k, lower availability
        assert_matches_oracle(outcome, cases)

    def test_deduped_rows_match_each_case_solved_alone(self):
        cases = self.threshold_cases()
        outcome = ScenarioGridOrchestrator().run(cases)
        assert outcome.deduped_cases == 2
        for case, row in zip(cases, outcome.results):
            assert abs(row.value("availability") - solve_case(case)) < 1e-12

    def test_dedupe_through_the_pipeline(self):
        # Two structure groups, one of which has a rate-identical pair.
        cases = self.threshold_cases()[:2] + [
            reduced_case(
                SingleDataCenterScenario(machines=1, label="single-1", parameters=REDUCED)
            )
        ]
        outcome = ScenarioGridOrchestrator(jobs=2).run(cases)
        assert outcome.deduped_cases == 1
        assert outcome.result("k2").solve_source == "deduped"

    def test_deduped_rows_survive_shards(self, tmp_path):
        outcome = ScenarioGridOrchestrator(shard_directory=tmp_path).run(
            self.threshold_cases()
        )
        records = []
        for path in outcome.shard_paths:
            with open(path) as handle:
                records.extend(json.loads(line) for line in handle)
        by_name = {record["name"]: record for record in records}
        assert by_name["k1"]["solve_source"] == "solved"
        assert by_name["k2"]["solve_source"] == "deduped"
