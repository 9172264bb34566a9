"""Tests for the persistent reachability-graph cache."""

import gc
import hashlib
import math
import os
import time
import warnings

import numpy as np
import pytest

from repro.core.parameters import CaseStudyParameters
from repro.core.scenarios import homogeneous_mesh_scenario
from repro.engine import ScenarioBatchEngine, ScenarioSpec, TRGCache, cache_key
from repro.engine import cache as cache_module
from repro.engine.cache import load_or_generate
from repro.engine import faults
from repro.engine.faults import FaultPlan, FaultSpec
from repro.spn import (
    CompiledNet,
    ProbabilityMeasure,
    StochasticPetriNet,
    generate_tangible_reachability_graph,
    graph_deviation,
)
from repro.symmetry import OrbitGroup, SymmetrySpec

from tests.spn.nets import guarded_failover, machine_repair, mm1k_queue


def graph_of(net):
    return generate_tangible_reachability_graph(CompiledNet(net))


#: A two-place spec: only its identity matters to the key tests.
TWO_PLACE_SPEC = SymmetrySpec(
    place_count=2, marking_groups=(OrbitGroup(profiles=((0,), (1,))),)
)


class TestCacheKey:
    def test_key_is_deterministic(self):
        a = CompiledNet(mm1k_queue())
        b = CompiledNet(mm1k_queue())
        assert cache_key(a, 100, None) == cache_key(b, 100, None)

    def test_key_depends_on_structure(self):
        a = CompiledNet(mm1k_queue(capacity=3))
        b = CompiledNet(mm1k_queue(capacity=4))
        assert cache_key(a, 100, None) != cache_key(b, 100, None)

    def test_key_ignores_rates_and_depends_on_limits(self):
        """One structure is one entry: rate variants share the key."""
        a = CompiledNet(mm1k_queue(arrival_mean=2.0))
        b = CompiledNet(mm1k_queue(arrival_mean=3.0))
        assert cache_key(a, 100, None) == cache_key(b, 100, None)
        assert cache_key(a, 100, None) != cache_key(a, 200, None)
        assert cache_key(a, 100, None) != cache_key(a, 100, TWO_PLACE_SPEC)

    def test_key_holds_the_spec_cache_id(self):
        """The key material is the one stored caches were written under."""
        net = CompiledNet(mm1k_queue())
        material = cache_module.structure_fingerprint(net)
        material += "|max_states=100|canonicalize="
        for spec, suffix in ((None, ""), (TWO_PLACE_SPEC, TWO_PLACE_SPEC.cache_id)):
            expected = hashlib.sha256((material + suffix).encode()).hexdigest()
            assert cache_key(net, 100, spec) == expected

    def test_key_depends_on_guards(self):
        a = CompiledNet(guarded_failover())
        b = CompiledNet(guarded_failover(activate="#PRIMARY_ON < 1"))
        assert cache_key(a, 100, None) != cache_key(b, 100, None)


class TestRoundTrip:
    def test_store_then_load_is_equivalent(self, tmp_path):
        cache = TRGCache(tmp_path)
        net = CompiledNet(machine_repair(machines=5))
        graph = generate_tangible_reachability_graph(net)
        cache.store(graph, 500_000)
        loaded = cache.load(net, 500_000)
        assert loaded is not None
        assert graph_deviation(graph, loaded) == 0.0
        assert loaded.markings == graph.markings
        np.testing.assert_array_equal(loaded.edge_sources, graph.edge_sources)
        np.testing.assert_array_equal(loaded.edge_rates, graph.edge_rates)
        assert loaded.transition_names == graph.transition_names
        assert loaded.initial_distribution == graph.initial_distribution

    def test_guarded_net_round_trip(self, tmp_path):
        cache = TRGCache(tmp_path)
        net = CompiledNet(guarded_failover())
        graph = generate_tangible_reachability_graph(net)
        cache.store(graph, 100)
        assert cache.load(net, 100) is not None
        assert cache.load(net, 101) is None  # different limit, different key

    def test_miss_on_empty_cache(self, tmp_path):
        cache = TRGCache(tmp_path)
        assert cache.load(CompiledNet(mm1k_queue()), 100) is None

    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path):
        cache = TRGCache(tmp_path)
        net = CompiledNet(mm1k_queue())
        graph = generate_tangible_reachability_graph(net)
        path = cache.store(graph, 100)
        path.write_bytes(b"not an npz file")
        assert cache.load(net, 100) is None
        assert not path.exists()  # bad entry evicted, next store regenerates

    def test_truncated_entry_is_a_miss_and_is_deleted(self, tmp_path):
        """Regression: a half-written zip raises BadZipFile, not OSError,
        and the rejected file's handle is closed rather than leaked."""
        cache = TRGCache(tmp_path)
        net = CompiledNet(mm1k_queue())
        graph = generate_tangible_reachability_graph(net)
        path = cache.store(graph, 100)
        content = path.read_bytes()
        path.write_bytes(content[: len(content) // 2])
        gc.collect()  # earlier tests' garbage must not report in here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.load(net, 100) is None
            gc.collect()
        assert not path.exists()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == []

    def test_unwritable_cache_does_not_fail_the_run(self, tmp_path):
        # A regular file as path parent makes mkdir fail with an OSError
        # (permission tricks don't work when the suite runs as root).
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        cache = TRGCache(blocker / "sub")
        with pytest.warns(UserWarning, match="could not persist"):
            graph, source = load_or_generate(CompiledNet(mm1k_queue()), cache)
        assert source == "generated"
        assert graph.number_of_states == 4


def _rewrite_entry(path, mutate):
    """Reload an entry's arrays, apply ``mutate``, and write them back.

    Writes a well-formed ``.npz`` (valid zip, valid CRCs), so only the
    sha256 payload digest can catch what ``mutate`` changed.
    """
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name].copy() for name in data.files}
    mutate(arrays)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


class TestIntegrityDigest:
    def test_store_embeds_payload_digest(self, tmp_path):
        cache = TRGCache(tmp_path)
        path = cache.store(graph_of(mm1k_queue()), 100)
        with np.load(path, allow_pickle=False) as data:
            assert cache_module.DIGEST_ARRAY in data.files
            digest = data[cache_module.DIGEST_ARRAY]
        assert digest.dtype == np.uint8 and digest.shape == (32,)

    def test_digest_ignores_its_own_array(self, tmp_path):
        cache = TRGCache(tmp_path)
        path = cache.store(graph_of(mm1k_queue()), 100)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        recomputed = cache_module.payload_digest(arrays)
        np.testing.assert_array_equal(arrays[cache_module.DIGEST_ARRAY], recomputed)

    def test_flipped_payload_byte_is_a_miss(self, tmp_path):
        """A valid zip with silently altered numbers must not load."""
        cache = TRGCache(tmp_path)
        net = CompiledNet(mm1k_queue())
        path = cache.store(generate_tangible_reachability_graph(net), 100)

        def corrupt(arrays):
            arrays["edge_rates"] = arrays["edge_rates"].copy()
            arrays["edge_rates"][0] += 1.0

        _rewrite_entry(path, corrupt)
        assert cache.load(net, 100) is None
        assert not path.exists()

    def test_missing_digest_is_a_miss(self, tmp_path):
        """Entries from before the digest era (format v1) do not load."""
        cache = TRGCache(tmp_path)
        net = CompiledNet(mm1k_queue())
        path = cache.store(generate_tangible_reachability_graph(net), 100)
        _rewrite_entry(path, lambda arrays: arrays.pop(cache_module.DIGEST_ARRAY))
        assert cache.load(net, 100) is None
        assert not path.exists()

    def test_missing_array_is_a_miss(self, tmp_path):
        cache = TRGCache(tmp_path)
        net = CompiledNet(mm1k_queue())
        path = cache.store(generate_tangible_reachability_graph(net), 100)
        _rewrite_entry(path, lambda arrays: arrays.pop("edge_sources"))
        assert cache.load(net, 100) is None
        assert not path.exists()

    def test_dtype_rewrite_is_a_miss(self, tmp_path):
        """Same bytes, different dtype: zip CRC passes, digest must not."""
        cache = TRGCache(tmp_path)
        net = CompiledNet(mm1k_queue())
        path = cache.store(generate_tangible_reachability_graph(net), 100)

        def retype(arrays):
            arrays["edge_sources"] = arrays["edge_sources"].astype(np.int32)

        _rewrite_entry(path, retype)
        assert cache.load(net, 100) is None
        assert not path.exists()

    def test_regeneration_after_eviction(self, tmp_path):
        """The canonical self-heal cycle: corrupt → miss → store → hit."""
        cache = TRGCache(tmp_path)
        net = CompiledNet(mm1k_queue())
        graph = generate_tangible_reachability_graph(net)
        path = cache.store(graph, 100)
        path.write_bytes(b"garbage")
        assert cache.load(net, 100) is None
        cache.store(graph, 100)
        reloaded = cache.load(net, 100)
        assert reloaded is not None
        assert graph_deviation(graph, reloaded) == 0.0


class TestInjectedCorruption:
    def test_corrupt_cache_read_fault_forces_regeneration(self, tmp_path):
        """The injected fault truncates the real file and rides the real
        corruption path: miss, eviction, regeneration, then clean hits."""
        cache = TRGCache(tmp_path)
        net = CompiledNet(mm1k_queue())
        graph = generate_tangible_reachability_graph(net)
        path = cache.store(graph, 100)
        plan = FaultPlan([FaultSpec(kind=faults.CORRUPT_CACHE_READ, count=1)])
        with faults.injected(plan):
            assert cache.load(net, 100) is None  # fault fires here
            assert not path.exists()
            cache.store(graph, 100)
            reloaded = cache.load(net, 100)  # plan exhausted: normal load
        assert plan.fired(faults.CORRUPT_CACHE_READ) == 1
        assert reloaded is not None
        assert graph_deviation(graph, reloaded) == 0.0

    def test_fault_site_pattern_can_exclude_cache(self, tmp_path):
        cache = TRGCache(tmp_path)
        net = CompiledNet(mm1k_queue())
        cache.store(generate_tangible_reachability_graph(net), 100)
        plan = FaultPlan(
            [FaultSpec(kind=faults.CORRUPT_CACHE_READ, site="something.else")]
        )
        with faults.injected(plan):
            assert cache.load(net, 100) is not None
        assert plan.fired() == 0


class TestMaintenance:
    def test_entries_and_clear(self, tmp_path):
        cache = TRGCache(tmp_path)
        cache.store(graph_of(mm1k_queue()), 100)
        cache.store(graph_of(machine_repair()), 100)
        entries = cache.entries()
        assert len(entries) == 2
        assert all(entry.size_bytes > 0 for entry in entries)
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_clear_by_age_keeps_recent_entries(self, tmp_path):
        cache = TRGCache(tmp_path)
        old = cache.store(graph_of(mm1k_queue()), 100)
        cache.store(graph_of(machine_repair()), 100)
        ten_days_ago = time.time() - 10 * 86_400.0
        os.utime(old, (ten_days_ago, ten_days_ago))
        assert cache.clear(older_than_days=5) == 1
        (kept,) = cache.entries()
        assert kept.path != old

    @pytest.mark.parametrize("days", [math.nan, -1.0, math.inf, -math.inf])
    def test_clear_refuses_a_negative_or_non_finite_age(self, tmp_path, days):
        cache = TRGCache(tmp_path)
        cache.store(graph_of(mm1k_queue()), 100)
        cache.store(graph_of(machine_repair()), 100)
        with pytest.raises(ValueError, match="finite number of days"):
            cache.clear(older_than_days=days)
        assert len(cache.entries()) == 2


class TestEngineIntegration:
    """Engines over graphs from :func:`load_or_generate`, the cache's one
    read-or-generate path."""

    def test_second_engine_hits_the_cache(self, tmp_path):
        cache = TRGCache(tmp_path)
        first, source = load_or_generate(CompiledNet(mm1k_queue()), cache)
        assert source == "generated"
        second, source = load_or_generate(CompiledNet(mm1k_queue()), cache)
        assert source == "cache"
        assert graph_deviation(first, second) == 0.0
        assert ScenarioBatchEngine(second).number_of_states == 4

    def test_rate_variants_share_one_entry(self, tmp_path):
        cache = TRGCache(tmp_path)
        load_or_generate(CompiledNet(mm1k_queue(arrival_mean=2.0)), cache)
        _, source = load_or_generate(CompiledNet(mm1k_queue(arrival_mean=3.0)), cache)
        assert source == "cache"
        assert len(cache.entries()) == 1

    def test_hit_carries_the_loading_nets_rates(self, tmp_path):
        """A variant's hit is re-rated to its own net, not the storer's."""
        cache = TRGCache(tmp_path)
        load_or_generate(CompiledNet(mm1k_queue(arrival_mean=2.0)), cache)
        net = CompiledNet(mm1k_queue(arrival_mean=3.0))
        loaded, source = load_or_generate(net, cache)
        assert source == "cache"
        fresh = generate_tangible_reachability_graph(net)
        assert graph_deviation(loaded, fresh) == 0.0

    def test_net_without_timed_transitions_is_cached(self, tmp_path):
        # Its coefficient arrays are empty, not missing, so it persists.
        def lone_place():
            net = StochasticPetriNet("lone")
            net.add_place("UP", 1)
            return net

        cache = TRGCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_or_generate(CompiledNet(lone_place()), cache)
            graph, source = load_or_generate(CompiledNet(lone_place()), cache)
            (result,) = ScenarioBatchEngine(graph).run(
                [ScenarioSpec("only")], [ProbabilityMeasure("up", "#UP = 1")]
            )
        assert source == "cache"
        assert result.value("up") == 1.0

    def test_cached_graph_solves_bit_identically(self, tmp_path):
        cache = TRGCache(tmp_path)
        net = CompiledNet(machine_repair(machines=30))
        generated, _ = load_or_generate(net, cache)
        from_cache, source = load_or_generate(net, cache)
        assert source == "cache"
        spec = ScenarioSpec("slower", delays={"FAIL": 25.0})
        measures = [ProbabilityMeasure("all_up", "#BROKEN == 0")]
        a, b = (
            ScenarioBatchEngine(graph).run([spec], measures, keep_solutions=True)[0]
            for graph in (generated, from_cache)
        )
        np.testing.assert_array_equal(
            a.solution.probabilities, b.solution.probabilities
        )

    def test_identified_canonicalizer_uses_cache(self, tmp_path):
        # A lumped graph is cached under its symmetry spec's identity.
        model = homogeneous_mesh_scenario(2, machines_per_datacenter=1).build_model(
            CaseStudyParameters(required_running_vms=1, vms_per_physical_machine=1)
        )
        spec = model.symmetry_spec()
        cache = TRGCache(tmp_path)
        net = CompiledNet(model.build())
        lumped, _ = load_or_generate(net, cache, symmetry=spec)
        assert len(cache.entries()) == 1
        assert cache.entries()[0].key == cache_key(net, 500_000, spec)
        hit, source = load_or_generate(net, cache, symmetry=spec)
        assert source == "cache"
        assert hit.markings == lumped.markings
        # The spec identity is part of the key.
        unlumped, source = load_or_generate(net, cache)
        assert source == "generated"
        assert unlumped.number_of_states > lumped.number_of_states

    def test_no_cache_by_default(self):
        _, source = load_or_generate(CompiledNet(mm1k_queue()))
        assert source == "generated"


class TestRunnerIntegration:
    """Repeat case-study runs read the structure's one entry."""

    @staticmethod
    def parameters():
        from repro.core import CaseStudyParameters

        return CaseStudyParameters(required_running_vms=1)

    @staticmethod
    def scenarios(**overrides):
        from repro.core import DistributedScenario
        from repro.network import BRASILIA, RIO_DE_JANEIRO

        return [
            DistributedScenario(
                RIO_DE_JANEIRO, BRASILIA, machines_per_datacenter=1, **overrides
            )
        ]

    def test_repeat_runner_loads_from_cache(self, tmp_path):
        from repro.casestudy import evaluate_grid

        first = evaluate_grid(
            self.scenarios(), self.parameters(), cache_dir=str(tmp_path)
        )
        assert first.groups[0].graph_source == "generated"
        second = evaluate_grid(
            self.scenarios(alpha=0.45), self.parameters(), cache_dir=str(tmp_path)
        )
        assert second.groups[0].graph_source == "cache"
        assert second.groups[0].number_of_states == first.groups[0].number_of_states

    def test_use_cache_false_bypasses(self, tmp_path):
        from repro.casestudy import evaluate_grid

        outcome = evaluate_grid(
            self.scenarios(),
            self.parameters(),
            use_cache=False,
            cache_dir=str(tmp_path),
        )
        assert outcome.groups[0].graph_source == "generated"
        assert TRGCache(tmp_path).entries() == []

    def test_figure7_and_grid_share_one_entry(self, tmp_path):
        """Two entry points over one structure leave one cache entry."""
        from repro.casestudy import evaluate_grid, reproduce_figure7
        from repro.core.scenarios import CITY_PAIRS

        reproduce_figure7(
            CITY_PAIRS[:1],
            alphas=[0.40],
            disaster_years=[200.0],
            parameters=self.parameters(),
            machines_per_datacenter=1,
            cache_dir=str(tmp_path),
        )
        assert len(TRGCache(tmp_path).entries()) == 1
        outcome = evaluate_grid(
            self.scenarios(disaster_mean_time_years=300.0),
            self.parameters(),
            cache_dir=str(tmp_path),
        )
        assert outcome.groups[0].graph_source == "cache"
        assert len(TRGCache(tmp_path).entries()) == 1


def _hammer_store(directory, machines, iterations):
    """Worker-side: store the same entry over and over (two-writer stress)."""
    net = CompiledNet(machine_repair(machines=machines))
    graph = generate_tangible_reachability_graph(net)
    cache = TRGCache(directory)
    for _ in range(iterations):
        cache.store(graph, 500_000)
    return iterations


class TestConcurrentWrites:
    def test_two_writer_stress_never_tears_the_entry(self, tmp_path):
        """Concurrent stores of one key must never leave a torn entry.

        ``TRGCache.store`` writes to a temp file and ``os.replace``s it into
        place, so a reader racing two writers sees either the old complete
        entry or the new complete entry — never a partial file (which would
        read back as a miss or corrupt payload).
        """
        from concurrent.futures import ProcessPoolExecutor

        net = CompiledNet(machine_repair(machines=5))
        reference = generate_tangible_reachability_graph(net)
        cache = TRGCache(tmp_path)
        cache.store(reference, 500_000)
        with ProcessPoolExecutor(max_workers=2) as pool:
            writers = [
                pool.submit(_hammer_store, str(tmp_path), 5, 25) for _ in range(2)
            ]
            reads = 0
            while not all(writer.done() for writer in writers):
                loaded = cache.load(net, 500_000)
                assert loaded is not None, "reader saw a torn/missing entry"
                assert graph_deviation(reference, loaded) == 0.0
                reads += 1
            assert [writer.result() for writer in writers] == [25, 25]
        assert reads > 0
        final = cache.load(net, 500_000)
        assert final is not None
        assert graph_deviation(reference, final) == 0.0
