"""Chunked-graph round trips."""

import numpy as np
import pytest

from repro.exceptions import StateSpaceLimitError
from repro.spn import CompiledNet, generate_tangible_reachability_graph
from repro.statespace import (
    ChunkedGraph,
    CorruptChunkError,
    write_chunked_graph,
)

from tests.spn.nets import machine_repair, mm1k_queue


def chunked_of(net, directory, max_states=10_000, chunk_size=None):
    kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
    write_chunked_graph(net, directory, max_states=max_states, **kwargs)
    return ChunkedGraph.open(directory, CompiledNet(net))


class TestChunkedGraph:
    def test_materialize_is_bit_identical_to_in_ram(self, tmp_path):
        net = mm1k_queue(capacity=5)
        reference = generate_tangible_reachability_graph(net)
        chunked = chunked_of(net, tmp_path / "g")
        materialized = chunked.materialize()
        assert materialized.number_of_states == reference.number_of_states
        np.testing.assert_array_equal(
            materialized.edge_sources, reference.edge_sources
        )
        np.testing.assert_array_equal(
            materialized.edge_targets, reference.edge_targets
        )
        np.testing.assert_array_equal(materialized.edge_rates, reference.edge_rates)
        assert list(materialized.markings) == list(reference.markings)

    def test_exit_rates_match_in_ram(self, tmp_path):
        net = machine_repair(4)
        reference = generate_tangible_reachability_graph(net)
        chunked = chunked_of(net, tmp_path / "g")
        exit_reference = np.zeros(reference.number_of_states)
        np.add.at(exit_reference, reference.edge_sources, reference.edge_rates)
        np.testing.assert_allclose(
            chunked.exit_rates(chunked.rate_vector), exit_reference, rtol=0, atol=0
        )

    def test_throughput_degree_column_matches_coefficients(self, tmp_path):
        net = mm1k_queue(capacity=4)
        reference = generate_tangible_reachability_graph(net)
        chunked = chunked_of(net, tmp_path / "g")
        for name, index in reference.transition_index.items():
            row = reference.state_coefficient_matrix.getrow(index)
            expected = np.zeros(reference.number_of_states)
            expected[row.indices] = row.data
            np.testing.assert_array_equal(
                chunked.throughput_degree_column(index), expected
            )

    def test_with_rate_vector_rerates_without_touching_disk(self, tmp_path):
        chunked = chunked_of(machine_repair(3), tmp_path / "g")
        rerated = chunked.with_rate_vector(chunked.rate_vector * 2.0)
        np.testing.assert_allclose(
            rerated.exit_rates(rerated.rate_vector),
            2.0 * chunked.exit_rates(chunked.rate_vector),
        )

    def test_verify_detects_corrupted_chunk(self, tmp_path):
        directory = tmp_path / "g"
        chunked = chunked_of(machine_repair(3), directory)
        chunked.verify()
        victim = sorted(directory.glob("chunk-*.npy"))[0]
        victim.write_bytes(b"\x00" * victim.stat().st_size)
        with pytest.raises(CorruptChunkError):
            ChunkedGraph.open(directory, CompiledNet(machine_repair(3))).verify()

    def test_max_states_limit_is_enforced(self, tmp_path):
        with pytest.raises(StateSpaceLimitError):
            write_chunked_graph(
                machine_repair(6), tmp_path / "g", max_states=3
            )

