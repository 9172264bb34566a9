"""Disk-backed chunked-CSR representation of a tangible reachability graph.

The chunked representation stores the wave blocks of
:class:`repro.spn.reachability.WaveExploration` as they are produced — one
set of plain ``.npy`` files per BFS wave plus a JSON manifest — instead of
accumulating them into in-RAM arrays.  Because the blocks partition the
state space by source row and are finalized exactly like the global pass
(see :class:`~repro.spn.reachability.WaveBlock`), concatenating the chunks
reproduces the in-RAM :class:`~repro.spn.reachability.TangibleReachabilityGraph`
bit for bit; :meth:`ChunkedGraph.materialize` does exactly that and the
property tests assert it.

Chunks are uncompressed ``.npy`` files (one per array, not an ``.npz``
bundle) so consumers can stream or memory-map individual arrays without
decompressing a zip member.  Generation never holds more than one wave's
edges; the steady-state solve does not stay one-chunk sized:
:class:`~repro.engine.krylov.MatrixFreeSolver` concatenates the chunks' edge
arrays into one resident constrained balance system, factored and solved
like an in-RAM one, then reads each chunk once per solve
(:meth:`ChunkedGraph.edge_chunks`) to re-rate it.

Integrity mirrors the ``.npz`` cache: every chunk's manifest record carries
a sha256 over the chunk's arrays (:mod:`repro.statespace.integrity`),
verified on load.  A corrupt chunk condemns the whole entry (the graph is
only meaningful as a unit), which the cache layer deletes and regenerates.
"""

from __future__ import annotations

import bisect
import json
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np
from scipy import sparse

from repro.spn.enabling import CompiledNet
from repro.spn.model import StochasticPetriNet
from repro.spn.reachability import (
    DEFAULT_EXPLORATION_CHUNK,
    DEFAULT_MAX_TANGIBLE_MARKINGS,
    TangibleReachabilityGraph,
    WaveExploration,
)
from repro.statespace.integrity import payload_digest_hex
from repro.symmetry.spec import SymmetrySpec

#: Bump when the chunk file layout or manifest schema changes.
CHUNK_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Arrays stored per chunk, one ``chunk-NNNNN.<field>.npy`` file each.
CHUNK_FIELDS = (
    "markings",
    "edge_sources",
    "edge_targets",
    "edge_rates",
    "ecm_data",
    "ecm_indices",
    "ecm_indptr",
    "scm_data",
    "scm_indices",
    "scm_indptr",
)


def _chunk_stem(index: int) -> str:
    return f"chunk-{index:05d}"


def chunk_file_name(index: int, field: str) -> str:
    return f"{_chunk_stem(index)}.{field}.npy"


@dataclass(frozen=True)
class ChunkInfo:
    """Manifest record of one stored wave chunk."""

    index: int
    row_start: int
    row_end: int
    edge_count: int
    digest: str

    @property
    def width(self) -> int:
        return self.row_end - self.row_start


class CorruptChunkError(ValueError):
    """A chunk file failed integrity verification (or is unreadable)."""

    def __init__(self, message: str, *, chunk_index: Optional[int] = None) -> None:
        super().__init__(message)
        self.chunk_index = chunk_index


def _block_arrays(block) -> dict[str, np.ndarray]:
    """The persisted array dict of one wave block (digest + file payload)."""
    ecm = block.edge_coefficient_block
    scm = block.state_coefficient_block
    return {
        "markings": np.ascontiguousarray(block.markings, dtype=np.int64),
        "edge_sources": np.ascontiguousarray(block.edge_sources, dtype=np.int64),
        "edge_targets": np.ascontiguousarray(block.edge_targets, dtype=np.int64),
        "edge_rates": np.ascontiguousarray(block.edge_rates, dtype=np.float64),
        "ecm_data": np.ascontiguousarray(ecm.data, dtype=np.float64),
        "ecm_indices": np.ascontiguousarray(ecm.indices, dtype=np.int64),
        "ecm_indptr": np.ascontiguousarray(ecm.indptr, dtype=np.int64),
        "scm_data": np.ascontiguousarray(scm.data, dtype=np.float64),
        "scm_indices": np.ascontiguousarray(scm.indices, dtype=np.int64),
        "scm_indptr": np.ascontiguousarray(scm.indptr, dtype=np.int64),
    }


def write_chunked_graph(
    net: StochasticPetriNet | CompiledNet,
    directory: os.PathLike,
    *,
    max_states: int = DEFAULT_MAX_TANGIBLE_MARKINGS,
    symmetry: Optional[SymmetrySpec] = None,
    chunk_size: int = DEFAULT_EXPLORATION_CHUNK,
) -> "ChunkedGraph":
    """Explore ``net`` and stream the graph into ``directory`` chunk by chunk.

    Peak memory is one wave plus the marking interner (states must still be
    deduplicated in RAM); the edge lists and coefficient matrices never
    accumulate.  The directory is created; callers wanting atomicity write
    into a temporary directory and rename (the cache layer does).

    Raises the same :class:`~repro.exceptions.StateSpaceError` /
    :class:`~repro.exceptions.ModelError` family as the in-RAM generator.
    Partially written chunk files of a failed exploration are left for the
    caller to discard with the temporary directory.
    """
    exploration = WaveExploration(net, max_states, symmetry, chunk_size)
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    chunk_records = []
    edge_total = 0
    for index, block in enumerate(exploration.blocks()):
        arrays = _block_arrays(block)
        for field, array in arrays.items():
            np.save(target / chunk_file_name(index, field), array)
        edge_total += int(block.edge_sources.size)
        chunk_records.append(
            {
                "index": index,
                "row_start": int(block.row_start),
                "row_end": int(block.row_end),
                "edge_count": int(block.edge_sources.size),
                "digest": payload_digest_hex(arrays),
            }
        )
    compiled = exploration.compiled
    manifest = {
        "format": CHUNK_FORMAT_VERSION,
        "net_name": compiled.name,
        "place_names": list(compiled.place_names),
        "n_states": len(exploration.markings),
        "n_edges": edge_total,
        "n_timed": exploration.n_timed,
        "max_states": int(max_states),
        "chunk_size": int(exploration.chunk_size),
        "transition_names": list(exploration.transition_names),
        "rate_vector": [float(rate) for rate in exploration.nominal_rates],
        "initial_ids": [int(state) for state in exploration.initial_distribution],
        "initial_probabilities": [
            float(probability)
            for probability in exploration.initial_distribution.values()
        ],
        "chunks": chunk_records,
    }
    # fsync-before-rename discipline: the manifest is the commit record of
    # the entry, so it must not land before its chunk data is durable.
    temporary = target / (MANIFEST_NAME + ".tmp")
    with open(temporary, "w") as handle:
        json.dump(manifest, handle, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, target / MANIFEST_NAME)
    return ChunkedGraph(target, manifest, net=compiled)


class _ChunkedMarkings(Sequence):
    """Lazy, read-only view of the marking list (one chunk resident at a time)."""

    def __init__(self, graph: "ChunkedGraph") -> None:
        self._graph = graph
        self._starts = [chunk.row_start for chunk in graph.chunks]
        self._cached_index: Optional[int] = None
        self._cached_rows: Optional[list] = None

    def __len__(self) -> int:
        return self._graph.number_of_states

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for chunk in self._graph.chunks:
            for row in self._graph.chunk_array(chunk.index, "markings").tolist():
                yield tuple(row)

    def _chunk_rows(self, index: int) -> list:
        if self._cached_index != index:
            self._cached_rows = self._graph.chunk_array(index, "markings").tolist()
            self._cached_index = index
        return self._cached_rows

    def __getitem__(self, state_id):
        if isinstance(state_id, slice):
            return [self[i] for i in range(*state_id.indices(len(self)))]
        if state_id < 0:
            state_id += len(self)
        if not 0 <= state_id < len(self):
            raise IndexError(state_id)
        position = bisect.bisect_right(self._starts, state_id) - 1
        chunk = self._graph.chunks[position]
        return tuple(self._chunk_rows(position)[state_id - chunk.row_start])


class ChunkedGraph:
    """Handle on a stored chunked tangible reachability graph.

    Carries the same scalar/provenance attributes as
    :class:`~repro.spn.reachability.TangibleReachabilityGraph`
    (``number_of_states``, ``transition_names``, ``transition_index``,
    ``rate_vector``, ``initial_distribution``) plus
    lazily materialised views (``markings``) and chunk-streaming accessors,
    so the measure and batch layers can treat the representation as a
    dispatch detail.  The full edge list and coefficient matrices stay on
    disk; the global CSR attributes are ``None`` and consumers use the
    streaming hooks instead.
    """

    representation = "chunked"
    #: Global CSRs intentionally absent — consumers stream chunks instead.
    edge_coefficient_matrix = None
    state_coefficient_matrix = None

    def __init__(
        self,
        directory: os.PathLike,
        manifest: dict,
        *,
        net: Optional[CompiledNet] = None,
        rate_vector: Optional[np.ndarray] = None,
    ) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.net = net
        self.number_of_states = int(manifest["n_states"])
        self.number_of_transitions = int(manifest["n_edges"])
        self.n_timed = int(manifest["n_timed"])
        self.transition_names = tuple(manifest["transition_names"])
        self.transition_index = {
            name: index for index, name in enumerate(self.transition_names)
        }
        self.rate_vector = (
            np.asarray(rate_vector, dtype=np.float64)
            if rate_vector is not None
            else np.asarray(manifest["rate_vector"], dtype=np.float64)
        )
        self.initial_distribution = {
            int(state): float(probability)
            for state, probability in zip(
                manifest["initial_ids"], manifest["initial_probabilities"]
            )
        }
        self.chunks = tuple(
            ChunkInfo(
                index=int(record["index"]),
                row_start=int(record["row_start"]),
                row_end=int(record["row_end"]),
                edge_count=int(record["edge_count"]),
                digest=str(record["digest"]),
            )
            for record in manifest["chunks"]
        )
        self.markings = _ChunkedMarkings(self)

    # --- opening ----------------------------------------------------------

    @classmethod
    def open(
        cls, directory: os.PathLike, net: Optional[CompiledNet] = None
    ) -> "ChunkedGraph":
        """Open a stored entry; raises ``ValueError`` on a broken manifest.

        Chunk payloads are *not* verified here (that would read every file);
        call :meth:`verify` — the cache layer does on every load.
        """
        directory = Path(directory)
        try:
            with open(directory / MANIFEST_NAME) as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(f"unreadable chunked-graph manifest: {error}") from error
        if manifest.get("format") != CHUNK_FORMAT_VERSION:
            raise ValueError(
                f"unsupported chunked-graph format {manifest.get('format')!r}"
            )
        if net is not None and list(net.place_names) != list(manifest["place_names"]):
            raise ValueError("stored marking layout does not match the net")
        return cls(directory, manifest, net=net)

    # --- chunk access ------------------------------------------------------

    def chunk_path(self, index: int, field: str) -> Path:
        return self.directory / chunk_file_name(index, field)

    def chunk_array(self, index: int, field: str) -> np.ndarray:
        """Load one array of one chunk (a plain heap read, dropped after use)."""
        return np.load(self.chunk_path(index, field), allow_pickle=False)

    def chunk_arrays(self, index: int) -> dict[str, np.ndarray]:
        return {field: self.chunk_array(index, field) for field in CHUNK_FIELDS}

    def chunk_ecm(self, index: int) -> sparse.csr_matrix:
        """The ``(T, E_c)`` edge-coefficient slice of chunk ``index``."""
        chunk = self.chunks[index]
        return sparse.csr_matrix(
            (
                self.chunk_array(index, "ecm_data"),
                self.chunk_array(index, "ecm_indices"),
                self.chunk_array(index, "ecm_indptr"),
            ),
            shape=(self.n_timed, chunk.edge_count),
        )

    def chunk_scm(self, index: int) -> sparse.csr_matrix:
        """The ``(T, W_c)`` state-coefficient slice of chunk ``index``."""
        chunk = self.chunks[index]
        return sparse.csr_matrix(
            (
                self.chunk_array(index, "scm_data"),
                self.chunk_array(index, "scm_indices"),
                self.chunk_array(index, "scm_indptr"),
            ),
            shape=(self.n_timed, chunk.width),
        )

    def edge_chunks(
        self, rate_vector: Optional[np.ndarray] = None
    ) -> Iterator[tuple[ChunkInfo, np.ndarray, np.ndarray, np.ndarray]]:
        """Stream ``(info, sources, targets, rates)`` per chunk.

        Edge rates are recomputed from the chunk's coefficient slice and the
        given (or current) rate vector — the full edge-rate vector is never
        materialised.
        """
        rates = (
            np.asarray(rate_vector, dtype=np.float64)
            if rate_vector is not None
            else self.rate_vector
        )
        for chunk in self.chunks:
            if chunk.edge_count == 0:
                continue
            sources = self.chunk_array(chunk.index, "edge_sources")
            targets = self.chunk_array(chunk.index, "edge_targets")
            edge_rates = self.chunk_ecm(chunk.index).T.dot(rates)
            yield chunk, sources, targets, np.asarray(edge_rates).ravel()

    # --- graph-contract operations ----------------------------------------

    def with_rate_vector(self, rate_vector: np.ndarray) -> "ChunkedGraph":
        """A re-rated handle sharing this graph's on-disk structure (O(T))."""
        return ChunkedGraph(
            self.directory, self.manifest, net=self.net, rate_vector=rate_vector
        )

    def exit_rates(self, rate_vector: Optional[np.ndarray] = None) -> np.ndarray:
        """Total outgoing rate of every state, accumulated chunk by chunk."""
        total = np.zeros(self.number_of_states)
        for _, sources, _, rates in self.edge_chunks(rate_vector):
            total += np.bincount(
                sources, weights=rates, minlength=self.number_of_states
            )
        return total

    def throughput_degree_column(self, index: int) -> np.ndarray:
        """Dense per-state enabling degree of one timed transition.

        The chunked counterpart of reading one row of the in-RAM state
        coefficient matrix — the measure layer's evaluation hook.
        """
        column = np.zeros(self.number_of_states)
        for chunk in self.chunks:
            row = self.chunk_scm(chunk.index).getrow(index)
            column[row.indices + chunk.row_start] = row.data
        return column

    def throughput_vector(self, transition_name: str) -> np.ndarray:
        """Dense per-state effective firing rate of one timed transition."""
        index = self.transition_index.get(transition_name)
        if index is None:
            raise KeyError(transition_name)
        return self.throughput_degree_column(index) * self.rate_vector[index]

    def marking_view(self, state_id: int):
        from repro.spn.marking import MarkingView

        if self.net is None:
            raise ValueError("this chunked graph was opened without its net")
        return MarkingView(self.markings[state_id], self.net.place_index)

    # --- integrity ----------------------------------------------------------

    def verify_chunk(self, index: int) -> None:
        """Recompute one chunk's digest; raise :class:`CorruptChunkError` on
        mismatch or unreadable files."""
        try:
            arrays = self.chunk_arrays(index)
        except (OSError, ValueError) as error:
            raise CorruptChunkError(
                f"chunk {index} of {self.directory} is unreadable: {error}",
                chunk_index=index,
            ) from error
        if payload_digest_hex(arrays) != self.chunks[index].digest:
            raise CorruptChunkError(
                f"chunk {index} of {self.directory} failed integrity "
                "verification",
                chunk_index=index,
            )

    def verify(self) -> None:
        """Verify every chunk, streaming one at a time."""
        for chunk in self.chunks:
            self.verify_chunk(chunk.index)

    # --- maintenance ---------------------------------------------------------

    def on_disk_bytes(self) -> int:
        """Total bytes of the manifest and every chunk file."""
        total = 0
        for path in self.directory.iterdir():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    # --- materialisation ----------------------------------------------------

    def materialize(self) -> TangibleReachabilityGraph:
        """Concatenate every chunk into the in-RAM representation.

        Bitwise identical to generating the graph in RAM directly (the
        chunks *are* the finalized wave blocks of the in-RAM construction);
        intended for tests and for small graphs that were stored chunked.
        """
        if self.net is None:
            raise ValueError("this chunked graph was opened without its net")
        sources = []
        targets = []
        rates = []
        ecm_blocks = []
        scm_blocks = []
        markings: list[tuple[int, ...]] = []
        for chunk in self.chunks:
            sources.append(self.chunk_array(chunk.index, "edge_sources"))
            targets.append(self.chunk_array(chunk.index, "edge_targets"))
            rates.append(self.chunk_array(chunk.index, "edge_rates"))
            ecm_blocks.append(self.chunk_ecm(chunk.index))
            scm_blocks.append(self.chunk_scm(chunk.index))
            markings.extend(
                tuple(row) for row in self.chunk_array(chunk.index, "markings").tolist()
            )

        def _concat(blocks, dtype):
            if not blocks:
                return np.zeros(0, dtype=dtype)
            return np.concatenate(blocks).astype(dtype, copy=False)

        if ecm_blocks:
            edge_coefficient_matrix = sparse.hstack(ecm_blocks, format="csr")
            state_coefficient_matrix = sparse.hstack(scm_blocks, format="csr")
        else:  # pragma: no cover - an entry always has at least one chunk
            edge_coefficient_matrix = sparse.csr_matrix(
                (self.n_timed, 0), dtype=np.float64
            )
            state_coefficient_matrix = sparse.csr_matrix(
                (self.n_timed, self.number_of_states), dtype=np.float64
            )
        return TangibleReachabilityGraph(
            net=self.net,
            markings=markings,
            initial_distribution=dict(self.initial_distribution),
            edge_sources=_concat(sources, np.int64),
            edge_targets=_concat(targets, np.int64),
            edge_rates=_concat(rates, np.float64),
            transition_names=self.transition_names,
            rate_vector=self.rate_vector.copy(),
            edge_coefficient_matrix=edge_coefficient_matrix,
            state_coefficient_matrix=state_coefficient_matrix,
        )
