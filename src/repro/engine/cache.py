"""Persistent on-disk cache of tangible reachability graphs.

The structure of a net's tangible reachability graph depends only on the net
itself (places, arcs, guards, immediate race data), the exploration limit and
the optional :class:`~repro.symmetry.spec.SymmetrySpec` it is lumped under —
not on the timed rates, which every solve re-rates per scenario anyway.
:class:`TRGCache` therefore keys a graph by one *rateless* digest
(:func:`cache_key`) of the compiled net structure, ``max_states`` and the
spec's ``cache_id``, and stores its sparse-native arrays as one ``.npz``
file: one structure is one entry, whichever entry point generated it.
:func:`load_or_generate` is the one path that reads an entry or generates
and stores it.

Cache location: ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro/trg``.

Entries are *integrity-checked*: every stored ``.npz`` carries a sha256
digest over its logical payload (array names, dtypes, shapes and bytes),
recomputed and verified on load.  A corrupt or truncated entry — bad zip,
missing arrays, wrong dtype, digest mismatch — is treated as a miss: the
entry file is **deleted** so the caller regenerates and overwrites it,
instead of the corruption propagating as an exception or, worse, as wrong
numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
from scipy import sparse

from repro.engine import faults
from repro.spn.enabling import CompiledNet
from repro.spn.reachability import (
    DEFAULT_MAX_TANGIBLE_MARKINGS,
    TangibleReachabilityGraph,
    generate_tangible_reachability_graph,
)
from repro.statespace.chunked import (
    ChunkedGraph,
    CorruptChunkError,
    MANIFEST_NAME,
    write_chunked_graph,
)
from repro.statespace.integrity import DIGEST_ARRAY, payload_digest
from repro.symmetry.spec import SymmetrySpec

#: Bump when the stored array layout changes; part of every cache key.
#: Version 2 added the mandatory ``payload_sha256`` integrity digest.
CACHE_FORMAT_VERSION = 2


#: Key-material label of the lumping field; renaming it would move every
#: stored key.
_LUMPING_KEY_LABEL = "|canonicalize"


def default_cache_directory() -> Path:
    """Resolve the cache directory (``$REPRO_CACHE_DIR`` or the user cache)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "trg"


def structure_fingerprint(net: CompiledNet) -> str:
    """Canonical JSON description of everything the TRG structure depends on.

    Places, initial marking, arcs, guards and immediate race data — neither
    the timed rates nor the net name.  Two nets with equal fingerprints
    share one tangible reachability graph up to a re-rating, which is what
    the grid orchestrator (:mod:`repro.engine.grid`) groups scenarios by and
    what :func:`cache_key` stores them under.
    """
    description = {
        "format": CACHE_FORMAT_VERSION,
        "places": list(net.place_names),
        "initial_marking": list(net.initial_marking),
        "transitions": [
            {
                "name": t.name,
                "immediate": t.immediate,
                "infinite_server": t.infinite_server,
                "weight": t.weight,
                "priority": t.priority,
                "inputs": sorted(t.inputs),
                "outputs": sorted(t.outputs),
                "inhibitors": sorted(t.inhibitors),
                "guard": t.guard_source,
            }
            for t in net.transitions
        ],
    }
    return json.dumps(description, sort_keys=True, separators=(",", ":"))


def cache_key(
    net: CompiledNet, max_states: int, symmetry: Optional[SymmetrySpec]
) -> str:
    """SHA-256 key of one (rateless net structure, max_states, lumping).

    The cache's only key; its first 16 hex digits name the grid
    orchestrator's structure groups.  A lumped graph is keyed by its
    spec's ``cache_id``, an unlumped one by the empty string.
    """
    lumping = symmetry.cache_id if symmetry is not None else ""
    digest = hashlib.sha256()
    digest.update(structure_fingerprint(net).encode())
    digest.update(f"|max_states={max_states}".encode())
    digest.update(f"{_LUMPING_KEY_LABEL}={lumping}".encode())
    return digest.hexdigest()


def _with_net_rates(graph, net: CompiledNet):
    """``graph`` carrying ``net``'s own nominal timed rates.

    A structure's one entry holds the rates of whichever rate variant stored
    it, so a hit for another variant is re-rated (one sparse mat-vec, or
    O(T) for a chunked graph): a loaded graph always matches the net it is
    labelled with.  The fingerprint fixes the timed-transition order, so the
    net's rates line up with the stored ``rate_vector``.
    """
    rates = np.asarray([t.rate for t in net.timed_transitions], dtype=np.float64)
    if np.array_equal(rates, graph.rate_vector):
        return graph
    return graph.with_rate_vector(rates)


def _truncate_entry(path: Path) -> None:
    """Physically truncate an entry (the ``corrupt_cache_read`` injection).

    Chopping the file in half — rather than short-circuiting the load —
    makes the injected fault exercise the *real* corruption path: the bad
    zip / digest failure is detected by the same code that would catch a
    torn write or disk error, and the entry is deleted and regenerated.
    """
    try:
        size = path.stat().st_size
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
    except OSError:  # pragma: no cover - vanished or unwritable entry
        pass


def _truncate_chunk_entry(directory: Path) -> None:
    """Chunked-entry analogue of :func:`_truncate_entry`.

    Truncates the first chunk payload file of the entry directory, so the
    injected ``corrupt_cache_read`` fault exercises the same per-chunk
    digest verification that catches a real torn write.
    """
    for path in sorted(directory.glob("chunk-*.npy")):
        _truncate_entry(path)
        return


def _tree_size_bytes(directory: Path) -> int:
    """Total on-disk bytes of a chunked entry directory."""
    total = 0
    for path in directory.rglob("*"):
        try:
            if path.is_file():
                total += path.stat().st_size
        except OSError:  # pragma: no cover - concurrently removed file
            pass
    return total


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one stored graph (for ``repro cache show``).

    ``size_bytes`` is the entry's total on-disk footprint: the ``.npz``
    file size for in-RAM entries, the summed chunk/manifest file sizes for
    chunked entry directories.
    """

    path: Path
    key: str
    size_bytes: int
    modified: float
    representation: str = "in_ram"


class TRGCache:
    """File-per-graph cache of :class:`TangibleReachabilityGraph` arrays."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_directory()

    def _path(self, key: str) -> Path:
        return self.directory / f"trg-{key}.npz"

    def _chunk_path(self, key: str) -> Path:
        return self.directory / f"trg-{key}.chunks"

    # --- lookup -------------------------------------------------------------

    def load(
        self,
        net: CompiledNet,
        max_states: int,
        symmetry: Optional[SymmetrySpec] = None,
    ) -> Optional[TangibleReachabilityGraph]:
        """The cached graph of this structure, or ``None`` on a miss.

        The graph carries ``net``'s timed rates, whichever rate variant
        stored the entry (see :func:`_with_net_rates`).  A corrupt or
        unreadable entry — bad zip, missing arrays, wrong dtype,
        integrity-digest mismatch — counts as a miss **and is deleted**, so
        the caller regenerates and overwrites it (the cache self-heals
        instead of tripping on the same torn file forever).
        """
        path = self._path(cache_key(net, max_states, symmetry))
        if not path.exists():
            return None
        plan = faults.active()
        if plan is not None and plan.fire(faults.CORRUPT_CACHE_READ, "cache.load"):
            _truncate_entry(path)
        try:
            # numpy does not close a file it opened itself when zipfile
            # rejects it; owning the handle closes it on every path.
            with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
                arrays = {name: data[name] for name in data.files}
            self._verify_digest(arrays)
            graph = self._graph_from_arrays(net, arrays)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile, zlib.error):
            try:
                path.unlink(missing_ok=True)
            except OSError:  # pragma: no cover - unwritable cache directory
                pass
            return None
        return _with_net_rates(graph, net)

    def load_chunked(
        self,
        net: CompiledNet,
        max_states: int,
        symmetry: Optional[SymmetrySpec] = None,
    ) -> Optional[ChunkedGraph]:
        """The cached *chunked* graph for this configuration, or ``None``.

        Chunked entries share the key space with ``.npz`` entries (same
        :func:`cache_key`) but live in ``trg-<key>.chunks/`` directories,
        and a hit carries ``net``'s timed rates like :meth:`load`'s.
        Every chunk's payload digest is verified against the manifest; any
        corrupt, missing or unreadable chunk — or a torn manifest — deletes
        the **whole entry directory** and reports a miss, so the caller
        regenerates exactly this entry and nothing else.
        """
        directory = self._chunk_path(cache_key(net, max_states, symmetry))
        if not (directory / MANIFEST_NAME).exists():
            return None
        plan = faults.active()
        if plan is not None and plan.fire(faults.CORRUPT_CACHE_READ, "cache.load"):
            _truncate_chunk_entry(directory)
        try:
            graph = ChunkedGraph.open(directory, net)
            graph.verify()
        except (OSError, ValueError, KeyError, CorruptChunkError):
            shutil.rmtree(directory, ignore_errors=True)
            return None
        return _with_net_rates(graph, net)

    def generate_chunked(
        self,
        net: CompiledNet,
        max_states: int,
        symmetry: Optional[SymmetrySpec] = None,
        chunk_size: Optional[int] = None,
    ) -> ChunkedGraph:
        """Generate ``net``'s graph straight into a chunked cache entry.

        Unlike the in-RAM path (generate, then :meth:`store`), out-of-core
        generation streams each completed wave to disk as it happens — there
        is never a full graph object to persist after the fact.  The entry
        is built in a temporary sibling directory and renamed into place, so
        concurrent readers only ever see complete entries.
        """
        key = cache_key(net, max_states, symmetry)
        path = self._chunk_path(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        staging = Path(
            tempfile.mkdtemp(dir=self.directory, prefix=f".trg-{key}.")
        )
        try:
            kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
            write_chunked_graph(
                net,
                staging,
                max_states=max_states,
                symmetry=symmetry,
                **kwargs,
            )
            if path.exists():
                shutil.rmtree(path, ignore_errors=True)
            os.replace(staging, path)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        compiled = net if isinstance(net, CompiledNet) else CompiledNet(net)
        return ChunkedGraph.open(path, compiled)

    @staticmethod
    def _verify_digest(arrays: dict) -> None:
        """Raise ``ValueError`` unless the embedded payload digest matches."""
        if DIGEST_ARRAY not in arrays:
            raise ValueError("cache entry carries no integrity digest")
        expected = np.asarray(arrays[DIGEST_ARRAY], dtype=np.uint8)
        actual = payload_digest(arrays)
        if expected.shape != actual.shape or not np.array_equal(expected, actual):
            raise ValueError("cache entry failed integrity verification")

    def store(
        self,
        graph: TangibleReachabilityGraph,
        max_states: int,
        symmetry: Optional[SymmetrySpec] = None,
    ) -> Path:
        """Persist ``graph`` atomically; returns the entry path."""
        key = cache_key(graph.net, max_states, symmetry)
        path = self._path(key)
        self.directory.mkdir(parents=True, exist_ok=True)
        arrays = {
            "markings": np.asarray(graph.markings, dtype=np.int64).reshape(
                graph.number_of_states, -1
            ),
            "edge_sources": graph.edge_sources,
            "edge_targets": graph.edge_targets,
            "edge_rates": graph.edge_rates,
            "transition_names": np.asarray(graph.transition_names, dtype=np.str_),
            "rate_vector": graph.rate_vector,
            "initial_ids": np.asarray(
                list(graph.initial_distribution), dtype=np.int64
            ),
            "initial_probabilities": np.asarray(
                list(graph.initial_distribution.values()), dtype=np.float64
            ),
            "ecm_data": graph.edge_coefficient_matrix.data,
            "ecm_indices": graph.edge_coefficient_matrix.indices,
            "ecm_indptr": graph.edge_coefficient_matrix.indptr,
            "ecm_shape": np.asarray(graph.edge_coefficient_matrix.shape, dtype=np.int64),
            "scm_data": graph.state_coefficient_matrix.data,
            "scm_indices": graph.state_coefficient_matrix.indices,
            "scm_indptr": graph.state_coefficient_matrix.indptr,
            "scm_shape": np.asarray(graph.state_coefficient_matrix.shape, dtype=np.int64),
        }
        arrays[DIGEST_ARRAY] = payload_digest(arrays)
        # Write-to-temporary + rename so concurrent readers never see a
        # partially written entry.
        descriptor, temporary = tempfile.mkstemp(
            dir=self.directory, prefix=f".trg-{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                np.savez_compressed(handle, **arrays)
            os.replace(temporary, path)
        except BaseException:
            if os.path.exists(temporary):
                os.unlink(temporary)
            raise
        return path

    @staticmethod
    def _graph_from_arrays(net: CompiledNet, data) -> TangibleReachabilityGraph:
        markings_array = data["markings"]
        if markings_array.shape[1] != len(net.place_names):
            raise ValueError("cached marking width does not match the net")
        markings = [tuple(row) for row in markings_array.tolist()]
        initial_distribution = {
            int(state): float(probability)
            for state, probability in zip(
                data["initial_ids"], data["initial_probabilities"]
            )
        }
        edge_coefficient_matrix = sparse.csr_matrix(
            (data["ecm_data"], data["ecm_indices"], data["ecm_indptr"]),
            shape=tuple(data["ecm_shape"]),
        )
        state_coefficient_matrix = sparse.csr_matrix(
            (data["scm_data"], data["scm_indices"], data["scm_indptr"]),
            shape=tuple(data["scm_shape"]),
        )
        return TangibleReachabilityGraph(
            net=net,
            markings=markings,
            initial_distribution=initial_distribution,
            edge_sources=data["edge_sources"],
            edge_targets=data["edge_targets"],
            edge_rates=data["edge_rates"],
            transition_names=tuple(str(name) for name in data["transition_names"]),
            rate_vector=data["rate_vector"],
            edge_coefficient_matrix=edge_coefficient_matrix,
            state_coefficient_matrix=state_coefficient_matrix,
        )

    # --- maintenance --------------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """Stored graphs (``.npz`` files and chunked dirs), newest first."""
        if not self.directory.is_dir():
            return []
        found = []
        for path in self.directory.glob("trg-*.npz"):
            stat = path.stat()
            found.append(
                CacheEntry(
                    path=path,
                    key=path.stem.removeprefix("trg-"),
                    size_bytes=stat.st_size,
                    modified=stat.st_mtime,
                )
            )
        for path in self.directory.glob("trg-*.chunks"):
            if not path.is_dir():
                continue
            stat = path.stat()
            found.append(
                CacheEntry(
                    path=path,
                    key=path.name.removeprefix("trg-").removesuffix(".chunks"),
                    size_bytes=_tree_size_bytes(path),
                    modified=stat.st_mtime,
                    representation="chunked",
                )
            )
        return sorted(found, key=lambda entry: entry.modified, reverse=True)

    def total_size_bytes(self) -> int:
        """Summed on-disk footprint of every entry."""
        return sum(entry.size_bytes for entry in self.entries())

    def clear(self, older_than_days: Optional[float] = None) -> int:
        """Delete entries; returns the number removed.

        With ``older_than_days``, only entries whose modification time is at
        least that many days old are removed — ``repro cache clear
        --older-than 30`` prunes stale graphs without evicting the working
        set.  A negative or non-finite age raises ``ValueError``: its cutoff
        would lie in the future (or compare false), removing every entry.
        """
        if older_than_days is not None and not (
            math.isfinite(older_than_days) and older_than_days >= 0.0
        ):
            raise ValueError(
                f"the entry age must be a finite number of days >= 0, got "
                f"{older_than_days!r}"
            )
        removed = 0
        cutoff = (
            time.time() - older_than_days * 86_400.0
            if older_than_days is not None
            else None
        )
        for entry in self.entries():
            if cutoff is not None and entry.modified > cutoff:
                continue
            try:
                if entry.representation == "chunked":
                    shutil.rmtree(entry.path)
                else:
                    entry.path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def load_or_generate(
    net: CompiledNet,
    cache: Optional[TRGCache] = None,
    *,
    max_states: int = DEFAULT_MAX_TANGIBLE_MARKINGS,
    symmetry: Optional[SymmetrySpec] = None,
    representation: str = "in_ram",
) -> tuple[Union[TangibleReachabilityGraph, ChunkedGraph], str]:
    """``(graph, source)`` of ``net``: its cache entry, or a fresh generation.

    ``source`` is ``"cache"`` or ``"generated"``; either way the graph
    carries ``net``'s timed rates.  A generated in-RAM graph
    is stored for the next caller; a store that fails only warns, because
    an unwritable cache must never fail a run whose generation succeeded.
    ``representation="chunked"`` streams the graph into a chunked entry of
    ``cache``, which is then its storage and therefore required.  A
    ``symmetry`` spec lumps the graph and is part of its cache key.
    """
    if representation not in ("in_ram", "chunked"):
        raise ValueError(f"unknown state-space representation {representation!r}")
    chunked = representation == "chunked"
    if chunked and cache is None:
        raise ValueError("a chunked graph needs a cache directory to live in")
    if cache is not None:
        load = cache.load_chunked if chunked else cache.load
        graph = load(net, max_states, symmetry)
        if graph is not None:
            return graph, "cache"
    if chunked:
        return cache.generate_chunked(net, max_states, symmetry), "generated"
    graph = generate_tangible_reachability_graph(
        net, max_states=max_states, symmetry=symmetry
    )
    if cache is not None:
        try:
            cache.store(graph, max_states, symmetry)
        except (OSError, ValueError) as error:
            warnings.warn(
                f"could not persist the reachability graph to "
                f"{cache.directory}: {error}",
                stacklevel=2,
            )
    return graph, "generated"
