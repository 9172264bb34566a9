"""Pluggable state-space representations (the "backend tier").

The engine dispatches each state space to a representation instead of
assuming one:

* :mod:`repro.statespace.backends` — the :class:`StateSpaceBackend`
  contract and representation helpers;
* :mod:`repro.statespace.chunked` — the disk-backed chunked-CSR graph
  (streamed generation, matrix-free solves, one chunk resident at a time);
* :mod:`repro.statespace.integrity` — payload digests shared with the
  ``.npz`` cache entries.
"""

from repro.statespace.backends import (
    REPRESENTATIONS,
    StateSpaceBackend,
    is_chunked,
    is_state_space,
    representation_of,
)
from repro.statespace.chunked import (
    CHUNK_FORMAT_VERSION,
    ChunkedGraph,
    ChunkInfo,
    CorruptChunkError,
    MANIFEST_NAME,
    write_chunked_graph,
)
from repro.statespace.integrity import DIGEST_ARRAY, payload_digest, payload_digest_hex

__all__ = [
    "REPRESENTATIONS",
    "StateSpaceBackend",
    "is_chunked",
    "is_state_space",
    "representation_of",
    "CHUNK_FORMAT_VERSION",
    "ChunkedGraph",
    "ChunkInfo",
    "CorruptChunkError",
    "MANIFEST_NAME",
    "write_chunked_graph",
    "DIGEST_ARRAY",
    "payload_digest",
    "payload_digest_hex",
]
