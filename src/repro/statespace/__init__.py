"""The on-disk state-space representation and its integrity digests.

* :mod:`repro.statespace.chunked` — the disk-backed chunked-CSR graph
  (generation streamed wave by wave to disk, one chunk resident at a time;
  solved by :class:`~repro.engine.krylov.MatrixFreeSolver`, which holds the
  assembled balance system and its factors in RAM);
* :mod:`repro.statespace.integrity` — payload digests shared with the
  ``.npz`` cache entries.
"""

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
