"""Declarative symmetry reduction for the cloud-system SPNs.

The package factors everything symmetry-related out of the model, engine
and cache layers into three small modules.  Outside it, a lumping is a
:class:`SymmetrySpec` and nothing else: the generator, the cache, the grid
orchestrator and its generation workers all take the spec.

* :mod:`repro.symmetry.spec` — :class:`SymmetrySpec`, the declarative,
  picklable description of a net's exchangeability structure: flat orbit
  groups of physical machines within each data center plus (at most) one
  *paired* orbit group of whole data-center blocks, each block carrying its
  local places, its PM profiles and the transmission/backup places that
  must permute with the data-center index.
* :mod:`repro.symmetry.canonicalize` — :func:`build_canonicalizer`, which
  turns a spec into the marking canonicalizer that the reachability
  generator's interner builds (scalar callable + vectorized ``batch``
  companion), and :func:`rate_vector_key`, the symmetry-aware rate digest
  used by grid dedupe.
* :mod:`repro.symmetry.validate` — fail-fast validators: spec against net
  (place count), measure expressions against the declared group (a per-DC
  measure on an exchangeable group raises
  :class:`~repro.exceptions.ConfigurationError` instead of silently
  returning orbit-averaged nonsense) and rate assignments against the
  group's transition orbits.

``DEFAULT_SYMMETRY_REDUCTION`` is the single library-wide default for every
``symmetry_reduction`` knob (model solve, case-study grid, CLI): reduction
is **on** — it is exact, so results are bit-identical and only the state
numbering changes.
"""

from repro.symmetry.canonicalize import build_canonicalizer, rate_vector_key
from repro.symmetry.spec import OrbitGroup, SymmetrySpec
from repro.symmetry.validate import (
    validate_measure_symmetry,
    validate_rate_symmetry,
    validate_spec_for_net,
)

#: Library-wide default of every ``symmetry_reduction`` flag.
DEFAULT_SYMMETRY_REDUCTION = True


def resolve_symmetry_reduction(value) -> bool:
    """Resolve a ``symmetry_reduction`` knob to a concrete boolean.

    Every entry point (model ``solve``, case-study grid, CLI) accepts
    ``None`` meaning "the library default" and resolves it here, so the
    default lives in exactly one place.  An explicit ``True``/``False``
    is honoured as given.
    """
    return DEFAULT_SYMMETRY_REDUCTION if value is None else bool(value)


__all__ = [
    "DEFAULT_SYMMETRY_REDUCTION",
    "resolve_symmetry_reduction",
    "OrbitGroup",
    "SymmetrySpec",
    "build_canonicalizer",
    "rate_vector_key",
    "validate_measure_symmetry",
    "validate_rate_symmetry",
    "validate_spec_for_net",
]
