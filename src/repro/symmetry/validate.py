"""Fail-fast validators guarding exact lumping.

Three independent checks, raised at the earliest layer that has the facts:

* :func:`validate_spec_for_net` — does the symmetry spec even fit the net?
  Runs inside ``generate_tangible_reachability_graph`` and before a grid
  run generates anything, so a stale spec (built for another net shape)
  raises a clear :class:`~repro.exceptions.ModelError` instead of silently
  producing a wrong lumped graph.
* :func:`validate_measure_symmetry` — is every requested measure invariant
  under the declared group?  A per-DC measure on an exchangeable group
  would silently evaluate to orbit-averaged nonsense on the lumped chain;
  it raises :class:`~repro.exceptions.ConfigurationError` instead.
* :func:`validate_rate_symmetry` — is the rate assignment constant on the
  declared transition orbits?  Re-rating a lumped graph with asymmetric
  rates would be exactly as silently wrong.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, ModelError
from repro.symmetry.spec import SymmetrySpec

#: Marking samples drawn per generator in the randomized invariance probe.
MEASURE_PROBE_SAMPLES = 24

#: Tokens per place in the randomized probe markings (0..3 covers every
#: branch of the case-study guards: empty, single-token, multi-token).
_PROBE_TOKEN_RANGE = 4


def validate_spec_for_net(
    spec: Optional[SymmetrySpec], place_count: int, net_name: str
) -> None:
    """Reject a symmetry spec that cannot belong to the net being explored.

    The spec's ``place_count`` must equal the net's (index ranges were
    validated at spec construction), so a spec built for another net shape
    raises instead of lumping this one.
    """
    if spec is not None and spec.place_count != place_count:
        raise ModelError(
            f"net {net_name!r}: the symmetry spec describes "
            f"{spec.place_count} places but the net has {place_count} — it "
            f"was built for a different net"
        )


def _probe_markings(
    place_count: int, samples: int, seed: int = 0x5EED
) -> np.ndarray:
    generator = np.random.default_rng(seed)
    return generator.integers(
        0, _PROBE_TOKEN_RANGE, size=(samples, place_count), dtype=np.int64
    )


def measure_is_symmetric(
    evaluate: Callable[[tuple[int, ...]], float],
    spec: SymmetrySpec,
    samples: int = MEASURE_PROBE_SAMPLES,
) -> bool:
    """Randomized invariance probe of one compiled marking function.

    Evaluates ``evaluate`` on random markings and on their images under
    every generator permutation of ``spec``; any mismatch proves the
    function non-invariant (the converse is probabilistic, which is fine —
    the validator's job is to catch real per-index measures, and those
    break on nearly every sample).
    """
    markings = _probe_markings(spec.place_count, samples)
    generators = list(spec.generator_permutations())
    for row in markings:
        marking = tuple(int(token) for token in row)
        reference = evaluate(marking)
        for g in generators:
            permuted = tuple(marking[g[p]] for p in range(spec.place_count))
            if evaluate(permuted) != reference:
                return False
    return True


def validate_measure_symmetry(
    measures: Iterable,
    spec: SymmetrySpec,
    place_names: Sequence[str],
    context: str = "",
) -> None:
    """Prove every measure invariant under the declared group, or raise.

    Expression measures (probability / expected tokens) are probed through
    their compiled form; throughput measures are invariant exactly when
    their transition sits outside every rate orbit (a single machine's
    ``VM_F_3`` throughput is not a function of the lumped chain).
    """
    from repro.spn.rewards import (
        ExpectedTokensMeasure,
        ProbabilityMeasure,
        ThroughputMeasure,
    )

    place_index = {name: position for position, name in enumerate(place_names)}
    where = f" ({context})" if context else ""
    for measure in measures:
        if isinstance(measure, ThroughputMeasure):
            for group in spec.rate_groups:
                for profile in group.profiles:
                    if measure.transition in profile:
                        raise ConfigurationError(
                            f"measure {measure.name!r}{where}: throughput of "
                            f"{measure.transition!r} is per-member of an "
                            f"exchangeable orbit and cannot be evaluated on "
                            f"the lumped chain; disable symmetry_reduction "
                            f"or measure the orbit's total throughput"
                        )
            continue
        if not isinstance(measure, (ProbabilityMeasure, ExpectedTokensMeasure)):
            continue
        evaluate = measure.compiled(place_index)
        if not measure_is_symmetric(evaluate, spec):
            raise ConfigurationError(
                f"measure {measure.name!r}{where} is not invariant under the "
                f"declared symmetry group ({spec.kind}, order "
                f"{spec.group_order}): evaluating it on the lumped chain "
                f"would return orbit-averaged values. Make the expression "
                f"symmetric in the exchangeable indices or disable "
                f"symmetry_reduction for this case."
            )


def validate_rate_symmetry(
    rates: Mapping[str, float],
    spec: SymmetrySpec,
    context: str = "",
) -> None:
    """Require the rate assignment constant on the spec's transition orbits.

    The lumped chain is exact only if the net — rates included — is
    invariant under the group.  Checks every aligned profile slot for
    equality across blocks and every pair slot under the generating
    transpositions; an asymmetric assignment raises
    :class:`~repro.exceptions.ConfigurationError` naming the offending
    transitions (re-rating a lumped graph with it would be silently wrong).
    """
    where = f" ({context})" if context else ""
    for group in spec.rate_groups:
        reference = group.profiles[0]
        for profile in group.profiles[1:]:
            for anchor, name in zip(reference, profile):
                if _rate(rates, anchor) != _rate(rates, name):
                    raise ConfigurationError(
                        f"rate assignment{where} breaks the declared "
                        f"symmetry: {name!r} ({_rate(rates, name)!r}) differs "
                        f"from its orbit representative {anchor!r} "
                        f"({_rate(rates, anchor)!r}); exchangeable blocks "
                        f"must carry identical rates for exact lumping"
                    )
        if not group.paired:
            continue
        b = group.size
        for a in range(b - 1):
            order = list(range(b))
            order[a], order[a + 1] = order[a + 1], order[a]
            for i in range(b):
                for j in range(b):
                    if i == j:
                        continue
                    for name, image in zip(
                        group.pairs[i][j], group.pairs[order[i]][order[j]]
                    ):
                        if _rate(rates, name) != _rate(rates, image):
                            raise ConfigurationError(
                                f"rate assignment{where} breaks the declared "
                                f"symmetry: pair transition {name!r} "
                                f"({_rate(rates, name)!r}) differs from its "
                                f"image {image!r} ({_rate(rates, image)!r}) "
                                f"under an exchangeable-block transposition"
                            )


def _rate(rates: Mapping[str, float], name) -> Optional[float]:
    value = rates.get(name)
    return None if value is None else float(value)
