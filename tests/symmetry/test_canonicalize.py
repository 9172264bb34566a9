"""Property tests of the spec-driven canonicalizer.

The two load-bearing properties of exact lumping:

* **orbit constancy** — every permutation of a marking inside its orbit
  canonicalizes to the *same* representative (``f(σ·m) = f(m)``), not
  merely a stable one;
* **batch agreement** — the vectorized companion returns bit-identical
  representatives to the scalar path on every row (the
  ``_MarkingInterner`` contract).

Probed on the real case-study specs (PM-only, DC-only, DC+PM) with seeded
random markings and random group elements composed from the generating
transpositions.
"""

import numpy as np
import pytest

from repro.symmetry import SymmetrySpec, build_canonicalizer, rate_vector_key

SAMPLES = 60


def random_markings(rng, spec, samples=SAMPLES):
    return rng.integers(0, 4, size=(samples, spec.place_count), dtype=np.int64)


def random_group_element(rng, generators, place_count):
    """A random walk over the generating transpositions (a group element)."""
    g = list(range(place_count))
    for _ in range(rng.integers(1, 8)):
        step = generators[rng.integers(0, len(generators))]
        g = [g[step[p]] for p in range(place_count)]
    return g


def spec_of(model, **kwargs):
    spec = model.symmetry_spec(**kwargs)
    assert spec is not None
    return spec


@pytest.fixture(
    params=["mesh2_model", "mesh3_model", "mesh2_pm_model", "city_pair_model"]
)
def spec(request):
    return spec_of(request.getfixturevalue(request.param))


class TestOrbitConstancy:
    def test_random_orbit_permutations_share_one_representative(self, spec):
        rng = np.random.default_rng(0xC0DE)
        canonicalize = build_canonicalizer(spec)
        generators = list(spec.generator_permutations())
        for row in random_markings(rng, spec):
            marking = tuple(int(v) for v in row)
            reference = canonicalize(marking)
            for _ in range(6):
                g = random_group_element(rng, generators, spec.place_count)
                permuted = tuple(marking[g[p]] for p in range(spec.place_count))
                assert canonicalize(permuted) == reference

    def test_idempotent(self, spec):
        rng = np.random.default_rng(0x1DE)
        canonicalize = build_canonicalizer(spec)
        for row in random_markings(rng, spec):
            once = canonicalize(tuple(int(v) for v in row))
            assert canonicalize(once) == once

    def test_canonical_form_preserves_token_multiset(self, spec):
        rng = np.random.default_rng(0xBEEF)
        canonicalize = build_canonicalizer(spec)
        for row in random_markings(rng, spec):
            marking = tuple(int(v) for v in row)
            assert sorted(canonicalize(marking)) == sorted(marking)


class TestBatchAgreement:
    def test_batch_matches_scalar_bit_for_bit(self, spec):
        rng = np.random.default_rng(0xBA7C4)
        canonicalize = build_canonicalizer(spec)
        block = random_markings(rng, spec, samples=300)
        out = canonicalize.batch(block)
        for row, batch_row in zip(block, np.asarray(out)):
            scalar = canonicalize(tuple(int(v) for v in row))
            assert tuple(int(v) for v in batch_row) == scalar

    def test_batch_handles_tied_blocks_with_distinct_pair_slots(self, mesh3_model):
        # The ambiguous corner: identical DC block keys but non-uniform
        # transmission places — exactly where a naive stable sort would
        # split one orbit into several interned states.
        spec = spec_of(mesh3_model)
        canonicalize = build_canonicalizer(spec)
        paired = spec.marking_groups[-1]
        assert paired.paired
        base = [0] * spec.place_count
        pair_slots = [s for row in paired.pairs for e in row for s in e]
        block = []
        for slot in pair_slots:
            marking = list(base)
            marking[slot] = 1
            block.append(marking)
        block = np.asarray(block, dtype=np.int64)
        out = np.asarray(canonicalize.batch(block))
        for row, batch_row in zip(block, out):
            assert tuple(int(v) for v in batch_row) == canonicalize(
                tuple(int(v) for v in row)
            )

    def test_batch_matches_scalar_past_the_packed_key_range(self, spec):
        # Token counts this large make every group's mixed-radix key pass
        # 2**62, so the blocks are ordered by the lexsort fallback; copying
        # block 0 over block 1 adds key ties with distinct pair slots.
        rng = np.random.default_rng(0x1E5)
        canonicalize = build_canonicalizer(spec)
        block = rng.integers(0, 1 << 20, size=(200, spec.place_count), dtype=np.int64)
        for group in spec.marking_groups:
            sub = block[:, np.asarray(group.profiles)]
            spans = sub.max(axis=(0, 1)) - sub.min(axis=(0, 1)) + 1
            assert np.prod(spans.astype(np.float64)) > 2.0**62
            first, second = group.profiles[0], group.profiles[1]
            block[::2, list(second)] = block[::2, list(first)]
        out = np.asarray(canonicalize.batch(block))
        for row, batch_row in zip(block, out):
            assert tuple(batch_row.tolist()) == canonicalize(tuple(row.tolist()))

    def test_batch_keeps_an_already_canonical_block(self, spec):
        rng = np.random.default_rng(0xCA40)
        canonicalize = build_canonicalizer(spec)
        block = np.asarray(
            [
                canonicalize(tuple(row.tolist()))
                for row in random_markings(rng, spec, samples=300)
            ],
            dtype=np.int64,
        )
        np.testing.assert_array_equal(canonicalize.batch(block), block)


class TestRateVectorKey:
    def test_block_permuted_rate_vectors_share_a_key(self, mesh3_model):
        spec = spec_of(mesh3_model, structural=True)
        names = sorted(
            {name for group in spec.rate_groups for name in group.labels()}
        )
        names += ["OTHER_1", "OTHER_2"]
        key = rate_vector_key(spec, names)
        assert key is not None
        rng = np.random.default_rng(0x5EED)
        vector = rng.uniform(0.1, 5.0, size=len(names))
        paired = spec.rate_groups[-1]
        # swap DC blocks 0 and 1 in rate space
        swapped = vector.copy()
        index = {name: i for i, name in enumerate(names)}
        order = [1, 0] + list(range(2, paired.size))
        for k, src in enumerate(order):
            for dst_name, src_name in zip(paired.profiles[k], paired.profiles[src]):
                swapped[index[dst_name]] = vector[index[src_name]]
            for l, src_l in enumerate(order):
                if k == l:
                    continue
                for dst_name, src_name in zip(
                    paired.pairs[k][l], paired.pairs[src][src_l]
                ):
                    swapped[index[dst_name]] = vector[index[src_name]]
        assert not np.array_equal(swapped, vector)
        assert key(vector) == key(swapped)
        # a genuinely different vector hashes apart
        other = vector.copy()
        other[0] *= 2.0
        assert key(other) != key(vector)

    def test_missing_transition_disables_the_key(self, mesh3_model):
        spec = spec_of(mesh3_model, structural=True)
        assert rate_vector_key(spec, ("NOT_A_TRANSITION",)) is None

    def test_spec_without_rate_groups_disables_the_key(self):
        from repro.symmetry import OrbitGroup

        spec = SymmetrySpec(
            place_count=2,
            marking_groups=(OrbitGroup(profiles=((0,), (1,))),),
        )
        assert rate_vector_key(spec, ("A", "B")) is None
