"""Unit tests: the vectorized RNG kernels replicate numpy bit for bit.

``repro.serve.vecrng`` reimplements the exact slice of numpy's RNG the
serving hot path uses — SeedSequence entropy mixing, the PCG64 XSL-RR
output function, Lemire bounded integers, the ziggurat accept paths and
the 53-bit uniform — as batched ndarray kernels.  These tests pin every
kernel against the scalar ``numpy.random`` machinery it must match:
any numpy upgrade that changes the bit stream fails here first, loudly,
instead of silently desynchronizing the batched and scalar serve paths.
"""

import numpy as np
import pytest

from repro.serve.vecrng import (
    CoordinateStreams,
    lemire_integers,
    uniform_doubles,
    ziggurat_exponentials,
    ziggurat_normals,
)

#: Coordinate rows shaped like the stream's (seed, object, attr_key,
#: index) entropy, including the uint32 boundaries.
ROWS = (
    (0, 0, 0, 0),
    (3, 17, 123456789, 4),
    (2**32 - 1, 1, 2**31, 999),
    (7, 0, 42, 2**20),
)


def matrix(rows) -> np.ndarray:
    return np.array(rows, dtype=np.uint64)


def wide_matrix(seed: int, lanes: int = 512) -> np.ndarray:
    """Many single-seed-varying rows, for acceptance-rate statistics."""
    return matrix([(seed, lane, 77, 0) for lane in range(lanes)])


class TestCoordinateStreams:
    def test_next64_matches_scalar_random_raw(self):
        streams = CoordinateStreams(matrix(ROWS))
        raw = np.stack([streams.next64() for _ in range(8)], axis=1)
        for lane, row in enumerate(ROWS):
            expected = np.random.PCG64(np.random.SeedSequence(row)).random_raw(8)
            assert raw[lane].tolist() == expected.tolist()

    def test_attempt_column_is_ordinary_entropy(self):
        # The fault stream appends a 5th word; mixing must treat it the
        # same way SeedSequence treats any extra entropy word.
        rows = [(3, 5, 7, 2, attempt) for attempt in range(4)]
        streams = CoordinateStreams(matrix(rows))
        raw = streams.next64()
        for lane, row in enumerate(rows):
            expected = np.random.PCG64(np.random.SeedSequence(row)).random_raw(1)
            assert raw[lane] == expected[0]

    def test_rejects_non_matrix_entropy(self):
        with pytest.raises(ValueError):
            CoordinateStreams(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            CoordinateStreams(np.array([[2**32, 0, 0, 0]], dtype=np.uint64))


class TestUniformDoubles:
    def test_matches_generator_random(self):
        streams = CoordinateStreams(matrix(ROWS))
        values = uniform_doubles(streams.next64())
        for lane, row in enumerate(ROWS):
            assert values[lane] == np.random.default_rng(row).random()


class TestLemireIntegers:
    @pytest.mark.parametrize("n", [2, 3, 200, 2**31])
    def test_accepted_lanes_match_generator_integers(self, n):
        entropy = wide_matrix(seed=11)
        values, accepted = lemire_integers(
            CoordinateStreams(entropy).next64(), n
        )
        assert accepted.mean() > 0.99  # rejection is O(n / 2**32)
        for lane, row in enumerate(entropy):
            if accepted[lane]:
                expected = np.random.default_rng(row).integers(0, n)
                assert values[lane] == expected

    def test_rejects_degenerate_bounds(self):
        draws = np.zeros(1, dtype=np.uint64)
        with pytest.raises(ValueError):
            lemire_integers(draws, 1)  # n == 1 consumes no draw at all
        with pytest.raises(ValueError):
            lemire_integers(draws, 2**32 + 1)


class TestZigguratNormals:
    def test_accepted_lanes_match_standard_normal(self):
        entropy = wide_matrix(seed=5)
        values, accepted = ziggurat_normals(
            CoordinateStreams(entropy).next64()
        )
        assert accepted.mean() > 0.9  # table accept path covers ~98.6%
        matched = 0
        for lane, row in enumerate(entropy):
            if accepted[lane]:
                expected = np.random.default_rng(row).standard_normal()
                assert values[lane] == expected
                assert np.signbit(values[lane]) == np.signbit(expected)
                matched += 1
        assert matched  # the loop must actually have compared lanes


class TestZigguratExponentials:
    def test_accepted_lanes_match_standard_exponential(self):
        entropy = wide_matrix(seed=9)
        values, accepted = ziggurat_exponentials(
            CoordinateStreams(entropy).next64()
        )
        assert accepted.mean() > 0.9  # table accept path covers ~97.7%
        matched = 0
        for lane, row in enumerate(entropy):
            if accepted[lane]:
                expected = np.random.default_rng(row).standard_exponential()
                assert values[lane] == expected
                matched += 1
        assert matched
