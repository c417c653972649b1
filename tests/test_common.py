"""Tests for repro.common: bit manipulation, RNG, configuration."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common import (
    CacheConfig,
    DeterministicRng,
    MachineConfig,
    TimingConfig,
    align_down,
    align_up,
    bit_field,
    is_aligned,
    mask,
    set_bit_field,
    sign_extend,
    to_signed,
    to_unsigned,
    truncate,
    zero_extend,
)


class TestBitops:
    def test_mask_values(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(64) == (1 << 64) - 1

    def test_mask_rejects_negative(self):
        with pytest.raises(ValueError):
            mask(-1)

    def test_truncate(self):
        assert truncate(0x1FF, 8) == 0xFF
        assert truncate(-1, 8) == 0xFF
        assert zero_extend(0x80, 8) == 0x80

    def test_sign_extend(self):
        assert sign_extend(0xFF, 8) == -1
        assert sign_extend(0x7F, 8) == 127
        assert sign_extend(0x80, 8) == -128

    def test_to_signed_unsigned_roundtrip(self):
        assert to_signed(to_unsigned(-5)) == -5
        assert to_unsigned(-1) == (1 << 64) - 1

    def test_alignment_helpers(self):
        assert align_down(0x1234, 16) == 0x1230
        assert align_up(0x1231, 16) == 0x1240
        assert align_up(0x1240, 16) == 0x1240
        assert is_aligned(64, 32)
        assert not is_aligned(65, 32)

    def test_alignment_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            align_down(10, 3)
        with pytest.raises(ValueError):
            is_aligned(10, 0)

    def test_bit_fields(self):
        value = 0b1011_0110
        assert bit_field(value, 1, 3) == 0b011
        assert set_bit_field(0, 4, 4, 0xF) == 0xF0
        assert set_bit_field(0xFF, 0, 4, 0) == 0xF0

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_signed_roundtrip_property(self, value):
        assert to_signed(to_unsigned(value, 64), 64) == value

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=64))
    def test_truncate_idempotent(self, value, bits):
        assert truncate(truncate(value, bits), bits) == truncate(value, bits)

    @given(st.integers(min_value=0, max_value=2**32), st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    def test_align_up_properties(self, value, alignment):
        aligned = align_up(value, alignment)
        assert aligned >= value
        assert is_aligned(aligned, alignment)
        assert aligned - value < alignment


class TestRng:
    def test_determinism(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert DeterministicRng(1).next_u64() != DeterministicRng(2).next_u64()

    def test_zero_seed_is_usable(self):
        assert DeterministicRng(0).next_u64() != 0

    def test_randint_bounds(self):
        rng = DeterministicRng(7)
        values = [rng.randint(3, 9) for _ in range(200)]
        assert all(3 <= v <= 9 for v in values)
        assert len(set(values)) > 1

    def test_randint_rejects_bad_range(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).randint(5, 4)

    def test_random_in_unit_interval(self):
        rng = DeterministicRng(3)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(100))

    def test_choice_and_empty(self):
        rng = DeterministicRng(5)
        assert rng.choice([4]) == 4
        with pytest.raises(ValueError):
            rng.choice([])

    def test_bytes_length(self):
        assert len(DeterministicRng(9).bytes(13)) == 13

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(11)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items


class TestConfig:
    def test_cache_geometry(self):
        config = CacheConfig(size_bytes=16 * 1024, line_bytes=64, associativity=4)
        assert config.num_sets == 64

    def test_cache_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=64, associativity=4)

    def test_cache_rejects_non_power_of_two_line_size(self):
        with pytest.raises(ValueError, match="line size"):
            CacheConfig(size_bytes=96 * 4 * 16, line_bytes=96, associativity=4)

    def test_cache_rejects_non_power_of_two_set_count(self):
        with pytest.raises(ValueError, match="set count"):
            CacheConfig(size_bytes=768, line_bytes=64, associativity=4)  # 3 sets

    def test_default_timing_matches_paper_platform(self):
        timing = TimingConfig()
        assert timing.l1.size_bytes == 16 * 1024
        assert timing.l2.size_bytes == 64 * 1024
        assert timing.clock_hz == 100_000_000
