"""Unit tests for the machine configuration (Table 1)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.gpu.config import FERMI_30SM, GPUConfig
from repro.units import KB, bytes_per_cycle, cycles_to_us, ms_to_cycles, us_to_cycles


class TestUnits:
    def test_us_roundtrip(self):
        assert cycles_to_us(us_to_cycles(12.5)) == pytest.approx(12.5)

    def test_default_clock(self):
        assert us_to_cycles(1.0) == 1400.0

    def test_ms(self):
        assert ms_to_cycles(1.0) == 1_400_000.0

    def test_bytes_per_cycle(self):
        # 177.4 GB/s at 1400 MHz = 126.7 B/cycle
        assert bytes_per_cycle(177.4) == pytest.approx(126.71, rel=1e-3)


class TestGPUConfig:
    def test_defaults_match_table1(self):
        c = GPUConfig()
        assert c.num_sms == 30
        assert c.clock_mhz == 1400.0
        assert c.simt_width == 8
        assert c.registers_per_sm == 32768
        assert c.max_tbs_per_sm == 8
        assert c.shared_memory_bytes == 48 * KB
        assert c.num_memory_partitions == 6
        assert c.memory_bandwidth_gbps == 177.4

    def test_fermi_constant_is_default(self):
        assert FERMI_30SM == GPUConfig()

    def test_sm_bandwidth_share(self):
        c = GPUConfig()
        assert c.sm_bandwidth_bytes_per_cycle == pytest.approx(
            c.bandwidth_bytes_per_cycle / 30)

    def test_context_switch_cycles_matches_table2(self):
        """Table 2's switch times are context / per-SM bandwidth share;
        check a few rows to within rounding of the published values."""
        c = GPUConfig()
        # BS.0: 24 kB x 4 TBs -> 17.0 us
        cycles = c.context_switch_cycles(24 * KB * 4)
        assert cycles_to_us(cycles) == pytest.approx(17.0, abs=0.8)
        # SAD.2: 2 kB x 8 TBs -> 2.8 us
        cycles = c.context_switch_cycles(2 * KB * 8)
        assert cycles_to_us(cycles) == pytest.approx(2.8, abs=0.2)

    def test_zero_context_is_free(self):
        assert GPUConfig().context_switch_cycles(0) == 0.0

    def test_negative_context_rejected(self):
        with pytest.raises(ConfigError):
            GPUConfig().context_switch_cycles(-1)

    @pytest.mark.parametrize("kwargs", [
        {"num_sms": 0},
        {"clock_mhz": 0},
        {"simt_width": 0},
        {"max_tbs_per_sm": 0},
        {"memory_bandwidth_gbps": 0},
        {"num_memory_partitions": 0},
        {"shared_memory_bytes": -1},
        *({name: bad} for name in ("drain_stall", "estimate_skew")
          for bad in (0.0, -1.0, math.inf, math.nan)),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GPUConfig(**kwargs)

    def test_describe_mentions_table1_values(self):
        text = GPUConfig().describe()
        assert "30 SMs" in text
        assert "177.4 GB/s" in text
        assert "48 kB shared memory" in text

    def test_us_helper_uses_config_clock(self):
        c = GPUConfig(clock_mhz=700.0)
        assert c.us(2.0) == 1400.0

    def test_config_is_frozen(self):
        c = GPUConfig()
        with pytest.raises(Exception):
            c.num_sms = 10  # type: ignore[misc]
