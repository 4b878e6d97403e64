"""Tests for session configuration."""

import pytest

from repro.rtp.clock import DEFAULT_CLOCK_RATE
from repro.sharing.config import PT_HIP, PT_REMOTING, PointerMode, SharingConfig


class TestPayloadTypes:
    def test_match_sdp_example(self):
        """Section 10.3 uses PT 99 for remoting and 100 for hip."""
        assert PT_REMOTING == 99
        assert PT_HIP == 100

    def test_dynamic_range(self):
        assert 96 <= PT_REMOTING <= 127
        assert 96 <= PT_HIP <= 127


class TestSharingConfig:
    def test_defaults(self):
        config = SharingConfig()
        assert config.retransmissions
        assert config.scroll_detection
        assert config.backlog_coalescing
        assert config.pointer_mode is PointerMode.EXPLICIT
        # Sections 5.1.1 / 6.1.1: the one media clock, fixed by the draft.
        assert DEFAULT_CLOCK_RATE == 90_000

    def test_validation(self):
        with pytest.raises(ValueError):
            SharingConfig(max_rtp_payload=10)
        with pytest.raises(ValueError):
            SharingConfig(max_desktop_width=0)
        with pytest.raises(ValueError):
            SharingConfig(encode_workers=-2)

    def test_frozen(self):
        config = SharingConfig()
        with pytest.raises(AttributeError):
            config.max_rtp_payload = 500  # type: ignore[misc]

    def test_pointer_modes(self):
        assert PointerMode.IN_BAND.value == "in-band"
        assert PointerMode.EXPLICIT.value == "explicit"
