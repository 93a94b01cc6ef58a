"""Edge-case tests for the wrapper invocation configuration."""

import pytest

from repro.soc import CoherenceMode, InvocationConfig, P2PConfig


class TestInvocationConfigValidation:
    def test_defaults(self):
        config = InvocationConfig(src_offset=0, dst_offset=0, n_frames=1,
                                  p2p=P2PConfig())
        assert config.src_stride == 0
        assert config.dst_stride == 0
        assert config.coherence is CoherenceMode.NON_COHERENT
        assert config.clock_divider == 1

    @pytest.mark.parametrize("kwargs", [
        dict(n_frames=0),
        dict(n_frames=-3),
        dict(src_offset=-1),
        dict(dst_offset=-1),
        dict(src_stride=-1),
        dict(dst_stride=-1),
        dict(clock_divider=0),
    ])
    def test_rejections(self, kwargs):
        base = dict(src_offset=0, dst_offset=0, n_frames=1,
                    p2p=P2PConfig())
        base.update(kwargs)
        with pytest.raises(ValueError):
            InvocationConfig(**base)

    def test_frozen(self):
        config = InvocationConfig(src_offset=0, dst_offset=0, n_frames=1,
                                  p2p=P2PConfig())
        with pytest.raises(AttributeError):
            config.n_frames = 2
