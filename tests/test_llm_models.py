"""Model zoo and batch descriptors (Table I quantities)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import (
    OPT_66B,
    OPT_175B,
    TINY,
    BatchSpec,
    ModelConfig,
    MovingAverageEstimator,
    get_model,
)


class TestModelConfig:
    def test_opt_175b_param_count(self):
        """OPT-175B must land near 175e9 parameters."""
        assert OPT_175B.param_count == pytest.approx(175e9, rel=0.05)

    def test_opt_66b_param_count(self):
        assert OPT_66B.param_count == pytest.approx(66e9, rel=0.05)

    def test_param_bytes_fp16(self):
        assert TINY.param_bytes == TINY.param_count * 2

    def test_head_dim(self):
        assert OPT_66B.head_dim == 9216 // 72

    def test_heads_divide_hidden(self):
        with pytest.raises(ValueError):
            ModelConfig("bad", 2, 100, 7, 400)

    def test_positive_dims_required(self):
        with pytest.raises(ValueError):
            ModelConfig("bad", 0, 128, 4, 512)

    def test_flops_per_token(self):
        """Dense-path FLOPs/token ~ 2 * params (embedding excluded)."""
        f = OPT_66B.flops_per_token_prefill()
        assert f == pytest.approx(2 * OPT_66B.param_count, rel=0.05)

    def test_get_model(self):
        assert get_model("OPT-66B") is OPT_66B
        with pytest.raises(KeyError, match="available"):
            get_model("GPT-5")


class TestBatchSpec:
    def test_table_i_sums(self):
        b = BatchSpec((10, 20), (5, 7))
        assert b.q == 2
        assert b.k_in == 30
        assert b.k_out == 12
        assert b.k_in2 == 100 + 400

    def test_uniform(self):
        b = BatchSpec.uniform(4, 128, 32)
        assert b.q == 4 and b.k_in == 512 and b.k_out == 128
        assert b.k_in2 == 4 * 128**2

    def test_max_total_len(self):
        b = BatchSpec((10, 20), (5, 1))
        assert b.max_total_len == 21

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BatchSpec((), ())

    def test_mismatched_rejected(self):
        with pytest.raises(ValueError):
            BatchSpec((1, 2), (1,))

    def test_nonpositive_input_rejected(self):
        with pytest.raises(ValueError):
            BatchSpec((0,), (1,))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(1, 4096), min_size=1, max_size=32),
        st.integers(1, 512),
    )
    def test_k_in2_at_least_mean_square(self, lens, out):
        """Cauchy-Schwarz: sum(l^2) >= (sum l)^2 / n."""
        b = BatchSpec(tuple(lens), (out,) * len(lens))
        assert b.k_in2 >= b.k_in**2 / b.q - 1e-9


class TestMovingAverage:
    def test_first_observation_initialises(self):
        est = MovingAverageEstimator(alpha=0.5)
        est.observe(BatchSpec.uniform(4, 100, 50))
        assert est.k_in == 400 and est.k_out == 200 and est.q == 4

    def test_ewma_update(self):
        est = MovingAverageEstimator(alpha=0.5)
        est.observe(BatchSpec.uniform(1, 100, 100))
        est.observe(BatchSpec.uniform(1, 200, 100))
        assert est.k_in == pytest.approx(150.0)

    def test_estimate_roundtrip(self):
        est = MovingAverageEstimator()
        est.observe(BatchSpec.uniform(8, 256, 64))
        b = est.estimate()
        assert b.q == 8 and b.k_in == 8 * 256

    def test_estimate_before_observe_raises(self):
        with pytest.raises(RuntimeError):
            MovingAverageEstimator().estimate()

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            MovingAverageEstimator(alpha=0.0)
