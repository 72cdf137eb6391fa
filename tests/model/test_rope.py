"""Tests for rotary positional embeddings."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.kvcache import KVStorage
from repro.model import tiny_llama_config
from repro.model.rope import (
    _TABLE_CACHE,
    apply_rope,
    clear_rope_cache,
    rope_frequencies,
    rope_tables,
)
from repro.model.transformer import ForwardRequest, PagedTransformer

REPO_ROOT = Path(__file__).resolve().parents[2]


def llama_logits(dtype) -> np.ndarray:
    """Every row's logits of a tiny Llama prefilling 300 tokens, so the
    RoPE table grows past its initial 256 rows."""
    config = tiny_llama_config()
    model = PagedTransformer(
        config, KVStorage(config, num_slots=300, dtype=dtype), seed=0
    )
    ids = np.arange(300) % config.vocab_size
    return model.forward_all_rows([ForwardRequest(ids, list(range(300)))])[0]


def float64_logits_digest() -> str:
    return hashlib.sha256(llama_logits(np.float64).tobytes()).hexdigest()


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestFrequencies:
    def test_count_and_range(self):
        freqs = rope_frequencies(8)
        assert freqs.shape == (4,)
        assert freqs[0] == 1.0
        assert np.all(np.diff(freqs) < 0)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            rope_frequencies(7)


class TestApplyRope:
    def test_position_zero_is_identity(self, rng):
        x = rng.standard_normal((3, 2, 8))
        out = apply_rope(x, np.zeros(3, dtype=np.int64))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_preserves_norm(self, rng):
        """Rotations are orthogonal: per-head vector norms are unchanged."""
        x = rng.standard_normal((5, 2, 8))
        out = apply_rope(x, np.arange(5) * 13)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), rtol=1e-10
        )

    def test_relative_position_property(self, rng):
        """The rotated dot product depends only on the position offset:
        <R(p)q, R(p+d)k> is the same for every p."""
        q = rng.standard_normal((1, 1, 8))
        k = rng.standard_normal((1, 1, 8))
        d = 7
        dots = []
        for p in (0, 11, 100):
            rq = apply_rope(q, np.array([p]))
            rk = apply_rope(k, np.array([p + d]))
            dots.append(float(np.sum(rq * rk)))
        assert dots[0] == pytest.approx(dots[1], rel=1e-9)
        assert dots[1] == pytest.approx(dots[2], rel=1e-9)

    def test_absolute_position_stability(self, rng):
        """Rotating the same token at the same position twice gives the
        same rows — the property that lets cached K survive swap-out and
        swap-in without re-rotation."""
        x = rng.standard_normal((4, 2, 8))
        pos = np.array([3, 17, 1, 256])
        np.testing.assert_array_equal(apply_rope(x, pos), apply_rope(x, pos))

    def test_does_not_modify_input(self, rng):
        x = rng.standard_normal((2, 1, 4))
        original = x.copy()
        apply_rope(x, np.array([5, 9]))
        np.testing.assert_array_equal(x, original)

    def test_rotates_in_the_input_dtype(self, rng):
        """A float32 input is rotated by the float64 angles' sin/cos
        rounded once to float32, and is never upcast."""
        x = rng.standard_normal((4, 2, 8)).astype(np.float32)
        pos = np.array([0, 3, 300, 1000])
        out = apply_rope(x, pos)
        assert out.dtype == np.float32
        cos, sin = rope_tables(8, max_position=1000)
        cos, sin = cos[pos][:, None, :], sin[pos][:, None, :]
        expected = np.empty_like(x)
        c32, s32 = cos.astype(np.float32), sin.astype(np.float32)
        expected[..., 0::2] = x[..., 0::2] * c32 - x[..., 1::2] * s32
        expected[..., 1::2] = x[..., 0::2] * s32 + x[..., 1::2] * c32
        np.testing.assert_array_equal(out, expected)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            apply_rope(rng.standard_normal((2, 4)), np.array([0, 1]))
        with pytest.raises(ValueError):
            apply_rope(rng.standard_normal((2, 1, 4)), np.array([0]))


class TestTableCache:
    def setup_method(self):
        clear_rope_cache()

    def teardown_method(self):
        clear_rope_cache()

    def test_cached_matches_direct_computation(self, rng):
        """Table-cached rotation is bitwise identical to computing the
        angles directly — integer positions hit the same float ops."""
        x = rng.standard_normal((6, 2, 8))
        positions = np.array([0, 3, 17, 255, 256, 1000])
        cached = apply_rope(x, positions)
        clear_rope_cache()
        direct_angles = positions[:, None].astype(np.float64) * rope_frequencies(8)
        cos = np.cos(direct_angles)[:, None, :]
        sin = np.sin(direct_angles)[:, None, :]
        expected = np.empty_like(x)
        expected[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
        expected[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
        np.testing.assert_array_equal(cached, expected)

    def test_grows_geometrically(self):
        cos, _ = rope_tables(8, max_position=10)
        assert cos.shape[0] == 256  # _MIN_TABLE
        cos, _ = rope_tables(8, max_position=256)
        assert cos.shape[0] == 512
        cos, _ = rope_tables(8, max_position=2000)
        assert cos.shape[0] == 2048
        # Shrinking requests reuse the grown table.
        cos_again, _ = rope_tables(8, max_position=5)
        assert cos_again is cos

    def test_keyed_by_dim_and_base(self):
        rope_tables(8, max_position=1)
        rope_tables(8, base=500.0, max_position=1)
        rope_tables(4, max_position=1)
        rope_tables(4, max_position=1, dtype=np.float32)
        f64, f32 = np.dtype(np.float64), np.dtype(np.float32)
        assert set(_TABLE_CACHE) == {
            (8, 10000.0, f64), (8, 500.0, f64), (4, 10000.0, f64), (4, 10000.0, f32)
        }

    def test_clear(self):
        rope_tables(8, max_position=1)
        assert _TABLE_CACHE
        clear_rope_cache()
        assert not _TABLE_CACHE

    def test_negative_positions_bypass_cache(self, rng):
        """Negative offsets (not valid token positions) still rotate
        correctly via the direct path and never populate the cache."""
        x = rng.standard_normal((2, 1, 8))
        out = apply_rope(x, np.array([-4, -1]))
        assert not _TABLE_CACHE
        assert np.isfinite(out).all()

    def test_float_positions_match_integer(self, rng):
        x = rng.standard_normal((3, 1, 8))
        via_cache = apply_rope(x, np.array([1, 7, 30]))
        direct = apply_rope(x, np.array([1.0, 7.0, 30.0]))
        np.testing.assert_allclose(via_cache, direct, atol=1e-12)

    def test_float64_model_after_float32_model_gets_its_own_tables(self):
        """A float64 model built after a float32 one in the same process
        reads its own float64 tables, so its logits are bit-identical to
        a fresh process's.  A cache keyed without the dtype hands it the
        float32-rounded table and moves them."""
        llama_logits(np.float32)
        in_process = float64_logits_digest()
        path = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
        script = "from tests.model.test_rope import float64_logits_digest as d; print(d())"
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert fresh.stdout.strip() == in_process
        assert len(_TABLE_CACHE) == 2
