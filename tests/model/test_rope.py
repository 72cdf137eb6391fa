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
from repro.model.rope import apply_rope, rope_frequencies, rope_table
from repro.model.transformer import ForwardRequest, PagedTransformer

REPO_ROOT = Path(__file__).resolve().parents[2]


def llama_logits(dtype) -> np.ndarray:
    """Every row's logits of a tiny Llama prefilling 300 tokens."""
    config = tiny_llama_config()
    model = PagedTransformer(
        config, KVStorage(config, num_slots=300, dtype=dtype), seed=0
    )
    ids = np.arange(300) % config.vocab_size
    return model.forward_all_rows([ForwardRequest(ids, list(range(300)))])[0]


def float64_logits_digest() -> str:
    return hashlib.sha256(llama_logits(np.float64).tobytes()).hexdigest()


#: Tables covering every position these tests rotate.
TABLE = {
    (dim, np.dtype(dtype)): rope_table(1024, dim, dtype)
    for dim in (4, 8)
    for dtype in (np.float32, np.float64)
}


def rope(x, positions):
    """``apply_rope`` with the table of ``x``'s head dimension and dtype."""
    return apply_rope(x, positions, TABLE[x.shape[-1], x.dtype])


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
        out = rope(x, np.zeros(3, dtype=np.int64))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_preserves_norm(self, rng):
        """Rotations are orthogonal: per-head vector norms are unchanged."""
        x = rng.standard_normal((5, 2, 8))
        out = rope(x, np.arange(5) * 13)
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
            rq = rope(q, np.array([p]))
            rk = rope(k, np.array([p + d]))
            dots.append(float(np.sum(rq * rk)))
        assert dots[0] == pytest.approx(dots[1], rel=1e-9)
        assert dots[1] == pytest.approx(dots[2], rel=1e-9)

    def test_absolute_position_stability(self, rng):
        """Rotating the same token at the same position twice gives the
        same rows — the property that lets cached K survive swap-out and
        swap-in without re-rotation."""
        x = rng.standard_normal((4, 2, 8))
        pos = np.array([3, 17, 1, 256])
        np.testing.assert_array_equal(rope(x, pos), rope(x, pos))

    def test_does_not_modify_input(self, rng):
        x = rng.standard_normal((2, 1, 4))
        original = x.copy()
        rope(x, np.array([5, 9]))
        np.testing.assert_array_equal(x, original)

    def test_rotates_in_the_input_dtype(self, rng):
        """A float32 input is rotated by the float64 angles' sin/cos
        rounded once to float32 (its model's table), and is never
        upcast."""
        x = rng.standard_normal((4, 2, 8)).astype(np.float32)
        pos = np.array([0, 3, 300, 1000])
        out = rope(x, pos)
        assert out.dtype == np.float32
        cos, sin = rope_table(1001, 8, np.float64)
        cos, sin = cos[pos][:, None, :], sin[pos][:, None, :]
        expected = np.empty_like(x)
        c32, s32 = cos.astype(np.float32), sin.astype(np.float32)
        expected[..., 0::2] = x[..., 0::2] * c32 - x[..., 1::2] * s32
        expected[..., 1::2] = x[..., 0::2] * s32 + x[..., 1::2] * c32
        np.testing.assert_array_equal(out, expected)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            rope(rng.standard_normal((2, 4)), np.array([0, 1]))
        with pytest.raises(ValueError):
            rope(rng.standard_normal((2, 1, 4)), np.array([0]))


class TestTableCache:
    def test_cached_matches_direct_computation(self, rng):
        """Rotation read from the table is bitwise identical to computing
        the angles directly — integer positions hit the same float ops."""
        x = rng.standard_normal((6, 2, 8))
        positions = np.array([0, 3, 17, 255, 256, 1000])
        cached = rope(x, positions)
        direct_angles = positions[:, None].astype(np.float64) * rope_frequencies(8)
        cos = np.cos(direct_angles)[:, None, :]
        sin = np.sin(direct_angles)[:, None, :]
        expected = np.empty_like(x)
        expected[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
        expected[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
        np.testing.assert_array_equal(cached, expected)

    def test_float64_model_after_float32_model_gets_its_own_tables(self):
        """A float64 model built after a float32 one in the same process
        reads its own float64 tables, so its logits are bit-identical to
        a fresh process's."""
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

    @pytest.mark.parametrize("use_fast_paths", [True, False])
    def test_position_at_max_position_is_refused(self, use_fast_paths):
        """The model's table covers ``config.max_position`` positions; a
        Llama position at or past it raises, as OPT's learned position
        embedding does, instead of rotating by an angle the model never
        tabulated."""
        config = tiny_llama_config()
        slots = config.max_position + 1
        model = PagedTransformer(
            config, KVStorage(config, num_slots=slots),
            use_fast_paths=use_fast_paths,
        )
        assert model.rope[0].shape[0] == config.max_position
        inside = ForwardRequest(np.array([1]), list(range(config.max_position)))
        assert np.isfinite(model.forward([inside])).all()
        past = ForwardRequest(np.array([1]), list(range(slots)))
        with pytest.raises(IndexError):
            model.forward([past])
