"""Alignment operator tests: worked examples plus the shared contracts."""

import hashlib

import numpy as np
import pytest

from phmoea.resample import OPERATORS, POOL_TYPES, align

BOUNDED_OPS = ("linear", "decimate_repeat", "pool")


def pool_args(op):
    return {"pool_type": "avg"} if op == "pool" else {}


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------

class TestWorkedExamples:
    def test_linear_upsample(self):
        out = align(np.array([0.0, 1.0, 2.0]), 5, "linear")
        assert np.allclose(out, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_decimate_repeat_upsample(self):
        out = align(np.array([10.0, 20.0]), 5, "decimate_repeat")
        assert np.allclose(out, [10.0, 10.0, 10.0, 20.0, 20.0])

    def test_pool_avg(self):
        out = align(np.arange(6.0), 3, "pool", "avg")
        assert np.allclose(out, [0.5, 2.5, 4.5])

    def test_pool_weighted_triangular(self):
        # intervals of three samples: the middle one carries all the weight
        x = np.array([1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 100.0, 200.0, 300.0])
        out = align(x, 3, "pool", "weighted")
        assert np.allclose(out, [2.0, 20.0, 200.0])

    def test_hybrid_downsample(self):
        x = np.arange(9.0) ** 2
        out = align(x, 3, "hybrid")
        assert np.allclose(out, [x[0], (x[0] + x[4] + x[8]) / 3.0, x[8]])

    def test_linear_identity(self):
        x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        assert np.allclose(align(x, 5, "linear"), x)

    def test_pool_max_and_median(self):
        x = np.array([1.0, 5.0, 2.0, 8.0, 0.0, 3.0])
        assert np.allclose(align(x, 3, "pool", "max"), [5.0, 8.0, 3.0])
        assert np.allclose(align(x, 3, "pool", "median"), [3.0, 5.0, 1.5])

    def test_decimate_repeat_downsample_nearest(self):
        x = np.arange(7.0)
        # u = 0, 3, 6 -> picks those samples exactly
        assert np.allclose(align(x, 3, "decimate_repeat"), [0.0, 3.0, 6.0])


# ---------------------------------------------------------------------------
# Input validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_target_length_too_small(self):
        with pytest.raises(ValueError):
            align(np.arange(4.0), 1, "linear")

    def test_pool_requires_pool_type(self):
        with pytest.raises(ValueError):
            align(np.arange(6.0), 3, "pool")

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            align(np.arange(6.0), 3, "cubic")

    def test_unknown_pool_type(self):
        with pytest.raises(ValueError):
            align(np.arange(6.0), 3, "pool", "geometric")

    def test_three_dim_input_rejected(self):
        with pytest.raises(ValueError, match="input must be a T x F matrix"):
            align(np.zeros((4, 2, 2)), 3, "linear")

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            align(np.array([1.0, np.nan]), 4, "linear")


# ---------------------------------------------------------------------------
# Shared contracts over all operators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("t_in,length", [(37, 8), (5, 24), (12, 12), (1, 6), (2, 9)])
def test_shape_contract(op, t_in, length):
    rng = np.random.default_rng(hash((op, t_in, length)) % 2**32)
    x = rng.normal(size=(t_in, 3))
    out = align(x, length, op, **pool_args(op))
    assert out.shape == (length, 3)


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("pool_type", [None])
@pytest.mark.parametrize("t_in,length", [(40, 6), (6, 40), (10, 10), (1, 4)])
def test_constant_preservation(op, pool_type, t_in, length):
    kwargs = pool_args(op)
    x = np.full((t_in, 2), 7.25)
    out = align(x, length, op, **kwargs)
    assert np.allclose(out, 7.25)


@pytest.mark.parametrize("pool_type", POOL_TYPES)
def test_constant_preservation_all_pool_types(pool_type):
    out = align(np.full(30, -1.5), 7, "pool", pool_type)
    assert np.allclose(out, -1.5)


@pytest.mark.parametrize("op", BOUNDED_OPS)
@pytest.mark.parametrize("t_in,length", [(50, 7), (7, 50)])
def test_range_boundedness(op, t_in, length):
    rng = np.random.default_rng(hash((op, t_in)) % 2**32)
    x = rng.normal(size=(t_in, 4))
    out = align(x, length, op, **pool_args(op))
    for col in range(x.shape[1]):
        assert out[:, col].min() >= x[:, col].min() - 1e-12
        assert out[:, col].max() <= x[:, col].max() + 1e-12


@pytest.mark.parametrize("pool_type", ["median", "weighted"])
def test_pool_variants_bounded(pool_type):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(41, 2))
    out = align(x, 6, "pool", pool_type)
    assert out.min() >= x.min() - 1e-12 and out.max() <= x.max() + 1e-12


@pytest.mark.parametrize("op", OPERATORS)
@pytest.mark.parametrize("t_in,length", [(33, 9), (9, 33)])
def test_feature_independence(op, t_in, length):
    rng = np.random.default_rng(hash((op, length)) % 2**32)
    x = rng.normal(size=(t_in, 5))
    kwargs = pool_args(op)
    joint = align(x, length, op, **kwargs)
    for col in range(x.shape[1]):
        alone = align(x[:, col:col + 1], length, op, **kwargs)
        assert np.allclose(joint[:, col:col + 1], alone)


def test_one_dim_input_round_trip():
    x = np.arange(10.0)
    out = align(x, 5, "linear")
    assert out.ndim == 1 and len(out) == 5


# ---------------------------------------------------------------------------
# Byte digest over a grid of inputs
# ---------------------------------------------------------------------------

# T = 1 repeats; (2, 2) runs the 5-tap blur over a 2-sample signal; (3, 2) and
# (5, 3) give one- and two-sample weighted windows; (301, 2) a 63-tap FIR.
DIGEST_T = (1, 2, 3, 4, 5, 7, 9, 12, 16, 23, 37, 64, 301)
DIGEST_L = (2, 3, 4, 5, 8, 11, 17, 33, 64)
ALIGN_DIGEST = "0e59bd31408f37bf0917a6c6d40b929dfc6ee04c756c660fe416e6f4896e894c"


def test_align_bytes_digest():
    rng = np.random.default_rng(7)
    variants = [(op, None) for op in OPERATORS if op != "pool"]
    variants += [("pool", p) for p in POOL_TYPES]
    h = hashlib.sha256()
    for t_in in DIGEST_T:
        for features in (1, 2):
            # scales from Python floats: numpy's AVX-512 power gives other bits
            scales = [10.0 ** int(k) for k in rng.integers(-5, 6, size=features)]
            x = rng.normal(size=(t_in, features)) * scales
            x[rng.random(x.shape) < 0.05] = -0.0
            for length in DIGEST_L:
                for op, pool_type in variants:
                    out = align(x, length, op, pool_type)
                    h.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
    assert h.hexdigest() == ALIGN_DIGEST
