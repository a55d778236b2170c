import os
import subprocess
import sys

import numpy as np
import pytest

from crosstrait import kernels


def gather_matvec(codes, col_mean, col_sd, weights, indices, block_size):
    """Reference: every block is a gather of its columns into a C-ordered
    float64 block, reduced by einsum."""
    v = weights / col_sd[indices]
    offset = np.einsum("j,j->", v, col_mean[indices])
    out = np.zeros(codes.shape[0])
    for k0 in range(0, len(indices), block_size):
        k1 = min(k0 + block_size, len(indices))
        blk = np.ascontiguousarray(codes[:, indices[k0:k1]], dtype=np.float64)
        out += np.einsum("ij,j->i", blk, v[k0:k1])
    return out - offset


@pytest.fixture(scope="module")
def codes():
    return np.random.default_rng(0).integers(0, 3, size=(300, 1000), dtype=np.uint8)


class TestStdMatvec:
    @pytest.mark.parametrize(
        "make_indices",
        [
            lambda p, rng: None,
            lambda p, rng: np.arange(p),
            lambda p, rng: np.arange(137, 137 + 700),
            lambda p, rng: rng.permutation(p)[:400],
            lambda p, rng: np.sort(rng.permutation(p)[:400]),
        ],
        ids=["none", "arange", "offset_run", "permuted_sparse", "sorted_sparse"],
    )
    @pytest.mark.parametrize("block_size", [kernels.DEFAULT_BLOCK_SIZE, 128])
    def test_bitwise_equal_to_gather(self, codes, make_indices, block_size):
        rng = np.random.default_rng(1)
        mean, sd = kernels.column_stats(codes)
        p = codes.shape[1]
        indices = make_indices(p, rng)
        full = np.arange(p) if indices is None else indices
        w = rng.standard_normal(len(full))
        got = kernels.std_matvec(codes, mean, sd, w, indices=indices, block_size=block_size)
        assert np.array_equal(got, gather_matvec(codes, mean, sd, w, full, block_size))

    @pytest.mark.parametrize(
        "make_indices",
        [
            lambda p, rng: None,
            lambda p, rng: np.arange(137, 137 + 700),
            lambda p, rng: rng.permutation(p)[:400],
            lambda p, rng: np.sort(rng.permutation(p)[:400]),
            lambda p, rng: np.empty(0, dtype=np.intp),
        ],
        ids=["none", "offset_run", "permuted_sparse", "sorted_sparse", "empty"],
    )
    @pytest.mark.parametrize("block_size", [kernels.DEFAULT_BLOCK_SIZE, 128])
    def test_weight_columns_bitwise_equal_to_single_calls(self, codes, make_indices, block_size):
        rng = np.random.default_rng(2)
        mean, sd = kernels.column_stats(codes)
        indices = make_indices(codes.shape[1], rng)
        q = codes.shape[1] if indices is None else len(indices)
        W = rng.standard_normal((q, 3))
        got = kernels.std_matvec(codes, mean, sd, W, indices=indices, block_size=block_size)
        assert got.shape == (codes.shape[0], 3)
        for c in range(3):
            one = kernels.std_matvec(codes, mean, sd, W[:, c], indices=indices,
                                     block_size=block_size)
            assert np.array_equal(got[:, c], one)

    def test_weights_must_match_indices(self, codes):
        mean, sd = kernels.column_stats(codes)
        with pytest.raises(ValueError):
            kernels.std_matvec(codes, mean, sd, np.ones((5, 2)), indices=np.arange(4))
        with pytest.raises(ValueError):
            kernels.std_matvec(codes, mean, sd, np.ones((4, 2, 1)), indices=np.arange(4))


def test_column_counts_add_over_row_blocks(codes):
    s, n2 = kernels.column_counts(codes)
    s_a, n2_a = kernels.column_counts(codes[:120])
    s_b, n2_b = kernels.column_counts(codes[120:])
    assert s.dtype == n2.dtype == np.int64
    assert np.array_equal(s, s_a + s_b) and np.array_equal(n2, n2_a + n2_b)
    assert np.array_equal(n2, (codes == 2).sum(axis=0))


@pytest.fixture(scope="module")
def tall_codes():
    # p > 2048: more than one default block
    return np.random.default_rng(3).integers(0, 3, size=(4097, 2100), dtype=np.uint8)


class TestTileEdges:
    @pytest.mark.parametrize(
        "make_indices",
        [
            lambda p, rng: None,
            lambda p, rng: np.arange(17, 17 + 2070),
            lambda p, rng: np.sort(rng.permutation(p)[:2080]),
            lambda p, rng: rng.permutation(p)[:2080],
            lambda p, rng: np.empty(0, dtype=np.intp),
        ],
        ids=["none", "offset_run", "sorted", "permuted", "empty"],
    )
    @pytest.mark.parametrize("block_size", [kernels.DEFAULT_BLOCK_SIZE, 128])
    @pytest.mark.parametrize("n", [1, 3, 63, 64, 65, 130, 131, 257, 4097])
    def test_matvec_bitwise_equal_to_untiled_gather(self, tall_codes, n, block_size, make_indices):
        codes = tall_codes[:n]
        mean, sd = kernels.column_stats(codes)
        sd[sd == 0] = 1.0
        rng = np.random.default_rng(n)
        p = codes.shape[1]
        indices = make_indices(p, rng)
        full = np.arange(p) if indices is None else indices
        W = rng.standard_normal((len(full), 3))
        for weights in (W[:, 0], W):
            got = kernels.std_matvec(codes, mean, sd, weights, indices=indices,
                                     block_size=block_size)
            got = got.reshape(n, -1)
            for c in range(got.shape[1]):
                ref = gather_matvec(codes, mean, sd, W[:, c], full, block_size)
                assert np.array_equal(got[:, c], ref)

    @pytest.mark.parametrize("shape", [(1, 2100), (65, 2100), (2001, 2100), (10003, 300)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_crossprod_bitwise_equal_to_converted_block(self, shape):
        # the kernel reduces the uint8 codes in einsum's own buffers; the
        # reference converts the whole matrix to float64 first
        codes = np.random.default_rng(shape[0]).integers(0, 3, size=shape, dtype=np.uint8)
        mean, sd = kernels.column_stats(codes)
        sd[sd == 0] = 1.0
        y = np.random.default_rng(1).standard_normal(shape[0])
        ref = (np.einsum("ij,i->j", codes.astype(np.float64), y) - mean * y.sum()) / sd
        assert np.array_equal(kernels.std_crossprod(codes, mean, sd, y), ref)


KERNEL_BITS = """
import hashlib
import numpy as np
from crosstrait import kernels
from crosstrait.estimators import raw_cosine
codes = np.random.default_rng(4).integers(0, 3, size=(2003, 2100), dtype=np.uint8)
mean, sd = kernels.column_stats(codes)
rng = np.random.default_rng(5)
W = rng.standard_normal((2100, 2))
idx = rng.permutation(2100)[:700]
h = hashlib.sha256()
for a in (kernels.std_crossprod(codes, mean, sd, rng.standard_normal(2003)),
          kernels.std_matvec(codes, mean, sd, W),
          kernels.std_matvec(codes, mean, sd, W[idx, 0], indices=idx),
          np.array(raw_cosine(*kernels.std_matvec(codes, mean, sd, W).T)),
          np.array(raw_cosine(*rng.standard_normal((2, 20001))))):
    h.update(a.tobytes())
print(h.hexdigest())
"""


def test_kernel_bits_independent_of_environment():
    # n % 4 != 0, blocks of more than 460,800 cells and a cosine of more than
    # 10,000 terms: the sizes at which a threaded OpenBLAS rounds differently.
    # einsum's loops are compiled for numpy's baseline target, so switching
    # off every run-time dispatch target the host enables moves no bit either
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        enabled = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        enabled = []
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    envs = [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}]
    if enabled:
        envs.append({"NPY_DISABLE_CPU_FEATURES": " ".join(enabled)})
    digests = [
        subprocess.run([sys.executable, "-c", KERNEL_BITS], check=True, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": src, **e}).stdout
        for e in envs
    ]
    assert digests[0] and digests.count(digests[0]) == len(envs)
