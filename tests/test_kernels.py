import numpy as np
import pytest

from crosstrait import kernels


def gather_matvec(codes, col_mean, col_sd, weights, indices, block_size):
    """Reference: every block is a fancy-index gather of its columns."""
    v = weights / col_sd[indices]
    offset = float(np.dot(v, col_mean[indices]))
    out = np.zeros(codes.shape[0])
    for k0 in range(0, len(indices), block_size):
        k1 = min(k0 + block_size, len(indices))
        out += codes[:, indices[k0:k1]].astype(np.float64) @ v[k0:k1]
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
