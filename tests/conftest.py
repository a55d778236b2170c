import pytest

from crosstrait import kernels


@pytest.fixture
def at_one_and_two_blas_threads():
    """``run(fn)`` returns ``[fn(), fn()]``, called with the caller's OpenBLAS at
    1 thread, then at 2; each call must leave the count as it found it, and the
    test's count is restored afterwards.  Skips without a bundled OpenBLAS."""
    blas = kernels._openblas()
    if blas is None:
        pytest.skip("numpy's BLAS is not a bundled OpenBLAS")
    set_threads, get_threads = blas
    parent = get_threads()

    def run(fn):
        got = []
        for threads in (1, 2):
            set_threads(threads)
            if get_threads() != threads:
                pytest.skip(f"OpenBLAS cannot run {threads} threads here")
            got.append(fn())
            assert get_threads() == threads
        return got

    yield run
    set_threads(parent)
