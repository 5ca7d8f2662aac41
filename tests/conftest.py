import numpy as np
import pytest

from fewcache import numerics
from fewcache.dataset import SynthSpec, synth_generate


@pytest.fixture(scope="session", autouse=True)
def blas_on_one_thread():
    """Run BLAS on one thread, as the benchmark does. The block kernels use
    threads only while BLAS runs one (numerics._block_workers), and the
    tests that set numerics._WORKERS mean that many threads. Tests that
    need another BLAS thread count set it and restore this one."""
    api = numerics._blas_api()
    if not api:
        yield
        return
    get, set_ = api
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_dataset():
    """Tiny but nondegenerate dataset shared by read-only tests."""
    return synth_generate(
        SynthSpec(
            num_classes=2,
            dim=8,
            bags_per_class=4,
            instances_per_bag=30,
            positive_fraction=0.3,
            noise_sigma=0.2,
            seed=7,
        )
    )
