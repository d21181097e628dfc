import pytest

from distatlas import distgen
from distatlas.cdfcodec import GridShape


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """corpus(per_family, master_seed, grid): the cache `generate` writes for them, loaded."""

    def build(per_family: int, master_seed: int, grid: GridShape = GridShape()):
        path = tmp_path_factory.mktemp("corpus") / "dataset.bin"
        distgen.write_corpus(path, per_family, grid, master_seed)
        return distgen.load_cache(path)

    return build
