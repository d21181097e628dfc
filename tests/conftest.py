from dataclasses import replace

import pytest

from distatlas import cli, distgen
from distatlas.cdfcodec import GridShape
from distatlas.neuralcore import TrainConfig


def train_config(epochs: int, **fields) -> TrainConfig:
    """The TrainConfig `distatlas train classifier --epochs epochs` builds from its other
    flags' defaults, with ``fields`` replacing some of its values. The parser is the one
    place that spells the grid models' training settings."""
    args = cli.build_parser().parse_args(["train", "classifier"])
    return replace(cli._train_config_from_args(args, default_epochs=epochs), **fields)


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """corpus(per_family, master_seed, grid): the cache `generate` writes for them, loaded."""

    def build(per_family: int, master_seed: int, grid: GridShape = GridShape()):
        path = tmp_path_factory.mktemp("corpus") / "dataset.bin"
        distgen.write_corpus(path, per_family, grid, master_seed)
        return distgen.load_cache(path)

    return build
