import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from svkit.audio import SAMPLE_RATE, Waveform
from svkit import network
from svkit.network import VARIANTS, init_weights


def make_wave(seed: int, seconds: float, amplitude: float = 0.3) -> Waveform:
    """Band-limited noisy tone; deterministic per seed."""
    rng = np.random.default_rng(seed)
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    freq = rng.uniform(200.0, 3500.0)
    x = amplitude * np.sin(2 * np.pi * freq * t)
    x += 0.1 * amplitude * rng.standard_normal(n)
    return Waveform(np.clip(x, -0.99, 0.99))


def per_crop(embed_one):
    """An embedder as svkit.scoring takes one, a list of crops to their
    rows, that embeds each crop by its own call of embed_one (a crop to
    its row)."""
    return lambda crops: np.stack([embed_one(crop) for crop in crops])


def forward_stages(monkeypatch, features, weights) -> dict:
    """Run network.forward and record the shape of each stage's output:
    conv1, layer1-4, frames, pooled and embedding. conv1 and layer1-4 are
    read from the trunk plan for the features' length, whose stage outputs
    are zero-bordered buffers, so their stage shape is that of the
    interior; the pooling function forward calls is wrapped, so it sees the
    frames and gives the pooled vector."""
    plan = network.trunk_plan(weights.config, 1, len(features))
    stages: dict = {}
    for name, stage in plan.stages.items():
        _, t, f, c = stage.output.shape
        stages[name] = (t - 2, f - 2, c)

    def traced(pool):
        def run(frames, *args):
            stages["frames"] = frames.shape
            pooled = pool(frames, *args)
            stages["pooled"] = pooled.shape
            return pooled

        return run

    for name in ("sap_pool", "asp_pool"):
        monkeypatch.setattr(network, name, traced(getattr(network, name)))
    stages["embedding"] = network.forward(features, weights).shape
    return stages


@pytest.fixture(scope="session")
def q_config():
    return VARIANTS["q-sap"]


@pytest.fixture(scope="session")
def q_weights(q_config):
    return init_weights(q_config, seed=0)


@pytest.fixture(scope="session")
def h_config():
    return VARIANTS["h-asp"]


@pytest.fixture(scope="session")
def h_weights(h_config):
    return init_weights(h_config, seed=0)
