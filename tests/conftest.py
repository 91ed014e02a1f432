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


def forward_stages(monkeypatch, features, weights) -> dict:
    """Run network.forward and record the shape of each stage's output:
    conv1, layer1-4, frames, pooled and embedding. The stages are read by
    wrapping the module globals forward calls: the input of the first
    residual block is conv1's output, the last block of each layer gives
    that layer's, and the pooling function sees the frames and gives the
    pooled vector. A block's input and output are zero-bordered buffers,
    so their stage shape is that of the interior."""
    stages: dict = {}
    block = network.residual_block

    def traced_block(x, weights, prefix, stride):
        stages.setdefault("conv1", x[1:-1, 1:-1].shape)
        out = block(x, weights, prefix, stride)
        stages[prefix.partition(".")[0]] = out[1:-1, 1:-1].shape
        return out

    def traced(pool):
        def run(frames, *args):
            stages["frames"] = frames.shape
            pooled = pool(frames, *args)
            stages["pooled"] = pooled.shape
            return pooled

        return run

    monkeypatch.setattr(network, "residual_block", traced_block)
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
