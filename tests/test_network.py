import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import forward_stages, make_wave
from oracles import relative_l2, trunk_embedding
from svkit import cli, network
from svkit.containers import load_tensors, save_tensors
from svkit.scoring import network_embedder
from svkit.network import (
    VARIANTS,
    FoldedWeights,
    asp_pool,
    conv2d,
    forward,
    frame_attention,
    init_weights,
    parameter_count,
    residual_block,
    sap_pool,
)


def brute_force_conv2d(x, kernel, stride, bias):
    """Direct O(everything) unpadded convolution plus bias, used as the oracle."""
    kh, kw, c_in, c_out = kernel.shape
    st, sf = stride
    t_out = (x.shape[0] - kh) // st + 1
    f_out = (x.shape[1] - kw) // sf + 1
    out = np.zeros((t_out, f_out, c_out))
    for ti in range(t_out):
        for fi in range(f_out):
            patch = x[ti * st : ti * st + kh, fi * sf : fi * sf + kw, :]
            for co in range(c_out):
                out[ti, fi, co] = np.sum(patch * kernel[:, :, :, co]) + bias[co]
    return out


def bordered(x):
    """x in the interior of a zero-bordered buffer, as the trunk carries it."""
    return np.pad(x, ((1, 1), (1, 1), (0, 0)))


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [((1, 1), (1, 1)), ((2, 2), (1, 1)), ((2, 1), (0, 1))])
    def test_matches_brute_force(self, stride, pad):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((9, 7, 3)).astype(np.float32)
        xp = np.pad(x, ((pad[0], pad[0]), (pad[1], pad[1]), (0, 0)))
        k = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        got = conv2d(xp, k, stride, bias)
        want = brute_force_conv2d(xp.astype(np.float64), k.astype(np.float64), stride, bias)
        assert got.shape == want.shape
        assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_shape_arithmetic(self):
        x = np.zeros((203, 66, 1), dtype=np.float32)
        k = np.zeros((3, 3, 1, 16), dtype=np.float32)
        bias = np.zeros(16, dtype=np.float32)
        assert conv2d(x, k, (2, 2), bias).shape == (101, 32, 16)
        assert conv2d(x, k, (1, 1), bias).shape == (201, 64, 16)

    def test_fused_epilogue_over_several_tiles(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = bordered(rng.standard_normal((70, 20, 3)).astype(np.float32))
        # 30 output rows of 20 positions, 3x3x3 float32 columns each, per
        # tile: two full tiles and a partial one.
        monkeypatch.setattr(network, "TILE_BYTES", 30 * 20 * 27 * 4)
        k = rng.standard_normal((3, 3, 3, 4)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        residual = rng.standard_normal((70, 20, 4)).astype(np.float32)
        buf = np.full((72, 22, 4), np.nan, dtype=np.float32)
        got = conv2d(x, k, (1, 1), bias, residual=residual, relu=True, out=buf[1:-1, 1:-1])
        want = brute_force_conv2d(x.astype(np.float64), k.astype(np.float64), (1, 1), bias)
        assert np.shares_memory(got, buf)
        assert_allclose(got, np.maximum(want + residual, 0.0), rtol=1e-5, atol=1e-5)
        border = np.ones(buf.shape, dtype=bool)
        border[1:-1, 1:-1] = False
        assert np.all(np.isnan(buf[border]))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            conv2d(np.zeros((4, 4, 2)), np.zeros((3, 3, 3, 4)), (1, 1), np.zeros(4))


class TestPooling:
    def test_attention_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((26, 8))
        w, b, u = rng.standard_normal((8, 5)), rng.standard_normal(5), rng.standard_normal(5)
        alpha = frame_attention(frames, w, b, u)
        assert alpha.shape == (26,)
        assert np.all(alpha > 0)
        assert alpha.sum() == pytest.approx(1.0, rel=1e-12)

    def test_sap_is_attention_weighted_mean(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((7, 4))
        w, b, u = rng.standard_normal((4, 3)), rng.standard_normal(3), rng.standard_normal(3)
        # independent recomputation of the definition
        scores = np.tanh(frames @ w + b) @ u
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        assert_allclose(sap_pool(frames, w, b, u), alpha @ frames, rtol=1e-12)

    def test_asp_concatenates_weighted_mean_and_std(self):
        rng = np.random.default_rng(4)
        frames = rng.standard_normal((9, 4))
        w, b, u = rng.standard_normal((4, 3)), rng.standard_normal(3), rng.standard_normal(3)
        scores = np.tanh(frames @ w + b) @ u
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        mu = alpha @ frames
        sigma = np.sqrt(np.maximum(alpha @ (frames**2) - mu**2, 1e-5))
        got = asp_pool(frames, w, b, u)
        assert got.shape == (8,)
        assert_allclose(got, np.concatenate([mu, sigma]), rtol=1e-10)

    def test_asp_identical_frames_hit_variance_floor(self):
        frames = np.tile(np.array([1.0, -2.0, 0.5]), (6, 1))
        w, b, u = np.zeros((3, 2)), np.zeros(2), np.zeros(2)
        got = asp_pool(frames, w, b, u)
        assert_allclose(got[:3], frames[0], rtol=1e-12)
        assert_allclose(got[3:], np.sqrt(1e-5), rtol=1e-12)


class TestConfig:
    def test_q_dimensions(self, q_config):
        assert q_config.channels == (16, 32, 64, 128)
        assert q_config.conv1_stride == (2, 2)
        assert q_config.final_freq == 4
        assert q_config.frame_dim == 128
        assert q_config.pooled_dim == 128

    def test_h_dimensions(self, h_config):
        assert h_config.channels == (32, 64, 128, 256)
        assert h_config.conv1_stride == (1, 1)
        assert h_config.final_freq == 8
        assert h_config.frame_dim == 2048
        assert h_config.pooled_dim == 4096

    def test_from_variant(self):
        assert VARIANTS["q-sap"].pooling == "sap"
        assert VARIANTS["h-asp"].pooling == "asp"
        assert list(VARIANTS) == ["q-sap", "h-asp"]
        assert all(cfg.variant == name for name, cfg in VARIANTS.items())
        with pytest.raises(KeyError):
            VARIANTS["full"]

    def test_block_layout(self, q_config):
        blocks = list(q_config.blocks())
        assert len(blocks) == 16
        assert blocks[0] == ("layer1.block0", 1, 16, 16)
        assert blocks[3] == ("layer2.block0", 2, 16, 32)
        assert blocks[4] == ("layer2.block1", 1, 32, 32)
        assert blocks[-1] == ("layer4.block2", 1, 128, 128)


class TestWeights:
    def test_parameter_counts(self, q_weights, h_weights):
        assert parameter_count(q_weights) == 1_415_728
        assert parameter_count(h_weights) == 7_683_424

    def test_running_stats_not_counted(self, q_weights):
        buffered = sum(t.size for n, t in q_weights.items() if "running_" in n)
        total = sum(t.size for t in q_weights.values())
        assert buffered > 0
        assert parameter_count(q_weights) == total - buffered

    def test_init_deterministic_per_seed(self, q_config):
        a = init_weights(q_config, seed=7)
        b = init_weights(q_config, seed=7)
        assert list(a) == list(b)
        for name in a:
            assert a[name].dtype == np.float32
            assert_array_equal(a[name], b[name])
        c = init_weights(q_config, seed=8)
        assert any(not np.array_equal(a[n], c[n]) for n in a)

    def test_save_load_round_trip(self, tmp_path, q_weights):
        path = tmp_path / "q.svw1"
        save_tensors(path, q_weights)
        back = load_tensors(path)
        assert parameter_count(back) == parameter_count(q_weights)
        for name in q_weights:
            assert_array_equal(back[name], q_weights[name])

    def test_fold_infers_config(self, q_weights, h_weights, q_config, h_config):
        assert FoldedWeights(q_weights).config == q_config
        assert FoldedWeights(h_weights).config == h_config
        with pytest.raises(ValueError, match="no tensor named 'conv1.weight'"):
            FoldedWeights({"x": np.zeros((2, 2), dtype=np.float32)})
        with pytest.raises(ValueError, match="cannot infer variant"):
            FoldedWeights({**q_weights, "conv1.weight": np.zeros((3, 3, 1, 99), dtype=np.float32)})


class TestResidualBlock:
    def test_identity_shortcut_when_no_projection(self, q_weights):
        rng = np.random.default_rng(5)
        x = bordered(rng.standard_normal((11, 8, 16)).astype(np.float32))
        out = residual_block(x, FoldedWeights(q_weights), "layer1.block1", stride=1)
        assert out.shape == x.shape
        assert np.all(out >= 0)  # final ReLU
        assert_array_equal(out, bordered(out[1:-1, 1:-1]))  # zero border

    def test_projection_shortcut_changes_shape(self, q_weights):
        rng = np.random.default_rng(6)
        x = bordered(rng.standard_normal((12, 8, 16)).astype(np.float32))
        out = residual_block(x, FoldedWeights(q_weights), "layer2.block0", stride=2)
        assert out.shape == (6 + 2, 4 + 2, 32)
        assert_array_equal(out, bordered(out[1:-1, 1:-1]))


class TestForward:
    def test_h_shape_log_matches_reference_table(self, h_weights, monkeypatch):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((201, 64))
        stages = forward_stages(monkeypatch, feats, FoldedWeights(h_weights))
        assert stages["conv1"] == (201, 64, 32)
        assert stages["layer1"] == (201, 64, 32)
        assert stages["layer2"] == (101, 32, 64)
        assert stages["layer3"] == (51, 16, 128)
        assert stages["layer4"] == (26, 8, 256)
        assert stages["frames"] == (26, 2048)
        assert stages["pooled"] == (4096,)
        assert stages["embedding"] == (512,)

    def test_q_shape_log(self, q_weights, monkeypatch):
        rng = np.random.default_rng(8)
        feats = rng.standard_normal((201, 64))
        stages = forward_stages(monkeypatch, feats, FoldedWeights(q_weights))
        assert stages["embedding"] == (512,)
        assert stages["conv1"] == (101, 32, 16)
        assert stages["layer4"] == (13, 4, 128)
        assert stages["frames"] == (13, 128)
        assert stages["pooled"] == (128,)

    def test_deterministic(self, q_weights):
        rng = np.random.default_rng(10)
        feats = rng.standard_normal((201, 64))
        folded = FoldedWeights(q_weights)
        assert_array_equal(forward(feats, folded), forward(feats, folded))

    def test_wrong_mel_count_rejected(self, q_weights):
        with pytest.raises(ValueError):
            forward(np.zeros((201, 40)), FoldedWeights(q_weights))

    def test_raw_weights_rejected_naming_folded_weights(self, q_weights):
        with pytest.raises(TypeError, match="FoldedWeights"):
            forward(np.zeros((201, 64)), q_weights)
        embed = network_embedder(q_weights)
        with pytest.raises(TypeError, match="FoldedWeights"):
            embed(make_wave(seed=12, seconds=0.5))

    def test_raw_weights_or_a_config_are_type_errors(self, q_weights, q_config):
        feats = np.random.default_rng(14).standard_normal((201, 64))
        with pytest.raises(TypeError, match="FoldedWeights"):
            forward(feats, q_weights)
        with pytest.raises(TypeError):
            forward(feats, q_weights, q_config)
        with pytest.raises(TypeError):
            forward(feats, FoldedWeights(q_weights), q_config)

    def test_embed_bn_variant_runs(self, q_config):
        weights = FoldedWeights(with_embed_bn(init_weights(q_config, seed=1)))
        emb = forward(np.random.default_rng(11).standard_normal((101, 64)), weights)
        assert emb.shape == (512,)
        assert np.all(np.isfinite(emb))


def with_embed_bn(weights: dict) -> dict:
    """The weights plus an identity batch norm after the embedding layer
    (embed_bn.*), which init_weights never writes."""
    dim = weights["embed.bias"].shape[0]
    ones, zeros = np.ones(dim, dtype=np.float32), np.zeros(dim, dtype=np.float32)
    bn = {"gamma": ones, "beta": zeros, "running_mean": zeros, "running_var": ones}
    return {**weights, **{f"embed_bn.{k}": t for k, t in bn.items()}}


def random_batchnorm(weights: dict, seed: int) -> dict:
    """The weights with random, non-identity batch-norm parameters and
    running statistics (init_weights gives identity batch norm)."""
    rng = np.random.default_rng(seed)
    draw = {
        "gamma": lambda n: rng.uniform(0.5, 1.5, n),
        "beta": lambda n: rng.normal(0.0, 0.2, n),
        "running_mean": lambda n: rng.normal(0.0, 0.2, n),
        "running_var": lambda n: rng.uniform(0.5, 2.0, n),
    }
    tensors = dict(weights)
    for name, t in weights.items():
        kind = name.rpartition(".")[2]
        if kind in draw:
            tensors[name] = draw[kind](t.shape).astype(np.float32)
    return tensors


class TestFoldedForward:
    # Frame counts of 1-4 and 400 are the shortest inputs and an even count
    # through the stride-2 stages.
    @pytest.mark.parametrize("frames", [201, 1, 2, 3, 4, 400])
    @pytest.mark.parametrize("variant,embed_bn", [("q-sap", False), ("h-asp", False), ("q-sap", True)])
    def test_matches_float64_oracle(self, variant, embed_bn, frames):
        cfg = VARIANTS[variant]
        weights = init_weights(cfg, seed=3)
        weights = random_batchnorm(with_embed_bn(weights) if embed_bn else weights, seed=4)
        feats = np.random.default_rng(13).standard_normal((frames, 64))
        want = trunk_embedding(feats, weights)
        assert relative_l2(forward(feats, FoldedWeights(weights)), want) <= 1e-4

    @pytest.mark.parametrize("variant", ["q-sap", "h-asp"])
    def test_embedding_batch_norm_is_folded_under_the_variant_config(self, variant, tmp_path):
        cfg = VARIANTS[variant]
        weights = random_batchnorm(with_embed_bn(init_weights(cfg, seed=15)), seed=16)
        path = tmp_path / "w.svw1"
        save_tensors(path, weights)
        feats = np.random.default_rng(17).standard_normal((201, 64))
        want = trunk_embedding(feats, weights)
        before = weights["embed.weight"].tobytes()
        for folded in (FoldedWeights(weights), FoldedWeights.load(path)):
            assert not any(name.startswith("embed_bn.") for name in folded.tensors)
            assert folded.config == cfg
            assert relative_l2(forward(feats, folded), want) <= 1e-4
        assert weights["embed.weight"].tobytes() == before

    @pytest.mark.parametrize("variant", ["q-sap", "h-asp"])
    def test_reused_weights_leak_no_state_between_calls(self, variant):
        cfg = VARIANTS[variant]
        weights = random_batchnorm(init_weights(cfg, seed=5), seed=6)
        rng = np.random.default_rng(14)
        feats = {n: rng.standard_normal((n, 64)) for n in (201, 401)}
        folded = FoldedWeights(weights)
        for n in (201, 401, 201):
            fresh = forward(feats[n], FoldedWeights(weights))
            assert_array_equal(forward(feats[n], folded), fresh)

    def test_holds_only_folded_tensors(self, q_weights):
        folded = FoldedWeights(q_weights)
        assert set(folded.tensors) == {"pool.w", "pool.b", "pool.u", "embed.weight", "embed.bias"}
        convs = {n.removesuffix(".weight") for n, t in q_weights.items() if t.ndim == 4}
        assert set(folded.convs) == convs
        for name, (kernel, bias) in folded.convs.items():
            assert kernel.shape == q_weights[f"{name}.weight"].shape
            assert bias.shape == kernel.shape[-1:]

    def test_negative_running_var_rejected_at_fold_time(self, q_config):
        tensors = init_weights(q_config, seed=0)
        tensors["layer3.block1.bn2.running_var"] = -np.ones(64, dtype=np.float32)
        with pytest.raises(ValueError, match="layer3.block1.bn2.running_var"):
            FoldedWeights(tensors)


class TestFoldedLoad:
    """FoldedWeights.load folds in place as it loads; FoldedWeights(w)
    folds a copy. Both give the same bits."""

    @pytest.mark.parametrize("variant,embed_bn", [("q-sap", False), ("h-asp", False), ("q-sap", True)])
    def test_in_place_load_matches_folding_loaded_weights(self, variant, embed_bn, tmp_path):
        cfg = VARIANTS[variant]
        path = tmp_path / "w.svw1"
        weights = init_weights(cfg, seed=7)
        save_tensors(path, random_batchnorm(with_embed_bn(weights) if embed_bn else weights, seed=8))
        raw = load_tensors(path)
        want = FoldedWeights(raw)
        got = FoldedWeights.load(path)
        assert got.convs.keys() == want.convs.keys()
        for name, (kernel, bias) in want.convs.items():
            assert got.convs[name][0].tobytes() == kernel.tobytes()
            assert got.convs[name][1].tobytes() == bias.tobytes()
            assert got.convs[name][0].dtype == np.float32
        assert got.tensors.keys() == want.tensors.keys()
        for name, t in want.tensors.items():
            assert got.tensors[name].tobytes() == t.tobytes()
        assert got.config == want.config == cfg
        # The fold is a float64 product rounded once to float32.
        bn = [raw[f"conv1.bn.{k}"].astype(np.float64) for k in ("gamma", "running_var")]
        scale = bn[0] / np.sqrt(bn[1] + 1e-5)
        old = (raw["conv1.weight"] * scale).astype(np.float32)
        assert got.convs["conv1"][0].tobytes() == old.tobytes()

    def test_in_place_load_rejects_negative_running_var_by_name(self, q_config, tmp_path):
        for name in ("layer2.block0.shortcut_bn.running_var", "embed_bn.running_var"):
            tensors = with_embed_bn(init_weights(q_config, seed=0))
            tensors[name] = -np.ones_like(tensors[name])
            path = tmp_path / "neg.svw1"
            save_tensors(path, tensors)
            for fold in (FoldedWeights.load, lambda p: FoldedWeights(load_tensors(p))):
                with pytest.raises(ValueError, match=name):
                    fold(path)

    def test_folding_leaves_the_weights_unchanged(self, h_config):
        weights = random_batchnorm(init_weights(h_config, seed=9), seed=10)
        before = {name: t.tobytes() for name, t in weights.items()}
        FoldedWeights(weights)
        assert {name: t.tobytes() for name, t in weights.items()} == before


# (tensor, shape to give it or None to remove it): every q-sap conv in turn,
# a misshapen conv kernel and batch norm, and the pooling and embedding layers.
BROKEN = [
    *[(f"{conv}.weight", None) for conv in VARIANTS["q-sap"].convs()],
    ("layer2.block0.conv2.weight", (3, 3, 16, 32)),
    ("conv1.bn.gamma", (1,)),
    ("pool.w", None),
    ("embed.bias", None),
]


class TestCheckedAtLoad:
    """A weight set is checked whole as it is folded, so a missing or
    misshapen tensor is reported with the file before any audio is read,
    not at the first forward."""

    @pytest.mark.parametrize("name,shape", BROKEN, ids=[f"{n}-{s or 'missing'}" for n, s in BROKEN])
    def test_missing_or_misshapen_tensor_is_named_with_the_file(
        self, name, shape, q_weights, tmp_path, monkeypatch, capsys
    ):
        tensors = dict(q_weights)
        if shape is None:
            del tensors[name]
        else:
            tensors[name] = np.zeros(shape, dtype=np.float32)
        path = tmp_path / "broken.svw1"
        save_tensors(path, tensors)
        with pytest.raises(ValueError) as exc:
            FoldedWeights.load(path)
        assert str(exc.value).startswith(f"{path}: ") and name in str(exc.value)

        def no_read(path):
            raise AssertionError("the WAV was read")

        monkeypatch.setattr(cli, "read_wav", no_read)
        argv = ["embed", str(tmp_path / "utt.wav"), "--weights", str(path), "--out", str(tmp_path / "e.svw1")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and name in err

    def test_a_misshapen_embedding_batch_norm_is_named(self, q_weights):
        tensors = with_embed_bn(q_weights)
        tensors["embed_bn.gamma"] = np.ones(1, dtype=np.float32)  # would broadcast
        with pytest.raises(ValueError, match="embed_bn.gamma has shape"):
            FoldedWeights(tensors)
