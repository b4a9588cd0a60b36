import hashlib
import math
import struct

import numpy as np
import pytest

from synsum import autodiff as ad
from synsum import training as tr
from synsum.autodiff import Tensor
from synsum.cli import decode_corpus
from synsum.model import ModelConfig, ModelParams
from synsum.training import (
    Checkpoint,
    CheckpointError,
    NonFiniteGradientError,
    TrainConfig,
    adagrad_step,
    clip_gradients,
    load_checkpoint,
    params_from_checkpoint,
    save_checkpoint,
    sequence_loss,
    train,
)
from oracles import loss_from_rows, stack


# ---------------------------------------------------------------------------
# loss


def rows(*vectors):
    return stack([Tensor(np.asarray(v, dtype=float)) for v in vectors])


def test_loss_zero_when_gold_has_probability_one():
    dists = rows([0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    attn = rows([0.5, 0.5], [0.5, 0.5])
    covs = rows(np.zeros(2), np.zeros(2))
    loss, stats = loss_from_rows(dists, [1, 0], attn, covs, coverage_weight=0.0)
    assert loss.item() == 0.0
    assert stats.nll == 0.0


def test_loss_uniform_distribution_is_log_vocab():
    v = 7
    dists = rows(*[np.full(v, 1.0 / v)] * 3)
    attn = rows(*[[1.0]] * 3)
    covs = rows(*[np.zeros(1)] * 3)
    loss, _ = loss_from_rows(dists, [0, 3, 6], attn, covs, coverage_weight=0.0)
    assert abs(loss.item() - math.log(v)) < 1e-12


def test_loss_two_step_hand_fixture():
    # hand evaluation: steps with known distributions, attention and coverage
    d1, d2 = np.array([0.7, 0.2, 0.1]), np.array([0.25, 0.7, 0.05])
    a1, a2 = np.array([0.6, 0.4]), np.array([0.3, 0.7])
    c1, c2 = np.zeros(2), np.array([0.6, 0.4])
    expected = (
        (-math.log(0.7) + 1.0 * 0.0)
        + (-math.log(0.7) + 1.0 * (0.3 + 0.4))
    ) / 2.0
    loss, stats = loss_from_rows(rows(d1, d2), [0, 1], rows(a1, a2),
                                 rows(c1, c2), coverage_weight=1.0)
    assert abs(loss.item() - expected) < 1e-10
    assert stats.steps == 2


def test_loss_rejects_empty_target():
    empty = Tensor(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="empty"):
        loss_from_rows(empty, [], empty, empty, 1.0)


def test_loss_floors_probability_before_log():
    loss, _ = loss_from_rows(rows([1.0, 0.0]), [1], rows([1.0]),
                             rows(np.zeros(1)), 0.0)
    assert abs(loss.item() - (-math.log(1e-12))) < 1e-6


def test_sequence_loss_lambda_zero_equals_nll_component(tiny_setup):
    _, _, examples, config = tiny_setup
    params = ModelParams(config, seed=0)
    loss0, stats0 = sequence_loss(examples[0], params, coverage_weight=0.0)
    loss1, stats1 = sequence_loss(examples[0], params, coverage_weight=1.0)
    assert abs(loss0.item() - stats1.nll) < 1e-12
    assert stats0.coverage == 0.0
    assert loss1.item() > loss0.item()


def test_sequence_loss_nonnegative(tiny_setup):
    _, _, examples, config = tiny_setup
    params = ModelParams(config, seed=1)
    for ex in examples[:4]:
        loss, stats = sequence_loss(ex, params, coverage_weight=1.0)
        assert loss.item() >= 0.0
        assert stats.nll >= 0.0 and stats.coverage >= 0.0


# ---------------------------------------------------------------------------
# adagrad


def test_adagrad_zero_gradient_is_noop():
    theta = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = {}
    adagrad_step({"theta": theta}, {"theta": np.zeros(2)}, state,
                 lr=0.15, init_acc=0.1)
    np.testing.assert_array_equal(theta.data, [1.0, -2.0])
    np.testing.assert_array_equal(state["theta"], np.full(2, 0.1))


def test_adagrad_hand_evaluated_update():
    theta = Tensor(np.array([1.0]), requires_grad=True)
    state = {}
    adagrad_step({"theta": theta}, {"theta": np.array([1.0])}, state,
                 lr=0.15, init_acc=0.1)
    np.testing.assert_allclose(state["theta"], [1.1], atol=0)
    expected = 1.0 - 0.15 / math.sqrt(1.1)
    assert abs(theta.data[0] - expected) < 1e-12
    assert abs(theta.data[0] - 0.85698) < 1e-5


def test_adagrad_step_magnitude_strictly_decreases():
    theta = Tensor(np.array([0.0]), requires_grad=True)
    state = {}
    deltas = []
    for _ in range(5):
        before = theta.data.copy()
        adagrad_step({"theta": theta}, {"theta": np.array([1.0])}, state,
                     lr=0.15, init_acc=0.1)
        deltas.append(abs(theta.data[0] - before[0]))
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_adagrad_in_place_update_is_bitwise_the_expression_form():
    rng = np.random.default_rng(11)
    shapes = {"W": (7, 5), "b": (5,), "E": (30, 4)}
    params = {n: Tensor(rng.normal(size=s), requires_grad=True)
              for n, s in shapes.items()}
    want = {n: t.data.copy() for n, t in params.items()}
    state, want_acc = {}, {}
    for _ in range(4):
        grads = {n: rng.normal(scale=3.0, size=s) for n, s in shapes.items()
                 if n != "b" or not want_acc}  # b: on the first step only
        given = {n: g.copy() for n, g in grads.items()}
        adagrad_step(params, grads, state, lr=0.15, init_acc=0.1)
        for n, g in grads.items():
            acc = want_acc.setdefault(n, np.full(shapes[n], 0.1))
            acc += g * g
            want[n] -= 0.15 * g / np.sqrt(acc)
            assert grads[n].tobytes() == given[n].tobytes()  # left as given
        for n, t in params.items():
            assert t.data.tobytes() == want[n].tobytes()
            assert state[n].tobytes() == want_acc[n].tobytes()


def test_adagrad_rejects_non_finite_gradient():
    theta = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(NonFiniteGradientError, match="theta"):
        adagrad_step({"theta": theta}, {"theta": np.array([np.nan])}, {},
                     lr=0.1, init_acc=0.1)


def test_gradient_clipping_bounds_global_norm():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([0.0])}
    clipped, norm = clip_gradients(grads, max_norm=2.0)
    assert abs(norm - 5.0) < 1e-12
    total = sum(float((g * g).sum()) for g in clipped.values())
    assert abs(total ** 0.5 - 2.0) < 1e-12
    # under the limit nothing changes
    same, norm2 = clip_gradients(grads, max_norm=10.0)
    np.testing.assert_array_equal(same["a"], grads["a"])


@pytest.mark.parametrize("max_norm", [0.0, 1.0, 1e9])
def test_clip_gradients_in_place_is_bitwise_the_expression_form(max_norm):
    """Scaled in place, the same arrays come back; the norm and every entry
    are bitwise those of ``(g * g).sum()`` summed in order and ``g * scale``
    (a 0-d and an odd-sized gradient included)."""
    rng = np.random.default_rng(12)
    shapes = {"W": (37, 29), "b": (29,), "E": (301, 7), "s": ()}
    grads = {n: rng.normal(scale=3.0, size=s) for n, s in shapes.items()}
    given = {n: g.copy() for n, g in grads.items()}
    clipped, norm = clip_gradients(grads, max_norm)
    total = 0.0
    for g in given.values():
        total += float((g * g).sum())
    want_norm = total ** 0.5
    assert struct.pack("<d", norm) == struct.pack("<d", want_norm)
    scale = max_norm / want_norm if 0 < max_norm < want_norm else None
    for n, g in given.items():
        assert clipped[n] is grads[n]
        want = g if scale is None else g * scale
        assert clipped[n].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# training loop


def small_train_config(**kw):
    defaults = dict(epochs=3, batch_size=4, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_train_determinism_bitwise(tiny_setup):
    _, _, examples, config = tiny_setup
    r1 = train(examples[:6], config, small_train_config())
    r2 = train(examples[:6], config, small_train_config())
    for name, t in r1.params.named_tensors().items():
        assert t.data.tobytes() == r2.params.named_tensors()[name].data.tobytes()
    assert [h.total for h in r1.history] == [h.total for h in r2.history]


def test_train_loss_decreases(tiny_setup):
    _, _, examples, config = tiny_setup
    result = train(examples[:8], config, small_train_config(epochs=8))
    assert result.history[-1].total < result.history[0].total
    assert not result.halted


def test_train_empty_corpus_rejected(tiny_setup):
    _, _, _, config = tiny_setup
    with pytest.raises(ValueError, match="empty"):
        train([], config, small_train_config())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(coverage_weight=-1.0)
    for value in (0.0, -1.0):
        with pytest.raises(ValueError,
                           match="init_accumulator must be positive"):
            TrainConfig(init_accumulator=value)


@pytest.mark.parametrize("field", ["learning_rate", "init_accumulator",
                                   "coverage_weight", "clip_norm"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_train_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["batch_size", "epochs"])
@pytest.mark.parametrize("value", [0, -1, -3])
def test_train_config_rejects_batch_size_and_epochs_below_one(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        TrainConfig(**{field: value})
    assert getattr(TrainConfig(**{field: 1}), field) == 1


@pytest.mark.parametrize("field", ["d_emb", "d_h", "d_g", "d_dec", "d_attn"])
@pytest.mark.parametrize("value", [0, -1])
def test_model_config_rejects_widths_below_one(tiny_setup, field, value):
    _, _, _, config = tiny_setup
    data = dict(config.to_dict(), **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        ModelConfig(**data)
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        ModelConfig.from_dict(data)


def test_model_config_gcn_layers_may_be_zero_but_not_negative(tiny_setup):
    _, _, _, config = tiny_setup
    assert ModelConfig(**dict(config.to_dict(), gcn_layers=0)).gcn_layers == 0
    with pytest.raises(ValueError, match="gcn_layers must be nonnegative"):
        ModelConfig.from_dict(dict(config.to_dict(), gcn_layers=-1))


def test_train_halts_on_divergence_and_keeps_last_good(tiny_setup, monkeypatch):
    _, _, examples, config = tiny_setup
    calls = {"n": 0}
    real = tr.sequence_loss

    def exploding(example, params, coverage_weight, encoded=None):
        calls["n"] += 1
        loss, stats = real(example, params, coverage_weight, encoded)
        if calls["n"] > 10:
            loss.data = np.asarray(float("nan"))
        return loss, stats

    monkeypatch.setattr(tr, "sequence_loss", exploding)
    result = train(examples[:6], config, small_train_config(epochs=5))
    assert result.halted
    assert "non-finite" in result.halt_reason
    # parameters restored to the last completed epoch's snapshot
    assert all(np.isfinite(t.data).all()
               for t in result.params.named_tensors().values())


# ---------------------------------------------------------------------------
# decoding


def test_decode_corpus_deterministic(tiny_setup):
    _, vocab, examples, config = tiny_setup
    params = ModelParams(config, seed=1)
    one, two = ([tokens for tokens, _ in decode_corpus(
        examples[:2], params, vocab, beam=2, max_len=6, alpha=0.4)]
        for _ in range(2))
    assert one == two


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bitwise(tiny_setup, tmp_path):
    _, _, examples, config = tiny_setup
    result = train(examples[:4], config, small_train_config(epochs=2))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result.params, step=8, vocab_hash="abc123",
                    accumulators=result.accumulators,
                    extras={"selector/w": np.array([1.0, 2.0])})
    ckpt = load_checkpoint(path)
    assert ckpt.step == 8
    assert ckpt.vocab_hash == "abc123"
    assert ckpt.config == config
    for name, t in result.params.named_tensors().items():
        assert ckpt.arrays[name].tobytes() == t.data.tobytes()
    for name, acc in result.accumulators.items():
        assert ckpt.accumulators[name].tobytes() == acc.tobytes()
    np.testing.assert_array_equal(ckpt.extras["selector/w"], [1.0, 2.0])

    # reloaded parameters produce bitwise-identical forward passes
    reloaded = params_from_checkpoint(ckpt)
    example = examples[0]
    loss_a, _ = sequence_loss(example, result.params, 1.0)
    loss_b, _ = sequence_loss(example, reloaded, 1.0)
    assert loss_a.data.tobytes() == loss_b.data.tobytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tiny_setup, tmp_path):
    _, _, examples, config = tiny_setup
    params = ModelParams(config, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, step=0, vocab_hash="x")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def tiny_checkpoint(tmp_path) -> bytes:
    """A checkpoint of every width 1 with one accumulator and one extra."""
    config = ModelConfig(vocab_size=6, d_emb=1, d_h=1, d_g=1, gcn_layers=1,
                         d_dec=1, d_attn=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ModelParams(config, seed=0), step=0, vocab_hash="x",
                    accumulators={"embedding": np.ones((6, 1))},
                    extras={"selector/b": np.zeros(())})
    return path.read_bytes()


def test_checkpoint_every_truncation_raises_checkpoint_error(tmp_path):
    data = tiny_checkpoint(tmp_path)
    load_checkpoint(data)
    cut_path = tmp_path / "cut.ckpt"
    for cut in range(len(data)):
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(data[:cut])
        cut_path.write_bytes(data[:cut])   # cut 0 is an empty file
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(cut_path)


def test_checkpoint_every_framing_bit_flip_loads_or_is_a_checkpoint_error(
        tmp_path):
    """Flips each bit outside the float payloads, one at a time: a record
    path that is no longer UTF-8, or a dimension count or shape numpy
    refuses, is a ``CheckpointError`` naming the record like any other
    framing fault, and ``params_from_checkpoint`` adds only shape
    mismatches."""
    data = tiny_checkpoint(tmp_path)
    ckpt = load_checkpoint(data)
    arrays = [*ckpt.arrays.values(), *ckpt.accumulators.values(),
              *ckpt.extras.values()]
    payload = set()
    for (_, _, start), array in zip(record_layout(data), arrays, strict=True):
        payload.update(range(start, start + 8 * array.size))
    framing = [pos for pos in range(len(data)) if pos not in payload]
    assert (len(data), len(framing)) == (3616, 2368)
    corrupt = bytearray(data)
    loaded = 0
    for pos in framing:
        for bit in range(8):
            corrupt[pos] ^= 1 << bit
            try:
                flipped = load_checkpoint(bytes(corrupt))
            except CheckpointError:
                pass
            else:
                loaded += 1
                try:
                    params_from_checkpoint(flipped)
                except ValueError as exc:
                    assert str(exc).startswith("shape mismatch for "), exc
            corrupt[pos] ^= 1 << bit
    assert 0 < loaded < len(framing)


def saved_checkpoint(tmp_path):
    """A checkpoint with every section, its path and the saved arrays."""
    config = ModelConfig(vocab_size=7, d_emb=3, d_h=2, d_g=3, gcn_layers=1,
                         d_dec=3, d_attn=2)
    params = ModelParams(config, seed=4)
    rng = np.random.default_rng(4)
    saved = {
        "arrays": {n: t.data for n, t in params.named_tensors().items()},
        "accumulators": {"embedding": rng.normal(size=(7, 3))},
        "extras": {"selector/w": rng.normal(size=5), "selector/b": np.ones(())},
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, step=3, vocab_hash="x",
                    accumulators=saved["accumulators"], extras=saved["extras"])
    return path, saved


def record_layout(data: bytes) -> list[tuple[str, int, int]]:
    """(path, padding start, payload start) of each record of a checkpoint."""
    pos = 20 + struct.unpack("<Q", data[12:20])[0]
    layout = []
    while pos < len(data):
        (path_len,) = struct.unpack("<I", data[pos:pos + 4])
        path = data[pos + 4:pos + 4 + path_len].decode()
        pos += 4 + path_len
        (ndim,) = struct.unpack("<I", data[pos:pos + 4])
        shape = struct.unpack(f"<{ndim}Q", data[pos + 4:pos + 4 + 8 * ndim])
        pad_start = pos + 4 + 8 * ndim
        start = pad_start + (-pad_start % 8)
        layout.append((path, pad_start, start))
        pos = start + 8 * math.prod(shape)
    return layout


@pytest.mark.parametrize("from_path", [True, False], ids=["path", "bytes"])
def test_loaded_checkpoint_arrays_are_aligned_writable_views(tmp_path,
                                                             from_path):
    path, saved = saved_checkpoint(tmp_path)
    ckpt = load_checkpoint(path if from_path else path.read_bytes())
    for section, arrays in saved.items():
        loaded = getattr(ckpt, section)
        assert list(loaded) == list(arrays)
        for name, array in arrays.items():
            got = loaded[name]
            assert got.dtype == np.float64 and got.shape == array.shape
            assert got.flags.writeable and got.flags.aligned
            assert got.flags.c_contiguous
            assert got.tobytes() == array.tobytes()


def test_checkpoint_payloads_start_at_8_byte_offsets(tmp_path):
    path, saved = saved_checkpoint(tmp_path)
    data = path.read_bytes()
    layout = record_layout(data)
    assert len(layout) == sum(len(arrays) for arrays in saved.values())
    assert all(start % 8 == 0 and start - pad < 8 for _, pad, start in layout)
    assert all(data[pad:start] == bytes(start - pad)
               for _, pad, start in layout)
    assert any(start > pad for _, pad, start in layout)


def test_write_to_loaded_array_leaves_the_file_unchanged(tmp_path):
    path, saved = saved_checkpoint(tmp_path)
    before = path.read_bytes()
    ckpt = load_checkpoint(path)
    ckpt.arrays["embedding"][...] = 7.0
    ckpt.extras["selector/w"] += 1.0
    assert (ckpt.arrays["embedding"] == 7.0).all()
    assert path.read_bytes() == before
    again = load_checkpoint(path)
    assert again.arrays["embedding"].tobytes() \
        == saved["arrays"]["embedding"].tobytes()


def test_save_over_a_loaded_checkpoint_leaves_its_arrays(tmp_path):
    path, saved = saved_checkpoint(tmp_path)
    ckpt = load_checkpoint(path)
    other = ModelParams(ckpt.config, seed=9)
    save_checkpoint(path, other, step=4, vocab_hash="y")
    for name, array in saved["arrays"].items():
        assert ckpt.arrays[name].tobytes() == array.tobytes()
    assert ckpt.extras["selector/w"].tobytes() \
        == saved["extras"]["selector/w"].tobytes()
    reloaded = load_checkpoint(path)
    assert reloaded.step == 4
    assert reloaded.arrays["embedding"].tobytes() \
        == other.embedding.data.tobytes()


def test_checkpoint_rejects_version_1(tmp_path):
    path, _ = saved_checkpoint(tmp_path)
    for version in (1, 2):
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", version)
        with pytest.raises(CheckpointError,
                           match=f"unsupported checkpoint version {version}"):
            load_checkpoint(bytes(data))


def test_checkpoint_rejects_nonzero_padding(tmp_path):
    path, _ = saved_checkpoint(tmp_path)
    data = path.read_bytes()
    padded = [(name, pad, start) for name, pad, start in record_layout(data)
              if start > pad]
    name, _, start = padded[len(padded) // 2]
    corrupt = bytearray(data)
    corrupt[start - 1] = 1
    with pytest.raises(CheckpointError,
                       match=f"non-zero padding before tensor '{name}'"):
        load_checkpoint(bytes(corrupt))
    path.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError, match="non-zero padding"):
        load_checkpoint(path)


def test_params_from_checkpoint_validates_paths(tiny_setup, tmp_path):
    _, _, _, config = tiny_setup
    params = ModelParams(config, seed=0)
    arrays = {n: t.data for n, t in params.named_tensors().items()}
    arrays.pop("embedding")
    ckpt = Checkpoint(config=config, arrays=arrays, accumulators={},
                      extras={}, step=0, vocab_hash="x")
    with pytest.raises(ValueError, match="embedding"):
        params_from_checkpoint(ckpt)


def params_digest(params):
    h = hashlib.sha256()
    for name, t in params.named_tensors().items():
        h.update(name.encode())
        h.update(repr(t.shape).encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


SEEDED_INIT_CONFIGS = [
    (dict(), "8a2f745eb926273e33ae45f7e6b3687d3c35d964e48d4fa6b3c2fc2e4b2f8174"),
    (dict(d_g=10, gcn_layers=3, tie_fwd_bwd=True),
     "0eeca9ef1e4e08374d825166d60f9b4fd150255b0a9cd1ca10e2b711d1cd5aa5"),
    (dict(ablate_gcn=True),
     "9e6374d496c2d5280465bf53010bf2b31dac76af8576dd7c410b12bcfe1e0f60"),
]


@pytest.mark.parametrize("overrides,digest", SEEDED_INIT_CONFIGS)
def test_seeded_init_draws_are_pinned(overrides, digest):
    # digests of the values, shapes and path order of ModelParams(config,
    # seed=3) as first generated; loading from arrays must not disturb them
    widths = dict(vocab_size=40, d_emb=8, d_h=6, d_g=12, gcn_layers=2,
                  d_dec=10, d_attn=10)
    config = ModelConfig(**{**widths, **overrides})
    assert params_digest(ModelParams(config, seed=3)) == digest


def test_params_from_checkpoint_draws_nothing_and_keeps_file_bits(
        tiny_setup, tmp_path, monkeypatch):
    _, _, _, config = tiny_setup
    params = ModelParams(config, seed=5)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, step=1, vocab_hash="x")
    ckpt = load_checkpoint(path)

    def no_draws(*args, **kwargs):
        raise AssertionError("random draw while loading a checkpoint")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    reloaded = params_from_checkpoint(ckpt)
    named = reloaded.named_tensors()
    assert list(named) == list(params.named_tensors())
    for name, t in named.items():
        assert t.data.tobytes() == ckpt.arrays[name].tobytes()
        assert t.requires_grad
    assert params_digest(reloaded) == params_digest(params)


def test_params_from_checkpoint_rejects_shape_mismatch(tiny_setup):
    _, _, _, config = tiny_setup
    arrays = {n: t.data for n, t in ModelParams(config).named_tensors().items()}
    arrays["dec/out_b"] = arrays["dec/out_b"][:-1]
    ckpt = Checkpoint(config=config, arrays=arrays, accumulators={},
                      extras={}, step=0, vocab_hash="x")
    with pytest.raises(ValueError, match="dec/out_b"):
        params_from_checkpoint(ckpt)


@pytest.mark.parametrize("edit,message", [
    (lambda d: d.update(d_extra=3), "unknown"),
    (lambda d: d.pop("vocab_size"), "lacks 'vocab_size'"),
    (lambda d: d.update(d_h=6.0), "'d_h' must be int"),
    (lambda d: d.update(ablate_gate=1), "'ablate_gate' must be bool"),
])
def test_model_config_from_dict_rejects_malformed_keys(tiny_setup, edit,
                                                       message):
    _, _, _, config = tiny_setup
    assert ModelConfig.from_dict(config.to_dict()) == config
    data = config.to_dict()
    edit(data)
    with pytest.raises(ValueError, match=message):
        ModelConfig.from_dict(data)


def test_interrupted_save_leaves_old_checkpoint_intact(tiny_setup, tmp_path,
                                                       monkeypatch):
    _, _, _, config = tiny_setup
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ModelParams(config, seed=0), step=1, vocab_hash="x")
    before = path.read_bytes()
    real_write = tr._write_record
    written = []

    def failing_write(fh, name, array):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(name)
        real_write(fh, name, array)

    monkeypatch.setattr(tr, "_write_record", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, ModelParams(config, seed=1), step=2,
                        vocab_hash="y")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


# ---------------------------------------------------------------------------
# full-model gradient check on a small fixture


def test_full_model_gradient_check_small(tiny_setup):
    _, vocab, examples, _ = tiny_setup
    config = ModelConfig(vocab_size=vocab.size, d_emb=3, d_h=2, d_g=4,
                         gcn_layers=1, d_dec=3, d_attn=3)
    params = ModelParams(config, seed=11)
    for layer in params.gcn:
        layer["bias"].data[...] = 0.2  # keep relu away from its kink
    example = examples[1]
    checked = params.named_tensors()

    def f(p):
        loss, _ = sequence_loss(example, params, coverage_weight=1.0)
        return loss

    report = ad.grad_check(f, checked, eps=1e-5, tol=1e-4)
    assert report.ok, str(report)


@pytest.mark.parametrize("clip_norm", [0.0, 0.05, 1e9])
def test_epoch_stats_report_pre_clip_norm_and_clip_rate(tiny_setup,
                                                        monkeypatch, clip_norm):
    _, _, examples, config = tiny_setup
    norms = []
    real = tr.clip_gradients

    def recording(grads, max_norm):
        clipped, norm = real(grads, max_norm)
        norms.append(norm)
        return clipped, norm

    monkeypatch.setattr(tr, "clip_gradients", recording)
    result = train(examples[:6], config,
                   small_train_config(epochs=2, clip_norm=clip_norm))
    assert len(norms) == 4  # two batches (4 + 2 examples) an epoch
    for stats, (first, second) in zip(result.history, [norms[:2], norms[2:]]):
        assert stats.grad_norm == (first + second) / 2
        assert stats.clip_rate == sum(0 < clip_norm < v
                                      for v in (first, second)) / 2
    expected_rate = {0.0: 0.0, 0.05: 1.0, 1e9: 0.0}[clip_norm]
    assert [s.clip_rate for s in result.history] == [expected_rate] * 2
