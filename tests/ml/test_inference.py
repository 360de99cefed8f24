"""Parity suite: the no-grad inference engine vs the training forward.

The acceptance bar for the serving refactor: inference-mode outputs match
the training-mode (autograd) forward within 1e-6 for every architecture —
LSTM, GRU, MLP and the full PerfVec predictor.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.foundation import make_foundation
from repro.core.perfvec import PerfVec
from repro.core.predictor import MicroarchTable
from repro.ml import GRU, LSTM, MLP, Linear, Tensor
from repro.ml.inference import iter_chunk_batches

ATOL = 1e-6
RNG = np.random.default_rng(11)
X = RNG.normal(size=(3, 17, 9)).astype(np.float32)


def _assert_close(a, b):
    np.testing.assert_allclose(a, b, atol=ATOL, rtol=0)


# ---------------------------------------------------------------------------
# layer kernels
# ---------------------------------------------------------------------------
def test_linear_infer_matches_forward():
    layer = Linear(9, 5, rng=np.random.default_rng(0))
    flat = X.reshape(-1, 9)
    _assert_close(layer(Tensor(flat)).data, layer.infer(flat))


def test_mlp_infer_matches_forward():
    mlp = MLP([9, 32, 16, 4], rng=np.random.default_rng(1))
    flat = X.reshape(-1, 9)
    _assert_close(mlp(Tensor(flat)).data, mlp.infer(flat))


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_lstm_infer_matches_forward(layers, bidirectional):
    lstm = LSTM(9, 13, num_layers=layers, bidirectional=bidirectional,
                rng=np.random.default_rng(2))
    out_t, state_t = lstm(Tensor(X))
    out_i, state_i = lstm.infer(X)
    _assert_close(out_t.data, out_i)
    for (h_t, c_t), (h_i, c_i) in zip(state_t, state_i):
        _assert_close(h_t, h_i)
        _assert_close(c_t, c_i)


def test_lstm_infer_continues_state():
    lstm = LSTM(9, 13, num_layers=2, rng=np.random.default_rng(3))
    state = [
        (RNG.normal(size=(3, 13)).astype(np.float32),
         RNG.normal(size=(3, 13)).astype(np.float32))
        for _ in range(2)
    ]
    out_t, _ = lstm(Tensor(X), [(h.copy(), c.copy()) for h, c in state])
    out_i, _ = lstm.infer(X, [(h.copy(), c.copy()) for h, c in state])
    _assert_close(out_t.data, out_i)


@pytest.mark.parametrize("layers", [1, 2])
def test_gru_infer_matches_forward(layers):
    gru = GRU(9, 13, num_layers=layers, rng=np.random.default_rng(4))
    out_t, state_t = gru(Tensor(X))
    out_i, state_i = gru.infer(X)
    _assert_close(out_t.data, out_i)
    for h_t, h_i in zip(state_t, state_i):
        _assert_close(h_t, h_i)


@pytest.mark.parametrize(
    "spec", ["linear-1-8", "mlp-2-8", "gru-1-8", "lstm-2-8", "bilstm-1-8",
             "transformer-1-8"]
)
def test_foundation_infer_matches_forward(spec):
    foundation = make_foundation(spec, input_size=9, seed=5)
    out_t, _ = foundation(Tensor(X))
    out_i, _ = foundation.infer(X)
    _assert_close(out_t.data, out_i)


def test_perfvec_infer_matches_forward():
    foundation = make_foundation("lstm-2-8", input_size=9, seed=6)
    model = PerfVec(foundation, MicroarchTable(4, 8, rng=np.random.default_rng(7)))
    preds_t, reps_t, _ = model(Tensor(X))
    preds_i, reps_i, _ = model.infer(X)
    _assert_close(reps_t.data, reps_i)
    _assert_close(preds_t.data, preds_i)


def test_infer_builds_no_graph():
    lstm = LSTM(9, 13, rng=np.random.default_rng(8))
    out, _ = lstm.infer(X)
    assert isinstance(out, np.ndarray)  # raw arrays, not Tensors


def test_infer_restores_training_mode():
    mlp = MLP([9, 8, 4], rng=np.random.default_rng(9))
    mlp.train()
    mlp.infer(X.reshape(-1, 9))
    assert mlp.training  # generic fallback must restore the mode


# ---------------------------------------------------------------------------
# the multi-stream chunk batcher
# ---------------------------------------------------------------------------
def test_iter_chunk_batches_covers_every_row_once():
    streams = [
        RNG.normal(size=(n, 4)).astype(np.float32) for n in (65, 32, 7, 100)
    ]
    seen = [np.zeros(len(s), dtype=int) for s in streams]
    for places, batch in iter_chunk_batches(streams, chunk_len=32, batch_size=3):
        assert len(places) == len(batch) <= 3
        for row, (s, start, length) in enumerate(places):
            assert batch[row].shape == (length, 4)
            np.testing.assert_array_equal(
                batch[row], streams[s][start : start + length]
            )
            seen[s][start : start + length] += 1
    for counts in seen:
        assert (counts == 1).all()


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=1, max_value=80), min_size=1,
                     max_size=8),
    chunk_len=st.integers(min_value=1, max_value=40),
    batch_size=st.integers(min_value=1, max_value=10),
)
def test_iter_chunk_batches_property(lengths, chunk_len, batch_size):
    """Any stream lengths, chunk length and batch size: the placements
    tile every stream exactly once and each batch row is its source."""
    rng = np.random.default_rng(len(lengths))
    streams = [rng.normal(size=(n, 3)).astype(np.float32) for n in lengths]
    seen = [np.zeros(n, dtype=int) for n in lengths]
    for places, batch in iter_chunk_batches(streams, chunk_len, batch_size):
        assert len(places) == len(batch) <= batch_size
        for row, (s, start, length) in enumerate(places):
            assert 1 <= length <= chunk_len
            np.testing.assert_array_equal(
                batch[row], streams[s][start : start + length]
            )
            seen[s][start : start + length] += 1
    for counts in seen:
        assert (counts == 1).all()


def test_iter_chunk_batches_groups_equal_tails():
    streams = [np.ones((39, 2), np.float32), np.ones((71, 2), np.float32)]
    # both tails are 7 rows -> they must share one batch
    tail_batches = [
        places
        for places, batch in iter_chunk_batches(streams, 32, 64)
        if batch.shape[1] == 7
    ]
    assert len(tail_batches) == 1
    assert {s for s, _, _ in tail_batches[0]} == {0, 1}


def test_iter_chunk_batches_rejects_empty_stream():
    with pytest.raises(ValueError, match="empty feature stream"):
        list(iter_chunk_batches([np.empty((0, 4), np.float32)], 32, 4))


def test_multi_stream_engine_matches_per_stream():
    foundation = make_foundation("lstm-1-8", input_size=4, seed=10)
    model = PerfVec(foundation, MicroarchTable(3, 8, rng=np.random.default_rng(1)))
    streams = [
        RNG.normal(size=(n, 4)).astype(np.float32) for n in (65, 32, 7)
    ]
    together = model.program_representations(streams, chunk_len=32)
    for s, stream in enumerate(streams):
        alone = model.program_representation(stream, chunk_len=32)
        np.testing.assert_allclose(together[s], alone, atol=ATOL)
