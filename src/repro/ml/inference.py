"""The no-grad recurrent kernel (the serving-side forward pass).

Training builds an autograd graph: every LSTM timestep allocates gate
Tensors, backward closures and parent tuples.  Serving needs none of that,
so this module runs the forward pass of the recurrent layers as one fused
NumPy kernel per cell over raw ndarrays:

* the input-to-gate projection of *every* timestep is one BLAS call on a
  time-major ``(T*B, F)`` copy, so ``gates[t]`` is a contiguous
  ``(B, gates)`` block inside the loop;
* LSTM weight columns are permuted to ``[i, f, o, g]`` so one in-place
  :func:`~repro.ml.activations.fast_sigmoid_` covers the three sigmoid
  gates as a contiguous block (GRU's ``[r, z]`` already are);
* gate views and scratch buffers are bound once before the loop, which
  performs exactly one recurrent matmul per step and allocates nothing;
* hiddens land in a time-major ``(T, B, H)`` buffer — contiguous for the
  step's write and the next step's matmul — copied into the caller's
  ``(B, T, H)`` output once, after the last step.

The direct sigmoid differs from the autograd engine's stable form by a
few ulps at most (the parity suite pins the two at ≤ 1e-6).  It saturates
``exp`` for very negative pre-activations, so the time loop runs under
``np.errstate(over="ignore")``.

:func:`iter_chunk_batches` is the multi-sequence batcher underneath
:meth:`repro.core.perfvec.PerfVec.program_representations` and the serving
layer: it slices any number of feature streams into fixed-length chunks and
groups them — across requests — into dense batches, so one BLAS call per
timestep serves every queued request at once.

Layer modules expose this path as ``Module.infer`` (see
:mod:`repro.ml.layers`); modules without a hand-fused kernel fall back to
running ``forward`` under :func:`repro.ml.autograd.no_grad`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.ml.activations import fast_sigmoid_

__all__ = [
    "lstm_infer",
    "gru_infer",
    "iter_chunk_batches",
]


def _as_f32(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float32)


def _time_major_gates(x: np.ndarray, wx: np.ndarray, bx: np.ndarray):
    """Input projection of all T steps in one matmul: ``(T, B, gates)``."""
    batch, time, feat = x.shape
    gates = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(
        time * batch, feat
    ) @ wx
    gates += bx
    return gates.reshape(time, batch, wx.shape[1])


def _lstm_cell_infer(
    cell, x: np.ndarray, h0: np.ndarray, c0: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run one LSTM cell over ``x (B, T, F)``, writing hiddens into ``out``."""
    batch, time, _ = x.shape
    H = cell.hidden_size
    # sigmoid gates [i, f, o] made contiguous; tanh gate [g] rides last
    perm = np.r_[0 : 2 * H, 3 * H : 4 * H, 2 * H : 3 * H]
    wh = np.ascontiguousarray(cell.hw.weight.data[:, perm])
    gates = _time_major_gates(
        x,
        np.ascontiguousarray(cell.xw.weight.data[:, perm]),
        np.ascontiguousarray(cell.xw.bias.data[perm]),
    )
    h = _as_f32(h0)
    c = np.array(c0, dtype=np.float32, copy=True)  # mutated in place below
    outs = np.empty((time, batch, H), dtype=np.float32)
    z = np.empty((batch, 4 * H), dtype=np.float32)
    zi, zf, zo, zg = (z[:, k * H : (k + 1) * H] for k in range(4))
    zs = z[:, 0 : 3 * H]  # the [i, f, o] sigmoid block
    e = np.empty((batch, 3 * H), dtype=np.float32)
    tmp = np.empty((batch, H), dtype=np.float32)
    with np.errstate(over="ignore"):
        for t in range(time):
            np.matmul(h, wh, out=z)
            z += gates[t]
            fast_sigmoid_(zs, e)
            np.tanh(zg, out=zg)
            np.multiply(zf, c, out=c)
            np.multiply(zi, zg, out=tmp)
            c += tmp
            np.tanh(c, out=tmp)
            h = np.multiply(zo, tmp, out=outs[t])
    out[:] = outs.transpose(1, 0, 2)
    return h, c


def lstm_infer(
    lstm, x: np.ndarray, state=None
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Inference forward of :class:`repro.ml.recurrent.LSTM` on ndarrays.

    Mirrors ``LSTM.forward`` (multi-layer, optionally bidirectional; the
    reverse direction always starts from zero state within the chunk) and
    returns ``(outputs (B, T, D), final state per layer)``.
    """
    x = _as_f32(x)
    if x.ndim != 3:
        raise ValueError("LSTM expects (batch, time, features)")
    batch, time = x.shape[0], x.shape[1]
    H = lstm.hidden_size
    if state is None:
        state = lstm.initial_state(batch)
    final_state: list[tuple[np.ndarray, np.ndarray]] = []
    inputs = x
    for layer in range(lstm.num_layers):
        h0, c0 = state[layer]
        cell = lstm.cells[layer]
        out = np.empty((batch, time, H), dtype=np.float32)
        h, c = _lstm_cell_infer(cell, inputs, h0, c0, out)
        final_state.append((h.copy(), c.copy()))
        if lstm.bidirectional:
            rev_cell = lstm.cells_rev[layer]
            zeros = np.zeros((batch, H), dtype=np.float32)
            rev = np.empty_like(out)
            _lstm_cell_infer(rev_cell, inputs[:, ::-1], zeros, zeros, rev)
            inputs = np.concatenate([out, rev[:, ::-1]], axis=-1)
        else:
            inputs = out
    return inputs, final_state


def _gru_cell_infer(
    cell, x: np.ndarray, h0: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Run one GRU cell over ``x (B, T, F)``, writing hiddens into ``out``."""
    batch, time, _ = x.shape
    H = cell.hidden_size
    wh = cell.hw.weight.data
    gates = _time_major_gates(x, cell.xw.weight.data, cell.xw.bias.data)
    h = _as_f32(h0)
    outs = np.empty((time, batch, H), dtype=np.float32)
    hz = np.empty((batch, 3 * H), dtype=np.float32)
    hrz, hn = hz[:, 0 : 2 * H], hz[:, 2 * H :]
    rz = np.empty((batch, 2 * H), dtype=np.float32)  # the [r, z] block
    r, zg = rz[:, 0:H], rz[:, H:]
    nb = np.empty((batch, H), dtype=np.float32)
    tmp = np.empty((batch, H), dtype=np.float32)
    e = np.empty((batch, 2 * H), dtype=np.float32)
    with np.errstate(over="ignore"):
        for t in range(time):
            np.matmul(h, wh, out=hz)
            xt = gates[t]
            np.add(xt[:, 0 : 2 * H], hrz, out=rz)
            fast_sigmoid_(rz, e)
            np.multiply(r, hn, out=nb)
            nb += xt[:, 2 * H :]
            np.tanh(nb, out=nb)
            ot = outs[t]
            np.subtract(1.0, zg, out=tmp)
            np.multiply(tmp, nb, out=ot)
            np.multiply(zg, h, out=tmp)
            ot += tmp
            h = ot
    out[:] = outs.transpose(1, 0, 2)
    return h


def gru_infer(gru, x: np.ndarray, state=None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Inference forward of :class:`repro.ml.recurrent.GRU` on ndarrays."""
    x = _as_f32(x)
    if x.ndim != 3:
        raise ValueError("GRU expects (batch, time, features)")
    batch, time = x.shape[0], x.shape[1]
    if state is None:
        state = gru.initial_state(batch)
    final_state: list[np.ndarray] = []
    inputs = x
    for layer in range(gru.num_layers):
        cell = gru.cells[layer]
        out = np.empty((batch, time, gru.hidden_size), dtype=np.float32)
        h = _gru_cell_infer(cell, inputs, state[layer], out)
        final_state.append(h.copy())
        inputs = out
    return inputs, final_state


#: One batched engine work item: rows ``start : start + length`` of stream
#: ``stream`` occupy one row of the batch.
Placement = tuple[int, int, int]


def iter_chunk_batches(
    streams: Sequence[np.ndarray],
    chunk_len: int,
    batch_size: int,
) -> Iterator[tuple[list[Placement], np.ndarray]]:
    """Slice feature streams into dense ``(b, L, F)`` inference batches.

    Every stream is cut into contiguous ``chunk_len``-row chunks (fresh
    recurrent state per chunk, mirroring training).  Full chunks from *all*
    streams batch together, ``batch_size`` at a time; ragged tails batch
    with tails of equal length.  Yields ``(placements, batch)`` where
    ``placements[i] = (stream index, start row, length)`` locates batch row
    ``i`` in its source stream.  Together the yielded placements cover every
    row of every stream exactly once.
    """
    if chunk_len < 1:
        raise ValueError("chunk_len must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if not streams:
        return
    feat = streams[0].shape[1]
    full: list[tuple[int, int]] = []
    tails: dict[int, list[tuple[int, int]]] = {}
    for s, stream in enumerate(streams):
        n = len(stream)
        if n == 0:
            raise ValueError(f"empty feature stream (index {s})")
        n_full = n // chunk_len
        full.extend((s, i * chunk_len) for i in range(n_full))
        rem = n - n_full * chunk_len
        if rem:
            tails.setdefault(rem, []).append((s, n_full * chunk_len))
    groups = [(chunk_len, full)] + sorted(tails.items())
    for length, places in groups:
        for i in range(0, len(places), batch_size):
            group = places[i : i + batch_size]
            batch = np.empty((len(group), length, feat), dtype=np.float32)
            for row, (s, start) in enumerate(group):
                batch[row] = streams[s][start : start + length]
            yield [(s, start, length) for s, start in group], batch
