"""Recurrent layers: LSTM (uni/bi-directional, multi-layer) and GRU.

Cells are fused: one matmul produces all gate pre-activations per step, so
the per-step graph stays small and the heavy lifting is BLAS.  Layers accept
and return explicit hidden state, enabling the truncated-BPTT streaming that
PerfVec training uses (each contiguous trace chunk continues from the
detached final state of the previous chunk — the causal analogue of the
paper's c-instruction context window).
"""

from __future__ import annotations

import numpy as np

from repro.ml.autograd import Tensor, concat, grad_enabled, stack
from repro.ml.inference import gru_infer, lstm_infer
from repro.ml.layers import Linear, Module


def _raw(x) -> np.ndarray:
    """The ndarray behind a forward input (Tensor or already raw)."""
    return x.data if isinstance(x, Tensor) else x


class LSTMCell(Module):
    """Fused LSTM cell: gates = x@Wx + h@Wh + b, order [i, f, g, o]."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.xw = Linear(input_size, 4 * hidden_size, bias=True, rng=rng)
        self.hw = Linear(hidden_size, 4 * hidden_size, bias=False, rng=rng)
        # forget-gate bias init to 1: standard trick for gradient flow
        self.xw.bias.data[hidden_size : 2 * hidden_size] = 1.0

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        H = self.hidden_size
        z = self.xw(x) + self.hw(h)
        i = z[:, 0:H].sigmoid()
        f = z[:, H : 2 * H].sigmoid()
        g = z[:, 2 * H : 3 * H].tanh()
        o = z[:, 3 * H : 4 * H].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new


class GRUCell(Module):
    """Fused GRU cell: gates [r, z] plus candidate n."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.xw = Linear(input_size, 3 * hidden_size, bias=True, rng=rng)
        self.hw = Linear(hidden_size, 3 * hidden_size, bias=False, rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        H = self.hidden_size
        xz = self.xw(x)
        hz = self.hw(h)
        r = (xz[:, 0:H] + hz[:, 0:H]).sigmoid()
        z = (xz[:, H : 2 * H] + hz[:, H : 2 * H]).sigmoid()
        n = (xz[:, 2 * H : 3 * H] + r * hz[:, 2 * H : 3 * H]).tanh()
        return (1.0 - z) * n + z * h


class LSTM(Module):
    """Multi-layer (optionally bidirectional) LSTM over (B, T, F) input."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 bidirectional: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.bidirectional = bidirectional
        dirs = 2 if bidirectional else 1
        self.cells = []
        self.cells_rev = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size * dirs
            self.cells.append(LSTMCell(in_size, hidden_size, rng=rng))
            if bidirectional:
                self.cells_rev.append(LSTMCell(in_size, hidden_size, rng=rng))

    @property
    def output_size(self) -> int:
        return self.hidden_size * (2 if self.bidirectional else 1)

    def initial_state(self, batch: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Zero (h, c) per layer for the forward direction."""
        H = self.hidden_size
        return [
            (np.zeros((batch, H), dtype=np.float32),
             np.zeros((batch, H), dtype=np.float32))
            for _ in range(self.num_layers)
        ]

    def _run_direction(self, cell, steps: list[Tensor], h0, c0):
        h, c = h0, c0
        outputs = []
        for x in steps:
            h, c = cell(x, h, c)
            outputs.append(h)
        return outputs, h, c

    def forward(
        self, x: Tensor, state: list[tuple[np.ndarray, np.ndarray]] | None = None
    ) -> tuple[Tensor, list[tuple[np.ndarray, np.ndarray]]]:
        """Returns (outputs (B, T, D), final detached state per layer)."""
        if x.ndim != 3:
            raise ValueError("LSTM expects (batch, time, features)")
        if not grad_enabled():
            # no graph wanted: the fused no-grad kernel serves the
            # training-code call sites
            out, final_state = lstm_infer(self, _raw(x), state)
            return Tensor(out), final_state
        batch, time, _ = x.shape
        if state is None:
            state = self.initial_state(batch)
        steps = [x[:, t, :] for t in range(time)]
        final_state: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in range(self.num_layers):
            h0, c0 = state[layer]
            fwd, h_last, c_last = self._run_direction(
                self.cells[layer], steps, Tensor(h0), Tensor(c0)
            )
            final_state.append((h_last.data.copy(), c_last.data.copy()))
            if self.bidirectional:
                # reverse direction always starts from zero within the chunk
                H = self.hidden_size
                z = Tensor(np.zeros((batch, H), dtype=np.float32))
                rev, _, _ = self._run_direction(
                    self.cells_rev[layer], steps[::-1], z, z
                )
                rev = rev[::-1]
                steps = [concat([f, r], axis=-1) for f, r in zip(fwd, rev)]
            else:
                steps = fwd
        outputs = stack(steps, axis=1)
        return outputs, final_state

    def infer(self, x, state=None):
        """Fused no-grad forward (see :func:`repro.ml.inference.lstm_infer`)."""
        return lstm_infer(self, x, state)


class GRU(Module):
    """Multi-layer unidirectional GRU over (B, T, F) input."""

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            self.cells.append(GRUCell(in_size, hidden_size, rng=rng))

    @property
    def output_size(self) -> int:
        return self.hidden_size

    def initial_state(self, batch: int) -> list[np.ndarray]:
        H = self.hidden_size
        return [np.zeros((batch, H), dtype=np.float32) for _ in range(self.num_layers)]

    def forward(
        self, x: Tensor, state: list[np.ndarray] | None = None
    ) -> tuple[Tensor, list[np.ndarray]]:
        if x.ndim != 3:
            raise ValueError("GRU expects (batch, time, features)")
        if not grad_enabled():
            out, final_state = gru_infer(self, _raw(x), state)
            return Tensor(out), final_state
        batch, time, _ = x.shape
        if state is None:
            state = self.initial_state(batch)
        steps = [x[:, t, :] for t in range(time)]
        final_state: list[np.ndarray] = []
        for layer in range(self.num_layers):
            h = Tensor(state[layer])
            outs = []
            cell = self.cells[layer]
            for xt in steps:
                h = cell(xt, h)
                outs.append(h)
            final_state.append(h.data.copy())
            steps = outs
        return stack(steps, axis=1), final_state

    def infer(self, x, state=None):
        """Fused no-grad forward (see :func:`repro.ml.inference.gru_infer`)."""
        return gru_infer(self, x, state)
