"""GRU recurrent layer with exposed gate activations and full BPTT.

The Stage-(a) model of CLAP is a GRU-based RNN trained to predict the
connection state after every packet.  Crucially, CLAP does not consume the
classifier's predictions at test time — it consumes the *gate activations*
(update and reset gates), which encode how strongly the current output depends
on previous packets, i.e. the inter-packet context.  Owning the cell
implementation makes exposing those activations trivial.

The cell follows the original formulation of Cho et al. (2014), the reference
the paper cites for its GRU:

.. math::

    z_t &= \\sigma(x_t W_z + h_{t-1} U_z + b_z) \\\\
    r_t &= \\sigma(x_t W_r + h_{t-1} U_r + b_r) \\\\
    \\tilde h_t &= \\tanh(x_t W_h + r_t \\odot (h_{t-1} U_h) + b_h) \\\\
    h_t &= (1 - z_t) \\odot h_{t-1} + z_t \\odot \\tilde h_t
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.nn.activations import sigmoid
from repro.nn.dense import Dense
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import Adam, Optimizer

Parameters = dict[str, np.ndarray]

#: Compute dtypes the inference loop accepts.  ``float64`` is the training
#: dtype and the default (``gru``); ``float32`` is the opt-in serving mode
#: (``gru-f32``) gated by the equivalence tolerance in
#: :mod:`repro.core.equivalence`.
COMPUTE_DTYPES = ("float64", "float32")


def encode_backend_name(name: str) -> np.ndarray:
    """Backend identity as a 1-D uint8 array (npz- and mmap-friendly)."""
    return np.frombuffer(name.encode("utf-8"), dtype=np.uint8).copy()


def decode_backend_name(value: np.ndarray | None, default: str = "gru") -> str:
    """Inverse of :func:`encode_backend_name`; legacy states map to ``default``."""
    if value is None:
        return default
    return bytes(np.asarray(value, dtype=np.uint8)).decode("utf-8")


def _sigmoid_fast_inplace(x: np.ndarray) -> None:
    """In-place ``1 / (1 + exp(-x))`` for the float32 serving mode.

    The unstable formulation saturates to exactly 0/1 a few ulps earlier
    than the branch-stable :func:`repro.nn.activations.sigmoid` — far below
    the float32 tolerance gate — and needs no scratch buffers.
    """
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


# ---------------------------------------------------------------------------
# Packed plans: the length-sorted chunking behind gate_activations_batch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkPlan:
    """One padded chunk of a packed plan."""

    indices: tuple[int, ...]  # original sequence indices, ascending length
    lengths: np.ndarray  # (rows,) int64, ascending
    max_time: int
    alive_from: tuple[int, ...]  # per step: first alive lane (suffix start)


@dataclass(frozen=True)
class PackedPlan:
    """Everything :meth:`GRUSequenceClassifier.gate_activations_batch` must
    otherwise recompute per batch: the length argsort, the chunk boundaries,
    each chunk's padded width and its per-step alive-lane suffix starts.
    """

    count: int
    chunk_size: int
    empty: tuple[int, ...]  # indices of zero-length sequences
    chunks: tuple[ChunkPlan, ...]
    bounds: np.ndarray  # (count + 1,) int64 row offsets in input order
    total_steps: int


def build_packed_plan(lengths: np.ndarray, chunk_size: int) -> PackedPlan:
    """Build the packed plan for one length vector.

    The stable argsort reproduces the order the previous per-batch
    ``list.sort`` produced, so chunk membership — and therefore every gate
    value — is unchanged by plan caching.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    chunk_size = max(int(chunk_size), 1)
    nonempty = np.flatnonzero(lengths > 0)
    order = nonempty[np.argsort(lengths[nonempty], kind="stable")]
    chunks: list[ChunkPlan] = []
    for start in range(0, order.size, chunk_size):
        chosen = order[start : start + chunk_size]
        chunk_lengths = lengths[chosen].copy()
        max_time = int(chunk_lengths[-1])
        alive = np.searchsorted(chunk_lengths, np.arange(max_time), side="right")
        chunks.append(
            ChunkPlan(
                indices=tuple(int(index) for index in chosen),
                lengths=chunk_lengths,
                max_time=max_time,
                alive_from=tuple(int(value) for value in alive),
            )
        )
    bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return PackedPlan(
        count=int(lengths.shape[0]),
        chunk_size=chunk_size,
        empty=tuple(int(index) for index in np.flatnonzero(lengths == 0)),
        chunks=tuple(chunks),
        bounds=bounds,
        total_steps=int(bounds[-1]),
    )


class PackedPlanCache:
    """LRU memo of :class:`PackedPlan` keyed on the batch's length vector.

    The issue-level key is the length *histogram*; keying on the exact length
    vector is a refinement of that key which additionally lets the argsort and
    scatter offsets be reused verbatim.  Streaming micro-batches repeat flush
    shapes (the flush policy caps them at ``max_batch``), so steady-state
    serving hits this cache instead of re-deriving the chunking every flush.
    """

    def __init__(self, maxsize: int = 256) -> None:
        self.maxsize = max(int(maxsize), 1)
        self._plans: "OrderedDict[tuple[int, bytes], PackedPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, lengths: np.ndarray, chunk_size: int) -> PackedPlan:
        key = (int(chunk_size), np.ascontiguousarray(lengths, dtype=np.int64).tobytes())
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            self._plans.move_to_end(key)
            return plan
        self.misses += 1
        plan = build_packed_plan(lengths, chunk_size)
        self._plans[key] = plan
        while len(self._plans) > self.maxsize:
            self._plans.popitem(last=False)
        return plan

    def info(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._plans)}


@dataclass
class GruStepCache:
    """Everything the backward pass needs about one forward time step."""

    inputs: np.ndarray
    h_prev: np.ndarray
    update_gate: np.ndarray
    reset_gate: np.ndarray
    candidate: np.ndarray
    hidden_from_u: np.ndarray
    mask: np.ndarray | None


@dataclass
class GruForwardResult:
    """Outputs of a full forward pass over a (batch of) sequence(s)."""

    hidden_states: np.ndarray  # (batch, time, hidden)
    update_gates: np.ndarray  # (batch, time, hidden)
    reset_gates: np.ndarray  # (batch, time, hidden)
    caches: list[GruStepCache]


class GRULayer:
    """A single GRU layer operating on padded batches of sequences."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        *,
        prefix: str = "gru/",
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.prefix = prefix
        self.parameters: Parameters = {
            f"{prefix}W": np.concatenate(
                [glorot_uniform(rng, input_size, hidden_size) for _ in range(3)], axis=1
            ),
            f"{prefix}U": np.concatenate(
                [orthogonal(rng, hidden_size, hidden_size) for _ in range(3)], axis=1
            ),
            f"{prefix}b": zeros(3 * hidden_size),
        }
        self.compute_dtype: np.dtype = np.dtype(np.float64)
        self._compute_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------ compute mode
    def set_compute_dtype(self, dtype) -> None:
        """Select the inference compute dtype for :meth:`gates_packed`.

        ``float64`` (the default) runs the plain per-step loop with the
        training path's activations; ``float32`` casts the parameters once
        (cached until the next training step or state load) and halves the
        memory traffic of the recurrence.  Training always runs in float64 —
        the master parameters are never narrowed.
        """
        resolved = np.dtype(dtype)
        if resolved.name not in COMPUTE_DTYPES:
            raise ValueError(
                f"unsupported compute dtype {dtype!r}; choose one of {COMPUTE_DTYPES}"
            )
        if resolved != self.compute_dtype:
            self.compute_dtype = resolved
            self._compute_cache = None
            if resolved != np.float64:
                self._compute_params()  # cast once, eagerly

    def invalidate_compute_cache(self) -> None:
        """Drop the cast parameter cache (call after any parameter update)."""
        self._compute_cache = None

    def _compute_params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (W, U, b) triple in the compute dtype, cast once and cached."""
        if self.compute_dtype == np.float64:
            return self.weight_input, self.weight_hidden, self.bias
        if self._compute_cache is None:
            self._compute_cache = (
                self.weight_input.astype(self.compute_dtype),
                self.weight_hidden.astype(self.compute_dtype),
                self.bias.astype(self.compute_dtype),
            )
        return self._compute_cache

    # ------------------------------------------------------------------ slices
    def _slices(self) -> tuple[slice, slice, slice]:
        h = self.hidden_size
        return slice(0, h), slice(h, 2 * h), slice(2 * h, 3 * h)

    @property
    def weight_input(self) -> np.ndarray:
        return self.parameters[f"{self.prefix}W"]

    @property
    def weight_hidden(self) -> np.ndarray:
        return self.parameters[f"{self.prefix}U"]

    @property
    def bias(self) -> np.ndarray:
        return self.parameters[f"{self.prefix}b"]

    # ----------------------------------------------------------------- forward
    def step(
        self,
        inputs: np.ndarray,
        h_prev: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, GruStepCache]:
        """One time step for a batch: ``inputs`` is (batch, input_size)."""
        z_slice, r_slice, h_slice = self._slices()
        projected_input = inputs @ self.weight_input + self.bias
        projected_hidden = h_prev @ self.weight_hidden
        update_gate = sigmoid(projected_input[:, z_slice] + projected_hidden[:, z_slice])
        reset_gate = sigmoid(projected_input[:, r_slice] + projected_hidden[:, r_slice])
        hidden_from_u = projected_hidden[:, h_slice]
        candidate = np.tanh(projected_input[:, h_slice] + reset_gate * hidden_from_u)
        h_new = (1.0 - update_gate) * h_prev + update_gate * candidate
        if mask is not None:
            expanded = mask[:, None]
            h_new = expanded * h_new + (1.0 - expanded) * h_prev
        cache = GruStepCache(
            inputs=inputs,
            h_prev=h_prev,
            update_gate=update_gate,
            reset_gate=reset_gate,
            candidate=candidate,
            hidden_from_u=hidden_from_u,
            mask=mask,
        )
        return h_new, cache

    def forward(
        self,
        inputs: np.ndarray,
        mask: np.ndarray | None = None,
        *,
        need_caches: bool = True,
    ) -> GruForwardResult:
        """Run the layer over ``inputs`` of shape (batch, time, input_size).

        ``need_caches=False`` skips the per-step backward caches for
        inference-only passes.  Gates-only callers should prefer
        :meth:`gates_packed`, the fused inference loop that skips hidden
        states, caches and finished lanes entirely.
        """
        batch, time, _ = inputs.shape
        hidden = np.zeros((batch, self.hidden_size), dtype=np.float64)
        hidden_states = np.zeros((batch, time, self.hidden_size), dtype=np.float64)
        update_gates = np.zeros_like(hidden_states)
        reset_gates = np.zeros_like(hidden_states)
        caches: list[GruStepCache] = []
        for t in range(time):
            step_mask = mask[:, t] if mask is not None else None
            hidden, cache = self.step(inputs[:, t, :], hidden, step_mask)
            hidden_states[:, t, :] = hidden
            update_gates[:, t, :] = cache.update_gate
            reset_gates[:, t, :] = cache.reset_gate
            if need_caches:
                caches.append(cache)
        return GruForwardResult(
            hidden_states=hidden_states,
            update_gates=update_gates,
            reset_gates=reset_gates,
            caches=caches,
        )

    def gates_packed(
        self,
        inputs: np.ndarray,
        lengths: np.ndarray,
        *,
        alive_from: Sequence[int] | None = None,
        out_update: np.ndarray | None = None,
        out_reset: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Update/reset gates for a padded batch sorted by ascending length.

        With lanes ordered shortest-first, the lanes still alive at step ``t``
        are exactly the suffix ``[searchsorted(lengths, t, 'right'):]`` — so
        instead of masking finished lanes (computing a full-width step and
        then discarding it), each step's recurrence runs only on the alive
        suffix.  Per-lane outputs are what the masked forward produces for
        real steps (a masked-out lane keeps its hidden state either way);
        total step work drops from ``batch * max_len`` to ``sum(lengths)``
        lane-steps.

        One kernel per compute dtype.  In float64 each step is the plain
        allocating update with the training path's
        :func:`~repro.nn.activations.sigmoid`.  In float32 (see
        :meth:`set_compute_dtype`) the step is fused: the one ``h_prev @ U``
        matmul lands in a preallocated scratch row-block, the sigmoid / tanh /
        convex hidden update run in place, and the gates are written straight
        into the output buffers, with no per-step temporaries.

        ``alive_from`` lets a cached :class:`PackedPlan` supply the per-step
        suffix starts so the ``searchsorted`` is not recomputed per batch.
        """
        batch, time, _ = inputs.shape
        lengths = np.asarray(lengths)
        if lengths.shape[0] != batch:
            raise ValueError(
                "gates_packed requires one length per lane: got "
                f"{lengths.shape[0]} lengths for {batch} lanes"
            )
        if batch > 1:
            descending = np.flatnonzero(np.diff(lengths) < 0)
            if descending.size:
                index = int(descending[0]) + 1
                raise ValueError(
                    "gates_packed requires lengths sorted ascending: "
                    f"lengths[{index}]={int(lengths[index])} < "
                    f"lengths[{index - 1}]={int(lengths[index - 1])}"
                )
        h = self.hidden_size
        two_h = 2 * h
        weight_input, weight_hidden, bias = self._compute_params()
        dtype = weight_input.dtype
        if inputs.dtype != dtype:
            inputs = inputs.astype(dtype)
        hidden = np.zeros((batch, h), dtype=dtype)
        if out_update is None:
            out_update = np.zeros((batch, time, h), dtype=np.float64)
        if out_reset is None:
            out_reset = np.zeros((batch, time, h), dtype=np.float64)
        projected = inputs.reshape(batch * time, self.input_size) @ weight_input
        projected += bias
        projected = projected.reshape(batch, time, 3 * h)
        if alive_from is None:
            alive_from = [
                int(value)
                for value in np.searchsorted(lengths, np.arange(time), side="right")
            ]
        if dtype == np.float64:
            for t in range(time):
                start = alive_from[t]
                projected_input = projected[start:, t, :]
                h_prev = hidden[start:]
                projected_hidden = h_prev @ weight_hidden
                gates = sigmoid(projected_input[:, :two_h] + projected_hidden[:, :two_h])
                update_gate = gates[:, :h]
                reset_gate = gates[:, h:]
                candidate = np.tanh(
                    projected_input[:, two_h:] + reset_gate * projected_hidden[:, two_h:]
                )
                hidden[start:] = (1.0 - update_gate) * h_prev + update_gate * candidate
                out_update[start:, t, :] = update_gate
                out_reset[start:, t, :] = reset_gate
            return out_update, out_reset
        # Per-call scratch: the recurrent projection and the convex-update
        # factor are sliced per step instead of reallocated.
        scratch = np.empty((batch, 3 * h), dtype=dtype)
        one_minus = np.empty((batch, h), dtype=dtype)
        for t in range(time):
            start = alive_from[t]
            h_prev = hidden[start:]
            gates = np.matmul(h_prev, weight_hidden, out=scratch[start:])
            projected_input = projected[start:, t, :]
            zr = gates[:, :two_h]
            zr += projected_input[:, :two_h]
            _sigmoid_fast_inplace(zr)
            update_gate = zr[:, :h]
            reset_gate = zr[:, h:]
            candidate = gates[:, two_h:]
            candidate *= reset_gate
            candidate += projected_input[:, two_h:]
            np.tanh(candidate, out=candidate)
            out_update[start:, t, :] = update_gate
            out_reset[start:, t, :] = reset_gate
            keep = one_minus[start:]
            np.subtract(1.0, update_gate, out=keep)
            h_prev *= keep
            candidate *= update_gate
            h_prev += candidate
        return out_update, out_reset

    # ---------------------------------------------------------------- backward
    def backward(
        self,
        grad_hidden_states: np.ndarray,
        caches: list[GruStepCache],
        gradients: Parameters,
    ) -> np.ndarray:
        """Backpropagate through time.

        ``grad_hidden_states`` is the gradient of the loss with respect to
        every per-step hidden state (batch, time, hidden), e.g. as produced by
        a per-step classification head.  Returns the gradient with respect to
        the inputs (batch, time, input_size).
        """
        z_slice, r_slice, h_slice = self._slices()
        weight_input = self.weight_input
        weight_hidden = self.weight_hidden
        batch, time, _ = grad_hidden_states.shape
        grad_inputs = np.zeros((batch, time, self.input_size), dtype=np.float64)
        grad_w = np.zeros_like(weight_input)
        grad_u = np.zeros_like(weight_hidden)
        grad_b = np.zeros_like(self.bias)
        carry = np.zeros((batch, self.hidden_size), dtype=np.float64)

        for t in range(time - 1, -1, -1):
            cache = caches[t]
            grad_h = grad_hidden_states[:, t, :] + carry
            if cache.mask is not None:
                expanded = cache.mask[:, None]
                carry_through = grad_h * (1.0 - expanded)
                grad_h = grad_h * expanded
            else:
                carry_through = 0.0

            update_gate = cache.update_gate
            reset_gate = cache.reset_gate
            candidate = cache.candidate
            h_prev = cache.h_prev

            grad_candidate = grad_h * update_gate
            grad_update = grad_h * (candidate - h_prev)
            grad_h_prev = grad_h * (1.0 - update_gate)

            grad_pre_candidate = grad_candidate * (1.0 - candidate * candidate)
            grad_reset = grad_pre_candidate * cache.hidden_from_u
            grad_hidden_from_u = grad_pre_candidate * reset_gate

            grad_pre_update = grad_update * update_gate * (1.0 - update_gate)
            grad_pre_reset = grad_reset * reset_gate * (1.0 - reset_gate)

            # Gradients w.r.t. the input projection (x @ W + b).
            grad_projected_input = np.concatenate(
                [grad_pre_update, grad_pre_reset, grad_pre_candidate], axis=1
            )
            # Gradients w.r.t. the hidden projection (h_prev @ U).
            grad_projected_hidden = np.concatenate(
                [grad_pre_update, grad_pre_reset, grad_hidden_from_u], axis=1
            )

            grad_w += cache.inputs.T @ grad_projected_input
            grad_u += h_prev.T @ grad_projected_hidden
            grad_b += grad_projected_input.sum(axis=0)
            grad_inputs[:, t, :] = grad_projected_input @ weight_input.T
            grad_h_prev = grad_h_prev + grad_projected_hidden @ weight_hidden.T
            carry = grad_h_prev + carry_through

        gradients[f"{self.prefix}W"] = gradients.get(f"{self.prefix}W", 0.0) + grad_w
        gradients[f"{self.prefix}U"] = gradients.get(f"{self.prefix}U", 0.0) + grad_u
        gradients[f"{self.prefix}b"] = gradients.get(f"{self.prefix}b", 0.0) + grad_b
        return grad_inputs


class GRUSequenceClassifier:
    """GRU layer plus a per-step softmax head: the Stage-(a) architecture.

    The classifier is trained to predict, for every packet of a connection,
    the reference state label (22 classes).  After training,
    :meth:`gate_activations` exposes the per-packet update/reset gate values
    that become the inter-packet context part of the context profile.

    It is the only Stage-(a) model.  Inference runs in one of two compute
    dtypes (:meth:`set_compute_dtype`): float64, served as ``gru``, and
    float32, served as ``gru-f32``.  Persisted states record the identity
    ``gru`` under ``meta/backend``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_classes: int,
        *,
        seed: int = 0,
        learning_rate: float = 0.003,
        gradient_clip: float = 5.0,
    ) -> None:
        rng = np.random.default_rng(seed)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_classes = num_classes
        self.gradient_clip = gradient_clip
        self.gru = GRULayer(input_size, hidden_size, prefix="gru/", rng=rng)
        self.head = Dense(hidden_size, num_classes, activation="identity", prefix="head/", rng=rng)
        self.loss = SoftmaxCrossEntropy()
        self.optimizer: Optimizer = Adam(learning_rate=learning_rate)
        self.parameters: Parameters = {}
        self.parameters.update(self.gru.parameters)
        self.parameters.update(self.head.parameters)
        # Keep the sub-modules viewing the same arrays as ``self.parameters``.
        self.gru.parameters = self.parameters
        self.head.parameters = self.parameters
        self._plan_cache = PackedPlanCache()

    # ------------------------------------------------------------ compute mode
    @property
    def compute_dtype(self) -> np.dtype:
        """The inference compute dtype of the fused gate loop."""
        return self.gru.compute_dtype

    def set_compute_dtype(self, dtype) -> None:
        """Select the inference compute dtype (see :meth:`GRULayer.set_compute_dtype`)."""
        self.gru.set_compute_dtype(dtype)

    def plan_cache_info(self) -> dict[str, int]:
        """Hit/miss counters of the packed-plan cache (observability hook)."""
        return self._plan_cache.info()

    # ----------------------------------------------------------------- forward
    def forward(
        self, inputs: np.ndarray, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, GruForwardResult]:
        """Return per-step logits (batch, time, classes) and the GRU result."""
        result = self.gru.forward(inputs, mask)
        logits = self.head.forward(result.hidden_states)
        return logits, result

    def predict_classes(self, inputs: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Arg-max class prediction per step."""
        logits, _ = self.forward(inputs, mask)
        return np.argmax(logits, axis=-1)

    def gate_activations(self, sequence: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Update and reset gate activations for one un-padded sequence.

        ``sequence`` has shape (time, input_size); the returned arrays have
        shape (time, hidden_size).  Runs the same packed inference loop as
        :meth:`gate_activations_batch` (one fully-alive lane), so the two
        entry points are one implementation.
        """
        update_gates, reset_gates = self.gru.gates_packed(
            sequence[None, :, :], np.array([sequence.shape[0]], dtype=np.int64)
        )
        return update_gates[0], reset_gates[0]

    def gate_activations_batch(
        self,
        sequences: Sequence[np.ndarray],
        lengths: Sequence[int] | None = None,
        *,
        chunk_size: int = 64,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Update/reset gate activations for a batch of variable-length sequences.

        ``sequences`` is a list of (time_i, input_size) arrays; the result is a
        list of ``(update_gates, reset_gates)`` pairs, each of shape
        (time_i, hidden_size), in the same order.  Sequences are zero-padded to
        a common length and run through the GRU in a single length-packed
        forward pass per chunk (:meth:`GRULayer.gates_packed`), which replaces
        ``len(sequences)`` tiny per-step matmuls with one
        (alive-lanes, input) x (input, 3*hidden) product per time step.

        To bound the padding waste of mixing very long and very short
        connections in one padded tensor, sequences are ordered by length and
        processed in chunks of at most ``chunk_size``; results are scattered
        back to the original order.  Gate values for real steps are identical
        to per-sequence :meth:`gate_activations` calls.

        The sort/chunk/scatter bookkeeping comes from a :class:`PackedPlan`
        memoized per length vector (:class:`PackedPlanCache`), so repeated
        batch shapes — the steady state of the streaming flush loop — skip
        straight to the padded forward passes.  The returned pairs are views
        into the concatenated gate matrices of
        :meth:`gate_activations_concat`.
        """
        concat_update, concat_reset, bounds = self.gate_activations_concat(
            sequences, lengths, chunk_size=chunk_size
        )
        return [
            (
                concat_update[bounds[index] : bounds[index + 1]],
                concat_reset[bounds[index] : bounds[index + 1]],
            )
            for index in range(len(sequences))
        ]

    def gate_activations_concat(
        self,
        sequences: Sequence[np.ndarray],
        lengths: Sequence[int] | None = None,
        *,
        chunk_size: int = 64,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated update/reset gates for a batch, in input order.

        Returns ``(update, reset, bounds)`` where both gate matrices have
        shape ``(sum(lengths), hidden)`` and sequence ``i`` owns rows
        ``bounds[i]:bounds[i + 1]`` — the exact hand-off layout the batched
        profile builder needs, produced without the per-sequence copies and
        final ``np.concatenate`` of the list API.
        """
        if lengths is None:
            lengths_arr = np.array(
                [int(sequence.shape[0]) for sequence in sequences], dtype=np.int64
            )
        else:
            lengths_arr = np.asarray(lengths, dtype=np.int64)
        if lengths_arr.shape[0] != len(sequences):
            raise ValueError("sequences and lengths must have the same size")
        hidden = self.hidden_size
        plan = self._plan_cache.get(lengths_arr, chunk_size)
        bounds = plan.bounds
        concat_update = np.empty((plan.total_steps, hidden), dtype=np.float64)
        concat_reset = np.empty((plan.total_steps, hidden), dtype=np.float64)
        compute_dtype = self.gru.compute_dtype
        for chunk in plan.chunks:
            rows = len(chunk.indices)
            # Padded in the compute dtype so the fused loop never re-casts;
            # rows past a lane's length are only ever written, never read.
            inputs = np.zeros((rows, chunk.max_time, self.input_size), dtype=compute_dtype)
            for row, index in enumerate(chunk.indices):
                length = int(chunk.lengths[row])
                inputs[row, :length] = sequences[index][:length]
            update_gates, reset_gates = self.gru.gates_packed(
                inputs, chunk.lengths, alive_from=chunk.alive_from
            )
            for row, index in enumerate(chunk.indices):
                length = int(chunk.lengths[row])
                offset = int(bounds[index])
                concat_update[offset : offset + length] = update_gates[row, :length]
                concat_reset[offset : offset + length] = reset_gates[row, :length]
        return concat_update, concat_reset, bounds

    # ---------------------------------------------------------------- training
    def train_batch(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> float:
        """One optimiser step on a padded batch; returns the masked mean loss."""
        logits, result = self.forward(inputs, mask)
        loss_value, probabilities = self.loss.forward(logits, targets, mask)
        grad_logits = self.loss.backward(probabilities, targets, mask)
        gradients: Parameters = {}
        grad_hidden = self.head.backward(grad_logits, gradients)
        self.gru.backward(grad_hidden, result.caches, gradients)
        Optimizer.clip_gradients(gradients, self.gradient_clip)
        self.optimizer.step(self.parameters, gradients)
        self.gru.invalidate_compute_cache()
        return loss_value

    def accuracy(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> float:
        """Masked per-step classification accuracy."""
        predictions = self.predict_classes(inputs, mask)
        correct = (predictions == targets).astype(np.float64)
        if mask is not None:
            total = max(float(mask.sum()), 1.0)
            return float((correct * mask).sum() / total)
        return float(correct.mean())

    # ------------------------------------------------------------- persistence
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {key: value.copy() for key, value in self.parameters.items()}
        state["meta/input_size"] = np.array([self.input_size], dtype=np.int64)
        state["meta/hidden_size"] = np.array([self.hidden_size], dtype=np.int64)
        state["meta/num_classes"] = np.array([self.num_classes], dtype=np.int64)
        state["meta/backend"] = encode_backend_name("gru")
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        # Read-only memory-mapped weights are adopted in place of the freshly
        # initialised arrays (every consumer reads through this shared dict),
        # so an mmap-loaded model never copies them into anonymous memory;
        # such a model is inference-only — ``fit`` would write the weights.
        for key in self.parameters:
            value = state[key]
            if isinstance(value, np.memmap) and not value.flags.writeable:
                self.parameters[key] = value
            else:
                self.parameters[key][...] = value
        self.gru.invalidate_compute_cache()

    @classmethod
    def from_state_dict(cls, state: dict[str, np.ndarray]) -> "GRUSequenceClassifier":
        model = cls(
            input_size=int(state["meta/input_size"][0]),
            hidden_size=int(state["meta/hidden_size"][0]),
            num_classes=int(state["meta/num_classes"][0]),
        )
        model.load_state_dict(state)
        return model
