"""Semantic loss head: attention + LSTM contextual vectors, CE + pair loss.

A stanza splits into two six-eight verse pairs.  Each pair's token
embeddings run through single-head scaled dot-product self-attention and
then an LSTM; the last hidden state is the pair's contextual vector.  The
training objective is

    total = ce + sum over stanzas of ||E_prev - E_next||^2

where ce is the next-token cross-entropy over the block and E_prev/E_next
are the contextual vectors of a stanza's two pairs.  Gradients of the total
with respect to the attention and LSTM parameters are computed analytically
(reverse mode) and can be verified against central finite differences with
:func:`gradient_check`.

The LSTM parameters are stacked in gate order f, i, o, c: U (4h, d), W (4h, h)
and b (4h,).  The packed parameter vector, whose order and block sizes only
:func:`pack_parameters` and :func:`unpack_parameters` know, is W_q, W_k, W_v,
U, W, b, each raveled row-major: W_q, W_k, W_v, U_f … U_c, W_f … W_c, b_f … b_c.

Everything is float64; softmax uses max subtraction.  Token embeddings and
language-model logits are supplied by the caller (or generated synthetically
for checking); no trained model is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .syllable import LucBatError

__all__ = [
    "AttentionParams",
    "LstmParams",
    "LossBreakdown",
    "GradientCheckReport",
    "ShapeMismatch",
    "IdOutOfRange",
    "DegenerateSequence",
    "MissingPair",
    "self_attention",
    "attention_weights",
    "lstm_forward",
    "contextual_vector",
    "ce_loss",
    "custom_loss",
    "pack_parameters",
    "unpack_parameters",
    "random_instance",
    "gradient_check",
]


class ShapeMismatch(LucBatError):
    """Array shapes disagree with the parameter dimensions."""


class IdOutOfRange(LucBatError):
    """Token id outside 1..V."""


class DegenerateSequence(LucBatError):
    """Too few tokens to form a prediction target."""


class MissingPair(LucBatError):
    """A stanza must contribute exactly two verse-pair embedding sequences."""


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function via tanh, which cannot overflow for any finite input."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def _as_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ShapeMismatch(f"{name} is an empty sequence")
    if not np.all(np.isfinite(arr)):
        raise ShapeMismatch(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class AttentionParams:
    """Square query/key/value projections for one attention head."""

    W_q: np.ndarray
    W_k: np.ndarray
    W_v: np.ndarray

    def __post_init__(self):
        d = self.W_q.shape[0]
        for name in ("W_q", "W_k", "W_v"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise ShapeMismatch(f"{name} must be ({d}, {d}), got {w.shape}")

    @property
    def d_model(self) -> int:
        return self.W_q.shape[0]

    @classmethod
    def random(cls, rng: np.random.Generator, d_model: int, scale: float = 0.5):
        return cls(
            W_q=scale * rng.standard_normal((d_model, d_model)),
            W_k=scale * rng.standard_normal((d_model, d_model)),
            W_v=scale * rng.standard_normal((d_model, d_model)),
        )


def _stack_gates(kind: str, *gates) -> np.ndarray:
    """Concatenate four same-shape per-gate arrays along rows, in gate order."""
    if any(np.shape(gate) != np.shape(gates[0]) for gate in gates):
        raise ShapeMismatch(f"{kind}_f, {kind}_i, {kind}_o and {kind}_c must share one shape")
    return np.concatenate(gates)


@dataclass(frozen=True, init=False)
class LstmParams:
    """LSTM parameters stacked in gate order f, i, o, c.

    ``U`` (4h, d) holds the input weights, ``W`` (4h, h) the recurrent weights
    and ``b`` (4h,) the biases; rows k*h:(k+1)*h belong to gate k.  ``U_f`` …
    ``b_c`` are row views of the stacks, and the keyword constructor takes
    those twelve per-gate arrays.  :func:`pack_parameters` packs ``U``, ``W``,
    ``b`` raveled in that order, which is ``U_f … U_c, W_f … W_c, b_f … b_c``.
    """

    U: np.ndarray
    W: np.ndarray
    b: np.ndarray

    def __init__(self, U_f, U_i, U_o, U_c, W_f, W_i, W_o, W_c, b_f, b_i, b_o, b_c):
        self._store(
            _stack_gates("U", U_f, U_i, U_o, U_c),
            _stack_gates("W", W_f, W_i, W_o, W_c),
            _stack_gates("b", b_f, b_i, b_o, b_c),
        )

    @classmethod
    def _stacked(cls, U: np.ndarray, W: np.ndarray, b: np.ndarray) -> "LstmParams":
        """Wrap the stacked blocks themselves (no copy)."""
        params = cls.__new__(cls)
        params._store(U, W, b)
        return params

    def _store(self, U, W, b) -> None:
        h = len(U) // 4
        if U.ndim != 2 or len(U) != 4 * h or W.shape != (4 * h, h) or b.shape != (4 * h,):
            raise ShapeMismatch(
                f"U, W, b must be (4h, d), (4h, h), (4h,); got {U.shape}, {W.shape}, {b.shape}"
            )
        vars(self).update(U=U, W=W, b=b)  # frozen: bypass __setattr__

    @property
    def d_hidden(self) -> int:
        return self.U.shape[0] // 4

    @property
    def d_in(self) -> int:
        return self.U.shape[1]

    @classmethod
    def random(cls, rng: np.random.Generator, d_in: int, d_hidden: int, scale: float = 0.5):
        # one (4h, ...) draw is the four per-gate draws in gate order
        return cls._stacked(
            scale * rng.standard_normal((4 * d_hidden, d_in)),
            scale * rng.standard_normal((4 * d_hidden, d_hidden)),
            scale * rng.standard_normal(4 * d_hidden),
        )

    @classmethod
    def zeros(cls, d_in: int, d_hidden: int):
        n = 4 * d_hidden
        return cls._stacked(np.zeros((n, d_in)), np.zeros((n, d_hidden)), np.zeros(n))


def _gate_rows(kind: str, k: int) -> property:
    """Row view of gate ``k`` in the ``kind`` stack."""
    return property(lambda self: getattr(self, kind)[k * self.d_hidden : (k + 1) * self.d_hidden])


for _k, _gate in enumerate("fioc"):
    for _kind in "UWb":
        setattr(LstmParams, f"{_kind}_{_gate}", _gate_rows(_kind, _k))


def _pack(*blocks: np.ndarray) -> np.ndarray:
    """Ravel the blocks W_q, W_k, W_v, U, W, b (or their gradients) into one vector."""
    return np.concatenate([block.ravel() for block in blocks])


def pack_parameters(attn: AttentionParams, lstm: LstmParams) -> np.ndarray:
    """Flatten both parameter sets into one vector: W_q, W_k, W_v, U, W, b."""
    return _pack(attn.W_q, attn.W_k, attn.W_v, lstm.U, lstm.W, lstm.b)


def unpack_parameters(
    vec: np.ndarray, d_model: int, d_hidden: int
) -> tuple[AttentionParams, LstmParams]:
    """Inverse of :func:`pack_parameters`; the blocks are copies, not views of ``vec``."""
    # plain int offsets: the finite-difference check unpacks 2P times
    d, g = d_model, 4 * d_hidden
    shapes = [(d, d)] * 3 + [(g, d), (g, d_hidden), (g,)]
    sizes = [math.prod(shape) for shape in shapes]
    if vec.size != sum(sizes):
        raise ShapeMismatch(f"expected {sum(sizes)} values, got {vec.size}")
    vec = vec.copy()
    blocks, start = [], 0
    for shape, size in zip(shapes, sizes):
        blocks.append(vec[start : start + size].reshape(shape))
        start += size
    W_q, W_k, W_v, U, W, b = blocks
    return AttentionParams(W_q, W_k, W_v), LstmParams._stacked(U, W, b)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _attention(X, params: AttentionParams, name: str = "X") -> tuple:
    """Attention forward: (X, Q, K, V, A, Y) with A = softmax(Q K^T / sqrt(d)), Y = A V."""
    X = _as_matrix(X, name)
    if X.shape[1] != params.d_model:
        raise ShapeMismatch(f"{name} width {X.shape[1]} != d_model {params.d_model}")
    Q = X @ params.W_q
    K = X @ params.W_k
    V = X @ params.W_v
    A = _softmax_rows(Q @ K.T / np.sqrt(params.d_model))
    return X, Q, K, V, A, A @ V


def attention_weights(X, params: AttentionParams) -> np.ndarray:
    """Row-stochastic attention matrix softmax(Q K^T / sqrt(d_model))."""
    return _attention(X, params)[4]


def self_attention(X, params: AttentionParams) -> np.ndarray:
    """Unmasked single-head scaled dot-product attention over the sequence."""
    return _attention(X, params)[5]


def _recurrence(Y: np.ndarray, params: LstmParams, h: np.ndarray, c: np.ndarray):
    """The gate recursion of :func:`lstm_forward` over the rows of ``Y`` from (h, c).

    The input projection Y U^T + b is computed once, then one W h_prev per
    step.  Returns the activated gates (T, 4h), sigmoid on the f, i, o rows
    and tanh on the candidate rows, and the hidden and cell states (T, h).
    """
    if Y.shape[1] != params.d_in:
        raise ShapeMismatch(f"input width {Y.shape[1]} != d_in {params.d_in}")
    n = params.d_hidden
    gates = Y @ params.U.T + params.b
    hidden = np.empty((len(Y), n))
    cell = np.empty((len(Y), n))
    for t, a in enumerate(gates):
        a += params.W @ h
        a[: 3 * n] = _sigmoid(a[: 3 * n])
        a[3 * n :] = np.tanh(a[3 * n :])
        f, i, o, g = a.reshape(4, n)
        c = f * c + i * g
        h = o * np.tanh(c)
        hidden[t], cell[t] = h, c
    return gates, hidden, cell


def lstm_forward(
    X,
    params: LstmParams,
    h0: np.ndarray | None = None,
    c0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run the gate recursion over the rows of ``X``.

    Per step: f/i/o = sigmoid(U x + W h_prev + b); candidate = tanh(...);
    c = f*c_prev + i*candidate; h = o*tanh(c).  Returns the stacked hidden
    and cell states, each of shape (T, d_hidden).
    """
    X = _as_matrix(X, "X")
    h = np.zeros(params.d_hidden) if h0 is None else np.asarray(h0, dtype=np.float64)
    c = np.zeros(params.d_hidden) if c0 is None else np.asarray(c0, dtype=np.float64)
    if h.shape != (params.d_hidden,) or c.shape != (params.d_hidden,):
        raise ShapeMismatch("h0/c0 must have shape (d_hidden,)")
    _, hidden, cell = _recurrence(X, params, h, c)
    return hidden, cell


def _forward_pair(X, attn: AttentionParams, lstm: LstmParams, name: str = "X") -> tuple:
    """One verse pair from a zero state: (contextual vector, values the backward pass needs)."""
    attended = _attention(X, attn, name)
    zero = np.zeros(lstm.d_hidden)
    states = _recurrence(attended[-1], lstm, zero, zero)
    return states[1][-1], (attended, states)


def contextual_vector(
    token_embeddings, attn: AttentionParams, lstm: LstmParams
) -> np.ndarray:
    """Contextual vector of one verse pair: attention, LSTM, last hidden state."""
    return _forward_pair(token_embeddings, attn, lstm)[0]


def ce_loss(logits, next_token_ids: Sequence[int]) -> float:
    """Mean next-token cross-entropy over a block.

    ``logits`` has one row per token (M rows); ``next_token_ids`` holds the
    M-1 targets, 1-based into the vocabulary.  Row i scores the prediction
    of token i+1; the last row is unused.
    """
    logits = _as_matrix(logits, "logits")
    m, vocab = logits.shape
    if m < 2:
        raise DegenerateSequence(f"need at least 2 tokens, got {m}")
    ids = list(next_token_ids)
    if len(ids) != m - 1:
        raise ShapeMismatch(f"expected {m - 1} target ids, got {len(ids)}")
    total = 0.0
    for i, token_id in enumerate(ids):
        if not isinstance(token_id, (int, np.integer)) or not 1 <= token_id <= vocab:
            raise IdOutOfRange(f"id {token_id!r} outside 1..{vocab}")
        row = logits[i]
        shifted = row - row.max()
        total -= shifted[token_id - 1] - np.log(np.exp(shifted).sum())
    return total / (m - 1)


@dataclass(frozen=True)
class LossBreakdown:
    """ce + mse = total; gradients are with respect to the packed parameters."""

    ce: float
    mse: float
    total: float
    gradients: np.ndarray


def _backward_pair(cache: tuple, d_h_last: np.ndarray,
                   attn: AttentionParams, lstm: LstmParams) -> np.ndarray:
    """Packed parameter gradient of one pair given d(loss)/d(h_last)."""
    (X, Q, K, V, A, Y), (gates, hidden, cell) = cache
    n = lstm.d_hidden
    zero = np.zeros((1, n))
    h_prev = np.concatenate([zero, hidden[:-1]])
    c_prev = np.concatenate([zero, cell[:-1]])
    tanh_c = np.tanh(cell)
    # derivative of each activation with respect to its pre-activation
    slope = gates * (1.0 - gates)
    slope[:, 3 * n :] = 1.0 - gates[:, 3 * n :] ** 2
    d_pre = np.empty_like(gates)
    dh = d_h_last
    dc = np.zeros(n)
    for t in range(len(gates) - 1, -1, -1):
        f, i, o, g = gates[t].reshape(4, n)
        dc = dc + dh * o * (1.0 - tanh_c[t] ** 2)
        d_pre[t] = np.concatenate([dc * c_prev[t], dc * g, dh * tanh_c[t], dc * i]) * slope[t]
        dh = lstm.W.T @ d_pre[t]
        dc = dc * f
    # attention backward
    dY = d_pre @ lstm.U
    dA = dY @ V.T
    dS = A * (dA - (dA * A).sum(axis=1, keepdims=True))
    scale = 1.0 / np.sqrt(attn.d_model)
    return _pack(
        X.T @ (dS @ K * scale), X.T @ (dS.T @ Q * scale), X.T @ (A.T @ dY),
        d_pre.T @ Y, d_pre.T @ h_prev, d_pre.sum(axis=0),
    )


def _stanza_passes(stanza_pairs: Sequence[Sequence[np.ndarray]],
                   attn: AttentionParams, lstm: LstmParams, mean_pair_loss: bool):
    """Yield (weight, first-pair cache, second-pair cache, E_prev - E_next) per stanza.

    Each stanza needs exactly two pairs; ``mean_pair_loss`` weights each by 1/d_hidden.
    """
    weight = 1.0 / lstm.d_hidden if mean_pair_loss else 1.0
    for index, pairs in enumerate(stanza_pairs):
        if len(pairs) != 2:
            raise MissingPair(
                f"stanza {index}: expected exactly 2 verse pairs, got {len(pairs)}"
            )
        (e_prev, prev), (e_next, nxt) = (_forward_pair(x, attn, lstm, "pair") for x in pairs)
        yield weight, prev, nxt, e_prev - e_next


def custom_loss(
    stanza_pairs: Sequence[Sequence[np.ndarray]],
    logits,
    next_token_ids: Sequence[int],
    attn: AttentionParams,
    lstm: LstmParams,
    mean_pair_loss: bool = False,
) -> LossBreakdown:
    """Combined loss over a block, with analytic parameter gradients.

    ``stanza_pairs`` holds, per stanza, exactly two token-embedding
    sequences (the first and second six-eight pair).  The pair term is the
    componentwise sum of squared differences between each stanza's two
    contextual vectors; ``mean_pair_loss`` divides each stanza's term by
    d_hidden instead.  ``logits``/``next_token_ids`` supply the block's
    cross-entropy term, which is constant in the attention/LSTM parameters.
    """
    if lstm.d_in != attn.d_model:
        raise ShapeMismatch(
            f"LSTM d_in {lstm.d_in} must equal attention d_model {attn.d_model}"
        )
    ce = ce_loss(logits, next_token_ids)
    mse = 0.0
    gradients = np.zeros_like(pack_parameters(attn, lstm))
    for weight, prev, nxt, diff in _stanza_passes(stanza_pairs, attn, lstm, mean_pair_loss):
        mse += weight * float(diff @ diff)
        gradients += _backward_pair(prev, 2.0 * weight * diff, attn, lstm)
        gradients += _backward_pair(nxt, -2.0 * weight * diff, attn, lstm)
    return LossBreakdown(ce=ce, mse=mse, total=ce + mse, gradients=gradients)


def random_instance(
    seed: int,
    d_model: int = 4,
    d_hidden: int = 3,
    vocab: int = 7,
    max_len: int = 6,
    n_stanzas: int = 2,
) -> dict:
    """Synthetic block for checking: embeddings, logits, targets, parameters."""
    rng = np.random.default_rng(seed)
    shortest = min(2, max_len)
    stanza_pairs = []
    for _ in range(n_stanzas):
        pair = []
        for _ in range(2):
            length = int(rng.integers(shortest, max_len + 1))
            pair.append(rng.standard_normal((length, d_model)))
        stanza_pairs.append(pair)
    m = int(rng.integers(2, max(2, min(2 * max_len, 12)) + 1))
    logits = rng.standard_normal((m, vocab))
    next_ids = [int(rng.integers(1, vocab + 1)) for _ in range(m - 1)]
    attn = AttentionParams.random(rng, d_model, scale=0.5)
    lstm = LstmParams.random(rng, d_model, d_hidden, scale=0.5)
    return {
        "stanza_pairs": stanza_pairs,
        "logits": logits,
        "next_token_ids": next_ids,
        "attn": attn,
        "lstm": lstm,
    }


@dataclass(frozen=True)
class GradientCheckReport:
    seed: int
    d_model: int
    d_hidden: int
    n_parameters: int
    max_relative_error: float
    ce: float
    mse: float
    passed: bool
    tolerance: float


def gradient_check(
    seed: int = 0,
    d_model: int = 4,
    d_hidden: int = 3,
    vocab: int = 7,
    max_len: int = 6,
    n_stanzas: int = 2,
    step: float = 1e-5,
    tolerance: float = 1e-4,
    mean_pair_loss: bool = False,
) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    The per-component relative error is |a - f| / max(|a|, |f|, 1e-4); the
    floor turns the comparison into an absolute check at 1e-8 where both
    gradients vanish.
    """
    inst = random_instance(seed, d_model, d_hidden, vocab, max_len, n_stanzas)
    breakdown = custom_loss(
        inst["stanza_pairs"], inst["logits"], inst["next_token_ids"],
        inst["attn"], inst["lstm"], mean_pair_loss=mean_pair_loss,
    )
    theta = pack_parameters(inst["attn"], inst["lstm"])

    def loss_at(vec: np.ndarray) -> float:
        """ce plus the pair term, forward only."""
        attn, lstm = unpack_parameters(vec, d_model, d_hidden)
        passes = _stanza_passes(inst["stanza_pairs"], attn, lstm, mean_pair_loss)
        return breakdown.ce + sum(weight * float(diff @ diff) for weight, _, _, diff in passes)

    fd = np.zeros_like(theta)
    for k in range(theta.size):
        bumped = theta.copy()
        bumped[k] = theta[k] + step
        up = loss_at(bumped)
        bumped[k] = theta[k] - step
        down = loss_at(bumped)
        fd[k] = (up - down) / (2.0 * step)
    analytic = breakdown.gradients
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-4)
    max_rel = float(np.max(np.abs(analytic - fd) / denom))
    return GradientCheckReport(
        seed=seed,
        d_model=d_model,
        d_hidden=d_hidden,
        n_parameters=theta.size,
        max_relative_error=max_rel,
        ce=breakdown.ce,
        mse=breakdown.mse,
        passed=max_rel <= tolerance,
        tolerance=tolerance,
    )
