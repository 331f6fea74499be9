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

Everything is float64; softmax uses max subtraction.  Token embeddings and
language-model logits are supplied by the caller (or generated synthetically
for checking); no trained model is involved.
"""

from __future__ import annotations

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

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.W_q.ravel(), self.W_k.ravel(), self.W_v.ravel()])

    @classmethod
    def from_vector(cls, vec: np.ndarray, d_model: int):
        n = d_model * d_model
        if vec.size != 3 * n:
            raise ShapeMismatch(f"expected {3 * n} values, got {vec.size}")
        return cls(
            W_q=vec[:n].reshape(d_model, d_model).copy(),
            W_k=vec[n : 2 * n].reshape(d_model, d_model).copy(),
            W_v=vec[2 * n :].reshape(d_model, d_model).copy(),
        )


_LSTM_GATES = ("f", "i", "o", "c")


@dataclass(frozen=True)
class LstmParams:
    """Gate parameters: input weights U_*, recurrent weights W_*, biases b_*."""

    U_f: np.ndarray
    U_i: np.ndarray
    U_o: np.ndarray
    U_c: np.ndarray
    W_f: np.ndarray
    W_i: np.ndarray
    W_o: np.ndarray
    W_c: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_o: np.ndarray
    b_c: np.ndarray

    def __post_init__(self):
        h, d = self.U_f.shape
        for gate in _LSTM_GATES:
            if getattr(self, f"U_{gate}").shape != (h, d):
                raise ShapeMismatch(f"U_{gate} must be ({h}, {d})")
            if getattr(self, f"W_{gate}").shape != (h, h):
                raise ShapeMismatch(f"W_{gate} must be ({h}, {h})")
            if getattr(self, f"b_{gate}").shape != (h,):
                raise ShapeMismatch(f"b_{gate} must be ({h},)")

    @property
    def d_hidden(self) -> int:
        return self.U_f.shape[0]

    @property
    def d_in(self) -> int:
        return self.U_f.shape[1]

    @classmethod
    def random(cls, rng: np.random.Generator, d_in: int, d_hidden: int, scale: float = 0.5):
        def mat(rows, cols):
            return scale * rng.standard_normal((rows, cols))

        return cls(
            U_f=mat(d_hidden, d_in), U_i=mat(d_hidden, d_in),
            U_o=mat(d_hidden, d_in), U_c=mat(d_hidden, d_in),
            W_f=mat(d_hidden, d_hidden), W_i=mat(d_hidden, d_hidden),
            W_o=mat(d_hidden, d_hidden), W_c=mat(d_hidden, d_hidden),
            b_f=scale * rng.standard_normal(d_hidden),
            b_i=scale * rng.standard_normal(d_hidden),
            b_o=scale * rng.standard_normal(d_hidden),
            b_c=scale * rng.standard_normal(d_hidden),
        )

    @classmethod
    def zeros(cls, d_in: int, d_hidden: int):
        return cls(
            U_f=np.zeros((d_hidden, d_in)), U_i=np.zeros((d_hidden, d_in)),
            U_o=np.zeros((d_hidden, d_in)), U_c=np.zeros((d_hidden, d_in)),
            W_f=np.zeros((d_hidden, d_hidden)), W_i=np.zeros((d_hidden, d_hidden)),
            W_o=np.zeros((d_hidden, d_hidden)), W_c=np.zeros((d_hidden, d_hidden)),
            b_f=np.zeros(d_hidden), b_i=np.zeros(d_hidden),
            b_o=np.zeros(d_hidden), b_c=np.zeros(d_hidden),
        )

    def to_vector(self) -> np.ndarray:
        parts = [getattr(self, f"U_{g}").ravel() for g in _LSTM_GATES]
        parts += [getattr(self, f"W_{g}").ravel() for g in _LSTM_GATES]
        parts += [getattr(self, f"b_{g}").ravel() for g in _LSTM_GATES]
        return np.concatenate(parts)

    @classmethod
    def from_vector(cls, vec: np.ndarray, d_in: int, d_hidden: int):
        sizes = (
            [(f"U_{g}", (d_hidden, d_in)) for g in _LSTM_GATES]
            + [(f"W_{g}", (d_hidden, d_hidden)) for g in _LSTM_GATES]
            + [(f"b_{g}", (d_hidden,)) for g in _LSTM_GATES]
        )
        total = sum(int(np.prod(shape)) for _, shape in sizes)
        if vec.size != total:
            raise ShapeMismatch(f"expected {total} values, got {vec.size}")
        fields = {}
        offset = 0
        for name, shape in sizes:
            size = int(np.prod(shape))
            fields[name] = vec[offset : offset + size].reshape(shape).copy()
            offset += size
        return cls(**fields)


def pack_parameters(attn: AttentionParams, lstm: LstmParams) -> np.ndarray:
    """Flatten both parameter sets into one vector (attention first)."""
    return np.concatenate([attn.to_vector(), lstm.to_vector()])


def unpack_parameters(
    vec: np.ndarray, d_model: int, d_hidden: int
) -> tuple[AttentionParams, LstmParams]:
    n_attn = 3 * d_model * d_model
    attn = AttentionParams.from_vector(vec[:n_attn], d_model)
    lstm = LstmParams.from_vector(vec[n_attn:], d_model, d_hidden)
    return attn, lstm


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def attention_weights(X, params: AttentionParams) -> np.ndarray:
    """Row-stochastic attention matrix softmax(Q K^T / sqrt(d_model))."""
    X = _as_matrix(X, "X")
    if X.shape[1] != params.d_model:
        raise ShapeMismatch(
            f"input width {X.shape[1]} != d_model {params.d_model}"
        )
    Q = X @ params.W_q
    K = X @ params.W_k
    return _softmax_rows(Q @ K.T / np.sqrt(params.d_model))


def self_attention(X, params: AttentionParams) -> np.ndarray:
    """Unmasked single-head scaled dot-product attention over the sequence."""
    X = _as_matrix(X, "X")
    A = attention_weights(X, params)
    return A @ (X @ params.W_v)


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
    if X.shape[1] != params.d_in:
        raise ShapeMismatch(f"input width {X.shape[1]} != d_in {params.d_in}")
    h = np.zeros(params.d_hidden) if h0 is None else np.asarray(h0, dtype=np.float64)
    c = np.zeros(params.d_hidden) if c0 is None else np.asarray(c0, dtype=np.float64)
    if h.shape != (params.d_hidden,) or c.shape != (params.d_hidden,):
        raise ShapeMismatch("h0/c0 must have shape (d_hidden,)")
    hidden, cell = [], []
    for x in X:
        f = _sigmoid(params.U_f @ x + params.W_f @ h + params.b_f)
        i = _sigmoid(params.U_i @ x + params.W_i @ h + params.b_i)
        o = _sigmoid(params.U_o @ x + params.W_o @ h + params.b_o)
        g = np.tanh(params.U_c @ x + params.W_c @ h + params.b_c)
        c = f * c + i * g
        h = o * np.tanh(c)
        hidden.append(h)
        cell.append(c)
    return np.stack(hidden), np.stack(cell)


def contextual_vector(
    token_embeddings, attn: AttentionParams, lstm: LstmParams
) -> np.ndarray:
    """Contextual vector of one verse pair: attention, LSTM, last hidden state."""
    attended = self_attention(token_embeddings, attn)
    hidden, _ = lstm_forward(attended, lstm)
    return hidden[-1]


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


def _forward_pair(X: np.ndarray, attn: AttentionParams, lstm: LstmParams) -> dict:
    """Forward pass for one verse pair, keeping what the backward pass needs."""
    if X.shape[1] != attn.d_model:
        raise ShapeMismatch(f"pair width {X.shape[1]} != d_model {attn.d_model}")
    Q = X @ attn.W_q
    K = X @ attn.W_k
    V = X @ attn.W_v
    A = _softmax_rows(Q @ K.T / np.sqrt(attn.d_model))
    Y = A @ V
    h = np.zeros(lstm.d_hidden)
    c = np.zeros(lstm.d_hidden)
    steps = []
    for y in Y:
        f = _sigmoid(lstm.U_f @ y + lstm.W_f @ h + lstm.b_f)
        i = _sigmoid(lstm.U_i @ y + lstm.W_i @ h + lstm.b_i)
        o = _sigmoid(lstm.U_o @ y + lstm.W_o @ h + lstm.b_o)
        g = np.tanh(lstm.U_c @ y + lstm.W_c @ h + lstm.b_c)
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        steps.append({"y": y, "h_prev": h, "c_prev": c, "f": f, "i": i, "o": o,
                      "g": g, "c": c_new})
        h, c = h_new, c_new
    return {"X": X, "Q": Q, "K": K, "V": V, "A": A, "steps": steps, "h_last": h}


def _backward_pair(cache: dict, d_h_last: np.ndarray,
                   attn: AttentionParams, lstm: LstmParams,
                   grads: dict) -> None:
    """Accumulate parameter gradients for one pair given d(loss)/d(h_last)."""
    steps = cache["steps"]
    d = attn.d_model
    dY = np.zeros((len(steps), lstm.d_in))
    dh = d_h_last.copy()
    dc = np.zeros(lstm.d_hidden)
    for t in range(len(steps) - 1, -1, -1):
        s = steps[t]
        tanh_c = np.tanh(s["c"])
        do = dh * tanh_c
        dc = dc + dh * s["o"] * (1.0 - tanh_c ** 2)
        df = dc * s["c_prev"]
        di = dc * s["g"]
        dg = dc * s["i"]
        dc_prev = dc * s["f"]
        da = {
            "f": df * s["f"] * (1.0 - s["f"]),
            "i": di * s["i"] * (1.0 - s["i"]),
            "o": do * s["o"] * (1.0 - s["o"]),
            "c": dg * (1.0 - s["g"] ** 2),
        }
        dh_prev = np.zeros(lstm.d_hidden)
        dy = np.zeros(lstm.d_in)
        for gate in _LSTM_GATES:
            grads[f"U_{gate}"] += np.outer(da[gate], s["y"])
            grads[f"W_{gate}"] += np.outer(da[gate], s["h_prev"])
            grads[f"b_{gate}"] += da[gate]
            dh_prev += getattr(lstm, f"W_{gate}").T @ da[gate]
            dy += getattr(lstm, f"U_{gate}").T @ da[gate]
        dY[t] = dy
        dh = dh_prev
        dc = dc_prev
    # attention backward
    X, Q, K, V, A = cache["X"], cache["Q"], cache["K"], cache["V"], cache["A"]
    dA = dY @ V.T
    dV = A.T @ dY
    dS = A * (dA - (dA * A).sum(axis=1, keepdims=True))
    scale = 1.0 / np.sqrt(d)
    dQ = dS @ K * scale
    dK = dS.T @ Q * scale
    grads["W_q"] += X.T @ dQ
    grads["W_k"] += X.T @ dK
    grads["W_v"] += X.T @ dV


def _weighted_pairs(
    stanza_pairs: Sequence[Sequence[np.ndarray]], lstm: LstmParams, mean_pair_loss: bool
):
    """Yield (weight, first pair, second pair) per stanza; each needs exactly two pairs."""
    weight = 1.0 / lstm.d_hidden if mean_pair_loss else 1.0
    for index, pairs in enumerate(stanza_pairs):
        if len(pairs) != 2:
            raise MissingPair(
                f"stanza {index}: expected exactly 2 verse pairs, got {len(pairs)}"
            )
        yield weight, pairs[0], pairs[1]


def _pair_term(
    stanza_pairs: Sequence[Sequence[np.ndarray]],
    attn: AttentionParams,
    lstm: LstmParams,
    mean_pair_loss: bool,
) -> float:
    """Forward-only evaluation of the contextual-vector distance term."""
    total = 0.0
    for weight, first, second in _weighted_pairs(stanza_pairs, lstm, mean_pair_loss):
        e_prev = contextual_vector(first, attn, lstm)
        e_next = contextual_vector(second, attn, lstm)
        diff = e_prev - e_next
        total += weight * float(diff @ diff)
    return total


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
    grads = {name: np.zeros_like(getattr(attn, name)) for name in ("W_q", "W_k", "W_v")}
    for gate in _LSTM_GATES:
        grads[f"U_{gate}"] = np.zeros_like(getattr(lstm, f"U_{gate}"))
        grads[f"W_{gate}"] = np.zeros_like(getattr(lstm, f"W_{gate}"))
        grads[f"b_{gate}"] = np.zeros_like(getattr(lstm, f"b_{gate}"))
    mse = 0.0
    for weight, first, second in _weighted_pairs(stanza_pairs, lstm, mean_pair_loss):
        prev_cache = _forward_pair(_as_matrix(first, "pair"), attn, lstm)
        next_cache = _forward_pair(_as_matrix(second, "pair"), attn, lstm)
        diff = prev_cache["h_last"] - next_cache["h_last"]
        mse += weight * float(diff @ diff)
        _backward_pair(prev_cache, 2.0 * weight * diff, attn, lstm, grads)
        _backward_pair(next_cache, -2.0 * weight * diff, attn, lstm, grads)
    gradient_vector = np.concatenate(
        [grads["W_q"].ravel(), grads["W_k"].ravel(), grads["W_v"].ravel()]
        + [grads[f"U_{g}"].ravel() for g in _LSTM_GATES]
        + [grads[f"W_{g}"].ravel() for g in _LSTM_GATES]
        + [grads[f"b_{g}"].ravel() for g in _LSTM_GATES]
    )
    return LossBreakdown(ce=ce, mse=mse, total=ce + mse, gradients=gradient_vector)


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
        attn, lstm = unpack_parameters(vec, d_model, d_hidden)
        return breakdown.ce + _pair_term(
            inst["stanza_pairs"], attn, lstm, mean_pair_loss
        )

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
