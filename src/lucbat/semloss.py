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
A (B, P) matrix holds B packed vectors, one per row.

The forward and backward passes are batch-first: the private attention,
recurrence and backward steps take every parameter block with a leading
batch axis of B parameter sets, (B, d, d) … (B, 4h), and return (B, T, ·)
arrays.  The public single-set functions pass B = 1.  :func:`gradient_check`
evaluates its central differences in chunks of a few dozen parameters: a
chunk of k parameters unpacks as 2k perturbed vectors (k bumped up, then the
same k bumped down) and runs one batched forward per verse pair, so the
check costs about 2P/2k batched passes instead of 2P serial ones.

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
    "BadCheckSetting",
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


class BadCheckSetting(LucBatError):
    """A gradient-check setting out of range: a dimension or count below 1, or a step
    or tolerance that is not a finite positive number."""


# Parameters k per batched finite-difference pass (2k perturbed vectors).  It bounds
# the check's extra memory: losscheck's peak RSS at P=736 rose by 0.75 MB at 16,
# 1.2 MB at 24 and 1.6 MB at 32, while 32 was only about 8 ms faster.
_FD_CHUNK = 16


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
    """Ravel batched blocks W_q, W_k, W_v, U, W, b (or their gradients) into (B, P)."""
    return np.concatenate([block.reshape(len(block), -1) for block in blocks], axis=1)


def _blocks(attn: AttentionParams, lstm: LstmParams) -> list[np.ndarray]:
    """One parameter set as a batch of one: W_q, W_k, W_v, U, W, b, each (1, ·)."""
    return [block[None] for block in (attn.W_q, attn.W_k, attn.W_v, lstm.U, lstm.W, lstm.b)]


def pack_parameters(attn: AttentionParams, lstm: LstmParams) -> np.ndarray:
    """Flatten both parameter sets into one vector: W_q, W_k, W_v, U, W, b."""
    return _pack(*_blocks(attn, lstm))[0]


def unpack_parameters(vec: np.ndarray, d_model: int, d_hidden: int):
    """Inverse of :func:`pack_parameters`; the blocks are copies, not views of ``vec``.

    A vector of P values gives ``(AttentionParams, LstmParams)``.  A (B, P)
    matrix of B packed vectors gives the six blocks W_q, W_k, W_v, U, W, b,
    each with a leading batch axis of length B.
    """
    # plain int offsets: the finite-difference check unpacks once per chunk
    d, g = d_model, 4 * d_hidden
    shapes = [(d, d)] * 3 + [(g, d), (g, d_hidden), (g,)]
    sizes = [math.prod(shape) for shape in shapes]
    if vec.ndim not in (1, 2) or vec.shape[-1] != sum(sizes):
        raise ShapeMismatch(f"expected {sum(sizes)} values per vector, got shape {vec.shape}")
    vec = vec.copy()
    batch = vec.shape[:-1]
    blocks, start = [], 0
    for shape, size in zip(shapes, sizes):
        blocks.append(vec[..., start : start + size].reshape(batch + shape))
        start += size
    if batch:
        return blocks
    W_q, W_k, W_v, U, W, b = blocks
    return AttentionParams(W_q, W_k, W_v), LstmParams._stacked(U, W, b)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _attention(X, W_q, W_k, W_v, name: str = "X") -> tuple:
    """Attention forward of B parameter sets over one sequence: (X, Q, K, V, A, Y).

    ``X`` is (T, d) and each projection (B, d, d); Q, K, V and Y = A V are
    (B, T, d), and A = softmax(Q K^T / sqrt(d)) is (B, T, T).
    """
    X = _as_matrix(X, name)
    d = W_q.shape[-1]
    if X.shape[1] != d:
        raise ShapeMismatch(f"{name} width {X.shape[1]} != d_model {d}")
    Q = X @ W_q
    K = X @ W_k
    V = X @ W_v
    A = _softmax_rows(Q @ K.swapaxes(1, 2) / np.sqrt(d))
    return X, Q, K, V, A, A @ V


def attention_weights(X, params: AttentionParams) -> np.ndarray:
    """Row-stochastic attention matrix softmax(Q K^T / sqrt(d_model))."""
    return _attention(X, params.W_q[None], params.W_k[None], params.W_v[None])[4][0]


def self_attention(X, params: AttentionParams) -> np.ndarray:
    """Unmasked single-head scaled dot-product attention over the sequence."""
    return _attention(X, params.W_q[None], params.W_k[None], params.W_v[None])[5][0]


def _recurrence(Y: np.ndarray, U, W, b, h: np.ndarray, c: np.ndarray):
    """The gate recursion of :func:`lstm_forward` for B parameter sets from (h, c).

    ``Y`` is (B, T, d), ``U``, ``W``, ``b`` are (B, 4h, d), (B, 4h, h), (B, 4h)
    and ``h``, ``c`` are (B, h).  The input projection Y U^T + b is computed
    once, then one batched W h_prev per step.  Returns the activated gates
    (B, T, 4h), sigmoid on the f, i, o rows and tanh on the candidate rows,
    and the hidden and cell states (B, T, h).
    """
    if Y.shape[-1] != U.shape[-1]:
        raise ShapeMismatch(f"input width {Y.shape[-1]} != d_in {U.shape[-1]}")
    n = W.shape[-1]
    gates = Y @ U.swapaxes(1, 2) + b[:, None]
    hidden = np.empty(gates.shape[:2] + (n,))
    cell = np.empty_like(hidden)
    # one step per time-major view; f, i, o, g are views of the step's gates
    for a, h_t, c_t in zip(*(x.swapaxes(0, 1) for x in (gates, hidden, cell))):
        a += (W @ h[..., None])[..., 0]
        f, i, o, g = a.reshape(len(a), 4, n).swapaxes(0, 1)
        a[:, : 3 * n] = _sigmoid(a[:, : 3 * n])
        np.tanh(g, out=g)
        c = np.add(f * c, i * g, out=c_t)
        h = np.multiply(o, np.tanh(c), out=h_t)
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
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(c))):
        raise ShapeMismatch("h0/c0 contain non-finite values")
    _, hidden, cell = _recurrence(
        X[None], params.U[None], params.W[None], params.b[None], h[None], c[None]
    )
    return hidden[0], cell[0]


def _forward_pair(X, blocks: Sequence[np.ndarray], name: str = "X") -> tuple:
    """One verse pair from a zero state for B parameter sets.

    ``blocks`` are W_q, W_k, W_v, U, W, b with a leading batch axis.  Returns
    the contextual vectors (B, h) and the values the backward pass needs.
    """
    attended = _attention(X, *blocks[:3], name)
    zero = np.zeros((len(blocks[0]), blocks[4].shape[-1]))
    states = _recurrence(attended[-1], *blocks[3:], zero, zero)
    return states[1][:, -1], (attended, states)


def contextual_vector(
    token_embeddings, attn: AttentionParams, lstm: LstmParams
) -> np.ndarray:
    """Contextual vector of one verse pair: attention, LSTM, last hidden state."""
    return _forward_pair(token_embeddings, _blocks(attn, lstm))[0][0]


def ce_loss(logits, next_token_ids: Sequence[int]) -> float:
    """Mean next-token cross-entropy over a block.

    ``logits`` has one row per token (M rows); ``next_token_ids`` holds the
    M-1 targets, 1-based into the vocabulary.  Row i scores the prediction
    of token i+1; the last row is unused.  A ``bool`` is not an id.
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
        if (isinstance(token_id, bool) or not isinstance(token_id, (int, np.integer))
                or not 1 <= token_id <= vocab):
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
                   blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Packed parameter gradients (B, P) of one pair given d(loss)/d(h_last) (B, h)."""
    (X, Q, K, V, A, Y), (gates, hidden, cell) = cache
    U, W = blocks[3], blocks[4]
    n = W.shape[-1]
    zero = np.zeros((len(gates), 1, n))
    h_prev = np.concatenate([zero, hidden[:, :-1]], axis=1)
    c_prev = np.concatenate([zero, cell[:, :-1]], axis=1)
    tanh_c = np.tanh(cell)
    # derivative of each activation with respect to its pre-activation
    slope = gates * (1.0 - gates)
    slope[..., 3 * n :] = 1.0 - gates[..., 3 * n :] ** 2
    d_pre = np.empty_like(gates)
    dh = d_h_last
    dc = np.zeros_like(dh)
    # time-major views, last step first
    steps = (x.swapaxes(0, 1)[::-1] for x in (gates, c_prev, tanh_c, 1.0 - tanh_c**2, slope, d_pre))
    for a, c_prev_t, tanh_c_t, d_tanh_t, slope_t, d_pre_t in zip(*steps):
        f, i, o, g = a.reshape(len(a), 4, n).swapaxes(0, 1)
        dc = dc + dh * o * d_tanh_t
        terms = np.concatenate([dc * c_prev_t, dc * g, dh * tanh_c_t, dc * i], axis=1)
        np.multiply(terms, slope_t, out=d_pre_t)
        dh = (d_pre_t[:, None] @ W)[:, 0]
        dc = dc * f
    # attention backward
    dY = d_pre @ U
    dA = dY @ V.swapaxes(1, 2)
    dS = A * (dA - (dA * A).sum(axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(X.shape[1])
    d_pre_T = d_pre.swapaxes(1, 2)
    return _pack(
        X.T @ (dS @ K * scale), X.T @ (dS.swapaxes(1, 2) @ Q * scale),
        X.T @ (A.swapaxes(1, 2) @ dY), d_pre_T @ Y, d_pre_T @ h_prev, d_pre.sum(axis=1),
    )


def _stanza_passes(stanza_pairs: Sequence[Sequence[np.ndarray]],
                   blocks: Sequence[np.ndarray], mean_pair_loss: bool):
    """Yield (weight, first-pair cache, second-pair cache, E_prev - E_next) per stanza.

    ``blocks`` hold B parameter sets, so each difference is (B, h).  Each
    stanza needs exactly two pairs; ``mean_pair_loss`` weights each by 1/d_hidden.
    """
    weight = 1.0 / blocks[4].shape[-1] if mean_pair_loss else 1.0
    for index, pairs in enumerate(stanza_pairs):
        if len(pairs) != 2:
            raise MissingPair(
                f"stanza {index}: expected exactly 2 verse pairs, got {len(pairs)}"
            )
        (e_prev, prev), (e_next, nxt) = (_forward_pair(x, blocks, "pair") for x in pairs)
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
    blocks = _blocks(attn, lstm)
    gradients = np.zeros_like(pack_parameters(attn, lstm))
    for weight, prev, nxt, diff in _stanza_passes(stanza_pairs, blocks, mean_pair_loss):
        mse += weight * float(diff[0] @ diff[0])
        gradients += _backward_pair(prev, 2.0 * weight * diff, blocks)[0]
        gradients += _backward_pair(nxt, -2.0 * weight * diff, blocks)[0]
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


def _central_differences(theta: np.ndarray, loss_at, step: float) -> np.ndarray:
    """(loss(theta + step e_k) - loss(theta - step e_k)) / 2 step for every k.

    ``loss_at`` maps a (B, P) matrix of parameter vectors to their B losses.
    Each call takes one chunk of k parameters: rows 0..k-1 bump them up and
    rows k..2k-1 bump the same ones down.
    """
    fd = np.empty_like(theta)
    for start in range(0, theta.size, _FD_CHUNK):
        k = min(_FD_CHUNK, theta.size - start)
        rows = np.arange(k)
        bumped = np.tile(theta, (2 * k, 1))
        bumped[rows, start + rows] += step
        bumped[k + rows, start + rows] -= step
        loss = loss_at(bumped)
        fd[start : start + k] = (loss[:k] - loss[k:]) / (2.0 * step)
    return fd


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
    gradients vanish.  The dimensions, ``vocab``, ``max_len`` and ``n_stanzas`` must be
    at least 1; ``step`` and ``tolerance`` must be finite and positive.
    """
    sizes = (("d_model", d_model), ("d_hidden", d_hidden), ("vocab", vocab),
             ("max_len", max_len), ("n_stanzas", n_stanzas))
    for name, value in sizes:
        if not value >= 1:
            raise BadCheckSetting(f"{name} must be at least 1, got {value!r}")
    for name, value in (("step", step), ("tolerance", tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise BadCheckSetting(f"{name} must be a finite positive number, got {value!r}")
    inst = random_instance(seed, d_model, d_hidden, vocab, max_len, n_stanzas)
    breakdown = custom_loss(
        inst["stanza_pairs"], inst["logits"], inst["next_token_ids"],
        inst["attn"], inst["lstm"], mean_pair_loss=mean_pair_loss,
    )
    theta = pack_parameters(inst["attn"], inst["lstm"])

    def loss_at(vecs: np.ndarray) -> np.ndarray:
        """ce plus the pair term for each row of ``vecs``, forward only."""
        blocks = unpack_parameters(vecs, d_model, d_hidden)
        passes = _stanza_passes(inst["stanza_pairs"], blocks, mean_pair_loss)
        # (1, h) @ (h, 1) per row sums as diff @ diff does for one set
        squares = (w * (diff[:, None] @ diff[..., None])[:, 0, 0] for w, _, _, diff in passes)
        return breakdown.ce + sum(squares, np.zeros(len(vecs)))

    fd = _central_differences(theta, loss_at, step)
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
