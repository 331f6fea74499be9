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
:func:`gradient_check`, which uses a fixed step of 1e-5 and a fixed tolerance
of 1e-4.  The LSTM always starts from the zero state.

The LSTM parameters are three stacks in gate order f, i, o, c: U (4h, d),
W (4h, h) and b (4h,).  The gradients come as one packed vector of P =
3d^2 + 4h(d + h + 1) values, :attr:`LossBreakdown.gradients`, in the order
:func:`_blocks` gives: W_q, W_k, W_v, U, W, b, each raveled row-major.

Only the forward steps are batched: the private attention and recurrence
take every parameter block with a leading batch axis of B parameter sets,
(B, d, d) … (B, 4h), and return (B, T, ·) arrays.  :func:`attention_weights`,
:func:`contextual_vector` and :func:`custom_loss` pass B = 1.  A forward pass
broadcasts its blocks, so a block with a batch axis of 1 serves every set.
The backward pass takes one set.
:func:`gradient_check` evaluates its central differences in chunks of a few
dozen parameters, each inside one block: a chunk of k parameters tiles that
block as 2k perturbed copies (k bumped up, then the same k bumped down),
passes the other five blocks as the base set, and runs one batched forward
per verse pair.  So the check costs about 2P/2k batched passes instead of
2P serial ones, and a chunk of U, W or b runs the attention once, at batch 1.

:class:`AttentionParams` and :class:`LstmParams` are slotted classes that
check their blocks' shapes when built, and :class:`LossBreakdown` and
:class:`GradientCheckReport` are named tuples, so ``losscheck`` never loads
``dataclasses``.

Everything is float64; softmax uses max subtraction.  Token embeddings and
language-model logits are supplied by the caller (or generated synthetically
for checking); no trained model is involved.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

try:
    import numpy as np
except ImportError as exc:
    raise ImportError("semloss needs numpy: pip install 'lucbat[loss]'", name="numpy") from exc

from .syllable import BadCheckSetting, LucBatError

from . import _SEMLOSS_NAMES as __all__


class ShapeMismatch(LucBatError):
    """An argument of the wrong shape: array shapes that disagree with the parameter
    dimensions, a sequence of fewer tokens than it needs, or a stanza without exactly
    two verse pairs."""


class IdOutOfRange(LucBatError):
    """Token id outside 1..V."""


# Parameters k per batched finite-difference pass (2k perturbed copies of one block).
# It bounds the check's extra memory: at the losscheck caps (P=2880) the traced peak
# is 2.2 MB at 16, 4.3 MB at 32 and 5.3 MB at 40, and 32 runs the check about 15% faster
# than 16.
_FD_CHUNK = 32
# central-difference step and the largest relative error that passes
_FD_STEP = 1e-5
_TOLERANCE = 1e-4


def _is_int(value) -> bool:
    """A Python or NumPy integer; a ``bool`` is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _shapes(*blocks) -> list[tuple]:
    """The shapes of parameter blocks, which must be NumPy arrays."""
    if not all(isinstance(block, np.ndarray) for block in blocks):
        kinds = ", ".join(type(block).__name__ for block in blocks)
        raise ShapeMismatch(f"parameter blocks must be NumPy arrays, got {kinds}")
    return [block.shape for block in blocks]


class AttentionParams:
    """Square query/key/value projections for one attention head."""

    __slots__ = ("W_q", "W_k", "W_v")

    def __init__(self, W_q: np.ndarray, W_k: np.ndarray, W_v: np.ndarray):
        q, k, v = _shapes(W_q, W_k, W_v)
        if len(q) != 2 or q[0] != q[1] or k != q or v != q:
            raise ShapeMismatch(f"W_q, W_k, W_v must be (d, d); got {q}, {k}, {v}")
        self.W_q, self.W_k, self.W_v = W_q, W_k, W_v

    @classmethod
    def random(cls, rng: np.random.Generator, d_model: int):
        """Entries drawn from N(0, 0.5^2)."""
        return cls(*(0.5 * rng.standard_normal((d_model, d_model)) for _ in range(3)))


class LstmParams:
    """LSTM parameters stacked in gate order f, i, o, c.

    ``U`` (4h, d) holds the input weights, ``W`` (4h, h) the recurrent weights
    and ``b`` (4h,) the biases; rows k*h:(k+1)*h belong to gate k, so
    ``np.split(U, 4)`` gives the four per-gate blocks.  The arrays are kept
    as given, not copied.
    """

    __slots__ = ("U", "W", "b")

    def __init__(self, U: np.ndarray, W: np.ndarray, b: np.ndarray):
        u, w, bias = _shapes(U, W, b)
        if len(u) != 2 or u[0] % 4 or w != (u[0], u[0] // 4) or bias != u[:1]:
            raise ShapeMismatch(f"U, W, b must be (4h, d), (4h, h), (4h,); got {u}, {w}, {bias}")
        self.U, self.W, self.b = U, W, b

    @classmethod
    def random(cls, rng: np.random.Generator, d_in: int, d_hidden: int):
        """Entries drawn from N(0, 0.5^2): U, then W, then b."""
        n = 4 * d_hidden
        return cls(*(0.5 * rng.standard_normal(shape) for shape in [(n, d_in), (n, d_hidden), n]))


def _blocks(attn: AttentionParams, lstm: LstmParams) -> list[np.ndarray]:
    """One parameter set as a batch of one: W_q, W_k, W_v, U, W, b, each (1, ·)."""
    return [block[None] for block in (attn.W_q, attn.W_k, attn.W_v, lstm.U, lstm.W, lstm.b)]


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _attention(X, W_q, W_k, W_v, name: str = "X") -> tuple:
    """Attention forward of B parameter sets over one sequence: (X, Q, K, V, A, Y).

    ``X`` is (T, d) and each projection (B, d, d) or (1, d, d); Q, K and V
    keep their projection's batch axis, and Y = A V (B, T, d) and
    A = softmax(Q K^T / sqrt(d)) (B, T, T) take the broadcast one.
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


def _recurrence(Y: np.ndarray, U, W, b):
    """The LSTM gate recursion for B parameter sets from the zero state.

    Per step: f/i/o = sigmoid(U x + W h_prev + b); candidate = tanh(...);
    c = f*c_prev + i*candidate; h = o*tanh(c), with h and c zero before the
    first step.  ``Y`` is (B, T, d) and ``U``, ``W``, ``b`` are (B, 4h, d),
    (B, 4h, h), (B, 4h), any of them with a batch axis of 1 in place of B.  The
    input projection Y U^T + b is computed once, then one batched W h_prev per
    step.  Returns the activated gates (B, T, 4h), sigmoid on the f, i, o rows
    and tanh on the candidate rows, and the hidden and cell states (B, T, h).
    """
    if Y.shape[-1] != U.shape[-1]:
        raise ShapeMismatch(f"input width {Y.shape[-1]} != d_in {U.shape[-1]}")
    n = W.shape[-1]
    (batch,) = np.broadcast_shapes(*(len(x) for x in (Y, U, W, b)))
    h = c = np.zeros((batch, n))
    # a copy: the steps write each row's activated gates in place
    gates = np.broadcast_to(Y @ U.swapaxes(1, 2) + b[:, None], (batch, Y.shape[1], 4 * n)).copy()
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


def _forward_pair(X, blocks: Sequence[np.ndarray], name: str = "X") -> tuple:
    """One verse pair from a zero state for B parameter sets.

    ``blocks`` are W_q, W_k, W_v, U, W, b with a leading batch axis.  Returns
    the contextual vectors (B, h) and the values the backward pass needs.
    """
    attended = _attention(X, *blocks[:3], name)
    states = _recurrence(attended[-1], *blocks[3:])
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
        raise ShapeMismatch(f"need at least 2 tokens, got {m}")
    ids = list(next_token_ids)
    if len(ids) != m - 1:
        raise ShapeMismatch(f"expected {m - 1} target ids, got {len(ids)}")
    total = 0.0
    for i, token_id in enumerate(ids):
        if not (_is_int(token_id) and 1 <= token_id <= vocab):
            raise IdOutOfRange(f"id {token_id!r} outside 1..{vocab}")
        row = logits[i]
        shifted = row - row.max()
        total -= shifted[token_id - 1] - np.log(np.exp(shifted).sum())
    return total / (m - 1)


class LossBreakdown(NamedTuple):
    """The loss is ce + mse; gradients are with respect to the packed parameters."""

    ce: float
    mse: float
    gradients: np.ndarray


def _backward_pair(cache: tuple, d_h_last: np.ndarray, U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Packed parameter gradients (P,) of one pair given d(loss)/d(h_last) (h,).

    ``cache`` is the pair's :func:`_forward_pair` cache for one parameter set,
    whose LSTM stacks are ``U`` and ``W``.
    """
    (X, *attended), states = cache
    Q, K, V, A, Y, gates, hidden, cell = (x[0] for x in (*attended, *states))
    n = W.shape[-1]
    zero = np.zeros((1, n))
    h_prev = np.concatenate([zero, hidden[:-1]])
    c_prev = np.concatenate([zero, cell[:-1]])
    tanh_c = np.tanh(cell)
    # derivative of each activation with respect to its pre-activation
    slope = gates * (1.0 - gates)
    slope[..., 3 * n :] = 1.0 - gates[..., 3 * n :] ** 2
    d_pre = np.empty_like(gates)
    dh = d_h_last
    dc = np.zeros_like(dh)
    # last step first
    steps = (x[::-1] for x in (gates, c_prev, tanh_c, 1.0 - tanh_c**2, slope, d_pre))
    for a, c_prev_t, tanh_c_t, d_tanh_t, slope_t, d_pre_t in zip(*steps):
        f, i, o, g = a.reshape(4, n)
        dc = dc + dh * o * d_tanh_t
        terms = np.concatenate([dc * c_prev_t, dc * g, dh * tanh_c_t, dc * i])
        np.multiply(terms, slope_t, out=d_pre_t)
        dh = d_pre_t @ W
        dc = dc * f
    # attention backward
    dY = d_pre @ U
    dA = dY @ V.T
    dS = A * (dA - (dA * A).sum(axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(X.shape[1])
    gradients = (
        X.T @ (dS @ K * scale), X.T @ (dS.T @ Q * scale), X.T @ (A.T @ dY),
        d_pre.T @ Y, d_pre.T @ h_prev, d_pre.sum(axis=0),
    )
    return np.concatenate([block.ravel() for block in gradients])


def _stanza_passes(stanza_pairs: Sequence[Sequence[np.ndarray]], blocks: Sequence[np.ndarray]):
    """Yield (first-pair cache, second-pair cache, E_prev - E_next) per stanza.

    ``blocks`` hold B parameter sets, so each difference is (B, h).  Each
    stanza needs exactly two pairs.
    """
    for index, pairs in enumerate(stanza_pairs):
        if len(pairs) != 2:
            raise ShapeMismatch(f"stanza {index}: expected exactly 2 verse pairs, got {len(pairs)}")
        (e_prev, prev), (e_next, nxt) = (_forward_pair(x, blocks, "pair") for x in pairs)
        yield prev, nxt, e_prev - e_next


def custom_loss(
    stanza_pairs: Sequence[Sequence[np.ndarray]],
    logits,
    next_token_ids: Sequence[int],
    attn: AttentionParams,
    lstm: LstmParams,
) -> LossBreakdown:
    """Combined loss over a block, with analytic parameter gradients.

    ``stanza_pairs`` holds, per stanza, exactly two token-embedding
    sequences (the first and second six-eight pair).  The pair term is the
    componentwise sum of squared differences between each stanza's two
    contextual vectors.  ``logits``/``next_token_ids`` supply the block's
    cross-entropy term, which is constant in the attention/LSTM parameters.
    """
    if lstm.U.shape[1] != attn.W_q.shape[0]:
        raise ShapeMismatch(
            f"LSTM d_in {lstm.U.shape[1]} must equal attention d_model {attn.W_q.shape[0]}"
        )
    ce = ce_loss(logits, next_token_ids)
    mse = 0.0
    blocks = _blocks(attn, lstm)
    gradients = np.zeros(sum(block.size for block in blocks))
    for prev, nxt, (diff,) in _stanza_passes(stanza_pairs, blocks):
        mse += float(diff @ diff)
        gradients += _backward_pair(prev, 2.0 * diff, lstm.U, lstm.W)
        gradients += _backward_pair(nxt, -2.0 * diff, lstm.U, lstm.W)
    return LossBreakdown(ce=ce, mse=mse, gradients=gradients)


def random_instance(
    seed: int,
    d_model: int = 4,
    d_hidden: int = 3,
    vocab: int = 7,
    max_len: int = 6,
    n_stanzas: int = 2,
) -> dict:
    """Synthetic block for checking: embeddings, logits, targets, parameters.

    ``seed`` must be a non-negative int, and the dimensions, ``vocab``,
    ``max_len`` and ``n_stanzas`` ints of at least 1 (a ``bool`` is not an
    int); anything else raises :class:`BadCheckSetting` before any work.
    """
    settings = (("seed", seed, 0), ("d_model", d_model, 1), ("d_hidden", d_hidden, 1),
                ("vocab", vocab, 1), ("max_len", max_len, 1), ("n_stanzas", n_stanzas, 1))
    for name, value, least in settings:
        if not (_is_int(value) and value >= least):
            raise BadCheckSetting(f"{name} must be an int of at least {least}, got {value!r}")
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
    attn = AttentionParams.random(rng, d_model)
    lstm = LstmParams.random(rng, d_model, d_hidden)
    return {
        "stanza_pairs": stanza_pairs,
        "logits": logits,
        "next_token_ids": next_ids,
        "attn": attn,
        "lstm": lstm,
    }


class GradientCheckReport(NamedTuple):
    n_parameters: int
    max_relative_error: float
    ce: float
    mse: float
    tolerance = _TOLERANCE

    @property
    def passed(self) -> bool:
        return self.max_relative_error <= self.tolerance


def _central_differences(blocks: Sequence[np.ndarray], loss_at) -> np.ndarray:
    """(loss(theta + s e_k) - loss(theta - s e_k)) / 2s for every k, s = ``_FD_STEP``.

    ``blocks`` are the base set's W_q, W_k, W_v, U, W, b, each with a batch
    axis of 1, and theta their packed vector, whose order the result keeps.
    ``loss_at`` maps six blocks that broadcast to a batch of B sets to their
    B losses.  Each call takes one chunk of k parameters inside one block,
    which it tiles 2k times: copies 0..k-1 bump them up and copies k..2k-1
    bump the same ones down.  The other five blocks stay the base ones.
    """
    fd = []
    for index, block in enumerate(blocks):
        flat = block.ravel()
        for start in range(0, flat.size, _FD_CHUNK):
            k = min(_FD_CHUNK, flat.size - start)
            rows = np.arange(k)
            bumped = np.tile(flat, (2 * k, 1))
            bumped[rows, start + rows] += _FD_STEP
            bumped[k + rows, start + rows] -= _FD_STEP
            chunk = [*blocks[:index], bumped.reshape((2 * k,) + block.shape[1:]),
                     *blocks[index + 1 :]]
            loss = loss_at(chunk)
            fd.append((loss[:k] - loss[k:]) / (2.0 * _FD_STEP))
    return np.concatenate(fd)


def gradient_check(seed: int = 0, **settings) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    The differences use a step of 1e-5.  The per-component relative error is
    |a - f| / max(|a|, |f|, 1e-4); the floor turns the comparison into an
    absolute check at 1e-8 where both gradients vanish.  The check passes when
    the largest relative error is at most 1e-4.  ``seed`` and ``settings``
    (``d_model``, ``d_hidden``, ``vocab``, ``max_len``, ``n_stanzas``) go to
    :func:`random_instance`, whose defaults fill the rest and whose checks raise
    :class:`BadCheckSetting` before any work.
    """
    inst = random_instance(seed, **settings)
    breakdown = custom_loss(inst["stanza_pairs"], inst["logits"], inst["next_token_ids"],
                            inst["attn"], inst["lstm"])

    def loss_at(blocks: Sequence[np.ndarray]) -> np.ndarray:
        """ce plus the pair term for each parameter set of ``blocks``, forward only."""
        passes = _stanza_passes(inst["stanza_pairs"], blocks)
        # (1, h) @ (h, 1) per row sums as diff @ diff does for one set
        squares = ((diff[:, None] @ diff[..., None])[:, 0, 0] for _, _, diff in passes)
        return breakdown.ce + sum(squares)

    fd = _central_differences(_blocks(inst["attn"], inst["lstm"]), loss_at)
    analytic = breakdown.gradients
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-4)
    max_rel = float(np.max(np.abs(analytic - fd) / denom))
    return GradientCheckReport(
        n_parameters=fd.size,
        max_relative_error=max_rel,
        ce=breakdown.ce,
        mse=breakdown.mse,
    )
