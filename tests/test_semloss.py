import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lucbat import (
    AttentionParams,
    BadCheckSetting,
    DegenerateSequence,
    IdOutOfRange,
    LstmParams,
    MissingPair,
    ShapeMismatch,
    attention_weights,
    ce_loss,
    contextual_vector,
    custom_loss,
    gradient_check,
    random_instance,
)
from lucbat import semloss
from lucbat.cli import LOSSCHECK_BOUNDS
from lucbat.semloss import _sigmoid

# losscheck's benchmark dimensions: P = 736 parameters, two verse pairs
BENCH_DIMS = dict(d_model=8, d_hidden=8, vocab=7, max_len=12, n_stanzas=1)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def attention_output(x, params):
    """The attention output (T, d) of one parameter set."""
    return semloss._attention(x, params.W_q[None], params.W_k[None], params.W_v[None])[5][0]


def lstm_states(x, params):
    """The hidden and cell states (T, h) of one parameter set over the rows of ``x``."""
    _, hidden, cell = semloss._recurrence(x[None], params.U[None], params.W[None], params.b[None])
    return hidden[0], cell[0]


def packed(attn, lstm):
    """One parameter set as one vector, in the order of ``semloss._blocks``."""
    return np.concatenate([block.ravel() for block in semloss._blocks(attn, lstm)])


def unpacked(vec, attn, lstm):
    """A vector laid out as ``packed(attn, lstm)`` as (AttentionParams, LstmParams) views of it."""
    shapes = [block.shape[1:] for block in semloss._blocks(attn, lstm)]
    ends = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    blocks = [piece.reshape(shape) for piece, shape in zip(np.split(vec, ends), shapes)]
    return AttentionParams(*blocks[:3]), LstmParams(*blocks[3:])


class TestSigmoid:
    def test_stable_exact_at_zero_and_matches_logistic(self):
        x = np.linspace(-30.0, 30.0, 6001)
        with np.errstate(all="raise"):
            extremes = _sigmoid(np.array([-1e4, 1e4]))
            assert _sigmoid(np.array([0.0]))[0] == 0.5
            assert np.max(np.abs(_sigmoid(x) - 1.0 / (1.0 + np.exp(-x)))) <= 1e-15
        assert extremes.tolist() == [0.0, 1.0]


class TestSelfAttention:
    def test_length_one_sequence(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4))
        params = AttentionParams.random(rng, 4)
        out = attention_output(x, params)
        assert np.allclose(out, x @ params.W_v, atol=1e-12)

    def test_zero_logits_give_uniform_mixing(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        params = AttentionParams(
            W_q=np.zeros((3, 3)), W_k=np.zeros((3, 3)), W_v=np.eye(3)
        )
        out = attention_output(x, params)
        assert np.allclose(out, np.tile(x.mean(axis=0), (5, 1)), atol=1e-12)

    def test_matches_step_by_step_recomputation(self):
        # independent oracle: explicit index loops, no vectorized reuse
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4))
        params = AttentionParams.random(rng, 4)
        t, d = x.shape

        def project(w):
            out = [[sum(x[i][k] * w[k][j] for k in range(d)) for j in range(d)]
                   for i in range(t)]
            return out

        q, k, v = project(params.W_q), project(params.W_k), project(params.W_v)
        expected = np.zeros((t, d))
        for i in range(t):
            logits = [sum(q[i][m] * k[j][m] for m in range(d)) / math.sqrt(d)
                      for j in range(t)]
            peak = max(logits)
            weights = [math.exp(l - peak) for l in logits]
            norm = sum(weights)
            weights = [w / norm for w in weights]
            for j in range(d):
                expected[i][j] = sum(weights[r] * v[r][j] for r in range(t))
        assert np.allclose(attention_output(x, params), expected, atol=1e-12)

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = rng.standard_normal((6, 5))
            params = AttentionParams.random(rng, 5)
            weights = attention_weights(x, params)
            assert np.all(weights >= 0)
            assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_query_scaling_keeps_rows_normalized(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 3))
        params = AttentionParams.random(rng, 3)
        scaled = AttentionParams(W_q=10.0 * params.W_q, W_k=params.W_k, W_v=params.W_v)
        weights = attention_weights(x, scaled)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_mismatch(self):
        params = AttentionParams.random(np.random.default_rng(0), 4)
        with pytest.raises(ShapeMismatch):
            attention_output(np.zeros((3, 5)), params)
        with pytest.raises(ShapeMismatch):
            attention_output(np.full((2, 4), np.nan), params)

    def test_empty_sequence_rejected(self):
        params = AttentionParams.random(np.random.default_rng(0), 4)
        with pytest.raises(ShapeMismatch):
            attention_output(np.zeros((0, 4)), params)


class TestLstmForward:
    def test_zero_parameters_stay_at_zero(self):
        x = np.random.default_rng(0).standard_normal((5, 4))
        params = LstmParams(np.zeros((12, 4)), np.zeros((12, 3)), np.zeros(12))
        hidden, cell = lstm_states(x, params)
        assert np.all(hidden == 0.0)
        assert np.all(cell == 0.0)

    def test_single_step_hand_computation(self):
        # d_in = d_hidden = 2, zero initial state, one step; recurrent
        # weights deliberately nonzero to confirm they multiply h0 = 0
        U_f = np.array([[0.2, 0.1], [0.0, 0.3]])
        U_i = np.array([[0.4, 0.0], [0.1, 0.2]])
        U_o = np.array([[0.3, -0.1], [0.2, 0.2]])
        U_c = np.array([[0.6, 0.2], [-0.3, 0.4]])
        params = LstmParams(
            U=np.concatenate([U_f, U_i, U_o, U_c]),
            W=np.ones((8, 2)),
            b=np.array([0.1, -0.2, 0.0, 0.05, -0.1, 0.1, 0.05, -0.05]),
        )
        x = np.array([[1.0, -1.0]])
        hidden, cell = lstm_states(x, params)
        # hand evaluation of the gate equations
        f = [sigmoid(0.2 - 0.1 + 0.1), sigmoid(0.0 - 0.3 - 0.2)]
        i = [sigmoid(0.4 + 0.0 + 0.0), sigmoid(0.1 - 0.2 + 0.05)]
        o = [sigmoid(0.3 + 0.1 - 0.1), sigmoid(0.2 - 0.2 + 0.1)]
        g = [math.tanh(0.6 - 0.2 + 0.05), math.tanh(-0.3 - 0.4 - 0.05)]
        c = [i[0] * g[0], i[1] * g[1]]
        h = [o[0] * math.tanh(c[0]), o[1] * math.tanh(c[1])]
        assert np.allclose(cell[0], c, atol=1e-12)
        assert np.allclose(hidden[0], h, atol=1e-12)

    def test_two_steps_hand_recursion(self):
        rng = np.random.default_rng(5)
        params = LstmParams.random(rng, 2, 2)
        x = rng.standard_normal((2, 2))
        hidden, cell = lstm_states(x, params)
        # per-gate blocks in gate order f, i, o, c
        (U_f, U_i, U_o, U_c), (W_f, W_i, W_o, W_c), (b_f, b_i, b_o, b_c) = (
            np.split(stack, 4) for stack in (params.U, params.W, params.b)
        )
        h = np.zeros(2)
        c = np.zeros(2)
        for step in range(2):
            f = 1 / (1 + np.exp(-(U_f @ x[step] + W_f @ h + b_f)))
            i = 1 / (1 + np.exp(-(U_i @ x[step] + W_i @ h + b_i)))
            o = 1 / (1 + np.exp(-(U_o @ x[step] + W_o @ h + b_o)))
            g = np.tanh(U_c @ x[step] + W_c @ h + b_c)
            c = f * c + i * g
            h = o * np.tanh(c)
        assert np.allclose(hidden[-1], h, atol=1e-12)
        assert np.allclose(cell[-1], c, atol=1e-12)

    def test_hidden_states_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal((8, 3))
            params = LstmParams.random(rng, 3, 4)
            hidden, _ = lstm_states(x, params)
            assert np.all(np.abs(hidden) < 1.0)

    def test_memory_carry_with_saturated_gates(self):
        # saturating pre-activations of +-40 make f == 1 at every step and i == 1 at
        # the first step only, exactly: the first step writes the candidate into the
        # zero cell, and every later step carries it unchanged
        x = np.random.default_rng(0).standard_normal((6, 3))
        x[:, 0] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        U_f, U_i, U_o, U_c = np.zeros((4, 2, 3))
        U_i[:, 0] = 80.0
        U_c[:, 1:] = [[0.4, -0.3], [0.2, 0.5]]
        b = np.concatenate([np.full(2, 40.0), np.full(2, -40.0), np.zeros(4)])
        params = LstmParams(np.concatenate([U_f, U_i, U_o, U_c]), np.zeros((8, 2)), b)
        _, cell = lstm_states(x, params)
        assert np.allclose(cell[0], np.tanh(U_c @ x[0]), rtol=0, atol=1e-15)
        assert np.all(cell[0] != 0.0)
        assert np.all(cell == cell[0])

    def test_shape_mismatch(self):
        params = LstmParams(np.zeros((12, 4)), np.zeros((12, 3)), np.zeros(12))
        with pytest.raises(ShapeMismatch):
            lstm_states(np.zeros((2, 5)), params)
        # the attention rejects an empty sequence before the recurrence sees it
        attn = AttentionParams.random(np.random.default_rng(0), 4)
        with pytest.raises(ShapeMismatch):
            contextual_vector(np.zeros((0, 4)), attn, params)


class TestParameterBlocks:
    @pytest.mark.parametrize("cls, blocks", [
        pytest.param(AttentionParams, ([[1.0]], [[1.0]], [[1.0]]), id="attention-lists"),
        pytest.param(LstmParams, ([[1.0]] * 4, [[1.0]] * 4, [1.0] * 4), id="lstm-lists"),
        pytest.param(AttentionParams, (np.ones(2),) * 3, id="attention-1d"),
        pytest.param(AttentionParams, (np.array(1.0),) * 3, id="attention-0d"),
        pytest.param(AttentionParams, (np.ones((2, 2, 2)),) * 3, id="attention-3d"),
        pytest.param(LstmParams, (np.ones(8), np.ones((8, 2)), np.ones(8)), id="lstm-U-1d"),
        pytest.param(LstmParams, (np.array(1.0), np.ones((8, 2)), np.ones(8)), id="lstm-U-0d"),
        pytest.param(LstmParams, (np.ones((8, 3)), np.ones((8, 2, 1)), np.ones(8)),
                     id="lstm-W-3d"),
        pytest.param(LstmParams, (np.ones((8, 3)), np.ones((8, 2)), np.ones((8, 1))),
                     id="lstm-b-2d"),
        pytest.param(AttentionParams, (np.ones((2, 3)),) * 3, id="attention-not-square"),
        pytest.param(AttentionParams, (np.eye(2), np.eye(3), np.eye(2)),
                     id="attention-sizes-disagree"),
        pytest.param(LstmParams, (np.ones((8, 3)), np.ones((12, 3)), np.ones(12)),
                     id="lstm-U-rows-disagree"),
        pytest.param(LstmParams, (np.ones((8, 3)), np.ones((8, 2)), np.ones(12)),
                     id="lstm-b-disagrees"),
        pytest.param(LstmParams, (np.ones((8, 3)), np.ones((8, 3)), np.ones(8)),
                     id="lstm-W-not-4h-by-h"),
        pytest.param(LstmParams, (np.ones((6, 3)), np.ones((6, 1)), np.ones(6)),
                     id="lstm-rows-not-multiple-of-4"),
    ])
    def test_bad_blocks_raise_shape_mismatch(self, cls, blocks):
        with pytest.raises(ShapeMismatch):
            cls(*blocks)

    def test_good_blocks_are_kept_as_given(self):
        attn = AttentionParams(*(np.eye(3) for _ in range(3)))
        U, W, b = np.ones((8, 3)), np.ones((8, 2)), np.ones(8)
        lstm = LstmParams(U, W, b)
        assert attn.d_model == 3 and (lstm.d_in, lstm.W.shape[1]) == (3, 2)
        assert lstm.U is U and lstm.W is W and lstm.b is b


class TestContextualVector:
    def test_zero_lstm_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 4))
        attn = AttentionParams.random(rng, 4)
        lstm = LstmParams(np.zeros((12, 4)), np.zeros((12, 3)), np.zeros(12))
        out = contextual_vector(x, attn, lstm)
        assert np.all(out == 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 4))
        attn = AttentionParams.random(rng, 4)
        lstm = LstmParams.random(rng, 4, 3)
        assert np.array_equal(
            contextual_vector(x, attn, lstm), contextual_vector(x.copy(), attn, lstm)
        )

    def test_equals_composition_of_stages(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 4))
        attn = AttentionParams.random(rng, 4)
        lstm = LstmParams.random(rng, 4, 5)
        hidden, _ = lstm_states(attention_output(x, attn), lstm)
        assert np.array_equal(contextual_vector(x, attn, lstm), hidden[-1])

    def test_components_strictly_inside_unit_box(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.standard_normal((7, 3))
            attn = AttentionParams.random(rng, 3)
            lstm = LstmParams.random(rng, 3, 4)
            vec = contextual_vector(x, attn, lstm)
            assert np.all(np.abs(vec) < 1.0)


class TestCeLoss:
    def test_uniform_logits(self):
        logits = np.zeros((3, 8))
        assert ce_loss(logits, [1, 5]) == pytest.approx(math.log(8), abs=1e-12)

    def test_constant_rows_equal_uniform(self):
        logits = np.full((4, 8), 3.25)
        assert ce_loss(logits, [2, 8, 1]) == pytest.approx(math.log(8), abs=1e-12)

    def test_saturated_softmax(self):
        vocab = 4
        logits = np.zeros((5, vocab))
        targets = [3, 1, 4, 2]
        for row, tid in enumerate(targets):
            logits[row, tid - 1] = 20.0
        assert ce_loss(logits, targets) < 1e-8

    def test_matches_naive_oracle_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            vocab = int(rng.integers(2, 9))
            logits = 3.0 * rng.standard_normal((m, vocab))
            ids = [int(rng.integers(1, vocab + 1)) for _ in range(m - 1)]
            naive = 0.0
            for row, tid in enumerate(ids):
                probs = np.exp(logits[row]) / np.exp(logits[row]).sum()
                naive -= math.log(probs[tid - 1])
            naive /= m - 1
            assert ce_loss(logits, ids) == pytest.approx(naive, abs=1e-10)

    def test_degenerate_sequence(self):
        with pytest.raises(DegenerateSequence):
            ce_loss(np.zeros((1, 4)), [])

    def test_id_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            ce_loss(np.zeros((2, 4)), [0])
        with pytest.raises(IdOutOfRange):
            ce_loss(np.zeros((2, 4)), [5])
        with pytest.raises(IdOutOfRange):
            ce_loss(np.zeros((2, 4)), [2.5])
        # a bool is an int subclass, but True is not token id 1
        with pytest.raises(IdOutOfRange):
            ce_loss(np.zeros((2, 3)), [True])
        with pytest.raises(IdOutOfRange):
            ce_loss(np.zeros((3, 3)), [2, False])

    def test_target_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ce_loss(np.zeros((3, 4)), [1])


class TestCustomLoss:
    def test_identical_pairs_zero_distance(self):
        rng = np.random.default_rng(0)
        attn = AttentionParams.random(rng, 4)
        lstm = LstmParams.random(rng, 4, 3)
        pair = rng.standard_normal((5, 4))
        logits = rng.standard_normal((6, 7))
        ids = [int(rng.integers(1, 8)) for _ in range(5)]
        out = custom_loss([[pair, pair.copy()]], logits, ids, attn, lstm)
        assert out.mse == 0.0
        assert out.total == out.ce
        assert out.ce == pytest.approx(ce_loss(logits, ids))

    def test_forced_unit_distance(self):
        # saturate the LSTM so pair one maps to (0,0) and pair two to (1,1):
        # componentwise squared distance is exactly 2
        d = 2
        attn = AttentionParams(W_q=np.zeros((d, d)), W_k=np.zeros((d, d)), W_v=np.eye(d))
        lstm = LstmParams(
            U=np.concatenate([np.zeros((3 * d, d)), 40.0 * np.eye(d)]),
            W=np.zeros((4 * d, d)),
            b=np.concatenate([np.full(3 * d, 40.0), np.zeros(d)]),
        )
        pair_prev = np.zeros((25, d))
        pair_next = np.ones((25, d))
        logits = np.zeros((2, 3))
        out = custom_loss([[pair_prev, pair_next]], logits, [2], attn, lstm)
        assert out.mse == 2.0
        assert out.total == out.ce + 2.0

    def test_total_is_sum_of_terms(self):
        inst = random_instance(5)
        out = custom_loss(
            inst["stanza_pairs"], inst["logits"], inst["next_token_ids"],
            inst["attn"], inst["lstm"],
        )
        assert out.ce >= 0.0
        assert out.mse >= 0.0
        assert out.total == out.ce + out.mse

    def test_missing_pair(self):
        inst = random_instance(0)
        bad = [inst["stanza_pairs"][0][:1]]
        with pytest.raises(MissingPair):
            custom_loss(bad, inst["logits"], inst["next_token_ids"],
                        inst["attn"], inst["lstm"])

    def test_pair_width_mismatch(self):
        inst = random_instance(0, d_model=4)
        bad = [[np.zeros((3, 5)), np.zeros((3, 5))]]
        with pytest.raises(ShapeMismatch):
            custom_loss(bad, inst["logits"], inst["next_token_ids"],
                        inst["attn"], inst["lstm"])

    def test_empty_pair_rejected(self):
        inst = random_instance(0, d_model=4)
        bad = [[np.zeros((0, 4)), np.zeros((3, 4))]]
        with pytest.raises(ShapeMismatch):
            custom_loss(bad, inst["logits"], inst["next_token_ids"],
                        inst["attn"], inst["lstm"])

    def test_gradient_accumulates_over_stanzas(self):
        inst = random_instance(8, n_stanzas=2)
        both = custom_loss(
            inst["stanza_pairs"], inst["logits"], inst["next_token_ids"],
            inst["attn"], inst["lstm"],
        )
        first = custom_loss(
            inst["stanza_pairs"][:1], inst["logits"], inst["next_token_ids"],
            inst["attn"], inst["lstm"],
        )
        second = custom_loss(
            inst["stanza_pairs"][1:], inst["logits"], inst["next_token_ids"],
            inst["attn"], inst["lstm"],
        )
        assert np.allclose(both.gradients, first.gradients + second.gradients,
                           atol=1e-12)


class TestGradientCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_small_instances(self, seed):
        report = gradient_check(seed=seed)
        assert report.passed, f"max rel err {report.max_relative_error}"
        assert report.max_relative_error <= 1e-4

    @pytest.mark.parametrize("seed, d, h", [(0, 4, 3), (3, 2, 5), (8, 8, 8)])
    def test_packed_layout_and_random_stream(self, seed, d, h):
        # the stacks pack as the per-gate arrays in gate order f, i, o, c, and one
        # stacked draw equals the per-gate draws the 12-array layout made
        lstm = LstmParams.random(np.random.default_rng(seed), d, h)
        rng = np.random.default_rng(seed)
        drawn = ([0.5 * rng.standard_normal((h, d)) for _ in range(4)]
                 + [0.5 * rng.standard_normal((h, h)) for _ in range(4)]
                 + [0.5 * rng.standard_normal(h) for _ in range(4)])
        gates = [block for stack in (lstm.U, lstm.W, lstm.b) for block in np.split(stack, 4)]
        names = [f"{kind}_{gate}" for kind in "UWb" for gate in "fioc"]
        for name, block, expected in zip(names, gates, drawn):
            assert np.array_equal(block, expected), name
        attn = AttentionParams.random(rng, d)
        expected = np.concatenate(
            [attn.W_q.ravel(), attn.W_k.ravel(), attn.W_v.ravel()]
            + [gate.ravel() for gate in drawn]
        )
        assert np.array_equal(packed(attn, lstm), expected)
        pair = np.ones((2, d))
        gradients = custom_loss([[pair, pair]], np.zeros((2, 3)), [1], attn, lstm).gradients
        assert gradients.size == expected.size == 3 * d * d + 4 * h * (d + h + 1)


def serial_differences(inst, step=1e-5):
    """The finite-difference loop of the serial check: one forward per perturbed vector."""
    ce = ce_loss(inst["logits"], inst["next_token_ids"])
    theta = packed(inst["attn"], inst["lstm"])

    def loss_at(vec):
        attn, lstm = unpacked(vec, inst["attn"], inst["lstm"])
        total = 0.0
        for first, second in inst["stanza_pairs"]:
            diff = contextual_vector(first, attn, lstm) - contextual_vector(second, attn, lstm)
            total += float(diff @ diff)
        return ce + total

    fd = np.zeros_like(theta)
    for k in range(theta.size):
        bumped = theta.copy()
        bumped[k] = theta[k] + step
        up = loss_at(bumped)
        bumped[k] = theta[k] - step
        fd[k] = (up - loss_at(bumped)) / (2.0 * step)
    return fd


def tiled_differences(inst):
    """The chunked differences as the check took them before it tiled one block per
    chunk: each chunk tiles the whole packed vector, and every row unpacks all six blocks."""
    ce = ce_loss(inst["logits"], inst["next_token_ids"])
    theta = packed(inst["attn"], inst["lstm"])
    fd = np.empty_like(theta)
    for start in range(0, theta.size, semloss._FD_CHUNK):
        k = min(semloss._FD_CHUNK, theta.size - start)
        rows = np.arange(k)
        bumped = np.tile(theta, (2 * k, 1))
        bumped[rows, start + rows] += semloss._FD_STEP
        bumped[k + rows, start + rows] -= semloss._FD_STEP
        sets = (semloss._blocks(*unpacked(row, inst["attn"], inst["lstm"])) for row in bumped)
        blocks = [np.concatenate(column) for column in zip(*sets)]
        passes = semloss._stanza_passes(inst["stanza_pairs"], blocks)
        squares = ((diff[:, None] @ diff[..., None])[:, 0, 0] for _, _, diff in passes)
        loss = ce + sum(squares, np.zeros(2 * k))
        fd[start : start + k] = (loss[:k] - loss[k:]) / (2.0 * semloss._FD_STEP)
    return fd


class TestBatchedLossHead:
    @pytest.mark.parametrize("batch, d, h, length", [(1, 4, 3, 5), (3, 2, 5, 1), (7, 8, 8, 12)])
    def test_batched_rows_equal_single_sets(self, batch, d, h, length):
        rng = np.random.default_rng(batch * 100 + d)
        sets = [(AttentionParams.random(rng, d), LstmParams.random(rng, d, h))
                for _ in range(batch)]
        x = rng.standard_normal((length, d))
        # each block of every set, stacked along the batch axis of the (1, ·) blocks
        blocks = [np.concatenate(column)
                  for column in zip(*(semloss._blocks(attn, lstm) for attn, lstm in sets))]
        assert [block.shape[0] for block in blocks] == [batch] * 6
        vectors, _ = semloss._forward_pair(x, blocks)
        assert vectors.shape == (batch, h)
        for row, (attn, lstm) in enumerate(sets):
            assert np.allclose(vectors[row], contextual_vector(x, attn, lstm), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_differences_match_the_serial_loop(self, seed, monkeypatch):
        captured = []
        chunked = semloss._central_differences

        def record(*args):
            captured.append(chunked(*args))
            return captured[-1]

        monkeypatch.setattr(semloss, "_central_differences", record)
        report = gradient_check(seed=seed, **BENCH_DIMS)
        assert report.n_parameters == 736 and report.passed
        inst = random_instance(seed, **BENCH_DIMS)
        expected = serial_differences(inst)
        assert np.max(np.abs(captured[0] - expected)) <= 1e-9

    @pytest.mark.parametrize("dims", [
        BENCH_DIMS, dict(d_model=5, d_hidden=4, max_len=9, n_stanzas=3),
    ], ids=["bench", "three-stanzas"])
    @pytest.mark.parametrize("seed", range(2))
    def test_differences_are_bitwise_those_of_the_tiled_vector(self, seed, dims, monkeypatch):
        # the untouched blocks broadcast from the base set; every row computes what
        # it computed when each chunk tiled and unpacked the whole packed vector
        captured = []
        chunked = semloss._central_differences

        def record(*args):
            captured.append(chunked(*args))
            return captured[-1]

        monkeypatch.setattr(semloss, "_central_differences", record)
        report = gradient_check(seed=seed, **dims)
        inst = random_instance(seed, **dims)
        expected = tiled_differences(inst)
        assert np.array_equal(captured[0], expected)
        assert report.passed and report.n_parameters == expected.size

    def test_one_batched_recurrence_per_chunk_and_pair(self, monkeypatch):
        # one B=1 analytic pass, then per chunk one batched pass per pair that tiles
        # exactly one block; the serial check ran 2P + 1 recurrences per pair, 2946
        # at the benchmark dimensions.  At the defaults no block size is a multiple
        # of the chunk.
        calls = []  # (function, batch size of its output)
        for name in ("_attention", "_recurrence"):
            def record(*args, name=name, wrapped=getattr(semloss, name)):
                blocks = args[1:4] if name == "_attention" else args
                calls.append((name, max(len(block) for block in blocks)))
                return wrapped(*args)

            monkeypatch.setattr(semloss, name, record)
        chunks = []  # (batch size of each block, calls of the chunk)
        differences = semloss._central_differences

        def per_chunk(blocks, loss_at):
            def counted(chunk):
                first = len(calls)
                loss = loss_at(chunk)
                chunks.append(([len(block) for block in chunk], calls[first:]))
                return loss

            return differences(blocks, counted)

        monkeypatch.setattr(semloss, "_central_differences", per_chunk)
        for dims in (BENCH_DIMS, {}):
            calls.clear()
            chunks.clear()
            report = gradient_check(seed=1, **dims)
            inst = random_instance(1, **dims)
            pairs = 2 * len(inst["stanza_pairs"])
            sizes = [block.size for block in semloss._blocks(inst["attn"], inst["lstm"])]
            analytic = sorted(calls[: 2 * pairs])
            assert analytic == [("_attention", 1)] * pairs + [("_recurrence", 1)] * pairs
            assert len(chunks) == sum(math.ceil(size / semloss._FD_CHUNK) for size in sizes)
            covered = [0] * 6
            for batches, chunk_calls in chunks:
                tiled = [index for index, batch in enumerate(batches) if batch > 1]
                assert len(tiled) == 1, batches  # one tiled block: no chunk spans two
                index, batch = tiled[0], max(batches)
                assert batch % 2 == 0 and batch <= 2 * semloss._FD_CHUNK
                covered[index] += batch // 2
                attention_batch = batch if index < 3 else 1  # only W_q, W_k, W_v chunks
                assert sorted(chunk_calls) == ([("_attention", attention_batch)] * pairs
                                               + [("_recurrence", batch)] * pairs)
            assert covered == sizes and sum(sizes) == report.n_parameters
            recurrences = [batch for name, batch in calls if name == "_recurrence"]
            assert len(recurrences) == len(chunks) * pairs + pairs
            assert 10 * len(recurrences) < pairs * (2 * report.n_parameters + 1)
            assert max(recurrences) == 2 * semloss._FD_CHUNK

    def test_peak_memory_at_the_largest_accepted_check(self):
        # every dimension at its losscheck cap; stanzas run one at a time, so one
        # stanza reaches the same peak.  32 parameters per chunk peak at about
        # 4.3 MB here, 40 at 5.3 MB.
        dims = {name: LOSSCHECK_BOUNDS[flag][2]
                for flag, name in [("dmodel", "d_model"), ("dhidden", "d_hidden"),
                                   ("vocab", "vocab"), ("len", "max_len")]}
        gradient_check()  # one-time allocations outside the traced call
        tracemalloc.start()
        try:
            report = gradient_check(seed=0, n_stanzas=1, **dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_parameters == 2880 and report.passed
        assert peak < 5 * 2**20, f"peak {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("value, name", [
        *((value, name) for value in (0, -1, 2.5, True)
          for name in ("d_model", "d_hidden", "vocab", "max_len", "n_stanzas")),
        (-1, "seed"), (2.5, "seed"), (True, "seed"),
    ])
    def test_size_below_one_rejected_before_any_work(self, name, value, monkeypatch):
        # d_model=0 and d_hidden=0 used to pass on an empty head, with divide-by-zero
        # warnings; d_model=-1 and seed=-1 escaped as a numpy ValueError, 2.5 and
        # True as a TypeError.  A bool is not an int here.  random_instance, which
        # gradient_check calls first, owns the check.
        def no_work(*args, **kwargs):
            raise AssertionError("a random stream was drawn")

        monkeypatch.setattr(np.random, "default_rng", no_work)
        least = 0 if name == "seed" else 1
        for check in (gradient_check, random_instance):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(BadCheckSetting,
                                   match=f"^{name} must be an int of at least {least}, got "):
                    check(**{"seed": 0, name: value})

    def test_numpy_integers_are_accepted(self):
        report = gradient_check(seed=np.int64(2), d_model=np.int32(3))
        assert report.passed and report.seed == 2 and report.d_model == 3
