"""The semantic loss head, taken apart and gradient-checked.

A stanza's two six-eight pairs each become a contextual vector
(self-attention then LSTM, last hidden state); the loss adds the squared
distance between the two vectors to the next-token cross-entropy.

Run:  python demos/05_semantic_loss.py
"""

import numpy as np

from lucbat import (
    AttentionParams,
    LstmParams,
    attention_weights,
    ce_loss,
    contextual_vector,
    custom_loss,
    gradient_check,
    random_instance,
)

rng = np.random.default_rng(0)
d_model, d_hidden = 4, 3
attn = AttentionParams.random(rng, d_model)
lstm = LstmParams.random(rng, d_model, d_hidden)

pair = rng.standard_normal((5, d_model))
weights = attention_weights(pair, attn)
print("attention weights are row-stochastic:")
print(np.round(weights, 3))
print("row sums:", weights.sum(axis=1))

vec = contextual_vector(pair, attn, lstm)
print("\ncontextual vector (last LSTM hidden state):", np.round(vec, 4))

logits = rng.standard_normal((8, 7))
targets = [int(rng.integers(1, 8)) for _ in range(7)]
print(f"\nblock cross-entropy: {ce_loss(logits, targets):.4f} "
      f"(uniform baseline ln 7 = {np.log(7):.4f})")

inst = random_instance(seed=1, d_model=d_model, d_hidden=d_hidden)
out = custom_loss(inst["stanza_pairs"], inst["logits"], inst["next_token_ids"],
                  inst["attn"], inst["lstm"])
print(f"\ncombined loss: ce={out.ce:.4f} + pair-distance={out.mse:.4f} "
      f"= {out.total:.4f}")
print(f"gradient vector has {out.gradients.size} entries "
      f"(3 attention matrices + 3 LSTM stacks U, W, b)")

report = gradient_check(seed=1, d_model=d_model, d_hidden=d_hidden)
print(f"\nfinite-difference check: max relative error "
      f"{report.max_relative_error:.2e} -> {'PASS' if report.passed else 'FAIL'}")
