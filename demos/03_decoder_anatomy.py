#!/usr/bin/env python3
"""Structure of the decoder head: pre-norm blocks, residuals, pooling.

Three properties make the head easy to reason about:
  * zeroing every non-layer-norm block weight turns each block into an exact
    identity, because both branches are residual;
  * with no positional encoding, token order cannot change the pooled logits;
  * depth 0 is exactly a linear probe: mean-pool then one affine map.
"""

import numpy as np

from lthead import DecoderConfig, forward_batch, init_decoder, make_rng
from lthead.decoder import BLOCK_FIELDS

config = DecoderConfig(dim=16, num_classes=5, depth=3, heads=4,
                       mlp_ratio=4.0, dropout=0.5)
head = init_decoder(config, make_rng(0))
print(f"decoder: depth={config.depth}, heads={config.heads}, "
      f"mlp_ratio={config.mlp_ratio}, dropout={config.dropout}")
print(f"parameters: {head.params.vector.size} across "
      f"{len(head.params)} tensors")
print()

tokens = make_rng(1).standard_normal((2, 6, 16))

# residual identity
for blk in head.blocks:
    for name in BLOCK_FIELDS:
        if not name.startswith("ln"):
            getattr(blk, name)[...] = 0.0
logits_zeroed, cache = forward_batch(head, tokens, None, train_mode=False)
pooled_delta = np.abs(cache.pooled - tokens.mean(axis=1)).max()
print(f"all block weights zeroed -> blocks are identities "
      f"(pooled delta = {pooled_delta:.1e})")

# permutation invariance of a freshly initialized head
head = init_decoder(config, make_rng(0))
perm = make_rng(2).permutation(6)
a, _ = forward_batch(head, tokens, None, False)
b, _ = forward_batch(head, tokens[:, perm], None, False)
print(f"token permutation changes eval logits by at most "
      f"{np.abs(a - b).max():.1e}")

# depth 0 is a linear probe
probe_cfg = DecoderConfig(dim=16, num_classes=5, depth=0, heads=1, dropout=0.0)
probe = init_decoder(probe_cfg, make_rng(3))
logits, _ = forward_batch(probe, tokens, None, False)
manual = tokens.mean(axis=1) @ probe.cls_weight.T + probe.cls_bias
print(f"depth-0 head vs mean-pool+affine: max delta = "
      f"{np.abs(logits - manual).max():.1e}")
print(f"depth-0 parameter tensors: {list(probe.params)}")
