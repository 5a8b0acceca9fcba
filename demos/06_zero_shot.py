#!/usr/bin/env python3
"""Zero-shot classification from embeddings alone.

Given one unit vector per class (text embeddings of class prompts, in the
real pipeline) and image embeddings in the same space, the prediction is the
class of highest cosine similarity. `zero_shot_classify` returns only the
predictions; the probabilities are `softmax_rows` over the cosines, which a
caller forms itself. No training happens anywhere.
"""

import math

import numpy as np

from lthead import (TextClassEmbeddings, build_class_stats, make_rng,
                    metrics_from_predictions, softmax_rows, zero_shot_classify)


def cosines(images, class_embs):
    unit = images / np.linalg.norm(images, axis=1, keepdims=True)
    return unit @ class_embs.matrix.T


# orthonormal class embeddings: the closed form is e / (e + K - 1)
for k in (2, 3, 10):
    emb = TextClassEmbeddings.from_matrix(np.eye(k))
    preds = zero_shot_classify(np.eye(k)[:1], emb)
    probs = softmax_rows(np.eye(k)[:1] @ emb.matrix.T)
    print(f"K={k:2d}: image aligned with class 0 -> class {preds[0]}, "
          f"p0 = {probs[0, 0]:.5f}   "
          f"(closed form {math.e / (math.e + k - 1):.5f})")
print()

# a noisy clustered problem: accuracy degrades gracefully with noise
rng = make_rng(0)
k, d, per_class = 6, 32, 50
class_embs = TextClassEmbeddings.from_matrix(rng.standard_normal((k, d)))
labels = np.repeat(np.arange(k), per_class)
stats = build_class_stats(labels, k)

print("noise sweep on clustered image embeddings:")
for noise in (0.2, 0.6, 1.2, 2.5):
    images = class_embs.matrix[labels] + noise * rng.standard_normal(
        (labels.size, d))
    preds = zero_shot_classify(images, class_embs)
    probs = softmax_rows(cosines(images, class_embs))
    rep = metrics_from_predictions(preds, labels, stats)
    print(f"  noise {noise:3.1f}: overall {rep.overall:.3f}  "
          f"macro f1 {rep.f1:.3f}  mean max-prob {probs.max(axis=1).mean():.3f}")
print()

# scale invariance: only the direction of an image embedding matters
images = class_embs.matrix[labels[:5]] + 0.5 * rng.standard_normal((5, d))
same = np.array_equal(zero_shot_classify(images, class_embs),
                      zero_shot_classify(images * 1000.0, class_embs))
p1 = softmax_rows(cosines(images, class_embs))
p2 = softmax_rows(cosines(images * 1000.0, class_embs))
print(f"rescaling image embeddings by 1000 keeps the predictions ({same}) and "
      f"changes probabilities by at most {np.abs(p1 - p2).max():.1e}")
