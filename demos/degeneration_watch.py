"""Watching a family of domains degenerate, and rescuing it by conjugation.

Squashing ellipses flatten onto a segment; centering, rotating to the moment
axes, and rescaling to unit inertia sends every term to the same round disk,
at the price of unbounded normalizing diagonals.  A family conjugated by
those same diagonals is recognized as bounded once renormalized.
"""

import numpy as np

from projconvex import domain as dm, normalize as nm


def boost(t):
    return np.array([[np.cosh(t), 0, np.sinh(t)],
                     [0, 1, 0],
                     [np.sinh(t), 0, np.cosh(t)]])


print("ellipses with semi-axes (1, 1/k), trivial holonomy:")
doms, terms = [], []
for k in range(1, 25):
    doms.append(dm.ConvexDomain.ellipsoid([0.0, 0.0],
                                          np.diag([1.0, float(k * k)])))
    terms.append([np.eye(3)])
rep = nm.analyze_sequence(nm.RepSequence(["a"], terms, doms))
print("  ||D_k||:", [round(v, 2) for v in rep.d_norms[:8]], "...")
print(f"  fitted slope of log||D_k||: {rep.slope:.4f}"
      f" -> verdict: {rep.verdict}")
print("  normalized domains agree with the round disk to",
      max(rep.domain_residuals))

print("\nboosts conjugated by diag(k, 1, 1/k), domains squashed to match:")
doms2, terms2 = [], []
base = boost(0.9)
for k in range(1, 25):
    dk = np.diag([float(k), 1.0, 1.0 / k])
    terms2.append([dk @ base @ np.linalg.inv(dk)])
    doms2.append(dm.ConvexDomain.ellipsoid(
        [0.0, 0.0], np.diag([1.0 / float(k) ** 4, 1.0 / float(k) ** 2])))
rep2 = nm.analyze_sequence(nm.RepSequence(["a"], terms2, doms2))
raw = [s.raw_max_entry for s in rep2.steps]
ren = [s.max_entry for s in rep2.steps]
print(f"  raw generator entries blow up: {raw[0]:.2f} -> {raw[-1]:.2f}")
print(f"  renormalized entries stay put: {ren[0]:.2f} -> {ren[-1]:.2f}")
print(f"  verdict: {rep2.verdict}")
print("  bottom-right entry preserved by the diagonal conjugation:",
      max(s.corner_dev for s in rep2.steps))

print("\nbounded invariant-subspace sweep on the renormalized limit:")
witness = nm.invariant_subspace_search(rep2.limit_matrices, max_word_len=3)
if witness is None:
    print("  none found up to word length 3")
else:
    print(f"  witness of dimension {witness.dim} from word {witness.word}"
          f" (a single boost preserves its eigen-lines)")
