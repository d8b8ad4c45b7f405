#!/usr/bin/env python3
"""Why the jump term exists: smooth flows cannot reorder trajectories.

Two nodes share one scalar field.  Run them from identical starts with the
compensator off and they stay identical forever.  Run them mirrored with a
constructed compensator on and they swap order within a step, which no
amount of smooth dynamics could do.
"""

from odegate.autodiff import Tensor
from odegate.dynamics import CompensatorParams, VectorFieldParams, evolve
from odegate.graph import SpatialGraph, normalize_adjacency

STEPS = 8
a_op = normalize_adjacency(SpatialGraph(n_nodes=2, edges=[]))
vf = VectorFieldParams(w_f=Tensor([[0.5]]), b_f=Tensor([0.0]))
comp = CompensatorParams([(Tensor([[-6.0]]), Tensor([0.0]))
                          for _ in range(STEPS)])

off = evolve(Tensor([[[0.2]], [[0.2]]]), STEPS, 1.0 / STEPS, a_op, vf,
             comp=None, mask_mode="off", collect_states=True)
on = evolve(Tensor([[[0.05]], [[-0.05]]]), STEPS, 1.0 / STEPS, a_op, vf,
            comp=comp, mask_mode="lte", collect_states=True)

print("leg A: identical starts, compensation off")
print(f"{'step':>4} {'node_0':>12} {'node_1':>12} {'identical':>10}")
for t, s in enumerate(off.states):
    x0, x1 = float(s[0, 0, 0]), float(s[1, 0, 0])
    print(f"{t:>4} {x0:>12.8f} {x1:>12.8f} {str(x0 == x1):>10}")

print("\nleg B: mirrored starts, compensation on")
print(f"{'step':>4} {'node_0':>12} {'node_1':>12} {'ordering':>10}")
for t, s in enumerate(on.states):
    x0, x1 = float(s[0, 0, 0]), float(s[1, 0, 0])
    order = "0 above" if x0 > x1 else "0 below"
    print(f"{t:>4} {x0:>12.8f} {x1:>12.8f} {order:>10}")

d0 = float(on.states[0][0, 0, 0] - on.states[0][1, 0, 0])
flip = next(t for t, s in enumerate(on.states)
            if (float(s[0, 0, 0] - s[1, 0, 0])) * d0 < 0)
print(f"\nthe gated jump reorders the nodes at step {flip}; "
      "the smooth flow alone preserves order for all time")
