#!/usr/bin/env python3
"""Why the jump term exists: smooth flows cannot reorder trajectories.

Two nodes share one scalar field.  Run them from identical starts with the
compensator off and they stay identical forever.  Run them mirrored with a
constructed compensator on and they swap order within a step, which no
amount of smooth dynamics could do.
"""

from odegate.cli import crossing_legs

off, on = crossing_legs()

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
