"""When does a trace even have enough equations to pin down the data?

For a fully connected network with L layers of width l, trained on I
instances, every observed parameter update (one per epoch transition)
contributes l*(l+1)*(L-1) equations (l weights plus one bias per
receiving node), against l*L*I unknown node values.  Comparing the
counts gives a quick necessary condition and the minimum number of
updates an attacker must observe; roughly, updates >= instances/width.
The "epochs" below count updates, so a trace must record one epoch
more: for one neuron on 2 instances, min epochs 2 means a trace of 3
recorded epochs.  Counting says nothing about whether the nonlinear
system is actually solvable, hence "heuristic".

Equivalent CLI: ``traceinv feasibility --width 1 --layers 2
--instances 2 --epochs 5``.
"""

from traceinv import NetworkShape, feasibility

shapes = [
    ("one neuron, 2 instances, 5 epochs", NetworkShape(1, 2, 2, 5)),
    ("one neuron, 5 instances, 3 epochs", NetworkShape(1, 2, 5, 3)),
    ("width 4, 3 layers, 100 instances, 20 epochs", NetworkShape(4, 3, 100, 20)),
    ("width 8, 5 layers, 1000 instances, 30 epochs", NetworkShape(8, 5, 1000, 30)),
]

print(f"{'shape':<45} {'unknowns':>8} {'equations':>9} "
      f"{'feasible':>8} {'min epochs':>10}")
for label, shape in shapes:
    rep = feasibility(shape)
    print(f"{label:<45} {rep.unknowns:>8} {rep.equations:>9} "
          f"{'yes' if rep.feasible else 'no':>8} {rep.min_epochs:>10}")

rep = feasibility(shapes[0][1])
print(f"\nnote: {rep.label}")
