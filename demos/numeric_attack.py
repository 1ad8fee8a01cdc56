"""Invert multi-instance traces with the damped least-squares solver.

For n instances the per-transition equations no longer separate, so the
attack forms the full residual system and, from several start points,
takes Gauss-Newton steps with an analytic Jacobian, then
Levenberg-Marquardt where those do not land on a root.  The system only
determines the instances up to reordering, hence the permutation-aware
match at the end.
"""

from traceinv import (
    Dataset,
    ReconstructionProblem,
    SolverConfig,
    TrainConfig,
    match_solutions,
    solve,
    train,
)


def attack(secret, epochs):
    trace = train(secret, TrainConfig(eta=0.1, epochs=epochs))
    problem = ReconstructionProblem(trace)
    print(f"n={secret.n}: {problem.num_residuals} equations, "
          f"{problem.num_unknowns} unknowns")
    res = solve(problem, SolverConfig(seed=0))
    print(f"  converged={res.converged} after {res.iterations} iterations "
          f"on start {res.starts_tried - 1} "
          f"(residual max-norm {res.residual_norm:.2e})")
    for i in range(res.recovered.n):
        print(f"  instance {i}: x={res.recovered.xs[i]: .9f} "
              f"y={res.recovered.ys[i]: .9f}")
    rep = match_solutions(res.recovered, secret)
    print(f"  vs truth: pairing {rep.pairing}, "
          f"worst coordinate error {rep.max_abs_error:.2e}\n")


# two instances, minimal number of epochs (n+1)
attack(Dataset([0.6, 0.2], [0.5, 0.4]), epochs=3)

# four instances, five epochs; needs the multi-start machinery
attack(Dataset([0.6, 0.2, 0.1, 0.9], [0.5, 0.4, 0.3, 0.6]), epochs=5)
