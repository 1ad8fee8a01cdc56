"""How trace precision decides whether the attack verifies.

The reconstruction can be checked without ever seeing the secret data:
retrain from the trace's epoch-0 parameters on the recovered dataset
and compare the two traces epoch by epoch.  With a lossless trace the
replay agrees to ~1e-15 and the strict 1e-8 check passes.  A 7-digit
observer still recovers the data to a few 1e-4, but the recovered point
solves the *rounded* equations, so the replay deviates around 1e-7 and
the strict check reports FAIL; with all five rounded epochs the
overdetermined system is slightly inconsistent and no exact root exists
at all.  The solver then stops at the first start whose residual lies
within the trace's rounding quantum (``within_precision``) instead of
trying every start.  Precision of the broadcast, not secrecy of the
data, is what limits this attack.
"""

from traceinv import (
    Dataset,
    ReconstructionProblem,
    SolverConfig,
    TrainConfig,
    dumps_trace,
    loads_trace,
    match_solutions,
    solve,
    train,
    verify_reconstruction,
)

secret = Dataset([0.6, 0.2], [0.5, 0.4])
trace = train(secret, TrainConfig(eta=0.1, epochs=5))


def attempt(label, observed):
    res = solve(ReconstructionProblem(observed), SolverConfig(seed=0))
    line = (f"{label}: converged={res.converged} "
            f"within_precision={res.within_precision} "
            f"starts_tried={res.starts_tried} residual={res.residual_norm:.1e}")
    rep = match_solutions(res.recovered, secret)
    line += f" worst-coordinate error vs secret={rep.max_abs_error:.1e}"
    print(line)
    check = verify_reconstruction(trace, res.recovered)
    print(f"  retrain check on the lossless trace: "
          f"{'PASS' if check.passed else 'FAIL'} "
          f"(max deviation {check.max_deviation:.1e})\n")


# lossless trace: exact recovery, replay matches to machine precision
attempt("lossless, 5 epochs", trace)

# 7 significant digits, minimal 3-epoch system: square and consistent,
# so the solver still nails a nearby root
seven = loads_trace(dumps_trace(trace, digits=7))
attempt("7 digits,  3 epochs", seven.truncated(3))

# 7 significant digits, all 5 epochs: 8 equations, 4 unknowns, and the
# rounding noise leaves no exact root -- honest non-convergence, found
# by one start that lands within the rounding quantum
attempt("7 digits,  5 epochs", seven)
