"""Value-iteration references for the exact solvers, read only by the tests.

Each is ril.solvers._value_iteration under its own backup, so it shares
policy_q_iterative's stopping rule: the sup-norm update below
epsilon * (1 - gamma) / (2 * gamma), which bounds the value error by epsilon.
"""

from ril import Mdp, MdpStack, SolverParams, ValueTables, log_sum_exp_rows
from ril.solvers import _value_iteration


def optimal_q_iterative(m: Mdp | MdpStack, params: SolverParams = SolverParams()) -> ValueTables:
    """Value iteration with the max backup; independent cross-check for optimal_q."""
    return _value_iteration(m, params, lambda q: q.max(axis=-1))


def soft_q_iterative(m: Mdp | MdpStack, params: SolverParams = SolverParams()) -> ValueTables:
    """Value iteration with the (1/beta) LSE backup; cross-check for soft_q."""
    beta = params.beta
    return _value_iteration(m, params, lambda q: log_sum_exp_rows(beta * q) / beta)
