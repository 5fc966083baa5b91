"""Problems that exist only to exercise the solver in tests."""

import numpy as np

from semdde.errors import InvalidArgumentError
from semdde.problems import DdeProblem


def state_eval_example() -> DdeProblem:
    """The self-referencing rhs y'(t) = y(y(t)); exercises evaluator
    plumbing with state-dependent query points.

    The current state value is used directly as the lag, so it must lie
    in the history window [-1, 0].
    """

    def rhs(e, p):
        now = e(0.0)
        if np.any(now < -1.0) or np.any(now > 0.0):
            raise InvalidArgumentError(
                "state used as a lag must lie in [-1, 0], got values in "
                f"[{float(np.min(now))}, {float(np.max(now))}]")
        return e(now)

    return DdeProblem(
        name="state_eval_example",
        dim=1,
        num_params=0,
        rhs=rhs,
        equilibrium=np.array([0.0]),
    )
