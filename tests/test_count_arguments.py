"""Every count argument is tested by one rule, ``operator.index``: a Python
or numpy integer (``bool`` too, as ``True`` is 1) is a count, and a float or
a numpy bool is not, whatever its value."""

import numpy as np
import pytest

import arctangr as A

PARAMS = A.ArctanGRParams(1.0, 2.0)

COUNT_ARGUMENTS = {
    "agr_moment r": lambda v: A.agr_moment(PARAMS, v),
    "agr_sample n": lambda v: A.agr_sample(PARAMS, v, seed=1),
    # seed 4 puts all 3 draws above VaR, so n = 3 gives a result
    "mc_oracle n": lambda v: A.mc_oracle(PARAMS, 0.55, v, 4),
    "information_criteria n": lambda v: A.information_criteria(-1.0, v, 0),
    "information_criteria r": lambda v: A.information_criteria(-1.0, 10, v),
}

# True is 1, below information_criteria's least sample size (3)
INTEGERS = [(name, value, as_int) for name in COUNT_ARGUMENTS
            for value, as_int in ((3, 3), (np.int64(3), 3), (True, 1))
            if (name, value) != ("information_criteria n", True)]


def outcome(call, value):
    """What ``call(value)`` gives: its result, or its error's type and message."""
    try:
        result = call(value)
    except A.DomainError as exc:
        return "DomainError", str(exc)
    return "ok", np.asarray(result).tolist()


@pytest.mark.parametrize("name, value, as_int", INTEGERS)
def test_integers_are_counts(name, value, as_int):
    got = outcome(COUNT_ARGUMENTS[name], value)
    assert got == outcome(COUNT_ARGUMENTS[name], as_int)
    assert got[0] == "ok" or "integer" not in got[1]


@pytest.mark.parametrize("name", COUNT_ARGUMENTS)
@pytest.mark.parametrize("value", [2.0, np.float64(3), np.True_],
                         ids=["float", "np.float64", "np.True_"])
def test_non_integers_are_domain_errors(name, value):
    with pytest.raises(A.DomainError, match="integer"):
        COUNT_ARGUMENTS[name](value)
