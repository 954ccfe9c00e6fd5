"""A numeric argument that reads as no number of its kind raises the
package's own error: :class:`DataError` for a sample, :class:`DomainError`
for any other argument (a parameter, a log-likelihood, a point, a
probability, a seed), never Python's or numpy's bare ``TypeError``,
``ValueError`` or ``OverflowError``.  Text stays refused as a parameter."""

import numpy as np
import pytest

import arctangr as A

PARAMS = A.ArctanGRParams(1.0, 2.0)
BASE = A.gaussian_base(A.GaussianParams(0.0, 1.0))

# (name, call, the error it raises): each was a bare error before
BAD_NUMBERS = [
    ("ArctanGRParams text omega", lambda: A.ArctanGRParams("a", 1), A.DomainError),
    ("ArctanGRParams numeric text psi", lambda: A.ArctanGRParams(0, "1.5"), A.DomainError),
    ("ArctanGRParams bytes psi", lambda: A.ArctanGRParams(0, b"1.5"), A.DomainError),
    ("ArctanGRParams huge omega", lambda: A.ArctanGRParams(10**400, 1), A.DomainError),
    ("ArctanGRParams complex psi", lambda: A.ArctanGRParams(0, 1 + 0j), A.DomainError),
    ("GaussianParams huge eta", lambda: A.GaussianParams(0, 10**400), A.DomainError),
    ("GaussianParams None omega", lambda: A.GaussianParams(None, 1), A.DomainError),
    ("RayleighParams None", lambda: A.RayleighParams(None), A.DomainError),
    ("RayleighParams text", lambda: A.RayleighParams("2"), A.DomainError),
    ("information_criteria text", lambda: A.information_criteria("x", 10, 2), A.DomainError),
    ("information_criteria None", lambda: A.information_criteria(None, 10, 2), A.DomainError),
    ("LossDataset huge value", lambda: A.LossDataset([10**400, 1.0], "inline", "x"),
     A.DataError),
    ("agr_pdf text", lambda: A.agr_pdf(PARAMS, "abc"), A.DomainError),
    ("agr_logpdf ragged", lambda: A.agr_logpdf(PARAMS, [[1.0], [2.0, 3.0]]), A.DomainError),
    ("agr_quantile complex", lambda: A.agr_quantile(PARAMS, [1 + 1j]), A.DomainError),
    ("agr_quantile huge", lambda: A.agr_quantile(PARAMS, 10**400), A.DomainError),
    ("agr_cdf huge", lambda: A.agr_cdf(PARAMS, 10**400), A.DomainError),
    ("agr_hazard huge in a list", lambda: A.agr_hazard(PARAMS, [1.0, 10**400]), A.DomainError),
    ("gaussian_pdf text", lambda: A.gaussian_pdf(A.GaussianParams(0, 1), "abc"),
     A.DomainError),
    ("arctan_cdf huge", lambda: A.arctan_cdf(BASE, 10**400), A.DomainError),
    # a complex array, whose cast to float would drop the imaginary part
    ("agr_cdf complex array", lambda: A.agr_cdf(PARAMS, np.array([1 + 1j])), A.DomainError),
    ("agr_quantile complex array", lambda: A.agr_quantile(PARAMS, np.array([0.5 + 0j])),
     A.DomainError),
    ("arctan_cdf complex array", lambda: A.arctan_cdf(BASE, np.array([[0.5 + 1j]])),
     A.DomainError),
    ("agr_sample negative seed", lambda: A.agr_sample(PARAMS, 3, seed=-1), A.DomainError),
    ("agr_sample float seed", lambda: A.agr_sample(PARAMS, 3, seed=1.5), A.DomainError),
    ("mc_oracle negative seed", lambda: A.mc_oracle(PARAMS, 0.9, 100, -1), A.DomainError),
]


@pytest.mark.parametrize("call, error", [case[1:] for case in BAD_NUMBERS],
                         ids=[case[0] for case in BAD_NUMBERS])
def test_a_bad_number_raises_the_packages_error(call, error):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
