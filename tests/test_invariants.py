"""Properties every robust-Poisson fit must have, whatever the sample.

Samples come from the ``simple`` and ``moderate`` scenarios with both of
their specifications; none of them has an A interaction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from riskratio import (
    build_design_matrix,
    coefficient_rr,
    fit_robust_poisson,
    generate,
    marginal_rr,
    parse_spec,
)
from riskratio.rng import stream
from riskratio.simlab import get_scenario

samples = st.tuples(
    st.sampled_from(["simple", "moderate"]),
    st.sampled_from(["simple_spec", "rich_spec"]),
    st.integers(0, 2**32 - 1),
)


def fit(data, scenario, spec):
    terms = parse_spec(getattr(get_scenario(scenario), spec))
    dm = build_design_matrix(data, terms, exposure="A")
    return fit_robust_poisson(dm, data.y)


def draw(scenario, seed):
    return generate(scenario, 400, rng=stream(900, seed))


@settings(max_examples=20)
@given(samples)
def test_row_permutation_leaves_the_fit_unchanged(sample):
    scenario, spec, seed = sample
    data = draw(scenario, seed)
    base = fit(data, scenario, spec)
    permuted = fit(data.take(stream(901, seed).permutation(data.n)), scenario, spec)
    np.testing.assert_allclose(permuted.beta, base.beta, rtol=1e-10)
    np.testing.assert_allclose(permuted.cov_sandwich, base.cov_sandwich, rtol=1e-10)


@settings(max_examples=20)
@given(samples)
def test_recoding_the_exposure_inverts_the_rr(sample):
    scenario, spec, seed = sample
    data = draw(scenario, seed)
    base = fit(data, scenario, spec)
    recoded = fit(data.with_column("A", 1.0 - data.column("A")), scenario, spec)
    j = base.design.exposure_cols[0]
    est, inv = coefficient_rr(base, j), coefficient_rr(recoded, j)
    np.testing.assert_allclose(inv.rr, 1.0 / est.rr, rtol=1e-10)
    np.testing.assert_allclose(inv.se_log_rr, est.se_log_rr, rtol=1e-8)


@settings(max_examples=20)
@given(samples)
def test_standardized_rr_without_interaction_is_the_coefficient_rr(sample):
    scenario, spec, seed = sample
    data = draw(scenario, seed)
    result = fit(data, scenario, spec)
    beta_a = result.beta[result.design.exposure_cols[0]]
    np.testing.assert_allclose(marginal_rr(result, data).rr, np.exp(beta_a),
                               rtol=1e-12)


@settings(max_examples=20)
@given(samples, st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
def test_affine_rescale_of_a_covariate_leaves_the_exposure_coefficient(
        sample, a, b):
    # Knots follow L1's quantiles, so every column of L1's terms is rescaled
    # and the intercept absorbs the shift; the column space is unchanged.
    scenario, spec, seed = sample
    data = draw(scenario, seed)
    base = fit(data, scenario, spec)
    rescaled = fit(data.with_column("L1", a * data.column("L1") + b), scenario, spec)
    j = base.design.exposure_cols[0]
    np.testing.assert_allclose(rescaled.beta[j], base.beta[j], rtol=1e-8)
