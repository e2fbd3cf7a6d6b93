"""Acceptance criteria, one test per criterion.

Each test runs the checks of `modpoisson.suites` that certify its criterion
(the same functions `modpoisson verify` runs, so their samples and
tolerances live there) and pins the seed and the wall-time bound here.
Each check draws from a fresh generator, so no result depends on test
order.  Each test prints a single pass/fail line (run with -s to stream
them); together they are the exit gate for the package.
"""

import time
from functools import partial

from modpoisson import suites

SEED = 2024       # criteria 3 and 5 sample; the other criteria ignore it
SIGN_SEED = 42    # the criterion-8 sign checks


def certify(criterion, checks, time_bound, seed=SEED):
    """Run each check at `seed` and assert that all pass within the time
    bound."""
    start = time.time()
    reports = [check(seed) for check in checks]
    elapsed = time.time() - start
    passed = all(r.passed for r in reports) and elapsed < time_bound
    residuals = " ".join(f"{r.name}={r.residual:.2e}" for r in reports)
    line = f"{'PASS' if passed else 'FAIL'} [{criterion}] {residuals} time={elapsed:.1f}s"
    print(line)
    assert passed, line


class TestCriterion1GegenbauerOracle:
    def test_recurrence_against_generating_oracle(self):
        certify("criterion-1 gegenbauer-oracle",
                [suites.gegenbauer_generating_oracle, suites.gegenbauer_parity,
                 suites.gegenbauer_majorisation, suites.gegenbauer_contiguous_identities],
                time_bound=5.0)


class TestCriterion2KernelDualDefinition:
    def test_direct_vs_integral_representation(self):
        certify("criterion-2 kernel-dual-definition", [suites.kernel_dual_definition],
                time_bound=30.0)


class TestCriterion3Harmonicity:
    def test_families_solutions_and_order(self):
        certify("criterion-3 harmonicity",
                [suites.harmonicity_polynomial_families, suites.harmonicity_solutions,
                 suites.harmonicity_stencil_order],
                time_bound=180.0)


class TestCriterion4BoundaryConditions:
    def test_dirichlet_and_neumann_limits(self):
        certify("criterion-4 boundary-conditions",
                [suites.boundary_dirichlet, suites.boundary_neumann], time_bound=120.0)


class TestCriterion5KernelIdentities:
    def test_all_eight_identities(self):
        certify("criterion-5 kernel-identities",
                [partial(suites.kernel_identity, i) for i in suites.KERNEL_IDENTITIES],
                time_bound=60.0)


class TestCriterion6NeumannRepresentations:
    def test_nontrivial_anchor_equalities(self):
        certify("criterion-6 neumann-representations",
                [partial(suites.neumann_representation, r)
                 for r in suites.NEUMANN_REPRESENTATIONS],
                time_bound=300.0)


class TestCriterion7GrowthEstimates:
    def test_weighted_sup_sweeps(self):
        certify("criterion-7 growth-estimates",
                [suites.growth_modified_integral, suites.growth_dirichlet_solution,
                 suites.growth_neumann_solution, suites.growth_second_kind],
                time_bound=300.0)


class TestCriterion8Sharpness:
    def test_constants_signs_and_lower_bounds(self):
        certify("criterion-8 sharpness",
                [suites.sharpness_constants, suites.sharpness_band_sign,
                 suites.sharpness_band_sign_control, suites.sharpness_cone_sign,
                 suites.sharpness_half_ball_lower_bound,
                 suites.sharpness_super_ball_lower_bound],
                time_bound=300.0, seed=SIGN_SEED)


class TestCriterion9ExpansionExample:
    def test_exp_data_example(self):
        certify("criterion-9 expansion-example",
                [suites.expansion_leading_coefficient, suites.expansion_odd_coefficient,
                 suites.expansion_addition_reassembly, suites.expansion_addition_pointwise,
                 suites.expansion_remainder_decay],
                time_bound=300.0)


class TestCriterion10Divergence:
    def test_terms_grow_beyond_turning_order(self):
        certify("criterion-10 divergence", [suites.expansion_divergence], time_bound=1.0)
