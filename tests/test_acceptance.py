"""Acceptance gate: every headline criterion at its contracted tolerance.

Each test prints one PASS/FAIL line with the measured and expected values,
mirroring the CLI ``verify`` command (both run the same registry).
"""

import pytest

from gauss_spectra.acceptance import CRITERIA, VerifyConfig, run_criterion

CFG = VerifyConfig()

# Short names for the test ids, so that rewording a criterion's title does not
# rename its test.
TEST_IDS = {
    "c01": "Khintchine constant",
    "c02": "Lyapunov constant",
    "c03": "Pressure normalization P(1,0)=0",
    "c04": "Boundary identity P(0,q)=log zeta(-q)",
    "c05": "Derivative anchors at (1,0)",
    "c06": "Pressure sandwich and convexity",
    "c07": "Cylinder-sum oracle equivalence",
    "c08": "Spectrum peaks at (1,0)",
    "c09": "Khintchine spectrum shape",
    "c10": "Lyapunov route equivalence",
    "c11": "Bounded-digit dimension {1,2}",
    "c12": "Fast spectrum and Cantor dimensions",
    "c13": "Constructed point exponents",
    "c14": "Gibbs sampling ergodicity",
    "c15": "Exact-arithmetic property suite",
}


@pytest.mark.parametrize("cid", [c for c, _, _ in CRITERIA],
                         ids=lambda cid: f"{cid}-{TEST_IDS[cid]}")
def test_criterion(cid):
    result = run_criterion(cid, CFG)
    title = result.title
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {cid} {title}: measured {result.measured} | "
          f"expected {result.expected} | tolerance {result.tolerance} | "
          f"{result.runtime:.2f}s of {result.budget:.0f}s budget")
    assert result.passed, (
        f"{cid} {title}: measured {result.measured}, expected {result.expected} "
        f"(tolerance {result.tolerance}, runtime {result.runtime:.2f}s/"
        f"{result.budget:.0f}s)")
