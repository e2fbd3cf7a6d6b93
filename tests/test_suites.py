from dataclasses import replace

import numpy as np
import pytest

from modpoisson import gegenbauer, suites


def test_kernel_identity_check_is_order_independent():
    # the last identity's samples follow those of the seven before it in one
    # stream; each call replays that stream from a fresh generator, so draws
    # made elsewhere in between change nothing
    first = suites.kernel_identity("viii", 2024)
    np.random.default_rng(2024).normal(size=100)
    np.random.normal(size=100)
    suites.sharpness_band_sign_control(2024)
    second = suites.kernel_identity("viii", 2024)
    assert first.residual == second.residual
    assert first.passed


def test_sharpness_constants_fail_without_the_reflection_amplitude(monkeypatch):
    # with the super extension's mirrored balls switched off, the far-cone
    # integral turns negative, and the reflection-amplitude term must see it
    from modpoisson import sharpness

    real = sharpness.compute_constants
    assert suites.sharpness_constants().passed
    monkeypatch.setattr(sharpness, "compute_constants",
                        lambda lam, big_m: replace(real(lam, big_m), reflection_amp=0.0))
    assert not suites.sharpness_constants().passed


def test_sharpness_constants_fail_on_a_perturbed_gamma(monkeypatch):
    # gamma is checked against C_m^lam(1) from the three-term recurrence, not
    # against the log-gamma expression that computed it, so an error shows
    real = suites.compute_constants
    monkeypatch.setattr(suites, "compute_constants",
                        lambda lam, big_m: replace(real(lam, big_m),
                                                   gamma=real(lam, big_m).gamma * (1 + 1e-9)))
    assert not suites.sharpness_constants().passed


def test_a_nan_residual_fails_its_check(monkeypatch):
    # one kernel-identity sample that evaluates to NaN, after finite ones,
    # must fail the check rather than vanish from its max
    real = suites.kernel_identity_residual
    calls = []

    def one_nan(*args, **kwargs):
        calls.append(None)
        return float("nan") if len(calls) == 3 else real(*args, **kwargs)

    monkeypatch.setattr(suites, "kernel_identity_residual", one_nan)
    report = suites.kernel_identity("i", 42)
    assert len(calls) > 3
    assert np.isnan(report.residual)
    assert not report.passed


@pytest.mark.parametrize("seed", [42, 7])
def test_a_planted_tail_coefficient_error_fails_every_kernel_identity(monkeypatch, seed):
    # a 1e-9 relative error in the C_2 term of the Gegenbauer tails lifts
    # every identity's residual to 1.1e-9 or more, above its tolerance; a
    # central difference of step 1e-4 left residuals of 1.6e-8 to 3.1e-7
    # without it, and so could not see it
    real = gegenbauer.weighted_sum

    def planted(lam, terms, t, z):
        out = real(lam, terms, t, z)
        return out + 1e-9 * z**2 * gegenbauer.value(lam, 2, t) if terms > 2 else out

    monkeypatch.setattr(gegenbauer, "weighted_sum", planted)
    for identity in suites.KERNEL_IDENTITIES:
        report = suites.kernel_identity(identity, seed)
        assert not report.passed and report.residual > 1e-9, (identity, report.residual)
