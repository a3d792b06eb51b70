"""Amplitude and initial-condition fits plus the accuracy metric."""

import numpy as np
import pytest

from dynlaw.errors import ZeroSignal
from dynlaw.fitting import (
    AmplitudeFit,
    InitialConditionFit,
    accuracy,
    fit_amplitudes,
    fit_initial_conditions,
    mode_basis,
    reconstruct,
)
from dynlaw.spectral import LinearLaw


def unit(w):
    w = np.asarray(w, dtype=float)
    return w / np.linalg.norm(w)


def test_single_real_mode():
    seg = 3.0 * 0.5 ** np.arange(10)
    fit = fit_amplitudes(np.array([2.0 + 0j]), seg)
    np.testing.assert_allclose(fit.coefficients, [3.0], atol=1e-12)
    assert fit.rms_error < 1e-12
    np.testing.assert_allclose(reconstruct(fit, 3), [3.0, 1.5, 0.75], atol=1e-12)


def test_sine_amplitudes_match_euler_decomposition():
    # sin(pi k/3) = (i/2) e^{+i pi/3 * (-k)} ... amplitude +i/2 sits on
    # the root with positive imaginary part, -i/2 on its conjugate
    k = np.arange(30)
    seg = np.sin(np.pi / 3 * k)
    q = np.array([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    fit = fit_amplitudes(q, seg)
    assert fit.rms_error < 1e-12
    amps = fit.model.amplitudes
    assert abs(amps[0] - 0.5j) < 1e-10
    assert abs(amps[1] + 0.5j) < 1e-10
    np.testing.assert_allclose(reconstruct(fit, 30), seg, atol=1e-10)


def test_two_sine_amplitudes_match_generator_parameters():
    # A sin(wk + phi) carries amplitude (A/2)(sin phi + i cos phi) on e^{+iw}
    gens = [(1.0, np.pi / 3, 0.25), (0.8, np.pi / 5, 1.3)]
    k = np.arange(60)
    seg = sum(a * np.sin(w * k + p) for a, w, p in gens)
    q = []
    for _, w, _ in gens:
        q.extend([np.exp(1j * w), np.exp(-1j * w)])
    fit = fit_amplitudes(np.array(q), seg)
    assert fit.rms_error < 1e-9
    for tone, (a, w, p) in enumerate(gens):
        c = fit.model.amplitudes[2 * tone]
        expected = 0.5 * a * (np.sin(p) + 1j * np.cos(p))
        assert abs(c - expected) < 1e-9


def test_ic_fit_on_exact_law_data():
    w = unit([1.0, -1.0, 1.0])
    law = LinearLaw(weights=w, eigenvalue=0.0)
    seg = np.sin(np.pi / 3 * np.arange(40) + 0.6)
    fit = fit_initial_conditions(law, seg)
    np.testing.assert_allclose(fit.initial, seg[:2], atol=1e-9)
    assert fit.rms_error < 1e-10
    np.testing.assert_allclose(reconstruct(fit, 40), seg, atol=1e-9)


def test_ic_fit_constant_law_is_mean():
    law = LinearLaw(weights=unit([1.0, -1.0]), eigenvalue=0.0)
    fit = fit_initial_conditions(law, np.array([4.9, 5.1, 5.0]))
    assert abs(fit.initial[0] - 5.0) < 1e-12
    np.testing.assert_allclose(reconstruct(fit, 3), [5.0, 5.0, 5.0], atol=1e-12)


def test_fibonacci_reconstruction_from_seeds():
    law = LinearLaw(weights=unit([1.0, -1.0, -1.0]), eigenvalue=0.0)
    fit = InitialConditionFit(law=law, initial=np.array([1.0, 1.0]), rms_error=0.0)
    np.testing.assert_array_equal(reconstruct(fit, 6), [1, 1, 2, 3, 5, 8])


def test_cross_method_agreement_on_noisy_sine():
    rng = np.random.default_rng(55)
    k = np.arange(120)
    clean = np.sin(np.pi / 3 * k + 0.4)
    seg = clean + 0.01 * rng.standard_normal(k.size)
    law = LinearLaw(weights=unit([1.0, -1.0, 1.0]), eigenvalue=0.0)
    q = np.array([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    amp = fit_amplitudes(q, seg)
    ic = fit_initial_conditions(law, seg)
    assert 0.002 < amp.rms_error < 0.05  # ~ the injected noise level
    assert 0.002 < ic.rms_error < 0.05
    assert max(amp.rms_error, ic.rms_error) < 2.0 * min(amp.rms_error, ic.rms_error)


def test_exact_class_paths_agree_elementwise():
    k = np.arange(80)
    seg = np.sin(np.pi / 3 * k + 0.9) + 0.5 * np.sin(np.pi / 5 * k + 0.1)
    z1, z2 = -2.0 * np.cos(np.pi / 3), -2.0 * np.cos(np.pi / 5)
    w = unit([1.0, z1 + z2, 2.0 + z1 * z2, z1 + z2, 1.0])
    law = LinearLaw(weights=w, eigenvalue=0.0)
    q = np.array([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3),
                  np.exp(1j * np.pi / 5), np.exp(-1j * np.pi / 5)])
    a = reconstruct(fit_amplitudes(q, seg), 80)
    b = reconstruct(fit_initial_conditions(law, seg), 80)
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_amplitude_stationarity():
    rng = np.random.default_rng(77)
    seg = np.sin(0.7 * np.arange(50)) + 0.05 * rng.standard_normal(50)
    q = np.array([np.exp(0.7j), np.exp(-0.7j)])
    fit = fit_amplitudes(q, seg)
    basis = mode_basis(q, 50)
    chi2 = float(np.sum((seg - basis @ fit.coefficients) ** 2))
    for _ in range(20):
        d = rng.standard_normal(fit.coefficients.size)
        d = 1e-3 * d / np.linalg.norm(d)
        perturbed = float(np.sum((seg - basis @ (fit.coefficients + d)) ** 2))
        assert perturbed >= chi2


def test_ic_stationarity():
    rng = np.random.default_rng(78)
    seg = np.sin(np.pi / 3 * np.arange(50)) + 0.05 * rng.standard_normal(50)
    law = LinearLaw(weights=unit([1.0, -1.0, 1.0]), eigenvalue=0.0)
    fit = fit_initial_conditions(law, seg)
    chi2 = float(np.sum((seg - reconstruct(fit, 50)) ** 2))
    for _ in range(20):
        d = rng.standard_normal(2)
        d = 1e-3 * d / np.linalg.norm(d)
        shifted = InitialConditionFit(law=law, initial=fit.initial + d, rms_error=0.0)
        perturbed = float(np.sum((seg - reconstruct(shifted, 50)) ** 2))
        assert perturbed >= chi2


def test_scaling_equivariance():
    seg = np.sin(np.pi / 3 * np.arange(40) + 0.2)
    q = np.array([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    law = LinearLaw(weights=unit([1.0, -1.0, 1.0]), eigenvalue=0.0)
    alpha = 7.5
    base_amp = fit_amplitudes(q, seg)
    scaled_amp = fit_amplitudes(q, alpha * seg)
    np.testing.assert_allclose(scaled_amp.coefficients, alpha * base_amp.coefficients, atol=1e-9)
    base_ic = fit_initial_conditions(law, seg)
    scaled_ic = fit_initial_conditions(law, alpha * seg)
    np.testing.assert_allclose(scaled_ic.initial, alpha * base_ic.initial, atol=1e-9)
    a0 = accuracy(seg, reconstruct(base_amp, 40))
    a1 = accuracy(alpha * seg, reconstruct(scaled_amp, 40))
    assert abs(a0 - a1) < 1e-9


def test_accuracy_trivial_values():
    x = np.array([3.0, 4.0])
    assert accuracy(x, x) == 1.0
    assert accuracy(x, np.zeros(2)) == 0.0
    assert abs(accuracy(x, np.array([3.0, 0.0])) - 0.2) < 1e-15


def test_accuracy_guards():
    with pytest.raises(ZeroSignal):
        accuracy(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        accuracy(np.ones(3), np.ones(4))


def test_exact_data_is_reproduced_almost_losslessly():
    # a law that annihilates every window of a segment pins the segment
    # up to rounding; both payload fits must then reach A ~ 1
    from dynlaw.embedding import EmbeddingConfig, TimeSeries, embed
    from dynlaw.lawforms import weights_to_roots
    from dynlaw.signal_io import SynthSpec, lcg_uniform, synthesize
    from dynlaw.spectral import correlation, eigendecompose, extract_law

    def own_law(seg, n):
        cfg = EmbeddingConfig(n=n, stride=1)
        ts = TimeSeries(samples=seg, sample_rate=1.0)
        c = correlation(embed(ts, cfg))
        law = extract_law(eigendecompose(c), cfg)
        assert law.eigenvalue < 1e-12 * np.trace(c.entries)
        return law

    k = np.arange(160)
    clean = np.sin(np.pi / 3 * k + 0.9) + 0.5 * np.sin(np.pi / 5 * k + 0.1)
    law = own_law(clean, 4)
    amp = fit_amplitudes(weights_to_roots(law), clean)
    assert accuracy(clean, reconstruct(amp, 160)) >= 1.0 - 1e-6
    ic = fit_initial_conditions(law, clean)
    assert accuracy(clean, reconstruct(ic, 160)) >= 1.0 - 1e-6

    # 16 samples with an 8th-order law: windows are rank deficient, so an
    # exact law exists for ANY data; the amplitude path must hold there too
    tone = synthesize(
        SynthSpec(kind="sine", length=16, sample_rate=12.0, frequencies=(1.0,))
    )
    rough = tone.samples + 0.01 * lcg_uniform(5, 16)
    law = own_law(rough, 8)
    amp = fit_amplitudes(weights_to_roots(law), rough)
    assert accuracy(rough, reconstruct(amp, 16)) >= 1.0 - 1e-6


def test_deep_interior_root_overflows_basis():
    # q = 1e-3 means q^{-k} = 1000^k, past float range well before k = 120
    from dynlaw.errors import SingularNormalMatrix

    with pytest.raises(SingularNormalMatrix):
        fit_amplitudes(np.array([1e-3 + 0j]), np.ones(120))
    # a root at the origin divides by zero at k = 1: the same rejection,
    # with no numpy warning on the way
    with pytest.raises(SingularNormalMatrix):
        fit_amplitudes(np.array([0j]), np.ones(120))


def test_exploding_law_rejected_for_ic_fit():
    from dynlaw.errors import UnstableBasis

    law = LinearLaw(weights=unit([1.0, -2.0]), eigenvalue=0.0)
    with pytest.raises(UnstableBasis):
        fit_initial_conditions(law, 2.0 ** np.arange(400))


def test_segment_shorter_than_mode_count_rejected():
    q = np.array([np.exp(0.5j), np.exp(-0.5j)])
    with pytest.raises(ValueError):
        fit_amplitudes(q, np.array([1.0]))
    law = LinearLaw(weights=unit([1.0, -1.0, 1.0]), eigenvalue=0.0)
    with pytest.raises(ValueError):
        fit_initial_conditions(law, np.array([1.0]))
