"""Amplitude and initial-condition fits plus the accuracy metric."""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynlaw._stack import lapack_rows
from dynlaw.codec import CodecParams, compress, sweep
from dynlaw.embedding import TimeSeries
from dynlaw import fitting
from dynlaw.errors import SingularNormalMatrix, UnstableBasis, ZeroSignal
from dynlaw.fitting import (
    _least_squares,
    AmplitudeFit,
    InitialConditionFit,
    accuracy,
    fit_amplitudes,
    fit_initial_conditions,
    least_squares,
    mode_basis,
    reconstruct,
)
from dynlaw.lawforms import conjugate_pairs
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


def test_accuracy_of_a_reference_whose_energy_underflows():
    # below a peak of about 1e-162 the squared norm underflows to 0; such
    # a reference is not all zero, and its accuracy is that of the same
    # signal at unit scale
    x = np.sin(0.3 * np.arange(512))
    y = x + 1e-3 * np.cos(np.arange(512))
    assert accuracy(1e-170 * x, 1e-170 * y) == pytest.approx(accuracy(x, y), rel=1e-12)
    assert accuracy(1e-170 * x, 0 * x) == 0.0
    with pytest.raises(ZeroSignal):
        accuracy(np.zeros(3), np.full(3, 1e-170))


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


def reference_mode_basis(q, count):
    """``mode_basis`` element by element in long double: a pair's columns
    rho^-k cos(theta k) and rho^-k sin(theta k) at its earlier root's
    place, a real root's q^-k at its own; rho and theta are the float64
    modulus (hypot) and angle of the pair's positive-frequency root."""
    k = np.arange(count, dtype=np.longdouble)
    pairs, reals = conjugate_pairs(q)
    columns = [(i, [np.longdouble(q[i].real) ** -k]) for i in reals]
    for i, j in pairs:
        rho = np.longdouble(np.hypot(q[i].real, q[i].imag))
        theta = np.longdouble(np.angle(q[i]))
        columns.append((min(i, j), [rho**-k * np.cos(theta * k), rho**-k * np.sin(theta * k)]))
    columns.sort(key=lambda column: column[0])
    return np.stack([c for _, pair in columns for c in pair], axis=-1)


@pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 48, 49, 50, 1023, 1024, 1025, 4095, 4096])
def test_mode_basis_matches_a_long_double_reference(count):
    # counts at and beside L^2, where the sqrt(count) power split changes
    rng = np.random.default_rng(count)
    # 0.8 <= |q| <= 1.25, pulled toward 1 on long counts so that no
    # column passes 1e260 within the count
    span = min(np.log(1.25), 600.0 / max(count, 1))
    for _ in range(3):
        radii = np.exp(rng.uniform(-span, span, 6))
        tops = radii[:4] * np.exp(1j * rng.uniform(0.05, np.pi - 0.05, 4))
        q = np.concatenate([tops, np.conj(tops), radii[4:] * [1.0, -1.0]])
        q = q[np.lexsort((q.imag, q.real))]
        basis, ref = mode_basis(q, count), reference_mode_basis(q, count)
        assert basis.shape == ref.shape == (count, q.size)
        # a sine column is all zero at count 1, and must be exactly so
        peak = np.max(np.abs(ref), axis=0, initial=0.0)
        assert np.all(np.abs(basis - ref) <= 1e-13 * peak)


def _block_with_law_root(root):
    """A 440 Hz tone block, then a block whose n=1 law has a root at 0
    (one nonzero sample at its end) or at 1e-3 (growth by 1000 per
    sample over its last 51 samples)."""
    tone = np.sin(2 * np.pi * 440 * np.arange(1024) / 8000.0)
    block = np.zeros(1024)
    if root == 0:
        block[-1] = 1.0
    else:
        block[-51:] = 1000.0 ** np.arange(51)
    return TimeSeries(np.concatenate([tone, block]), 8000.0)


@pytest.mark.parametrize("root", [0, 1e-3])
def test_mode_basis_overflow_still_fails_the_block(root):
    series = _block_with_law_root(root)
    reason = "mode basis overflowed; roots too far from the unit circle"
    with pytest.raises(SingularNormalMatrix, match=reason):
        compress(series, CodecParams(order_n=1, block_size=1024))
    report = sweep(series, (1, 2), (1,), 1024)
    assert report.rows == ()
    assert report.skipped == tuple((n, 1, f"SingularNormalMatrix: {reason}") for n in (1, 2))


def test_exploding_law_rejected_for_ic_fit():
    from dynlaw.errors import UnstableBasis

    law = LinearLaw(weights=unit([1.0, -2.0]), eigenvalue=0.0)
    with pytest.raises(UnstableBasis):
        fit_initial_conditions(law, 2.0 ** np.arange(400))


def test_reconstruct_rejects_an_object_that_is_not_a_fit():
    with pytest.raises(TypeError, match="cannot reconstruct from object"):
        reconstruct(object(), 4)


def test_segment_shorter_than_mode_count_rejected():
    q = np.array([np.exp(0.5j), np.exp(-0.5j)])
    with pytest.raises(ValueError):
        fit_amplitudes(q, np.array([1.0]))
    law = LinearLaw(weights=unit([1.0, -1.0, 1.0]), eigenvalue=0.0)
    with pytest.raises(ValueError):
        fit_initial_conditions(law, np.array([1.0]))


def test_stacked_solve_isolates_failing_systems_and_retries_only_them():
    rng = np.random.default_rng(17)
    good = rng.standard_normal((64, 3))
    twin = good.copy()
    twin[:, 2] = twin[:, 1]  # singular normal matrix: only the ridge retry solves it
    bases = np.stack([good, twin, good * 1e3])
    ys = rng.standard_normal((3, 64))
    coef, errors = _least_squares(np.swapaxes(bases, -1, -2), ys)
    assert errors == {}
    for basis, y, got in zip(bases, ys, coef):
        assert got.tobytes() == least_squares(basis, y).tobytes()
    grams = np.stack([np.eye(2), -np.eye(2), 2.0 * np.eye(2), -np.eye(2)])
    (lower,), failed = lapack_rows(lambda a: (np.linalg.cholesky(a),), grams)
    assert sorted(failed) == [1, 3]
    assert all(isinstance(exc, np.linalg.LinAlgError) for exc in failed.values())
    np.testing.assert_array_equal(lower, [np.eye(2), np.sqrt(2.0) * np.eye(2)])


def _exact_least_squares(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of the rows of ``basis`` against ``y``,
    solved in exact arithmetic and rounded once.  np.linalg.lstsq is no
    oracle here: where y is nearly orthogonal to the basis, its own error
    can exceed 1e-12 of the coefficients (1.8e-12 against 3e-13 for the
    stacked fit at g=5, d=1, extra=43, seed=1)."""
    # every float is an integer times a power of two: one shift makes all
    # of them integers, and the normal equations keep their solution
    ratios = [v.as_integer_ratio() for v in basis.ravel().tolist() + y.tolist()]
    top = max(den.bit_length() for _, den in ratios)
    ints = [num << (top - den.bit_length()) for num, den in ratios]
    d, count = basis.shape
    rows, target = [ints[i * count : (i + 1) * count] for i in range(d)], ints[d * count :]
    system = [
        [Fraction(sum(map(operator.mul, rows[i], other))) for other in rows + [target]]
        for i in range(d)
    ]
    for k in range(d):
        for i in range(k + 1, d):
            f = system[i][k] / system[k][k]
            system[i] = [u - f * v for u, v in zip(system[i], system[k])]
    x = [Fraction(0)] * d
    for k in reversed(range(d)):
        x[k] = (system[k][d] - sum(system[k][j] * x[j] for j in range(k + 1, d))) / system[k][k]
    return np.array([float(v) for v in x])


@settings(max_examples=200, deadline=None)
@given(
    g=st.integers(1, 6),
    d=st.integers(1, 6),
    extra=st.integers(4, 60),
    seed=st.integers(0, 2**32 - 1),
)
# y nearly orthogonal to the column: the exact coefficient is small against ||y||
@example(g=4, d=1, extra=54, seed=13181)
def test_stacked_fit_agrees_with_lstsq_and_with_one_row_fits(g, d, extra, seed):
    # orthonormal columns mixed by I + E, ||E||_2 <= 1/2, have condition
    # <= 3; the column scales span twelve decades, which the peak and
    # Gram-diagonal scaling must absorb
    rng = np.random.default_rng(seed)
    count = 2 * d + extra
    q = np.linalg.qr(rng.standard_normal((g, count, d)))[0]
    mix = np.eye(d) + rng.uniform(-0.5, 0.5, (g, d, d)) / d
    bases = np.swapaxes(q @ mix, -1, -2) * 10.0 ** rng.uniform(-6, 6, (g, d, 1))
    ys = rng.standard_normal((g, count))
    coef, errors = _least_squares(bases, ys, True)
    assert errors == {}
    for basis, y, got in zip(bases, ys, coef):
        # compared on unit-norm columns, where a solution's error is read
        # against the fit's own size, plus the rounding that the dot
        # products of the right-hand side alone may carry (count eps ||y||,
        # Higham's bound), which no float64 solver avoids when y is
        # nearly orthogonal to the columns
        scale = np.linalg.norm(basis, axis=-1)
        ref = _exact_least_squares(basis, y) * scale
        atol = 1e-12 * np.max(np.abs(ref)) + count * np.finfo(float).eps * np.linalg.norm(y)
        np.testing.assert_allclose(got * scale, ref, rtol=0, atol=atol)
    for i in range(g):
        one, _ = _least_squares(bases[i : i + 1], ys[i : i + 1], True)
        assert one[0].tobytes() == coef[i].tobytes()
        assert least_squares(bases[i].T, ys[i]).tobytes() == coef[i].tobytes()


@pytest.mark.parametrize(
    "value, mode_ok, impulse_ok",
    [
        (np.inf, False, False),
        (-np.inf, False, False),
        (np.nan, False, False),
        (1e100, True, True),
        (-1e100, True, True),
        (np.nextafter(1e100, np.inf), True, False),
        (-np.nextafter(1e100, np.inf), True, False),
    ],
)
def test_basis_gate_reads_the_column_peaks(value, mode_ok, impulse_ok):
    # a mode basis must be finite, an impulse-response basis within 1e100;
    # the bad entry sits in the middle row of a stack of three, away from
    # the column's first and last samples
    rng = np.random.default_rng(3)
    bases = rng.standard_normal((3, 2, 16))
    bases[1, 1, 7] = value
    ys = rng.standard_normal((3, 16))
    mode_text = "mode basis overflowed; roots too far from the unit circle"
    for modes, ok, kind, text in [
        (True, mode_ok, SingularNormalMatrix, mode_text),
        (False, impulse_ok, UnstableBasis, "impulse-response basis overflowed"),
    ]:
        coef, errors = _least_squares(bases, ys, modes)
        if ok:
            assert errors == {} and coef.shape == (3, 2)
        else:
            assert list(errors) == [1] and coef.shape == (2, 2)
            assert type(errors[1]) is kind and str(errors[1]) == text
        for row, i in zip(coef, [0, 1, 2] if ok else [0, 2]):
            one, _ = _least_squares(bases[i : i + 1], ys[i : i + 1], modes)
            assert row.tobytes() == one[0].tobytes()


def test_planted_twin_column_takes_the_ridge_retry(monkeypatch):
    # two equal columns make the normal matrix singular: the first
    # Cholesky solve rejects that system alone, the ridge retry solves it,
    # and the ridge splits the twins' weight evenly, up to rounding that
    # the ridge of 1e-10 of the trace magnifies
    rng = np.random.default_rng(11)
    bases = rng.standard_normal((3, 3, 50))
    bases[1, 2] = bases[1, 0]
    ys = rng.standard_normal((3, 50))
    calls = []
    solve = fitting._solve_spd

    def spy(*args):
        solved, ok = solve(*args)
        calls.append(ok.copy())
        return solved, ok

    monkeypatch.setattr(fitting, "_solve_spd", spy)
    coef, errors = _least_squares(bases, ys, True)
    assert errors == {}
    assert [ok.tolist() for ok in calls] == [[True, False, True], [True]]
    assert coef[1, 0] == pytest.approx(coef[1, 2], rel=1e-4)
    fitted = coef[1] @ bases[1]
    best = np.linalg.lstsq(bases[1].T, ys[1], rcond=None)[0] @ bases[1]
    np.testing.assert_allclose(fitted, best, rtol=0, atol=1e-8 * np.max(np.abs(ys[1])))


@settings(max_examples=200, deadline=None)
@given(
    pair=st.tuples(st.floats(0.8, 1.2), st.floats(0.2, 2.9)),
    same_real=st.lists(st.floats(0.3, 1.0), max_size=2),
    repeats=st.integers(0, 2),
    near_real=st.lists(st.tuples(st.floats(0.5, 1.2), st.booleans(), st.floats(-1.0, 1.0)),
                       max_size=3),
    extra=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_amplitude_model_reproduces_the_mode_basis_fit(pair, same_real, repeats, near_real,
                                                       extra, seed):
    # crowded conjugation-closed root sets: pairs a +- bi, a +- ci with one
    # real part, repeated pairs, and near-real roots r + i eps that the
    # pairing takes as real (|eps| <= 1e-8 (1 + |r|))
    radius, angle = pair
    lead = radius * np.exp(1j * angle)
    tops = [lead] * (1 + repeats) + [complex(lead.real, c) for c in same_real]
    reals = [(-r if neg else r) + 1j * t * 1e-8 * (1.0 + r) for r, neg, t in near_real]
    q = np.array(tops + [np.conj(z) for z in tops] + reals)
    count = q.size + extra
    y = np.random.default_rng(seed).standard_normal(count)
    fit = fit_amplitudes(q, y)
    basis = mode_basis(q, count)
    terms = np.max(np.abs(basis) @ np.abs(fit.coefficients))
    np.testing.assert_allclose(reconstruct(fit, count), basis @ fit.coefficients,
                               rtol=0, atol=1e-9 * terms)
    c = fit.model.amplitudes
    pairs, real = conjugate_pairs(q)
    for i, j in pairs:
        assert c[j] == np.conj(c[i])
    assert np.all(c[real].imag == 0.0)


@settings(max_examples=200, deadline=None)
@given(k1=st.integers(2**25, 2**26 - 1), k2=st.integers(2**25, 2**26 - 1),
       log_radius=st.floats(-1e-9, 1e-9), angle=st.floats(1e-3, np.pi - 1e-3))
def test_powers_past_2_26_samples_take_the_full_two_product(k1, k2, log_radius, angle):
    # k1 + k2 is at least 2^26; an odd one has a low half, the branch of a
    # block of 2^26 samples or more; z^k1 and z^k2 have none
    assume((k1 + k2) % 2)
    re, im = fitting._powers(np.array([log_radius]), np.array([angle]), np.array([k1, k2, k1 + k2]))
    z = re[0] + 1j * im[0]
    assert abs(z[2] - z[0] * z[1]) <= 1e-15 * abs(z[2])
