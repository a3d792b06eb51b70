"""Correlation matrix, spectrum, and law extraction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynlaw.embedding import EmbeddingConfig, TimeSeries, embed
from dynlaw.errors import DimensionMismatch
from dynlaw.spectral import (
    CorrelationMatrix,
    LinearLaw,
    Spectrum,
    correlation,
    eigendecompose,
    extract_law,
    extract_symmetric_law,
    law_residuals,
)
from dynlaw.spectral import _normalize_sign, _palindromic_basis


def charpoly_eigenvalues(a):
    """Independent oracle: Faddeev-LeVerrier characteristic polynomial,
    then numpy's companion-matrix root solver.  No symmetric eigensolver
    involved."""
    m = a.shape[0]
    coeffs = np.zeros(m + 1)
    coeffs[0] = 1.0
    work = np.array(a, dtype=float)
    for k in range(1, m + 1):
        c = -np.trace(work) / k
        coeffs[k] = c
        work = a @ (work + c * np.eye(m))
    return np.sort(np.roots(coeffs).real)


def sine_series(n_samples=400, phase=0.0):
    k = np.arange(n_samples)
    return TimeSeries(np.sin(np.pi / 3 * k + phase))


def two_sine_series(n_samples=600):
    k = np.arange(n_samples)
    return TimeSeries(np.sin(np.pi / 3 * k + 0.25) + 0.8 * np.sin(np.pi / 5 * k + 1.3))


def test_correlation_identity_rows():
    ds = embed(TimeSeries([0.0, 1.0, 0.0, 1.0]), EmbeddingConfig(n=1))
    # windows: (1,0),(0,1),(1,0) -> C = [[2/3,0],[0,1/3]]
    np.testing.assert_allclose(ds.rows, [[1, 0], [0, 1], [1, 0]], atol=0)
    c = correlation(ds)
    np.testing.assert_allclose(c.entries, [[2 / 3, 0], [0, 1 / 3]], atol=1e-15)
    assert c.sample_count == 3


def test_correlation_single_row_outer_product():
    ds = embed(TimeSeries([1.0, 1.0]), EmbeddingConfig(n=1))
    c = correlation(ds)
    np.testing.assert_allclose(c.entries, [[1, 1], [1, 1]], atol=0)


def test_correlation_is_symmetric_psd():
    rng = np.random.default_rng(7)
    ds = embed(TimeSeries(rng.uniform(-1, 1, 120)), EmbeddingConfig(n=5))
    c = correlation(ds)
    np.testing.assert_array_equal(c.entries, c.entries.T)
    vals = eigendecompose(c).eigenvalues
    assert np.all(vals >= -1e-12 * c.trace)


def test_sine_correlation_has_null_mode():
    c = correlation(embed(sine_series(), EmbeddingConfig(n=2)))
    # (1,-1,1)/sqrt(3) annihilates every window of sin(pi k/3): check directly
    w = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    resid = embed(sine_series(), EmbeddingConfig(n=2)).rows @ w
    assert np.max(np.abs(resid)) < 1e-12
    assert eigendecompose(c).eigenvalues[0] < 1e-10 * c.trace


def test_eigendecompose_diagonal():
    spec = eigendecompose(CorrelationMatrix(np.diag([2.0, 1.0]), sample_count=1))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0], atol=0)


def test_eigendecompose_two_by_two():
    spec = eigendecompose(CorrelationMatrix([[1.0, 0.5], [0.5, 1.0]], sample_count=1))
    np.testing.assert_allclose(spec.eigenvalues, [0.5, 1.5], atol=1e-14)
    s2 = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(spec.eigenvectors[:, 0], [s2, -s2], atol=1e-14)
    np.testing.assert_allclose(spec.eigenvectors[:, 1], [s2, s2], atol=1e-14)


def test_eigendecompose_matches_charpoly_oracle():
    rng = np.random.default_rng(11)
    ds = embed(TimeSeries(rng.uniform(-1, 1, 54)), EmbeddingConfig(n=4))
    c = correlation(ds)
    spec = eigendecompose(c)
    np.testing.assert_allclose(spec.eigenvalues, charpoly_eigenvalues(c.entries), atol=1e-8)


def test_eigendecompose_orthonormal_and_residuals():
    rng = np.random.default_rng(3)
    c = correlation(embed(TimeSeries(rng.uniform(-1, 1, 200)), EmbeddingConfig(n=7)))
    spec = eigendecompose(c)
    v = spec.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < 1e-9
    for j, lam in enumerate(spec.eigenvalues):
        r = c.entries @ v[:, j] - lam * v[:, j]
        assert np.linalg.norm(r) < 1e-9 * (1.0 + abs(lam))


def test_eigendecompose_deterministic():
    rng = np.random.default_rng(19)
    c = correlation(embed(TimeSeries(rng.uniform(-1, 1, 90)), EmbeddingConfig(n=3)))
    a = eigendecompose(c)
    b = eigendecompose(c)
    np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
    np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)


def test_extract_single_sine_law():
    cfg = EmbeddingConfig(n=2)
    c = correlation(embed(sine_series(), cfg))
    law = extract_law(eigendecompose(c), cfg)
    expected = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    np.testing.assert_allclose(law.weights, expected, atol=1e-6)
    assert law.eigenvalue < 1e-10
    assert law.order == 2 and law.stride == 1


def test_extract_law_takes_the_smallest_eigenpair():
    # noise has a simple smallest eigenvalue: the law is its eigenvector
    rng = np.random.default_rng(7)
    cfg = EmbeddingConfig(n=3)
    spec = eigendecompose(correlation(embed(TimeSeries(rng.uniform(-1, 1, 200)), cfg)))
    law = extract_law(spec, cfg)
    assert law.eigenvalue == spec.eigenvalues[0] == min(spec.eigenvalues)
    np.testing.assert_allclose(law.weights, spec.eigenvectors[:, 0], rtol=0, atol=1e-15)


def test_extract_two_sine_composite_law():
    z1 = -2.0 * np.cos(np.pi / 3)
    z2 = -2.0 * np.cos(np.pi / 5)
    expected = np.array([1.0, z1 + z2, 2.0 + z1 * z2, z1 + z2, 1.0])
    expected /= np.linalg.norm(expected)
    cfg = EmbeddingConfig(n=4)
    law = extract_law(eigendecompose(correlation(embed(two_sine_series(), cfg))), cfg)
    np.testing.assert_allclose(law.weights, expected, atol=1e-6)
    assert law.eigenvalue < 1e-9


def test_symmetric_law_on_sine_matches_plain_extraction():
    cfg = EmbeddingConfig(n=2)
    c = correlation(embed(sine_series(), cfg))
    plain = extract_law(eigendecompose(c), cfg)
    sym = extract_symmetric_law(c, cfg)
    assert sym.symmetric_flag
    np.testing.assert_allclose(sym.weights, plain.weights, atol=1e-8)


def test_symmetric_law_hand_reduction():
    # C = diag(1,2,3): reduced problem over {(e0+e2)/sqrt(2), e1} is
    # diag(2,2), so the constrained minimum value is 2 (vs unconstrained
    # 1 at e0) and the minimizer is any unit vector of that subspace
    c = CorrelationMatrix(np.diag([1.0, 2.0, 3.0]), sample_count=1)
    law = extract_symmetric_law(c, EmbeddingConfig(n=2))
    assert abs(law.eigenvalue - 2.0) < 1e-12
    w = law.weights
    assert w[0] == w[2]
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    assert abs(float(w @ c.entries @ w) - 2.0) < 1e-12


def test_symmetric_law_exact_palindrome_and_rayleigh_bound():
    rng = np.random.default_rng(23)
    y = np.sin(0.41 * np.arange(300)) * np.exp(-0.002 * np.arange(300))
    y = y + 0.05 * rng.standard_normal(300)
    for n in (2, 3, 4, 5):
        cfg = EmbeddingConfig(n=n)
        c = correlation(embed(TimeSeries(y), cfg))
        law = extract_symmetric_law(c, cfg)
        w = law.weights
        assert all(w[i] == w[n - i] for i in range(n + 1))  # bit-exact
        lam_min = eigendecompose(c).eigenvalues[0]
        rayleigh = float(w @ c.entries @ w)
        assert rayleigh >= lam_min - 1e-12 * c.trace
        assert abs(law.eigenvalue - rayleigh) < 1e-9 * (1.0 + abs(rayleigh))


def test_symmetric_law_matches_brute_force_sphere_search():
    # n=2 palindromic unit vectors are (a, b, a) with 2a^2 + b^2 = 1
    rng = np.random.default_rng(31)
    c = correlation(embed(TimeSeries(rng.uniform(-1, 1, 80)), EmbeddingConfig(n=2)))
    t = np.linspace(0.0, 2.0 * np.pi, 200001)
    a = np.cos(t) / np.sqrt(2.0)
    b = np.sin(t)
    values = (
        a * a * (c.entries[0, 0] + c.entries[2, 2] + 2.0 * c.entries[0, 2])
        + b * b * c.entries[1, 1]
        + 2.0 * a * b * (c.entries[0, 1] + c.entries[1, 2])
    )
    law = extract_symmetric_law(c, EmbeddingConfig(n=2))
    assert abs(law.eigenvalue - values.min()) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_palindromic_basis_matches_paired_unit_vectors(n):
    # independent build: one column per mirrored pair of lags, then the
    # middle lag of an even order
    columns = []
    for j in range((n + 1) // 2):
        u = np.zeros(n + 1)
        u[j] = u[n - j] = 1.0 / np.sqrt(2.0)
        columns.append(u)
    if n % 2 == 0:
        columns.append(np.eye(n + 1)[n // 2])
    basis = _palindromic_basis(n)
    np.testing.assert_array_equal(basis, np.column_stack(columns))
    np.testing.assert_allclose(basis.T @ basis, np.eye(n // 2 + 1), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(basis, basis[::-1])  # every column palindromic
    assert basis[0, 0] > 0.0 and np.all(basis[0, 1:] == 0.0)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_extract_law_rejects_config_of_other_order(n):
    c = CorrelationMatrix(np.diag([1.0, 2.0, 3.0, 4.0]), sample_count=1)
    with pytest.raises(DimensionMismatch, match="order n="):
        extract_law(eigendecompose(c), EmbeddingConfig(n=n))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_extract_symmetric_law_rejects_config_of_other_order(n):
    c = CorrelationMatrix(np.diag([1.0, 2.0, 3.0, 4.0]), sample_count=1)
    with pytest.raises(DimensionMismatch, match="order n="):
        extract_symmetric_law(c, EmbeddingConfig(n=n))


@pytest.mark.parametrize("spike", ["single", "pair"])
def test_correlation_beyond_float_range_is_rejected(spike):
    # a sample beyond 1e154 squares to inf; without the check the law came
    # out as [1, 0] with eigenvalue NaN (one spike) or with NaN weights (a pair)
    y = np.sin(2 * np.pi * 440.0 * np.arange(350) / 8000.0)
    y[150] = 1e300
    if spike == "pair":
        y[152] = -1e300
    cfg = EmbeddingConfig(n=1)
    with np.errstate(over="ignore", invalid="ignore"):
        c = correlation(embed(TimeSeries(y), cfg))
    assert not np.all(np.isfinite(c.entries))
    with pytest.raises(ValueError, match="finite"):
        extract_law(eigendecompose(c), cfg)


def test_matrix_and_law_shapes_are_validated():
    for entries in (np.zeros((2, 3)), np.zeros(3)):
        with pytest.raises(ValueError, match="must be square"):
            CorrelationMatrix(entries=entries, sample_count=1)
    for weights in ([1.0], np.eye(2) / np.sqrt(2.0)):
        with pytest.raises(ValueError, match="length n \\+ 1 >= 2"):
            LinearLaw(weights=np.array(weights), eigenvalue=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_law_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="unit norm"):
        LinearLaw(weights=np.array([1.0, bad]), eigenvalue=0.0)
    with pytest.raises(ValueError, match="unit norm"):
        LinearLaw(weights=np.array([np.sqrt(0.5), np.sqrt(0.5), bad]), eigenvalue=0.0)


def test_symmetric_law_rejects_weights_that_are_not_palindromes():
    a = np.sqrt(0.5)
    for w in ([0.6, 0.0, 0.8], [a, 0.0, np.nextafter(a, 1.0)]):
        with pytest.raises(ValueError, match="exactly palindromic"):
            LinearLaw(weights=np.array(w), eigenvalue=0.0, symmetric_flag=True)
    # entries compare as floats compare: -0.0 == 0.0
    LinearLaw(weights=np.array([-0.0, 1.0, 0.0]), eigenvalue=0.0, symmetric_flag=True)


def test_law_residuals_direct_product():
    ds = embed(TimeSeries([1.0, 1.0]), EmbeddingConfig(n=1))
    law = LinearLaw(weights=np.array([1.0, 1.0]) / np.sqrt(2.0), eigenvalue=2.0)
    xi = law_residuals(ds, law)
    assert xi.shape == (1,)
    # the window (1, 1) against w = (1, 1)/sqrt(2): xi = 2/sqrt(2)
    assert abs(xi[0] - np.sqrt(2.0)) < 1e-12


def test_exact_law_residuals_vanish():
    cfg = EmbeddingConfig(n=2)
    ds = embed(sine_series(), cfg)
    law = extract_law(eigendecompose(correlation(ds)), cfg)
    assert np.max(np.abs(law_residuals(ds, law))) < 1e-8


def test_variance_identity_every_eigenpair():
    rng = np.random.default_rng(17)
    datasets = [rng.uniform(-1, 1, 150), np.sin(0.7 * np.arange(150))]
    for y in datasets:
        cfg = EmbeddingConfig(n=4)
        ds = embed(TimeSeries(y), cfg)
        c = correlation(ds)
        spec = eigendecompose(c)
        for j in range(spec.eigenvalues.size):
            xi = ds.rows @ spec.eigenvectors[:, j]
            msq = float(np.mean(xi * xi))
            lam = spec.eigenvalues[j]
            # eps-scale absolute floor: null modes carry lambda ~ -1e-16
            assert abs(msq - lam) <= 1e-9 * abs(lam) + 1e-14 * c.trace


def test_law_residuals_dimension_mismatch():
    cfg2, cfg3 = EmbeddingConfig(n=2), EmbeddingConfig(n=3)
    ds3 = embed(sine_series(), cfg3)
    law2 = extract_law(eigendecompose(correlation(embed(sine_series(), cfg2))), cfg2)
    with pytest.raises(DimensionMismatch):
        law_residuals(ds3, law2)


def test_scaling_covariance():
    rng = np.random.default_rng(29)
    y = rng.uniform(-1, 1, 140)
    cfg = EmbeddingConfig(n=3)
    base = eigendecompose(correlation(embed(TimeSeries(y), cfg)))
    scaled = eigendecompose(correlation(embed(TimeSeries(1e3 * y), cfg)))
    np.testing.assert_allclose(scaled.eigenvalues, 1e6 * base.eigenvalues, rtol=1e-6)
    np.testing.assert_allclose(np.abs(scaled.eigenvectors), np.abs(base.eigenvectors), atol=1e-9)


def test_tiny_scale_keeps_ascending_order_and_law():
    # eigenvalue ties are relative to the spectrum's scale, so a quiet
    # block is ordered by eigenvalue and yields the same law as a loud one
    rng = np.random.default_rng(29)
    cfg = EmbeddingConfig(n=3)
    c = correlation(embed(TimeSeries(rng.uniform(-1, 1, 140)), cfg))
    tiny = eigendecompose(CorrelationMatrix(1e-12 * c.entries, sample_count=c.sample_count))
    assert np.all(np.diff(tiny.eigenvalues) >= 0.0)
    np.testing.assert_allclose(
        extract_law(tiny, cfg).weights, extract_law(eigendecompose(c), cfg).weights, atol=1e-9
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.data())
def test_law_ignores_rotation_of_degenerate_null_basis(n, data):
    # any orthonormal basis of a degenerate smallest eigenspace must give
    # the same law: the min-norm vector of that span with w_0 fixed
    m = n + 1
    k = data.draw(st.integers(2, m - 1), label="null dimension")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    assume(np.linalg.norm(q[0, :k]) > 1e-3)
    rot, _ = np.linalg.qr(rng.standard_normal((k, k)))
    rotated = q.copy()
    rotated[:, :k] = q[:, :k] @ rot
    # the null cluster spreads by far less than the relative tie
    vals = np.r_[1e-13 * np.arange(k), np.sort(rng.uniform(0.1, 1.0, m - k))]
    cfg = EmbeddingConfig(n=n)
    base = extract_law(Spectrum(vals, q), cfg).weights
    turned = extract_law(Spectrum(vals, rotated), cfg).weights
    np.testing.assert_allclose(turned, base, atol=1e-9)


def per_column_sign_rule(vec):
    """The sign rule stated one column at a time."""
    scale = np.max(np.abs(vec))
    if scale == 0.0:
        return vec
    for x in vec:
        if abs(x) > 1e-12 * scale:
            return -vec if x < 0.0 else vec
    return vec


def test_vectorized_sign_rule_is_bit_identical_to_per_column_rule():
    rng = np.random.default_rng(53)
    cases = []
    for m in (1, 2, 3, 5, 8):
        a = rng.standard_normal((m, m))
        cases.append(np.linalg.eigh(a + a.T)[1])
    zero_col = cases[-1].copy()
    zero_col[:, 2] = 0.0
    cases.append(zero_col)
    tiny_lead = cases[-2].copy()
    tiny_lead[0, :] = [1e-14, -1e-14, 0.0, -0.0, 1e-13, -1e-13, 2e-16, -5e-16]
    cases.append(tiny_lead)
    degenerate = np.linalg.eigh(np.diag([1.0, 1.0, 1.0, 2.0]))[1]  # repeated eigenvalue
    cases.append(degenerate)
    cases.append(-degenerate)
    for vecs in cases:
        columns = [per_column_sign_rule(col) for col in vecs.T]
        assert _normalize_sign(vecs).tobytes() == np.column_stack(columns).tobytes()
        for col, expected in zip(vecs.T, columns):
            assert _normalize_sign(col[:, None])[:, 0].tobytes() == expected.tobytes()


def test_rank_deficiency_gives_null_mode():
    rng = np.random.default_rng(41)
    y = rng.uniform(-1, 1, 12)  # K = 6 windows = n, rank <= K < n+1
    cfg = EmbeddingConfig(n=6)
    c = correlation(embed(TimeSeries(y), cfg))
    assert eigendecompose(c).eigenvalues[0] < 1e-12 * c.trace


def test_spectrum_shape_on_multi_tone():
    # 2 tones, n+1 = 7 lags: at least n+1-4 = 3 null-ish eigenvalues
    c = correlation(embed(two_sine_series(), EmbeddingConfig(n=6)))
    vals = eigendecompose(c).eigenvalues
    assert np.sum(vals < 1e-8 * c.trace) >= 3


@pytest.mark.parametrize("gap, symmetric", [(5.0019e-6, True), (5.0021e-6, False)])
def test_symmetry_check_edge_of_tolerance(gap, symmetric):
    # |a01 - a10| is held to atol + 1e-5 * |a10| and |a10 - a01| to
    # atol + 1e-5 * |a01|, with atol = 1e-9 * (1 + max|a|) = 2e-9: the
    # second bound, 5.002e-6, lies between the two gaps
    a = np.array([[1.0, 0.5], [0.5 + gap, 1.0]])
    if symmetric:
        assert eigendecompose(a).eigenvalues.size == 2
    else:
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose(a)


def test_symmetry_check_accepts_exactly_what_allclose_accepts():
    def accepted(a):
        try:
            eigendecompose(a)
        except ValueError as exc:
            assert "symmetric" in str(exc)
            return False
        return True

    rng = np.random.default_rng(29)
    for _ in range(500):
        m = int(rng.integers(1, 6))
        a = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-6, 7)
        a = a + a.T
        i, j = rng.integers(0, m, 2)
        atol = 1e-9 * (1.0 + np.max(np.abs(a)))
        # land near the edge of the tolerance of entry (i, j)
        a[i, j] += rng.choice([-1.0, 1.0]) * (atol + 1e-5 * abs(a[j, i])) * rng.uniform(0.99, 1.01)
        atol = 1e-9 * (1.0 + np.max(np.abs(a)))
        assert accepted(a) == np.allclose(a, a.T, atol=atol)
    a = np.eye(3)
    a[1, 2] = a[2, 1] = np.nan
    assert not accepted(a)
