"""Conversions among the four faces of a linear law."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dynlaw import lawforms
from dynlaw.errors import NonRealCoefficients, RootFindingDiverged, UnstableOverflow, ZeroRoot
from dynlaw.lawforms import (
    _pairs,
    ContinuousModel,
    companion_matrix,
    conjugate_pairs,
    evaluate_model,
    _impulse_bases,
    impulse_basis,
    roots_to_model,
    roots_to_weights,
    run_recursion,
    weights_to_roots,
)

import reference_codec


def reference_recursion(w, initial, count):
    """The recursion stepped one sample at a time, as its definition reads."""
    w = np.asarray(w, dtype=float)
    n = w.size - 1
    out = np.zeros(count)
    out[: min(n, count)] = np.asarray(initial, dtype=float)[: min(n, count)]
    for k in range(n, count):
        out[k] = -(out[k - n : k] @ w[1:][::-1]) / w[0]
    return out


def assert_same_roots(got, expected, atol=1e-10):
    """Multiset comparison: conjugate partners carry identical real parts
    only up to rounding, so the (real, imag) sort order is not portable."""
    pool = list(np.asarray(got, dtype=complex))
    assert len(pool) == len(expected)
    for e in expected:
        gaps = [abs(g - e) for g in pool]
        k = int(np.argmin(gaps))
        assert gaps[k] < atol, f"no root near {e}: {got}"
        pool.pop(k)


def test_sine_law_roots_on_unit_circle():
    rs = weights_to_roots(np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0))
    assert_same_roots(rs.roots, [np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)], atol=1e-12)
    assert rs.residual_bound < 1e-12


def test_factored_quadratic_roots():
    rs = weights_to_roots(np.array([6.0, -5.0, 1.0]))
    np.testing.assert_allclose(rs.roots, [2.0, 3.0], atol=1e-10)
    assert rs.degree == 2


def test_two_sine_composite_roots():
    z1 = -2.0 * np.cos(np.pi / 3)
    z2 = -2.0 * np.cos(np.pi / 5)
    w = np.array([1.0, z1 + z2, 2.0 + z1 * z2, z1 + z2, 1.0])
    rs = weights_to_roots(w / np.linalg.norm(w))
    assert_same_roots(
        rs.roots,
        [
            np.exp(1j * np.pi / 3),
            np.exp(-1j * np.pi / 3),
            np.exp(1j * np.pi / 5),
            np.exp(-1j * np.pi / 5),
        ],
    )


def test_root_finder_deterministic():
    w = np.array([0.3, -1.1, 0.4, 0.9])
    a = weights_to_roots(w)
    b = weights_to_roots(w)
    np.testing.assert_array_equal(a.roots, b.roots)


def test_trailing_zeros_reduce_degree():
    rs = weights_to_roots(np.array([6.0, -5.0, 1.0, 0.0, 0.0]))
    assert rs.degree == 2
    np.testing.assert_allclose(rs.roots, [2.0, 3.0], atol=1e-10)


def test_huge_roots_pass_the_residual_gate():
    # a tiny leading weight puts a root near 1e12, where |q|^32 overflows
    # a residual read at q; outside the unit circle the gate must read
    # q^-d P(q), which stays in range (RuntimeWarning is an error here)
    for seed in range(200):
        w = np.random.default_rng(seed).uniform(-1, 1, 33)
        w[32] = 1e-12
        rs = weights_to_roots(w)
        expected = np.roots(w[::-1])
        expected = expected[np.lexsort((expected.imag, expected.real))]
        np.testing.assert_allclose(rs.roots, expected, rtol=1e-12, atol=0)
        assert np.isfinite(rs.residual_bound)


def test_roots_off_by_a_relative_1e_6_fail_the_residual_gate(monkeypatch):
    # roots 2 and 3 of x^2 - 5x + 6, inside and outside the unit circle
    # alike, moved by 1e-6 of their size leave residuals near 1e-6 scale
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) * (1.0 + 1e-6))
    for w in ([6.0, -5.0, 1.0], [1.0, -5.0, 6.0]):
        with pytest.raises(RootFindingDiverged, match="accepted roots leave residual"):
            weights_to_roots(np.array(w))


def test_root_at_origin_is_found_but_has_no_log():
    rs = weights_to_roots(np.array([0.0, -1.0, 1.0]))  # x^2 - x = x(x-1)
    assert_same_roots(rs.roots, [0.0, 1.0], atol=1e-12)
    # the finder leaves the origin root at ~1e-30, which still has a
    # (huge) logarithm; ZeroRoot guards exact zeros
    with pytest.raises(ZeroRoot):
        roots_to_model(np.array([0.0 + 0j, 1.0 + 0j]), np.array([1.0, 1.0]), dt=1.0)


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        weights_to_roots(np.zeros(3))
    with pytest.raises(ValueError):
        weights_to_roots(np.array([5.0, 0.0, 0.0]))  # degree 0 after trim


@pytest.mark.parametrize("call, message", [
    (lambda: ContinuousModel(exponents=[0.1, 0.2], amplitudes=[1.0]), "one amplitude per exponent"),
    (lambda: ContinuousModel(exponents=[0.1], amplitudes=[1.0], dt=0.0), "dt must be positive"),
    (lambda: ContinuousModel(exponents=[0.1], amplitudes=[1.0], dt=np.nan), "dt must be positive"),
    (lambda: roots_to_model([0.5, 2.0], [1.0], dt=1.0), "one amplitude per root"),
    (lambda: impulse_basis([1.0, -1.0], -1), "count must be >= 0"),
    (lambda: companion_matrix([0.0, 1.0, -1.0]), r"\|w_0\| > 1e-12"),
], ids=["model-shapes", "model-dt-zero", "model-dt-nan", "amplitude-count", "negative-count",
        "companion-w0"])
def test_malformed_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_roots_to_weights_examples():
    np.testing.assert_allclose(roots_to_weights([2.0, 3.0], 1.0), [6, -5, 1], atol=1e-12)
    np.testing.assert_allclose(roots_to_weights([1j, -1j], 1.0), [1, 0, 1], atol=1e-12)


def test_unpaired_complex_root_rejected():
    with pytest.raises(NonRealCoefficients):
        roots_to_weights([1j], 1.0)
    with pytest.raises(NonRealCoefficients):
        conjugate_pairs(np.array([0.5 + 0.5j, 0.5 + 0.49j]))


def test_conjugate_pairs_layout():
    q = np.array([np.exp(-0.4j), 0.5, np.exp(0.4j)])
    pairs, reals = conjugate_pairs(q)
    assert reals == [1]
    assert len(pairs) == 1
    i, j = pairs[0]
    assert q[i].imag > 0 and np.isclose(q[j].conjugate(), q[i])


def reference_conjugate_pairs(q, tol=1e-8):
    """The pairing rule one root at a time: each root in index order is
    near-real or takes the nearest still-unused root to its conjugate."""
    unused = list(range(q.size))
    pairs, reals = [], []
    while unused:
        i = unused.pop(0)
        if abs(q[i].imag) <= tol * (1.0 + abs(q[i])):
            reals.append(i)
            continue
        best, best_err = -1, np.inf
        for j in unused:
            err = abs(q[j] - np.conj(q[i]))
            if err < best_err:
                best, best_err = j, err
        if best < 0 or best_err > tol * (1.0 + abs(q[i])):
            raise NonRealCoefficients(f"root {q[i]} has no conjugate partner within {tol:g}")
        unused.remove(best)
        pairs.append((i, best) if q[i].imag > 0 else (best, i))
    return pairs, reals


# imaginary parts on both sides of the near-real tolerance, about 2e-8 here
_NEAR_REAL = st.sampled_from([0.0, 1e-9, -1e-9, 1.9e-8, -1.9e-8, 2.1e-8, -2.1e-8, 2.5e-8, -2.5e-8, 0.3, -0.3])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([0.5, 0.9, -0.3]), _NEAR_REAL), min_size=1, max_size=7))
def test_conjugate_pairs_follows_the_greedy_rule(roots):
    q = np.array([complex(re, im) for re, im in roots])

    def outcome(pairing):
        try:
            return pairing(q)
        except NonRealCoefficients as exc:
            return str(exc)

    assert outcome(conjugate_pairs) == outcome(reference_conjugate_pairs)


# units of a root row: a near-real root (roots at +-1 among them), or a
# pair a -+ bi, exactly conjugate, with few real parts so pairs share
# them and repeat, and with b just above the near-real tolerance or not
_UNIT = st.one_of(
    st.tuples(st.just("real"), st.sampled_from([0.5, -0.3, 1.0, -1.0]),
              st.sampled_from([0.0, 1e-9, -1e-9])),
    st.tuples(st.just("pair"), st.sampled_from([0.3, -0.7, 0.9]),
              st.sampled_from([0.4, 1.2, 2.5e-8])),
)


@st.composite
def _root_row(draw, d):
    """A row of d roots: units laid out as the (real, imag) sort leaves
    them, as built, or broken so that only the loop can pair them:
    shuffled, a near-conjugate within or beyond 1e-8, an odd run or a
    root with no partner (a unit cut at the end, or replaced)."""
    row = []
    for kind, re, im in draw(st.lists(_UNIT, min_size=1, max_size=d)):
        row += [complex(re, im)] if kind == "real" else [complex(re, -im), complex(re, im)]
    q = np.array((row + [0.5] * d)[:d])
    edit = draw(st.sampled_from(["sorted", "as built", "shuffled", "near", "lonely"]))
    if edit == "sorted":
        q = q[np.lexsort((q.imag, q.real))]
    elif edit == "shuffled":
        q = q[draw(st.permutations(range(d)))]
    elif edit == "near":
        q[draw(st.integers(0, d - 1))] += draw(st.sampled_from([5e-9, -5e-9j, 3e-8, 3e-8j]))
    elif edit == "lonely":
        q[draw(st.integers(0, d - 1))] = 0.2 + 0.6j
    return q


def _as_lists(partner, lead):
    """``_pairs`` output of one set as ``conjugate_pairs`` lists it."""
    p = partner.tolist()
    return ([(i, j) if lead[i] else (j, i) for i, j in enumerate(p) if i < j],
            [i for i, j in enumerate(p) if i == j])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(_root_row(d), min_size=1, max_size=6)))
def test_stacked_pairs_follow_the_greedy_rule_row_by_row(rows):
    partner, lead, errors = _pairs(np.stack(rows))
    kept = iter(range(len(partner)))
    for pos, q in enumerate(rows):
        try:
            expected = reference_conjugate_pairs(q)
        except NonRealCoefficients as exc:
            expected = str(exc)
        if pos in errors:
            assert isinstance(errors[pos], NonRealCoefficients)
            got = str(errors[pos])
        else:
            r = next(kept)
            got = _as_lists(partner[r], lead[r])
        assert got == expected
    assert next(kept, None) is None


def test_sorted_exact_conjugates_skip_the_pairing_loop(monkeypatch):
    rows = []
    loop = lawforms._greedy_pairs
    monkeypatch.setattr(lawforms, "_greedy_pairs", lambda q, *rest: rows.append(len(q)) or loop(q, *rest))
    w = np.random.default_rng(5).standard_normal((40, 9))
    roots, _, errors = lawforms._roots(w)
    assert errors == {} and np.any(roots.imag != 0.0)
    partner, lead, _ = _pairs(roots)
    assert rows == []
    for q, p, first in zip(roots, partner, lead):
        assert _as_lists(p, first) == reference_conjugate_pairs(q)
    # the same sets with one row's roots sorted by imaginary part, which
    # pulls its pairs apart, take the loop, that row only
    mixed = roots.copy()
    row = int(np.argmax(np.any(roots.imag != 0.0, axis=-1)))
    mixed[row] = mixed[row][np.argsort(mixed[row].imag, kind="stable")]
    _pairs(mixed)
    assert rows == [1]


def test_palindromic_round_trip_degree_up_to_8():
    rng = np.random.default_rng(101)
    for _ in range(100):
        degree = int(rng.integers(2, 9))
        half = rng.uniform(-2.0, 2.0, degree // 2 + 1)
        half[0] = np.sign(half[0]) * max(abs(half[0]), 0.1)
        w = np.concatenate([half, half[::-1][1:]]) if degree % 2 == 0 else np.concatenate([half, half[::-1]])
        assert w.size == degree + 1 and w[0] == w[-1]
        rebuilt = roots_to_weights(weights_to_roots(w), w[-1])
        np.testing.assert_allclose(rebuilt, w, rtol=0, atol=1e-8 * np.max(np.abs(w)))


def test_palindrome_implies_root_inversion_closure():
    rng = np.random.default_rng(202)
    for _ in range(100):
        degree = int(rng.integers(2, 9))
        half = rng.uniform(-2.0, 2.0, degree // 2 + 1)
        half[0] = np.sign(half[0]) * max(abs(half[0]), 0.1)
        w = np.concatenate([half, half[::-1][1:]]) if degree % 2 == 0 else np.concatenate([half, half[::-1]])
        roots = weights_to_roots(w).roots
        for q in roots:
            inv = 1.0 / q
            gap = np.min(np.abs(roots - inv))
            assert gap < 1e-6 * max(1.0, abs(inv))


def test_roots_to_model_examples():
    m = roots_to_model(np.array([2.0 + 0j]), np.array([1.0 + 0j]), dt=1.0)
    assert abs(m.exponents[0] - np.log(2.0)) < 1e-12

    m = roots_to_model(np.array([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)]),
                       np.array([1.0 + 0j, 1.0 + 0j]), dt=0.5)
    assert abs(m.exponents[0] - 2j * np.pi / 3) < 1e-12  # principal branch, per second

    m = roots_to_model(np.array([1.0 + 0j]), np.array([1.0 + 0j]), dt=1.0)
    assert m.exponents[0] == 0.0  # constant mode


def test_model_amplitudes_conjugate_paired():
    q = np.array([np.exp(0.9j), np.exp(-0.9j)])
    m = roots_to_model(q, np.array([0.3 + 0.2j, 0.31 - 0.18j]), dt=1.0)
    assert np.isclose(m.amplitudes[0], np.conj(m.amplitudes[1]))


def test_evaluate_model_examples():
    m = roots_to_model(np.array([2.0 + 0j]), np.array([3.0 + 0j]), dt=1.0)
    assert abs(evaluate_model(m, 2.0) - 0.75) < 1e-12

    m = roots_to_model(np.array([1j, -1j]), np.array([0.5 + 0j, 0.5 + 0j]), dt=1.0)
    got = [evaluate_model(m, float(k)) for k in range(3)]
    np.testing.assert_allclose(got, [1.0, 0.0, -1.0], atol=1e-12)  # cos(pi k / 2)

    arr = evaluate_model(m, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(arr, [1.0, 0.0, -1.0], atol=1e-12)


def test_evaluate_model_rejects_unpaired_mode():
    # a lone e^{i t / 2} has no conjugate partner, so its value is complex
    model = ContinuousModel(exponents=[-0.5j], amplitudes=[1.0])
    with pytest.raises(NonRealCoefficients):
        evaluate_model(model, 1.0)


def test_run_recursion_constant_law():
    np.testing.assert_array_equal(run_recursion([1.0, -1.0], [5.0], 4), [5, 5, 5, 5])


def test_run_recursion_fibonacci():
    got = run_recursion([1.0, -1.0, -1.0], [1.0, 1.0], 8)
    np.testing.assert_array_equal(got, [1, 1, 2, 3, 5, 8, 13, 21])


def test_run_recursion_sine_closed_form():
    w = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    k = np.arange(100)
    got = run_recursion(w, [0.0, np.sin(np.pi / 3)], 100)
    np.testing.assert_allclose(got, np.sin(np.pi / 3 * k), atol=1e-9)


def test_run_recursion_guards():
    with pytest.raises(ValueError):
        run_recursion([1e-13, 1.0], [1.0], 5)  # w_0 effectively zero
    with pytest.raises(ValueError):
        run_recursion([1.0, -1.0, -1.0], [1.0], 5)  # wrong seed count
    # y_k = 2 y_{k-1}: 2^333 is the first power of two beyond 1e100
    with pytest.raises(UnstableOverflow, match="step 333"):
        run_recursion(np.array([1.0, -2.0]) / np.sqrt(5.0), [1.0], 400)


def test_run_recursion_fails_at_a_seed_beyond_1e100():
    # the seed itself, not the first generated sample, is the first bad value
    with pytest.raises(UnstableOverflow, match="generated sample beyond 1e100 at step 1"):
        run_recursion([1.0, 0.0, -1.0], [1.0, 1e101], 5)


@pytest.mark.parametrize("count", [0, 2, 3, 4])
def test_impulse_basis_edge_counts(count):
    # n = 3: fewer rows than seeds, exactly the seeds, one generated row
    w = np.array([1.0, -0.5, 0.25, 0.125])
    basis = impulse_basis(w, count)
    assert basis.shape == (count, 3)
    np.testing.assert_array_equal(basis[: min(count, 3)], np.eye(3)[: min(count, 3)])
    if count == 4:
        np.testing.assert_array_equal(basis[3], -w[:0:-1] / w[0])
    seeds = np.array([0.3, -1.2, 2.0])
    np.testing.assert_array_equal(run_recursion(w, seeds, count),
                                  reference_recursion(w, seeds, count))
    # a bare lag-0 weight has no seeds and drives every output to zero
    np.testing.assert_array_equal(run_recursion([2.0], [], count), np.zeros(count))


def test_impulse_basis_head_is_identity_and_drives_run_recursion():
    rng = np.random.default_rng(7)
    q = np.exp(1j * rng.uniform(0.1, 3.0, 5)) * rng.uniform(0.95, 1.02, 5)
    w = roots_to_weights(np.concatenate([q, np.conj(q)]), 1.0)
    w = w / np.linalg.norm(w)
    seeds = rng.standard_normal(10)
    basis = impulse_basis(w, 700)
    np.testing.assert_array_equal(basis[:10], np.eye(10))
    np.testing.assert_array_equal(run_recursion(w, seeds, 700), basis @ seeds)


def test_steep_law_matches_stepped_recursion():
    # |w_1 / w_0| = 5e5: the basis grows past 1e150 within 40 rows, and
    # every column is still the recursion's, row by row
    w = np.array([1e-6, 0.5, -3.0, 0.2])
    basis = impulse_basis(w, 40)
    assert 1e150 < np.max(np.abs(basis)) < 1e300
    for j, seed in enumerate(np.eye(3)):
        ref = reference_recursion(w, seed, 40)
        np.testing.assert_allclose(basis[:, j], ref, rtol=1e-12, atol=0.0)


def test_mixed_stack_rows_equal_single_law_bases():
    # laws of very different growth share one stack, beside one whose w_0
    # is too small to step: that one fails alone, and every other row is
    # its single-law basis bit for bit
    q = np.array([0.995 * np.exp(0.2j), 0.995 * np.exp(-0.2j), 0.9])
    damped = roots_to_weights(q, 1.0)
    stack = np.array([
        [1e-6, 0.5, -3.0, 0.2],  # steep
        [1.0, -1.0, -1.0, 0.0],  # Fibonacci
        damped / np.linalg.norm(damped),
        [1e-13, 1.0, 0.5, 0.1],  # w_0 <= 1e-12
        [1.0, -3.0, 3.0, -1.0],  # quadratics
    ])
    basis, errors = _impulse_bases(stack, 40)
    assert list(errors) == [3]
    assert isinstance(errors[3], ValueError) and "1e-12" in str(errors[3])
    assert basis.shape == (4, 3, 40)
    for row, i in zip(np.swapaxes(basis, -1, -2), [0, 1, 2, 4]):
        np.testing.assert_array_equal(row, impulse_basis(stack[i], 40))
        for j, seed in enumerate(np.eye(3)):
            ref = reference_recursion(stack[i], seed, 40)
            if i == 0:
                np.testing.assert_allclose(row[:, j], ref, rtol=1e-12, atol=0.0)
            elif i == 2:
                assert np.max(np.abs(row[:, j] - ref)) <= 1e-9 * np.max(np.abs(ref))
            else:  # integer laws with w_0 = 1 step exactly
                np.testing.assert_array_equal(row[:, j], ref)


def _root_condition(q):
    """Condition number of the column-normalized Vandermonde matrix of the
    growth factors 1/q: the eigenvector basis of the recursion step."""
    g = 1.0 / np.asarray(q)
    v = g[None, :] ** np.arange(g.size)[:, None]
    return float(np.linalg.cond(v / np.linalg.norm(v, axis=0)))



_NOT_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def _law_stack(draw):
    """(stack (g, n + 1), count, seeds (n,)): up to 6 laws of one order,
    steep ones among them, and laws whose recursion cannot step."""
    n = draw(st.integers(0, 12))
    count = draw(st.integers(0, 3 * n + 5))
    laws = []
    for _ in range(draw(st.integers(0, 6))):
        w = [draw(st.floats(1e-6, 10.0)) * draw(st.sampled_from([1.0, -1.0]))]
        w += draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
        kind = draw(st.sampled_from(["steps", "steps", "w_0", "not finite"]))
        if kind == "w_0":
            w[0] = draw(st.sampled_from([0.0, -0.0, 1e-12, -1e-13, 5e-324]))
        elif kind == "not finite":
            w[draw(st.integers(0, n))] = draw(_NOT_FINITE)
        laws.append(w)
    seeds = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    return np.array(laws).reshape(-1, n + 1), count, np.array(seeds)


def _expected_error(w):
    if abs(w[0]) <= 1e-12:
        return "1e-12"
    return None if np.all(np.isfinite(w)) else "finite weights"


@settings(max_examples=300, deadline=None)
@given(_law_stack())
@example((np.array([[1.0, -0.5, 0.25, 0.125], [0.0, 1.0, 2.0, 3.0]]), 2, np.ones(3)))  # count < n
@example((np.array([[1.0, -0.5, 0.25, 0.125], [1.0, np.nan, 0.0, 0.0]]), 3, np.ones(3)))  # count = n
@example((np.array([[1.0, -0.5, 0.25, 0.125]]), 4, np.array([-0.0, 1.0, 2.0])))  # one generated row
@example((np.zeros((0, 5)), 9, np.ones(4)))  # no law
@example((np.array([[2.0], [0.0]]), 3, np.zeros(0)))  # n = 0
@example((np.array([[0.0, np.inf, 1.0], [1e-13, 1.0, np.nan]]), 5, np.ones(2)))  # both: w_0 wins
def test_impulse_bases_rows_equal_single_law_and_stepped_reference(case):
    stack, count, seeds = case
    n = stack.shape[1] - 1
    basis, errors = _impulse_bases(stack, count)
    expected = {i: _expected_error(w) for i, w in enumerate(stack)}
    failing = sorted(i for i, text in expected.items() if text)
    assert sorted(errors) == failing
    for i in failing:
        assert type(errors[i]) is ValueError and expected[i] in str(errors[i])
        with pytest.raises(ValueError):
            impulse_basis(stack[i], count)
    kept = [i for i in range(len(stack)) if i not in errors]
    assert basis.shape == (len(kept), n, count)
    head = min(n, count)
    for row, i in zip(np.swapaxes(basis, -1, -2), kept):
        assert row.tobytes() == impulse_basis(stack[i], count).tobytes()
        assert row.tobytes() == reference_codec.recursion_basis(stack[i], count).tobytes()
        np.testing.assert_array_equal(row[:head], np.eye(n)[:head])
        with np.errstate(over="ignore", invalid="ignore"):
            driven = row @ seeds
        if np.all(np.abs(driven) <= 1e100):
            # the head repeats the seeds verbatim, a -0.0 seed included,
            # where the product sums it to 0.0
            got = run_recursion(stack[i], seeds, count)
            assert got[:head].tobytes() == seeds[:head].tobytes()
            assert got[head:].tobytes() == driven[head:].tobytes()
        else:
            with pytest.raises(UnstableOverflow):
                run_recursion(stack[i], seeds, count)


@settings(max_examples=80, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.floats(0.9, 1.05), st.floats(0.0, np.pi)), max_size=5),
    reals=st.lists(st.tuples(st.floats(0.9, 1.05), st.booleans()), max_size=2),
    count=st.integers(0, 2048),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_recursion_matches_sequential_loop(pairs, reals, count, seed):
    q = [r * np.exp(1j * a) for r, a in pairs]
    q = np.array(q + [np.conj(x) for x in q] + [(-r if neg else r) for r, neg in reals],
                 dtype=complex)
    assume(q.size > 0)
    w = roots_to_weights(q, 1.0)
    w = w / np.linalg.norm(w)
    seeds = np.random.default_rng(seed).standard_normal(q.size)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference_recursion(w, seeds, count)
    scale = float(np.max(np.abs(ref), initial=0.0))
    assume(scale < 1e90)  # far from the 1e100 overflow guard
    got = run_recursion(w, seeds, count)
    # rounding error in either computation grows with the condition of the
    # roots; up to 100 the bound is a flat 1e-9
    bound = 1e-9 * max(1.0, _root_condition(q) / 100.0)
    assert np.max(np.abs(got - ref), initial=0.0) <= bound * max(scale, 1e-300)


def test_unit_circle_roots_stay_bounded():
    q = np.array([np.exp(0.7j), np.exp(-0.7j), np.exp(2.1j), np.exp(-2.1j)])
    w = roots_to_weights(q, 1.0)
    init = np.full(4, 0.5)
    seq = run_recursion(w, init, 10_000)
    assert np.max(np.abs(seq)) < 100.0


def test_companion_layout_fibonacci():
    m = companion_matrix([1.0, -1.0, -1.0])
    np.testing.assert_array_equal(m, [[1.0, 1.0], [1.0, 0.0]])


def test_companion_one_step_equals_recursion_exactly():
    w = [1.0, -1.0, -1.0]
    seq = run_recursion(w, [1.0, 1.0], 10)
    m = companion_matrix(w)
    for k in range(2, 9):
        state = np.array([seq[k - 1], seq[k - 2]])  # newest first
        stepped = m @ state
        np.testing.assert_array_equal(stepped, [seq[k], seq[k - 1]])


def test_companion_eigen_identity_for_growth_factors():
    # general (non-palindromic) law: eigenvalues are 1/q, not q
    w = np.array([1.0, -1.0, -1.0])
    roots = weights_to_roots(w).roots
    m = companion_matrix(w)
    for q in roots:
        g = 1.0 / q
        v = np.array([g, 1.0])
        assert np.linalg.norm(m @ v - g * v) < 1e-10
        v_bad = np.array([q, 1.0])
        assert np.linalg.norm(m @ v_bad - q * v_bad) > 0.1


def test_companion_eigen_identity_on_palindromic_roots():
    z1 = -2.0 * np.cos(np.pi / 3)
    z2 = -2.0 * np.cos(np.pi / 5)
    w = np.array([1.0, z1 + z2, 2.0 + z1 * z2, z1 + z2, 1.0])
    roots = weights_to_roots(w).roots
    m = companion_matrix(w)
    for q in roots:
        v = q ** np.arange(3, -1, -1)
        assert np.linalg.norm(m @ v - q * v) < 1e-8


def test_four_representations_agree():
    rng = np.random.default_rng(303)
    for _ in range(20):
        theta = rng.uniform(0.2, 2.9, 2)
        rho = rng.uniform(0.9, 1.1, 2)
        q = np.concatenate([rho * np.exp(1j * theta), rho * np.exp(-1j * theta)])
        amps = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        c = np.concatenate([amps, np.conj(amps)])
        model = roots_to_model(q, c, dt=1.0)
        sampled = evaluate_model(model, np.arange(50, dtype=float))
        w = roots_to_weights(q, 1.0)
        recursed = run_recursion(w, sampled[:4], 50)
        np.testing.assert_allclose(recursed, sampled, atol=1e-8 * max(1.0, np.max(np.abs(sampled))))


def test_backward_recursion_with_palindromic_law():
    z1 = -2.0 * np.cos(np.pi / 3)
    z2 = -2.0 * np.cos(np.pi / 5)
    w = np.array([1.0, z1 + z2, 2.0 + z1 * z2, z1 + z2, 1.0])
    w = w / np.linalg.norm(w)
    k = np.arange(80)
    y = np.sin(np.pi / 3 * k + 0.2) + 0.7 * np.sin(np.pi / 5 * k + 1.0)
    assert np.max(np.abs(run_recursion(w, y[:4], 80) - y)) < 1e-9  # forward
    yr = y[::-1]
    assert np.max(np.abs(run_recursion(w, yr[:4], 80) - yr)) < 1e-9  # backward
