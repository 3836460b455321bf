import dataclasses
from functools import cache
from itertools import product

import numpy as np
import pytest

from scatcalc import symbols
from scatcalc.grid import (
    GridBudgetError,
    SobolevOrder,
    field_from_function,
    make_grid,
)
from scatcalc.symbols import (
    KERNEL_FLUSH_LEVEL,
    DenseOperator,
    KernelDecayError,
    NotScEllipticError,
    Symbol,
    classical_limit_consistency,
    compose_expansion,
    conormal_seminorm,
    identity_operator,
    operator_norm_estimate,
    parametrix,
    poisson_bracket,
    probe_lattice,
    quantize,
    sym1d,
    symbol_from_kernel,
    symbol_scale,
    symbol_sum,
)

SPEC = make_grid(1, 20.0, 128)


def xi_symbol():
    return sym1d(lambda x, xi: xi + 0 * x, (1, 0), depends_on_x=False)


def x_symbol():
    return sym1d(lambda x, xi: x + 0 * xi, (0, 1), depends_on_xi=False)


def one_symbol():
    return sym1d(
        lambda x, xi: np.ones_like(x + xi), (0, 0), depends_on_x=False, depends_on_xi=False
    )


class TestSeminorm:
    def test_probe_lattice_is_signed_scale_pairs(self):
        # every (|x|, |xi|) scale pair with both signs, scale 0 taken once
        from scatcalc.symbols import _PROBE_SCALES

        expected = {
            (sx * u, sxi * v, sx, sxi)
            for sx, sxi in product(_PROBE_SCALES, repeat=2)
            for u in ((1.0, -1.0) if sx > 0 else (1.0,))
            for v in ((1.0, -1.0) if sxi > 0 else (1.0,))
        }
        X, XI, sx, sxi = probe_lattice()
        assert X.shape == XI.shape == (169,)
        points = list(zip(X, XI, sx, sxi))
        assert len(set(points)) == len(points)
        assert set(points) == expected

    def test_weight_symbol_bounded(self):
        # <xi>^{-1} in its own class: per-index values bounded by small constants
        a = sym1d(lambda x, xi: (1 + xi**2) ** -0.5 + 0 * x, (-1, 0))
        rep = conormal_seminorm(a, 2)
        assert rep.value < 5.0
        assert not rep.flagged
        assert rep.value == max(rep.per_multiindex.values())
        # analytic oracle for the first xi-derivative entry:
        # <xi>^{1+1} |d_xi <xi>^{-1}| = |xi|/<xi>, sup 1 approached on probes
        fd = rep.per_multiindex[(0, 1)]
        assert fd == pytest.approx(1.0, abs=1e-3)
        # and the zeroth entry is exactly the normalized sup = 1
        assert rep.per_multiindex[(0, 0)] == pytest.approx(1.0, abs=1e-12)

    def test_constant_symbol(self):
        rep = conormal_seminorm(one_symbol(), 2)
        assert rep.value == pytest.approx(1.0)
        nonzero = [k for k, v in rep.per_multiindex.items() if v > 1e-7]
        assert nonzero == [(0, 0)]

    def test_log_loss_flagged(self):
        # <x>^{l(x,xi)} with a genuinely variable order, tested in S^{0,0}:
        # the xi-derivative carries a log<x> factor that grows across scales
        amp = 1.0 / 16.0

        def ell(x, xi):
            return -amp * (1.0 + xi / np.sqrt(1.0 + xi**2))

        a = sym1d(lambda x, xi: (1.0 + x**2) ** (0.5 * ell(x, xi)), (0, 0))
        rep = conormal_seminorm(a, 1)
        assert rep.flagged
        # growth across the top scales consistent with a log factor (damped
        # slightly by the <x>^l amplitude at the maximizing probe)
        assert rep.growth_ratio > 1.3

    def test_derivative_budget_cap(self):
        with pytest.raises(ValueError):
            conormal_seminorm(one_symbol(), 5)

    def test_classical_limit_consistency(self):
        a = sym1d(lambda x, xi: (1 + xi**2) ** -0.5 * x / np.sqrt(1 + x**2), (-1, 0))
        assert classical_limit_consistency(a) < 0.05


class TestQuantize:
    def test_op_one_is_identity(self):
        I = quantize(one_symbol(), SPEC)
        assert np.max(np.abs(I.as_l2_matrix() - np.eye(SPEC.size))) < 1e-10

    def test_op_xi_is_spectral_derivative(self):
        D = quantize(xi_symbol(), SPEC)
        u = field_from_function(SPEC, lambda x: np.exp(3j * x) * np.exp(-(x**2) / 8))
        oracle = np.fft.ifft(SPEC.freq_axis() * np.fft.fft(u.values))
        assert np.max(np.abs(D.apply(u).values - oracle)) < 1e-8

    def test_op_xi_action_on_modulated_bump(self):
        # Op(xi) e^{i k x} g = k e^{i k x} g + e^{i k x} (D g)
        k = 3.0
        D = quantize(xi_symbol(), SPEC)
        u = field_from_function(SPEC, lambda x: np.exp(1j * k * x) * np.exp(-(x**2) / 8))
        out = D.apply(u).values
        xs = SPEC.axis()
        dg = -1j * (-xs / 4.0) * np.exp(-(xs**2) / 8)
        expected = k * u.values + np.exp(1j * k * xs) * dg
        assert np.max(np.abs(out - expected)) < 1e-8

    def test_resolvent_multiplier_pair(self):
        inv = sym1d(lambda x, xi: 1 / (1 + xi**2) + 0 * x, (-2, 0), depends_on_x=False)
        fwd = sym1d(lambda x, xi: 1 + xi**2 + 0 * x, (2, 0), depends_on_x=False)
        P = quantize(inv, SPEC).compose(quantize(fwd, SPEC))
        assert np.linalg.norm(P.as_l2_matrix() - np.eye(SPEC.size), 2) < 1e-8

    def test_linearity(self):
        a = sym1d(lambda x, xi: np.exp(-(xi**2) / 3) + 0 * x, (0, 0), depends_on_x=False)
        b = sym1d(lambda x, xi: np.exp(-(x**2) / 5) + 0 * xi, (0, 0), depends_on_xi=False)
        lhs = quantize(symbol_sum(symbol_scale(a, 2.0), symbol_scale(b, -0.5j)), SPEC)
        rhs = 2.0 * quantize(a, SPEC).matrix - 0.5j * quantize(b, SPEC).matrix
        assert np.max(np.abs(lhs.matrix - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_budget(self):
        with pytest.raises(GridBudgetError):
            quantize(one_symbol(), make_grid(1, 20.0, 512))

    def test_right_mode_does_not_reenter_quantize(self, monkeypatch):
        # Op_R(a) = Op_L(conj a)^*, bit for bit, without a second public quantize call
        a = sym1d(lambda x, xi: np.exp(-(x**2) / 4 - xi**2 / 6 + 1j * x * xi / 8), (0, 0))
        conj = Symbol(eval=lambda x, xi: np.conj(a(x, xi)), order=a.order)
        expected = quantize(conj, SPEC).matrix.conj().T
        calls = []
        monkeypatch.setattr(symbols, "quantize", lambda *args, **kw: calls.append(args))
        right = quantize(a, SPEC, mode="right")
        assert calls == []
        assert np.array_equal(right.matrix, expected)

    def test_phase_table_is_shared_per_grid_and_read_only(self):
        table = symbols._phase_table(SPEC)
        assert symbols._phase_table(make_grid(1, 20.0, 128)) is table
        assert not table.flags.writeable
        # bit for bit the tables quantize and symbol_from_kernel built per call
        x, xi = SPEC.axis()[:, None], SPEC.freq_axis()
        assert np.array_equal(table, np.exp(1j * (x * xi)))
        assert np.array_equal(table.conj(), np.exp(-1j * (x * xi)))


def kernel_operator(K):
    """The DenseOperator on SPEC of the kernel K(x, y) sampled at the grid points."""
    x = SPEC.axis()
    return DenseOperator(SPEC, np.asarray(K(x[:, None], x[None, :]), dtype=complex))


class TestSymbolFromKernel:
    def test_round_trip_schwartz(self):
        a = sym1d(lambda x, xi: np.exp(-(x**2) / 2 - xi**2 / 2), (0, 0))
        tab = symbol_from_kernel(quantize(a, SPEC), SPEC)
        xs, xis = SPEC.axis(), SPEC.freq_axis()
        X, XI = np.meshgrid(xs, xis, indexing="ij")
        vals = tab.value_table().reshape(SPEC.size, SPEC.size)
        interior = np.abs(X) <= 10.0
        assert np.max(np.abs(vals - np.exp(-(X**2) / 2 - XI**2 / 2))[interior]) < 1e-8

    def test_gaussian_kernel_fourier_pair(self):
        tab = symbol_from_kernel(kernel_operator(lambda x, y: np.exp(-((x - y) ** 2) / 2)), SPEC)
        vals = tab.value_table().reshape(SPEC.size, SPEC.size)
        xis = SPEC.freq_axis()
        X = SPEC.axis()[:, None]
        interior = np.broadcast_to(np.abs(X) <= 10.0, vals.shape)
        exact = np.sqrt(2 * np.pi) * np.exp(-(xis**2) / 2)[None, :]
        assert np.max(np.abs(vals - exact)[interior]) < 1e-8

    def test_identity_kernel(self):
        tab = symbol_from_kernel(identity_operator(SPEC), SPEC)
        assert np.max(np.abs(tab.value_table() - 1.0)) < 1e-10

    def test_non_decaying_kernel_flagged(self):
        with pytest.raises(KernelDecayError):
            symbol_from_kernel(kernel_operator(lambda x, y: np.cos(x - y)), SPEC)

    def test_callable_kernel_refused(self):
        with pytest.raises(TypeError, match="DenseOperator"):
            symbol_from_kernel(lambda x, y: np.exp(-((x - y) ** 2) / 2), SPEC)


class TestCompose:
    def test_terminating_case_exact(self):
        c = compose_expansion(xi_symbol(), x_symbol(), 2)
        xs = np.array([0.3, 2.0, -1.4])
        xis = np.array([1.5, -0.7, 0.2])
        assert np.allclose(c(xs, xis), xs * xis - 1j)

    def test_terminating_case_dense_oracle(self):
        c = compose_expansion(xi_symbol(), x_symbol(), 2)
        prod = quantize(xi_symbol(), SPEC).compose(quantize(x_symbol(), SPEC))
        diff = prod.as_l2_matrix() - quantize(c, SPEC).as_l2_matrix()
        u = field_from_function(SPEC, lambda x: np.exp(-(x**2) / 6))
        assert np.linalg.norm(diff @ u.values) / np.linalg.norm(u.values) < 1e-9

    def test_right_identity(self):
        a = sym1d(lambda x, xi: np.exp(-(x**2) - xi**2 / 2), (0, 0))
        c = compose_expansion(a, one_symbol(), 3)
        xs = np.array([0.4, -1.0])
        xis = np.array([0.9, 2.0])
        assert np.allclose(c(xs, xis), a(xs, xis), atol=1e-12)

    def test_x_independent_right_factor_takes_no_xi_derivative(self):
        # every term with |alpha| > 0 carries d_x^alpha b = 0: only a itself
        # is evaluated, once per evaluation of the composition
        calls = []

        def f(x, xi):
            calls.append(x.shape)
            return np.exp(-(x**2) - xi**2 / 2)

        a = sym1d(f, (0, 0))
        b = sym1d(lambda x, xi: xi**2 + 1 + 0 * x, (2, 0), depends_on_x=False)
        c = compose_expansion(a, b, 3)
        xs = np.array([0.4, -1.0])
        xis = np.array([0.9, 2.0])
        got = c(xs, xis)
        assert len(calls) == 1
        assert np.array_equal(got, a(xs, xis) * b(xs, xis))

    def test_residual_drops_per_term(self):
        # bracket-weight pair at dilated scale: each term of the expansion
        # gains one joint order, and away from the phase-space origin (scale
        # 2 here) the gain shows as at least a halving of the dense-oracle
        # operator-norm residual per added term
        spec = make_grid(1, 24.0, 128)
        a = sym1d(lambda x, xi: (1 + (xi / 2) ** 2) ** -0.5 + 0 * x, (-1, 0), depends_on_x=False)
        b = sym1d(lambda x, xi: (1 + (x / 2) ** 2) ** -0.5 + 0 * xi, (0, -1), depends_on_xi=False)
        target = quantize(a, spec).compose(quantize(b, spec)).as_l2_matrix()
        resids = []
        for terms in (1, 2, 3):
            c = quantize(compose_expansion(a, b, terms), spec)
            resids.append(np.linalg.norm(target - c.as_l2_matrix(), 2))
        assert resids[0] / resids[1] >= 2.0
        assert resids[1] / resids[2] >= 2.0


class TestPoissonBracket:
    def test_xi_bracket_is_x_derivative(self):
        b = sym1d(lambda x, xi: np.sin(x) * np.exp(-(xi**2) / 9), (0, 0))
        pb = poisson_bracket(xi_symbol(), b)
        xs = np.linspace(-2, 2, 7)
        xis = np.linspace(-3, 3, 7)
        expected = np.cos(xs) * np.exp(-(xis**2) / 9)
        assert np.allclose(pb(xs, xis), expected, atol=1e-7)

    def test_antisymmetry_and_self(self):
        a = sym1d(lambda x, xi: x * xi + np.cos(x), (1, 1))
        b = sym1d(lambda x, xi: xi**2 + x, (2, 1))
        pab = poisson_bracket(a, b)
        pba = poisson_bracket(b, a)
        paa = poisson_bracket(a, a)
        xs = np.linspace(-2, 2, 5)
        xis = np.linspace(-2, 2, 5)
        assert np.allclose(pab(xs, xis), -pba(xs, xis), atol=1e-6)
        assert np.allclose(paa(xs, xis), 0.0, atol=1e-7)

    def test_hand_calculus(self):
        a = sym1d(lambda x, xi: xi**2 + 0 * x, (2, 0), depends_on_x=False)
        b = sym1d(lambda x, xi: x**2 + 0 * xi, (0, 2), depends_on_xi=False)
        pb = poisson_bracket(a, b)
        xs = np.array([1.5, -0.3])
        xis = np.array([0.7, 2.0])
        assert np.allclose(pb(xs, xis), 4 * xs * xis)


class TestParametrix:
    def test_neumann_residuals_halve(self):
        a = sym1d(lambda x, xi: xi**2 + 1.0 + 0 * x, (2, 0), depends_on_x=False)
        A = quantize(a, SPEC)
        I = np.eye(SPEC.size)
        resids = []
        for N in range(4):
            B = quantize(parametrix(a, N), SPEC)
            resids.append(np.linalg.norm(A.compose(B).as_l2_matrix() - I, 2))
        for k in range(3):
            assert resids[k] / resids[k + 1] >= 2.0 - 1e-9

    def test_laplacian_alone_rejected(self):
        a = sym1d(lambda x, xi: xi**2 + 0 * x, (2, 0), depends_on_x=False)
        with pytest.raises(NotScEllipticError):
            parametrix(a, 1)

    def test_constant_symbol_converges_to_one(self):
        # with the low-ellipticity collar active (normalized modulus
        # sits below twice the floor everywhere for a == 1), the parametrix
        # is the Neumann partial sum b0 (1 + ... + r^N) -> 1 with defect
        # exactly 2^{-(N+1)}
        xs = np.array([0.0, 3.0])
        xis = np.array([1.0, -2.0])
        for N in (0, 2, 4):
            b = parametrix(one_symbol(), N)
            assert np.allclose(b(xs, xis), 1.0 - 0.5 ** (N + 1), atol=1e-12)

    def test_residual_kernel_decays_off_diagonal(self):
        a = sym1d(lambda x, xi: xi**2 + 1.0 + 0 * x, (2, 0), depends_on_x=False)
        A = quantize(a, SPEC)
        B = quantize(parametrix(a, 2), SPEC)
        R = A.compose(B).as_l2_matrix() - np.eye(SPEC.size)
        xs = SPEC.axis()
        sep = np.abs(xs[:, None] - xs[None, :])
        near = np.max(np.abs(R[sep < 1.0]))
        far = np.max(np.abs(R[(sep > 10.0) & (sep < 20.0)]))
        # decay rate is set by the symbol's pole distance from the real axis
        assert far < 0.05 * near

    def test_mildly_x_dependent_elliptic(self):
        a = sym1d(
            lambda x, xi: xi**2 + 1.0 + 0.3 / (1 + x**2), (2, 0),
        )
        spec = make_grid(1, 16.0, 64)
        A = quantize(a, spec)
        I = np.eye(spec.size)
        r0 = np.linalg.norm(A.compose(quantize(parametrix(a, 0, expansion_order=2), spec)).as_l2_matrix() - I, 2)
        r1 = np.linalg.norm(A.compose(quantize(parametrix(a, 1, expansion_order=2), spec)).as_l2_matrix() - I, 2)
        assert r1 < r0


#: name -> (depends on x, depends on xi, order, evaluator): sc-elliptic
#: parents of the composite rule, one per dependence pattern
PARENTS = {
    "constant": (False, False, (0, 0), lambda x, xi: 2.0 + 0 * (x + xi)),
    "x-only": (True, False, (0, 1), lambda x, xi: np.sqrt(1 + x**2) + 0 * xi),
    "xi-only": (False, True, (1.5, 0), lambda x, xi: (1 + xi**2) ** 0.75 + 0 * x),
    "two-sided": (True, True, (2, 1), lambda x, xi: (1 + xi**2) * np.sqrt(1 + x**2)),
}
PARENT_PAIRS = list(product(PARENTS, repeat=2))


def parent(name):
    on_x, on_xi, order, f = PARENTS[name]
    return sym1d(f, order, depends_on_x=on_x, depends_on_xi=on_xi)


def assert_composite(c, order, *names):
    """c carries `order` and depends on x (on xi) exactly when a parent does."""
    assert c.order == order
    assert c.depends_on_x == any(PARENTS[n][0] for n in names)
    assert c.depends_on_xi == any(PARENTS[n][1] for n in names)


class TestCompositeRule:
    @pytest.mark.parametrize("first,second", PARENT_PAIRS)
    def test_sum(self, first, second):
        a, b = parent(first), parent(second)
        order = (max(a.order[0], b.order[0]), max(a.order[1], b.order[1]))
        assert_composite(symbol_sum(a, b), order, first, second)

    @pytest.mark.parametrize("name", PARENTS)
    def test_scale(self, name):
        a = parent(name)
        assert_composite(symbol_scale(a, -0.5j), a.order, name)

    @pytest.mark.parametrize("first,second", PARENT_PAIRS)
    def test_compose_expansion(self, first, second):
        a, b = parent(first), parent(second)
        for terms in (1, 2, 3):
            c = compose_expansion(a, b, terms)
            assert_composite(c, (a.order[0] + b.order[0], a.order[1] + b.order[1]), first, second)

    @pytest.mark.parametrize("first,second", PARENT_PAIRS)
    def test_poisson_bracket(self, first, second):
        a, b = parent(first), parent(second)
        order = (a.order[0] + b.order[0] - 1, a.order[1] + b.order[1] - 1)
        assert_composite(poisson_bracket(a, b), order, first, second)

    @pytest.mark.parametrize("name", PARENTS)
    def test_parametrix(self, name):
        a = parent(name)
        for N in range(3):
            assert_composite(parametrix(a, N), (-a.order[0], -a.order[1]), name)

    def test_symbol_is_frozen(self):
        a = parent("two-sided")
        for field, value in (("order", (0, 0)), ("depends_on_x", False), ("eval", abs)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, field, value)


class TestOperatorNorm:
    def test_identity_matched_orders(self):
        I = identity_operator(SPEC)
        assert operator_norm_estimate(I, SobolevOrder(0, 0), SobolevOrder(0, 0)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_riesz_smoothing_norm_one(self):
        a = sym1d(lambda x, xi: (1 + xi**2) ** -0.5 + 0 * x, (-1, 0), depends_on_x=False)
        v1 = operator_norm_estimate(quantize(a, SPEC), SobolevOrder(0, 0), SobolevOrder(1, 0))
        spec2 = make_grid(1, 20.0, 192)
        v2 = operator_norm_estimate(quantize(a, spec2), SobolevOrder(0, 0), SobolevOrder(1, 0))
        assert v1 == pytest.approx(1.0, rel=1e-6)
        assert abs(v1 - v2) / v1 < 0.10

    def test_unbounded_derivative_witnessed(self):
        for N in (64, 128):
            spec = make_grid(1, 20.0, N)
            v = operator_norm_estimate(
                quantize(xi_symbol(), spec), SobolevOrder(0, 0), SobolevOrder(0, 0)
            )
            assert v == pytest.approx(np.pi / spec.spacing, rel=1e-8)

    def test_submultiplicative(self):
        a = sym1d(lambda x, xi: np.exp(-(xi**2) / 4) + 0 * x, (0, 0), depends_on_x=False)
        b = sym1d(lambda x, xi: np.exp(-(x**2) / 4) + 0 * xi, (0, 0), depends_on_xi=False)
        A, B = quantize(a, SPEC), quantize(b, SPEC)
        o = SobolevOrder(0.5, -0.5)
        oo = SobolevOrder(0, 0)
        nAB = operator_norm_estimate(A.compose(B), oo, oo)
        assert nAB <= operator_norm_estimate(A, o, oo) * operator_norm_estimate(B, oo, o) + 1e-9


# ---------------------------------------------------------------------------
# the flush of tiny kernel parts, against the unflushed kernel build
# ---------------------------------------------------------------------------


def unflushed_kernel(a, spec):
    """The left kernel as quantize built it before the flush: the oracle."""
    sym = a(spec.axis()[:, None], spec.freq_axis())
    rows = np.fft.fft(sym * symbols._phase_table(spec) * spec._alt_signs(), axis=1)
    return (2.0 * np.pi) ** -1 * spec.freq_spacing * rows


def parts(M):
    """The real and imaginary parts of a complex matrix, as one float array."""
    return np.ascontiguousarray(M).view(float)


def flush_level(M):
    return KERNEL_FLUSH_LEVEL * np.max(np.abs(parts(M)))


def assert_oracle_flushed(got, oracle):
    """got equals oracle at every part at or above the level, and is 0 below it."""
    g, o = parts(got), parts(oracle)
    kept = np.abs(o) >= flush_level(oracle)
    assert np.array_equal(g[kept], o[kept])
    assert np.all(g[~kept] == 0.0)


def assert_no_tiny_part(M):
    p = np.abs(parts(M))
    assert not np.any((p > 0.0) & (p < flush_level(M)))


COMMUTATOR_SPEC = make_grid(1, 30.0, 256)


def commutator_symbols(s, sig):
    """The benchmark's commutator pairs at width s: a, a shifted by 2, b and
    the Poisson brackets {a, b} and {a shifted, b}."""

    def gx(x, c=0.0):
        return np.exp(-(((x - c) / s) ** 4))

    def gxi(xi):
        return np.exp(-((xi / sig) ** 4))

    a = sym1d(lambda x, xi: xi * gx(x) * gxi(xi), (1, 0))
    a2 = sym1d(lambda x, xi: xi * gx(x, 2.0) * gxi(xi), (1, 0))
    b = sym1d(lambda x, xi: sig * gx(x) * gxi(xi), (1, 0))
    return {"a": a, "a2": a2, "b": b, "pb": poisson_bracket(a, b), "pb2": poisson_bracket(a2, b)}


def parametrix_symbols(mass2=1.25):
    a = sym1d(lambda x, xi: xi**2 + mass2 + 0 * x, (2, 0), depends_on_x=False)
    out = {"a": a}
    out.update({f"B{N}": parametrix(a, N) for N in range(4)})
    return out


def criterion1_symbols():
    s_xi, s_x = xi_symbol(), x_symbol()
    return {
        "one": one_symbol(),
        "xi": s_xi,
        "x": s_x,
        "xi_x": compose_expansion(s_xi, s_x, 2),
        "gauss": sym1d(lambda x, xi: np.exp(-(x**2) / 2 - xi**2 / 2), (0, 0)),
    }


#: name -> (grid, symbols): criteria 1-3's symbols, the commutators at s in
#: {5.5, 6.5} and at their doubles as the benchmark draws them (sig = 0.6 s)
FLUSH_CASES = {
    **{f"commutator-{s}": (COMMUTATOR_SPEC, lambda s=s: commutator_symbols(s, 0.6 * s))
       for s in (5.5, 6.5, 11.0, 13.0)},
    "parametrix": (SPEC, parametrix_symbols),
    "criterion-1": (SPEC, criterion1_symbols),
}


#: the cases whose kernels and products have parts below the level
TINY_CASES = ("commutator-5.5", "commutator-6.5")


@cache
def flush_case(name):
    """{symbol name: (quantize's operator, the unflushed oracle kernel)}."""
    spec, build = FLUSH_CASES[name]
    return spec, {k: (quantize(a, spec), unflushed_kernel(a, spec)) for k, a in build().items()}


class TestKernelFlush:
    @pytest.mark.parametrize("name", list(FLUSH_CASES))
    def test_quantize_is_the_oracle_flushed(self, name):
        _, ops = flush_case(name)
        for op, oracle in ops.values():
            assert_oracle_flushed(op.matrix, oracle)
            assert_no_tiny_part(op.matrix)
        if name in TINY_CASES:
            # the benchmark's own widths: every kernel had tiny parts to flush
            assert all(np.any(op.matrix != oracle) for op, oracle in ops.values())

    @pytest.mark.parametrize("name", ["parametrix", "criterion-1", *TINY_CASES])
    def test_compose_is_the_plain_product_flushed(self, name):
        _, ops = flush_case(name)
        left, *rights = [op for op, _ in ops.values()]
        for right in rights:
            got = left.compose(right).matrix
            plain = left.as_l2_matrix() @ right.matrix
            assert_oracle_flushed(got, plain)
            assert_no_tiny_part(got)
            assert np.array_equal(got, plain) == (name not in TINY_CASES)

    def test_right_quantization_is_flushed(self):
        a = commutator_symbols(5.5, 3.3)["pb"]
        right = quantize(a, COMMUTATOR_SPEC, mode="right").matrix
        conj = Symbol(eval=lambda x, xi: np.conj(a(x, xi)), order=a.order)
        assert_oracle_flushed(right, unflushed_kernel(conj, COMMUTATOR_SPEC).conj().T)
        assert_no_tiny_part(right)

    @pytest.mark.parametrize("s", [5.5, 6.5])
    def test_commutator_ratios_are_bit_identical(self, s):
        # 1 - i[A, B] against Op({a, b}), as the benchmark computes it, from
        # quantize's kernels and from the unflushed ones
        for width in (s, 2 * s):
            spec, ops = flush_case(f"commutator-{width}")
            for which in ("", "2"):
                got, want = (
                    self._ratio(*(get(ops[k]) * spec.spacing for k in (f"a{which}", "b", f"pb{which}")))
                    for get in (lambda t: t[0].matrix, lambda t: t[1])
                )
                assert got == want

    @staticmethod
    def _ratio(A, B, pb):
        return float(np.linalg.norm(1j * (A @ B - B @ A) - pb, 2) / np.linalg.norm(pb, 2))

    def test_parametrix_residuals_are_bit_identical(self):
        spec, ops = flush_case("parametrix")
        A, A_oracle = ops["a"]
        eye = np.eye(spec.size)
        for N in range(4):
            B, B_oracle = ops[f"B{N}"]
            got = np.linalg.norm(A.compose(B).as_l2_matrix() - eye, 2)
            h = spec.spacing
            want = np.linalg.norm((A_oracle * h @ B_oracle) * h - eye, 2)
            assert got == want

    def test_criterion1_errors_are_bit_identical(self):
        spec, ops = flush_case("criterion-1")
        eye = np.eye(spec.size)
        one, one_oracle = ops["one"]
        assert np.max(np.abs(one.as_l2_matrix() - eye)) == np.max(np.abs(one_oracle * spec.spacing - eye))
        X, XI = np.meshgrid(spec.axis(), spec.freq_axis(), indexing="ij")
        exact = np.exp(-(X**2) / 2 - XI**2 / 2)
        interior = np.abs(X) <= 10.0
        gauss, gauss_oracle = ops["gauss"]
        got, want = (
            np.max(np.abs(symbol_from_kernel(op, spec).value_table() - exact)[interior])
            for op in (gauss, DenseOperator(spec, gauss_oracle))
        )
        assert got == want

    def test_non_finite_kernels_are_still_refused(self):
        a = sym1d(lambda x, xi: np.where((x == 0) & (xi == 0), np.nan, 1.0 + 0 * x * xi), (0, 0))
        with np.errstate(invalid="ignore"), pytest.raises(symbols.InputRefusal):
            quantize(a, SPEC)
        # a NaN part flushes nothing, an infinite one every finite part: the
        # non-finite parts stay for DenseOperator to refuse
        for bad in (np.nan, np.inf, -np.inf):
            K = np.array([[1e-200, bad], [1.0 + 1e-300j, 2.0]], dtype=complex)
            flushed = symbols._flush_tiny(K.copy())
            assert np.array_equal(np.isfinite(flushed), np.isfinite(K))
            with pytest.raises(symbols.InputRefusal):
                DenseOperator(SPEC, flushed)
