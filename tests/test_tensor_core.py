"""The sparse component-array core of the tensor classes and its one
contraction.

Every evaluation, slot contraction and endomorphism application is checked
against an index sum written out in plain sympy on random fields over R^3,
with and without sin/cos/exp atoms and with zero components mixed in.
``contract`` must return the same sum as a scalar of the chart's rational
function field (the written-out sympy sum, converted), and the public
operations its canonical form.  A Hypothesis property does the same for
random specs, and work pins count the field work the join does.
"""

import itertools
import random
import sys

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwb import calculus
from ggwb.calculus import (
    ChartManifold,
    EndoTM,
    MetricField,
    OneForm,
    ThreeForm,
    TwoForm,
    VectorField,
    _Array,
    _SymBilinear,
    _levi_civita,
    contract,
    interior,
    musical_flat,
    musical_sharp,
    tensor_oneform_vector,
    wedge,
)
from ggwb.courant import (
    BigEndo,
    BigSection,
    big_frame,
    courant_bracket,
    lift_big_section,
    pairing,
    section_array,
)
from ggwb.errors import ChartMismatchError, ExprError, SingularMetricError
from ggwb.structures.genmetric import GenMetric, courant_bracket_Vpm
from ggwb.symexpr import ScalarExpr, _derivative, _embed, random_poly
from sympy_oracle import symbols, to_scalar

N = 3


@pytest.fixture(scope="module")
def chart():
    return ChartManifold("core3", ["x", "y", "z"])


def _entry(chart, rng, atoms):
    """Zero, a rational constant or a polynomial, times an atom if asked."""
    kind = rng.randrange(4)
    if kind == 0:
        return chart.zero
    if kind == 1:
        e = sp.Rational(rng.randint(-5, 5), rng.randint(1, 5))
    else:
        e = random_poly(chart, rng, 2).expr
    if atoms and rng.random() < 0.6:
        x = rng.choice(symbols(chart))
        e = e * rng.choice((sp.sin(x), sp.cos(x + 1), sp.exp(-x))) + rng.randint(0, 2)
    return to_scalar(e, chart)


def _array(chart, rng, atoms, shape):
    if not shape:
        return _entry(chart, rng, atoms)
    return [_array(chart, rng, atoms, shape[1:]) for _ in range(shape[0])]


def _scalars(chart, t):
    """Nested sympy expressions as nested scalars of the chart."""
    if isinstance(t, (list, tuple)):
        return [_scalars(chart, e) for e in t]
    return to_scalar(t, chart)


def _texts(t):
    """The printed entries of a field, nested."""
    if isinstance(t, ScalarExpr):
        return str(t)
    if hasattr(t, "components"):
        t = t.components
    return [_texts(e) for e in t]


def _raw(t):
    """Raw nested expressions of a field, read entry by entry."""
    if isinstance(t, ScalarExpr):
        return t.expr
    if hasattr(t, "components"):
        t = t.components
    return [_raw(e) for e in t]


def _loop_sum(terms):
    total = sp.Integer(0)
    for t in terms:
        total += t
    return total


class Fields:
    def __init__(self, chart, seed, atoms):
        rng = random.Random(seed)
        arr = lambda *shape: _array(chart, rng, atoms, shape)  # noqa: E731
        self.X, self.Y, self.U = (VectorField(chart, arr(N)) for _ in range(3))
        self.a = OneForm(chart, arr(N))
        m = arr(N, N)
        self.w = TwoForm(chart, [[m[i][j] - m[j][i] for j in range(N)] for i in range(N)])
        c = arr(N, N, N)
        self.t3 = ThreeForm(chart, [[[
            c[i][j][k] - c[j][i][k] + c[j][k][i] - c[k][j][i] + c[k][i][j] - c[i][k][j]
            for k in range(N)] for j in range(N)] for i in range(N)])
        self.F = EndoTM(chart, arr(N, N))
        while True:
            # symbolic inversion with atoms everywhere is slow; one atom
            # on the diagonal keeps musical_sharp covered
            m = _array(chart, rng, False, (N, N))
            sym = [[m[i][j] + m[j][i] + (3 if i == j else 0) for j in range(N)] for i in range(N)]
            if atoms:
                sym[0][0] += to_scalar(sp.exp(-symbols(chart)[0]), chart)
            try:
                self.g = MetricField(chart, sym)
                break
            except SingularMetricError:
                continue
        v = arr(N)
        self.S = _SymBilinear(chart, [[v[i] * v[j] for j in range(N)] for i in range(N)])
        self.A = BigEndo(chart, arr(2 * N, 2 * N))
        self.s1 = BigSection(self.X, self.a)
        self.s2 = BigSection(self.Y, OneForm(chart, arr(N)))


CASES = [(seed, atoms) for atoms in (False, True) for seed in range(4)]


@pytest.fixture(scope="module", params=CASES, ids=[f"seed{s}-{'atoms' if a else 'rational'}" for s, a in CASES])
def f(request, chart):
    seed, atoms = request.param
    return Fields(chart, seed, atoms)


def _flat(t):
    if isinstance(t, _Array):
        t = t.components
    return [t] if not isinstance(t, (list, tuple)) else [e for p in t for e in _flat(p)]


def _assert_index_sum(got, ref, *operands):
    """``contract``'s result against the written-out loop ``ref``, entry by
    entry, as scalars of the operands' chart."""
    chart = operands[0].chart
    assert all(isinstance(g, ScalarExpr) for g in _flat(got))
    assert [g.rf for g in _flat(got)] == [to_scalar(r, chart).rf for r in _flat(ref)]


def _same(chart, got, ref):
    """A public operation's result equals the canonical form of ``ref``."""
    if isinstance(got, ScalarExpr):
        assert got.expr == to_scalar(ref, chart).expr
        return
    got = got.components() if isinstance(got, BigSection) else got.components
    assert [e.expr for e in _flat(list(got))] == [to_scalar(r, chart).expr for r in _flat(ref)]


# -- full evaluation -------------------------------------------------------


def test_evaluation_of_covariant_tensors(chart, f):
    X, Y, U = (_raw(v) for v in (f.X, f.Y, f.U))
    r = range(N)
    ref = _loop_sum(_raw(f.a)[i] * X[i] for i in r)
    _assert_index_sum(contract("i,i->", f.a, f.X), ref, f.a, f.X)
    _same(chart, f.a(f.X), ref)
    for T in (f.w, f.g, f.S):
        t = _raw(T)
        ref = _loop_sum(t[i][j] * X[i] * Y[j] for i in r for j in r)
        _assert_index_sum(contract("ij,i,j->", T, f.X, f.Y), ref, T, f.X, f.Y)
        _same(chart, T(f.X, f.Y), ref)
    t = _raw(f.t3)
    ref = _loop_sum(t[i][j][k] * X[i] * Y[j] * U[k] for i in r for j in r for k in r)
    _assert_index_sum(contract("ijk,i,j,k->", f.t3, f.X, f.Y, f.U), ref, f.t3, f.X, f.Y, f.U)
    _same(chart, f.t3(f.X, f.Y, f.U), ref)


def test_nested_sequences_and_raw_entries(chart, f):
    """Plain nested lists of ScalarExpr or of grammar text contract the
    same; with no operand on a chart there is no field to sum in."""
    t, X, Y = _raw(f.g), _raw(f.X), _raw(f.Y)
    ref = to_scalar(_loop_sum(t[i][j] * X[i] * Y[j] for i in range(N) for j in range(N)), chart)
    t, X, Y = _texts(f.g), _texts(f.X), _texts(f.Y)
    assert contract("ij,i,j->", f.g.components, list(f.X.components), Y) == ref
    assert contract("ij,i,j->", t, X, list(f.Y.components)) == ref
    with pytest.raises(ExprError):
        contract("ij,i,j->", t, X, Y)


# -- one slot, endomorphisms, outer products ---------------------------------


def test_slot_contractions(chart, f):
    X, a, F = _raw(f.X), _raw(f.a), _raw(f.F)
    r = range(N)
    for T in (f.w, f.g, f.S):
        t = _raw(T)
        ref = [_loop_sum(X[i] * t[i][j] for i in r) for j in r]
        _assert_index_sum(contract("i,ij->j", f.X, T), ref, f.X, T)
        _same(chart, musical_flat(T, f.X), ref)
    w = _raw(f.w)
    _same(chart, interior(f.X, f.w), [_loop_sum(X[i] * w[i][j] for i in r) for j in r])
    t = _raw(f.t3)
    ref = [[_loop_sum(X[i] * t[i][j][k] for i in r) for k in r] for j in r]
    _assert_index_sum(contract("i,ijk->jk", f.X, f.t3), ref, f.X, f.t3)
    _same(chart, interior(f.X, f.t3), ref)
    ref = [_loop_sum(a[i] * F[i][j] for i in r) for j in r]
    _assert_index_sum(contract("i,ij->j", f.a, f.F), ref, f.a, f.F)
    _same(chart, f.a.compose_endo(f.F), ref)
    inv = _raw(f.g.inverse_matrix())
    _same(chart, musical_sharp(f.g, f.a), [_loop_sum(inv[j][k] * a[k] for k in r) for j in r])
    g, G = _raw(f.g), GenMetric(f.g, f.w)
    for sign in (1, -1):
        ref = [_loop_sum(X[i] * (w[i][j] + sign * g[i][j]) for i in r) for j in r]
        _same(chart, G.section(f.X, sign).alpha, ref)


def test_endomorphisms_apply(chart, f):
    X, F = _raw(f.X), _raw(f.F)
    r = range(N)
    ref = [_loop_sum(F[i][j] * X[j] for j in r) for i in r]
    _assert_index_sum(contract("ij,j->i", f.F, f.X), ref, f.F, f.X)
    _same(chart, f.F(f.X), ref)
    A, col = _raw(f.A), _raw(f.s1.components())
    ref = [_loop_sum(A[i][j] * col[j] for j in range(2 * N)) for i in range(2 * N)]
    assert list(contract("ij,j->i", f.A, _scalars(chart, col))) == _scalars(chart, ref)
    _same(chart, f.A(f.s1), ref)
    prod = [[_loop_sum(F[i][k] * F[k][j] for k in r) for j in r] for i in r]
    _same(chart, f.F @ f.F, prod)


def test_outer_products_and_pairing(chart, f):
    X, a, b = _raw(f.X), _raw(f.a), _raw(f.s2.alpha)
    r = range(N)
    _same(chart, tensor_oneform_vector(f.a, f.X), [[X[i] * a[j] for j in r] for i in r])
    _same(chart, wedge(f.a, f.s2.alpha), [[a[i] * b[j] - a[j] * b[i] for j in r] for i in r])
    Y = _raw(f.Y)
    ref = _loop_sum(itertools.chain((a[i] * Y[i] for i in r), (b[i] * X[i] for i in r))) / 2
    _same(chart, pairing(f.s1, f.s2), ref)


# -- sections of TM + T*M on the core ----------------------------------------


def _halves(X, a):
    """A section's 2n components written out: those of X, then those of a."""
    return _raw(X) + _raw(a)


def test_section_algebra_is_the_core_algebra(chart, f):
    """+, -, neg, * by an atom scalar, conjugate and == on the 2n core
    array agree with the same operations done half by half on (X, a)."""
    Y, b = f.Y, f.s2.alpha
    s1, s2 = _halves(f.X, f.a), _halves(Y, b)
    _same(chart, f.s1 + f.s2, [u + v for u, v in zip(s1, s2)])
    _same(chart, f.s1 - f.s2, [u - v for u, v in zip(s1, s2)])
    _same(chart, -f.s1, [-u for u in s1])
    x, y = symbols(chart)[:2]
    h = to_scalar(sp.sin(x) * y + sp.exp(-y), chart)
    _same(chart, f.s1 * h, [u * h.expr for u in s1])
    _same(chart, 2 * f.s1, [2 * u for u in s1])
    assert f.s1 + f.s2 == BigSection(f.X + Y, f.a + b)
    assert f.s1 * h == BigSection(f.X * h, f.a * h)
    assert f.s1.X == f.X and f.s1.alpha == f.a
    assert f.s1 != f.s2 and f.s1 != f.X
    c = f.s1 + BigSection.from_components(chart, {(N,): to_scalar(sp.I * x, chart),
                                                  (1,): to_scalar(2 - sp.I, chart)})
    ref = [u + (sp.I * x if k == N else 2 - sp.I if k == 1 else 0) for k, u in enumerate(s1)]
    _same(chart, c, ref)
    _same(chart, c.conjugate(), [u.subs(sp.I, -sp.I) for u in ref])
    assert c.conjugate() != c and c.conjugate().conjugate() == c
    assert f.s1.conjugate() == f.s1
    assert repr(f.s1) == f"BigSection({f.X!r}, {f.a!r})"
    with pytest.raises(TypeError):
        hash(f.s1)


def test_section_constructors_and_outer(chart, f):
    """from_components (a sequence, a dict, a core array), big_frame,
    section_array, lift_big_section and BigEndo.outer against their
    entries written out from X and a."""
    s1, s2 = _halves(f.X, f.a), _halves(f.Y, f.s2.alpha)
    m = 2 * N
    S1 = _scalars(chart, s1)
    assert BigSection.from_components(chart, S1) == f.s1
    assert BigSection.from_components(chart, f.s1.components()) == f.s1
    assert BigSection.from_components(chart, {(k,): e for k, e in enumerate(S1) if e.rf}) == f.s1
    assert BigSection.from_components(chart, _Array(chart, S1, (m,))) == f.s1
    with pytest.raises(ExprError):
        BigSection.from_components(chart, S1[:-1])
    frame = big_frame(chart)
    assert len(frame) == m
    for k, e in enumerate(frame):
        _same(chart, e, [1 if i == k else 0 for i in range(m)])
    _same(chart, section_array([f.s1, f.s2]), [[u, v] for u, v in zip(s1, s2)])
    product = chart.product_with_line()
    X, a = _raw(f.X), _raw(f.a)
    _same(product, lift_big_section(f.s1, product), X + [0] + a + [0])
    # g(s2, e_j) is b_j / 2 on a vector slot and Y^j / 2 on a covector slot
    row = [e / 2 for e in _raw(f.s2.alpha) + _raw(f.Y)]
    _same(chart, BigEndo.outer(f.s1, f.s2), [[u * r for r in row] for u in s1])


def test_a_scalar_on_the_left_scales_a_field(chart, f):
    """h * T is T * h for a vector field, a 1-form and a section, the
    scalar on either side; a sum or difference of a scalar and a field, in
    either order, is refused with a TypeError."""
    x, y = symbols(chart)[:2]
    h = to_scalar(sp.sin(x) * y + sp.exp(-y), chart)
    for T in (f.X, f.a, f.s1):
        assert type(h * T) is type(T)
        assert h * T == T * h
        for refused in (lambda: h + T, lambda: h - T, lambda: T + h, lambda: T - h):
            with pytest.raises(TypeError):
                refused()


def test_a_section_has_no_matrix_and_no_evaluation(chart, f):
    """The core's matrix view and covariant evaluation are not a section's."""
    with pytest.raises(AttributeError):
        f.s1.matrix
    with pytest.raises(TypeError):
        f.s1(f.X)
    assert not hasattr(f.s1, "matrix")


# -- the elementwise algebra -----------------------------------------------


def test_elementwise_algebra(chart, f):
    h = random_poly(chart, random.Random(5))
    for T in (f.X, f.a, f.w, f.t3, f.F, f.S, f.A):
        t = _raw(T)
        s = T + T
        assert type(s) is type(T)
        assert s == T * 2 == 2 * T
        assert (T - T).is_syntactic_zero
        assert (-T + T).is_syntactic_zero
        assert T * 0 - T == -T
        assert (T * h).components == type(T)(chart, _scalars(chart, _scale(t, h.expr))).components
        assert T.conjugate() == T
        assert repr(T).startswith(type(T).__name__ + "(")


def _scale(t, h):
    if not isinstance(t, list):
        return t * h
    return [_scale(e, h) for e in t]


def test_sym_view_is_cached_and_matches_components(f):
    """The sparse store ``contract`` reads: the nonzero entries only, by
    index tuple, in a field that holds all of them and equal to the
    components' own; the components view is built from it once."""
    for T in (f.X, f.F, f.g, f.A):
        K = T.field
        assert T.components is T.components
        comps = _flat_entries(T.components)
        indices = itertools.product(*map(range, T.shape))
        assert all(e.field is K and e for e in T.entries.values())
        assert T.entries == {ix: _embed(c.rf, K) for ix, c in zip(indices, comps) if c.rf}


# -- charts ------------------------------------------------------------------


def test_mixing_charts_raises(chart):
    other = ChartManifold("other3", ["x", "y", "z"])
    f, g = Fields(chart, 0, False), Fields(other, 0, False)
    with pytest.raises(ChartMismatchError):
        contract("ij,i,j->", f.g, f.X, g.Y)
    calls = [
        lambda: f.X + g.X,
        lambda: f.F - g.F,
        lambda: f.A + g.A,
        lambda: f.F @ g.F,
        lambda: f.a(g.X),
        lambda: f.w(f.X, g.Y),
        lambda: f.S(g.X, f.Y),
        lambda: f.g(f.X, g.Y),
        lambda: f.t3(f.X, f.Y, g.U),
        lambda: f.F(g.X),
        lambda: f.A(g.s1),
        lambda: f.a.compose_endo(g.F),
        lambda: interior(g.X, f.w),
        lambda: musical_flat(f.g, g.X),
        lambda: musical_sharp(f.g, g.a),
        lambda: pairing(f.s1, g.s2),
        lambda: f.X * g.X.components[0],
    ]
    for call in calls:
        with pytest.raises(ChartMismatchError):
            call()


# -- derivatives in the Courant brackets -----------------------------------


def _record_derivatives(monkeypatch):
    """Every field element differentiated by any ggwb module, in call order:
    a spy on the derivative kernel ``symexpr._derivative``, which every
    route (``calculus._partials`` and ``pdiff``) reaches, in each module
    that binds it."""
    seen = []

    def recording(rf, name):
        seen.append(rf)
        return _derivative(rf, name)

    for name, module in list(sys.modules.items()):
        if name.startswith("ggwb") and getattr(module, "_derivative", None) is _derivative:
            monkeypatch.setattr(module, "_derivative", recording)
    return seen


@pytest.mark.parametrize("seed", range(4))
def test_courant_bracket_differentiates_only_components(chart, monkeypatch, seed):
    f = Fields(chart, seed, atoms=seed % 2 == 1)
    inputs = {c.rf for s in (f.s1, f.s2) for c in s.components()}
    seen = _record_derivatives(monkeypatch)
    courant_bracket(f.s1, f.s2)
    assert seen
    assert [e for e in seen if e not in inputs] == []
    assert all(seen)  # no zero is differentiated


@pytest.fixture(scope="module")
def vpm_metrics(chart):
    """Fields, and generalized metrics with psi != 0 on the S2 metric and on
    a random symmetric metric with degree-2 polynomial entries."""
    f = Fields(chart, 1, atoms=False)
    s2 = MetricField(chart, [["1+y^2", "0", "-y"], ["0", "1", "0"], ["-y", "0", "1"]])
    psi = TwoForm(chart, [["0", "z", "0"], ["-z", "0", "x"], ["0", "-x", "0"]])
    return f, [GenMetric(gamma, psi) for gamma in (s2, f.g)]


@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)])
def test_crvpm_differentiates_only_components(vpm_metrics, monkeypatch, signs):
    f, metrics = vpm_metrics
    for G in metrics:
        inputs = {c.rf for T in (f.X, f.Y, G.gamma, G.psi) for c in _flat_entries(T.components)}
        seen = _record_derivatives(monkeypatch)
        courant_bracket_Vpm(G, f.X, f.Y, signs)
        assert seen
        assert [e for e in seen if e not in inputs] == []
        assert all(seen)  # no zero is differentiated
        monkeypatch.undo()


def _flat_entries(t):
    if isinstance(t, ScalarExpr):
        return [t]
    return [e for p in t for e in _flat_entries(p)]


# -- the join: random specs, and the work it does ------------------------------

DIMS = {"i": 2, "j": 3, "k": 2}


@st.composite
def _specs(draw):
    """A spec of 1-3 operands of rank 1-3 over the letters i, j, k (shared
    between operands, repeated within one), an output of distinct used
    letters (none for a scalar), and one entry code per operand entry."""
    ins = [draw(st.text("ijk", min_size=1, max_size=3)) for _ in range(draw(st.integers(1, 3)))]
    used = sorted(set("".join(ins)))
    out = draw(st.permutations(used).flatmap(lambda p: st.integers(0, len(p)).map(lambda m: p[:m])))
    codes = [draw(st.lists(st.integers(0, 5), min_size=_size(idx), max_size=_size(idx)))
             for idx in ins]
    return f"{','.join(ins)}->{''.join(out)}", ins, codes, draw(st.booleans())


def _size(idx):
    n = 1
    for c in idx:
        n *= DIMS[c]
    return n


def _value(code, x, y):
    """Zero half the time, else a constant or a small polynomial."""
    return (0, 0, 0, sp.Rational(-3, 2), x * y - 2, x**2 + y)[code]


@settings(max_examples=60, deadline=None)
@given(_specs())
def test_contract_agrees_with_the_written_out_sum(case):
    spec, ins, codes, as_core = case
    chart = ChartManifold("join2", ["x", "y"])
    x, y = symbols(chart)
    operands, grids = [], []
    for idx, cs in zip(ins, codes):
        shape = tuple(DIMS[c] for c in idx)
        grid = dict(zip(itertools.product(*map(range, shape)), (_value(c, x, y) for c in cs)))
        grids.append(grid)
        nested = _nest_grid(chart, grid, shape, ())
        operands.append(_Array(chart, nested, shape) if as_core else nested)
    out = spec.split("->")[1]
    letters = sorted(set("".join(ins)))
    ref = {}
    for values in itertools.product(*(range(DIMS[c]) for c in letters)):
        bind = dict(zip(letters, values))
        term = sp.Integer(1)
        for idx, grid in zip(ins, grids):
            term *= grid[tuple(bind[c] for c in idx)]
        key = tuple(bind[c] for c in out)
        ref[key] = ref.get(key, sp.Integer(0)) + term
    got = contract(spec, *operands)
    if not out:
        assert isinstance(got, ScalarExpr)
        assert got.rf == to_scalar(ref[()], chart).rf
        return
    assert got.shape == tuple(DIMS[c] for c in out)
    for ix, r in ref.items():
        e = got.components
        for i in ix:
            e = e[i]
        assert e.rf == to_scalar(r, chart).rf
    assert all(got.entries.values())


def _nest_grid(chart, grid, shape, ix):
    if len(ix) == len(shape):
        return to_scalar(grid[ix], chart)
    return [_nest_grid(chart, grid, shape, ix + (i,)) for i in range(shape[len(ix)])]


def _count_products(monkeypatch):
    """Products formed by ``contract``: the terms of every field sum."""
    work = {"calls": 0, "products": 0}
    field_sum = calculus._field_sum

    def counted(K, terms):
        work["calls"] += 1
        work["products"] += len(terms)
        return field_sum(K, terms)

    monkeypatch.setattr(calculus, "_field_sum", counted)
    return work


def test_diagonal_determinant_forms_one_product(monkeypatch):
    chart = ChartManifold("R5", ["a", "b", "c", "d", "e"])
    work = _count_products(monkeypatch)
    g = MetricField(chart, [["1+a^2" if i == j == 0 else (i + 1 if i == j else 0)
                             for j in range(5)] for i in range(5)])
    assert work == {"calls": 1, "products": 1}
    assert g._determinant == ScalarExpr("120*(1+a^2)", chart)


def test_an_operand_without_nonzeros_does_no_field_work(chart, monkeypatch):
    f = Fields(chart, 0, atoms=True)
    zero = EndoTM(chart, [[0] * N for _ in range(N)])
    work = _count_products(monkeypatch)
    assert (f.F @ zero).is_syntactic_zero
    assert contract("ij,jk,k->i", f.F, zero, f.X).is_syntactic_zero
    assert contract("ij,i,j->", zero, f.X, f.Y) is chart.zero
    assert work == {"calls": 0, "products": 0}


def test_levi_civita_stores_only_the_permutations():
    chart = ChartManifold("R5", ["a", "b", "c", "d", "e"])
    eps = _levi_civita(chart, 5)
    assert eps.shape == (5,) * 5
    assert len(eps.entries) == 120
    assert eps.components[0][1][2][3][4] == 1
    assert eps.components[1][0][2][3][4] == -1
    assert eps.components[0][0][2][3][4].is_syntactic_zero
