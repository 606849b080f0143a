import random
from fractions import Fraction
from functools import partial
from operator import mul

import pytest

from symplaw.errors import DimensionError, MembershipError, StructureError, SymplawError, VariableError
from symplaw.gma import (
    GmaSpec,
    GmaType,
    QuotientRing,
    _constant_or_raise,
    _in_span_rows,
    _span_rows,
    build_J_delta,
    check_sch_condition,
    counterexample_fixture,
    delta_involution,
    gma_chi_p,
    gma_pf_coeffs,
    gma_trace_det_pf,
    kernel_probe,
    random_gma_element,
    random_symmetric_gma_element,
    standard_fixture,
    validate_standard_gma,
)
from symplaw.matrices import (
    IntegerEliminator,
    RingMatrix,
    lambdas_of_matrix,
    mat_det,
    matrix_rank,
    trace_of_product,
)
from symplaw.multipoly import MultiPoly
from symplaw.suites import suite_gma
from symplaw.symplectic import SignedPermutation, is_alternating, matrix_poly_value, pfaffian


def test_gma_type_validation():
    with pytest.raises(StructureError):
        GmaType(i0=(1,), i1=(), i2=(), sigma=(1,), dims=(3,))  # odd I0 block
    with pytest.raises(StructureError):
        GmaType(i0=(), i1=(1,), i2=(2,), sigma=(1, 2), dims=(1, 1))  # sigma fixes I1
    with pytest.raises(StructureError):
        GmaType(i0=(), i1=(1,), i2=(2,), sigma=(2, 1), dims=(1, 2))  # unequal pair dims


def test_build_j_delta_hand_cases():
    t = GmaType(i0=(1,), i1=(), i2=(), sigma=(1,), dims=(2,))
    assert build_J_delta(t) == RingMatrix([[0, 1], [-1, 0]])

    t = GmaType(i0=(), i1=(1,), i2=(2,), sigma=(2, 1), dims=(1, 1))
    assert build_J_delta(t) == RingMatrix([[0, -1], [1, 0]])

    t = GmaType(i0=(1,), i1=(2,), i2=(3,), sigma=(1, 3, 2), dims=(2, 1, 1))
    expected = RingMatrix(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    )
    assert build_J_delta(t) == expected


J_DELTA_TYPES = [
    GmaType(i0=(1,), i1=(), i2=(), sigma=(1,), dims=(4,)),
    GmaType(i0=(1, 2), i1=(), i2=(), sigma=(1, 2), dims=(2, 2)),
    GmaType(i0=(), i1=(1,), i2=(2,), sigma=(2, 1), dims=(2, 2)),
    GmaType(i0=(1,), i1=(2,), i2=(3,), sigma=(1, 3, 2), dims=(2, 2, 2)),
    GmaType(i0=(1,), i1=(), i2=(), sigma=(1,), dims=(8,)),
    GmaType(i0=(1, 4), i1=(2,), i2=(3,), sigma=(1, 3, 2, 4), dims=(4, 1, 1, 2)),
    GmaType(i0=(), i1=(1, 2), i2=(3, 4), sigma=(3, 4, 1, 2), dims=(2, 2, 2, 2)),
]


def test_j_delta_alternating_unit_pfaffian():
    for t in J_DELTA_TYPES:
        jd = build_J_delta(t)
        assert jd.rows == t.total <= 8
        assert is_alternating(jd)
        assert pfaffian(jd) in (Fraction(1), Fraction(-1))


def dense_j_delta(t):
    """J_delta assembled block by block: [[0, Id], [-Id, 0]] on each I0 diagonal block,
    -Id on block (i, sigma(i)) for i in I1 and +Id on it for i in I2."""
    off = t.offsets()
    rows = [[0] * t.total for _ in range(t.total)]
    for i, dim in enumerate(t.dims, 1):
        for a in range(dim):
            if i in t.i0:
                half = dim // 2
                b, s = (a + half, 1) if a < half else (a - half, -1)
            else:
                b, s = a, -1 if i in t.i1 else 1
            rows[off[i - 1] + a][off[t.apply(i) - 1] + b] = s
    return RingMatrix(rows)


def _mixed_sign_spec(t):
    """Type t over Q[u, v] / (u^2, uv, v^2), every off-diagonal block spanned by u and v,
    tau signs -1, +1, -1, ... over the pairs of blocks."""
    ring = QuotientRing(("u", "v"), ((2, 0), (0, 2), (1, 1)))
    pairs = [(i, j) for i in range(1, t.r + 1) for j in range(1, t.r + 1) if i != j]
    basis = (ring.variable("u"), ring.variable("v"))
    signs = {frozenset(p): (-1) ** (k + 1) for k, p in enumerate(p for p in pairs if p[0] < p[1])}
    return GmaSpec(t, ring, dict.fromkeys(pairs, basis), signs)


def test_build_j_delta_matches_the_dense_assembly():
    for t in J_DELTA_TYPES:
        assert build_J_delta(t) == dense_j_delta(t)
        assert _mixed_sign_spec(t).J_delta == dense_j_delta(t)


def test_involution_and_product_match_the_dense_form_under_mixed_tau_signs():
    """On each type of J_DELTA_TYPES with mixed tau signs, 4 elements each, and on the two
    fixtures, 15 elements each."""
    rng = random.Random(65)
    specs = [(_mixed_sign_spec(t), 4) for t in J_DELTA_TYPES]
    specs += [(fixture(), 15) for fixture in (standard_fixture, counterexample_fixture)]
    for spec, count in specs:
        n, t = spec.n, spec.type
        jd = dense_j_delta(t)
        block = [k for k, dim in enumerate(t.dims, 1) for _ in range(dim)]

        def dense_involution(m):
            """J_delta tau(M)^T J_delta^(-1), with the inverse computed, not assumed."""
            tau = RingMatrix([[m[a, b] * spec.sign(block[a], block[b]) for b in range(n)]
                              for a in range(n)])
            return jd * tau.transpose() * jd.inverse()

        for _ in range(count):
            m = random_gma_element(spec, rng)
            assert delta_involution(spec, m) == spec.ring.reduce_matrix(dense_involution(m))
            assert spec._form.right_product(m) == m * jd
        # the rational path, on the cleared form
        q = RingMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                        for _ in range(n)])
        assert spec._form.adjoint(q) == dense_involution(q)
        assert spec._form.right_product(q) == q * jd


def in_span(p, basis, ring):
    """Is p in the span of the basis, inside the quotient?  The package's own test, as
    ``GmaSpec`` runs it: the reduced p against the echelon rows of the reduced basis."""
    return _in_span_rows(ring.reduce(p), _span_rows(basis, ring), ring)


def test_quotient_ring_reduction_and_span():
    ring = QuotientRing(("u", "v"), ((2, 0), (1, 1)))
    u, v = ring.variable("u"), ring.variable("v")
    assert not ring.reduce(u * u)
    assert not ring.reduce(u * v)
    assert ring.reduce(v * v) == v * v
    assert in_span(2 * u, (u,), ring)
    assert not in_span(v, (u,), ring)
    assert in_span(u * u, (v,), ring)  # reduces to zero


@pytest.mark.parametrize(("variables", "nils"), [
    (("u",), ((0,),)),
    (("u", "v"), ((2, 0), (0, 0))),
    ((), ((),)),
])
def test_an_ideal_that_contains_1_is_refused(variables, nils):
    # in such a ring reduce(MultiPoly.constant(3)) would be 0 while reduce(3) is 3
    with pytest.raises(StructureError, match="contains 1"):
        QuotientRing(variables, nils)


def test_unsorted_ring_variables_are_refused():
    with pytest.raises(VariableError, match="must be sorted"):
        QuotientRing(("v", "u"), ((2, 0),))


def test_delta_involution_sign_cases():
    # epsilon = +1: the off-diagonal slot is antisymmetric
    spec = GmaSpec(
        GmaType(i0=(), i1=(1,), i2=(2,), sigma=(2, 1), dims=(1, 1)),
        QuotientRing(("u", "v"), ((2, 0), (0, 2), (1, 1))),
        {(1, 2): (MultiPoly.variable("u").in_vars(("u", "v")),),
         (2, 1): (MultiPoly.variable("v").in_vars(("u", "v")),)},
        {frozenset((1, 2)): 1},
    )
    u = spec.ring.variable("u")
    m = RingMatrix([[Fraction(0), u], [Fraction(0), Fraction(0)]])
    assert delta_involution(spec, m) == -m

    ce = counterexample_fixture()
    u = ce.ring.variable("u")
    m = RingMatrix([[Fraction(0), u], [Fraction(0), Fraction(0)]])
    assert delta_involution(ce, m) == m  # the symmetric slot of the counterexample


def test_delta_involution_is_involutive_antihom():
    rng = random.Random(51)
    for spec in (standard_fixture(), counterexample_fixture()):
        for _ in range(10):
            x = random_gma_element(spec, rng)
            y = random_gma_element(spec, rng)
            assert delta_involution(spec, delta_involution(spec, x)) == x
            lhs = delta_involution(spec, spec.ring.reduce_matrix(x * y))
            rhs = spec.ring.reduce_matrix(
                delta_involution(spec, y) * delta_involution(spec, x)
            )
            assert lhs == rhs


def test_membership_enforced():
    spec = standard_fixture()
    bad = RingMatrix.identity(4).map_entries(lambda x: x)
    rows = [list(r) for r in bad.entries]
    rows[0][3] = spec.ring.variable("u")  # block (1,3) span is Q*v, not Q*u
    with pytest.raises(MembershipError):
        delta_involution(spec, RingMatrix(rows))


def test_validate_standard_fixture():
    report = validate_standard_gma(standard_fixture())
    assert report["valid"], report
    report = validate_standard_gma(counterexample_fixture())
    assert report["valid"], report


def test_validate_detects_closure_violation():
    # Q[u] with no relation u^2 = 0: span(1,2)*span(2,1) escapes Q
    ring = QuotientRing(("u",), ())
    u = ring.variable("u")
    spec = GmaSpec(
        GmaType(i0=(), i1=(1,), i2=(2,), sigma=(2, 1), dims=(1, 1)),
        ring,
        {(1, 2): (u,), (2, 1): (u,)},
        {frozenset((1, 2)): 1},
    )
    report = validate_standard_gma(spec)
    assert not report["valid"]
    assert any("closure" in v for v in report["violations"])

    # adding u^2 = 0 fixes it
    ring2 = QuotientRing(("u",), ((2,),))
    u2 = ring2.variable("u")
    spec2 = GmaSpec(spec.type, ring2, {(1, 2): (u2,), (2, 1): (u2,)}, {frozenset((1, 2)): 1})
    assert validate_standard_gma(spec2)["valid"]


def test_trace_det_pf_values():
    ce = counterexample_fixture()
    m = RingMatrix([[Fraction(3), Fraction(0)], [Fraction(0), Fraction(5)]])
    tr, det, pf = gma_trace_det_pf(ce, m)
    assert (tr, det) == (8, 15)
    assert pf is None  # diag(3, 5) is not symmetric here: involution swaps a and d
    sym = RingMatrix([[Fraction(3), Fraction(0)], [Fraction(0), Fraction(3)]])
    tr, det, pf = gma_trace_det_pf(ce, sym)
    assert (tr, det, pf) == (6, 9, 3)

    spec = standard_fixture()
    tr, det, pf = gma_trace_det_pf(spec, RingMatrix.identity(4))
    assert (tr, det, pf) == (4, 1, 1)


def test_trace_commutes():
    rng = random.Random(52)
    for spec in (standard_fixture(), counterexample_fixture()):
        for _ in range(25):
            x = random_gma_element(spec, rng)
            y = random_gma_element(spec, rng)
            xy = spec.ring.reduce_matrix(x * y)
            yx = spec.ring.reduce_matrix(y * x)
            assert spec.ring.reduce(xy.trace()) == spec.ring.reduce(yx.trace())


def test_pfaffian_routes_agree_when_alternating():
    # For all-plus tau signs the embedded MJ_delta is alternating, so the
    # direct Pfaffian and the recursion from D must agree.
    from symplaw.gma import gma_pf_coeffs

    rng = random.Random(53)
    spec = standard_fixture()
    for _ in range(20):
        m = random_symmetric_gma_element(spec, rng)
        mj = spec.ring.reduce_matrix(m * spec.J_delta)
        assert is_alternating(mj)
        direct = spec.ring.reduce(pfaffian(mj)) * pfaffian(spec.J_delta)
        assert direct == gma_pf_coeffs(spec, m)[-1]
        assert gma_trace_det_pf(spec, m)[2] == direct


def test_pfaffian_squares_to_det_on_symmetric():
    rng = random.Random(54)
    for spec in (standard_fixture(), counterexample_fixture()):
        for _ in range(20):
            m = random_symmetric_gma_element(spec, rng)
            _, det, pf = gma_trace_det_pf(spec, m)
            assert pf is not None and pf * pf == det


def test_sch_condition():
    ok, witness = check_sch_condition(standard_fixture())
    assert ok and witness is None
    ok, witness = check_sch_condition(counterexample_fixture())
    assert not ok
    i, j, m = witness
    assert (i, j) == (1, 2)

    # pure I0 type: vacuously true
    pure = GmaSpec(
        GmaType(i0=(1,), i1=(), i2=(), sigma=(1,), dims=(2,)),
        QuotientRing((), ()),
        {},
        {},
    )
    ok, _ = check_sch_condition(pure)
    assert ok


def test_chi_p_vanishes_when_sch_holds():
    rng = random.Random(55)
    spec = standard_fixture()
    for _ in range(15):
        m = random_symmetric_gma_element(spec, rng)
        assert gma_chi_p(spec, m).is_zero()


def test_chi_p_nonzero_on_counterexample_and_kernel_probe():
    ce = counterexample_fixture()
    _, _, witness = check_sch_condition(ce)[1]
    sym_w = ce.ring.reduce_matrix(witness)  # already symmetric for epsilon = -1
    chi = gma_chi_p(ce, sym_w)
    assert not chi.is_zero()
    # chi^P(x, x) = x itself here; it must act as a kernel element of D
    assert kernel_probe(ce, chi, trials=25, seed=56)
    assert mat_det(RingMatrix.identity(2) + chi) == 1


@pytest.mark.parametrize("trials", [0, -3])
def test_kernel_probe_refuses_fewer_than_one_trial(trials):
    # with no trial drawn, the probe would pass any witness
    with pytest.raises(SymplawError, match="trials must be >= 1"):
        kernel_probe(counterexample_fixture(), RingMatrix.zeros(2), trials, 0)


def test_chi_p_nonzero_on_random_symmetric_counterexample_elements():
    rng = random.Random(57)
    ce = counterexample_fixture()
    found_nonzero = False
    for _ in range(20):
        m = random_symmetric_gma_element(ce, rng)
        chi = gma_chi_p(ce, m)
        if not chi.is_zero():
            found_nonzero = True
            assert kernel_probe(ce, chi, trials=10, seed=58)
    assert found_nonzero


# -- the per-spec span rows against the dense definitions ---------------------


def reference_in_span(p, basis, ring):
    """Span membership as the rank of the basis coordinates, with and without p."""
    def reduced(x):
        return ring.reduce(x if isinstance(x, MultiPoly) else MultiPoly.constant(x, ring.vars))

    p = reduced(p)
    if not p:
        return True
    polys = [reduced(b) for b in basis] + [p]
    monos = sorted({exp for q in polys for exp in q.terms})
    rows = [[q.terms.get(mo, Fraction(0)) for mo in monos] for q in polys]
    return matrix_rank(rows[:-1]) == matrix_rank(rows)


def redundant_basis_spec():
    """Non-monomial, redundant block bases in Q[u, v, w] / (all monomials of degree 2)."""
    t = GmaType(i0=(1,), i1=(2,), i2=(3,), sigma=(1, 3, 2), dims=(2, 1, 1))
    nils = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))
    ring = QuotientRing(("u", "v", "w"), nils)
    u, v, w = (ring.variable(x) for x in ("u", "v", "w"))
    blocks = {
        (1, 2): (u + v, 2 * u + 2 * v, u - v),
        (2, 1): (u + w, 2 * u + 2 * w),
        (1, 3): (Fraction(1, 2) * u - w, u * u + v, 3 * v - 6 * w + u),
    }
    return GmaSpec(t, ring, blocks, {})


def _candidates(spec, basis, rng):
    ring = spec.ring
    monos = [ring.variable(x) for x in ring.vars]
    out = [Fraction(0), MultiPoly(ring.vars, {}), Fraction(3), monos[0] * monos[0]]
    out += list(basis) + monos
    for _ in range(6):
        acc = MultiPoly(ring.vars, {})
        for b in basis:
            acc = acc + Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * b
        out += [acc, acc + monos[0] * monos[-1], acc + rng.choice(monos), acc + 1]
    return out


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture,
                                       redundant_basis_spec])
def test_span_rows_agree_with_the_rank_test(make_spec):
    spec = make_spec()
    rng = random.Random(61)
    off = spec.type.offsets()
    seen = set()
    for i in range(1, spec.type.r + 1):
        for j in range(1, spec.type.r + 1):
            if i == j:
                continue
            basis = spec.span(i, j)
            for x in _candidates(spec, basis, rng):
                expected = reference_in_span(x, basis, spec.ring)
                seen.add(expected)
                assert in_span(x, basis, spec.ring) == expected
                rows = [[Fraction(0)] * spec.n for _ in range(spec.n)]
                rows[off[i - 1]][off[j - 1]] = x
                m = RingMatrix(rows)
                if expected:
                    spec.check_membership(m)
                else:
                    with pytest.raises(MembershipError):
                        spec.check_membership(m)
    assert seen == {True, False}


def test_in_span_of_a_redundant_non_monomial_basis():
    spec = redundant_basis_spec()
    u, v, w = (spec.ring.variable(x) for x in ("u", "v", "w"))
    assert in_span(3 * u - v, spec.span(1, 2), spec.ring)
    assert not in_span(w, spec.span(1, 2), spec.ring)  # foreign monomial
    assert in_span(Fraction(-1, 3) * u - Fraction(1, 3) * w, spec.span(2, 1), spec.ring)
    assert not in_span(u - w, spec.span(2, 1), spec.ring)  # in the coordinates, not the span
    assert not in_span(u, spec.span(2, 1), spec.ring)


def test_only_a_rank_deficient_span_clears_against_its_rows(monkeypatch):
    spec = redundant_basis_spec()
    full = set()
    for block, basis in spec.blocks.items():
        columns, _, is_full = spec._spans[block]
        monomials = sorted({exp for p in basis for exp in p.terms})  # the columns, as exponents
        coordinates = [[p.terms.get(exp, Fraction(0)) for exp in monomials] for p in basis]
        assert is_full == (matrix_rank(coordinates) == len(columns))
        if is_full:
            full.add(block)
    assert full == {(1, 2), (1, 3)}

    cleared = []
    spans = IntegerEliminator.spans
    monkeypatch.setattr(IntegerEliminator, "spans",
                        lambda self, row: cleared.append(row) or spans(self, row))
    u, v, w = (spec.ring.variable(x) for x in ("u", "v", "w"))
    off = spec.type.offsets()
    cases = [((1, 2), 3 * u - v, True), ((1, 3), u + v + w, True), ((1, 2), w, False),
             ((2, 1), u + w, True), ((2, 1), u - w, False)]
    for (i, j), x, member in cases:
        cleared.clear()
        rows = [[0] * spec.n for _ in range(spec.n)]
        rows[off[i - 1]][off[j - 1]] = x
        if member:
            spec.check_membership(RingMatrix(rows))
        else:
            with pytest.raises(MembershipError):
                spec.check_membership(RingMatrix(rows))
        # the zero entries of block (2, 1) clear as empty rows
        assert sum(map(bool, cleared)) == ((i, j) == (2, 1)), ((i, j), x)


def reference_random_gma_element(spec, rng):
    """Random integers in [-4, 4] on the diagonal blocks and as basis coefficients, block by block."""
    off = spec.type.offsets()
    rows = [[0] * spec.n for _ in range(spec.n)]
    for i in range(1, spec.type.r + 1):
        for j in range(1, spec.type.r + 1):
            for a in range(off[i - 1], off[i]):
                for b in range(off[j - 1], off[j]):
                    if i == j:
                        rows[a][b] = rng.randint(-4, 4)
                    elif spec.span(i, j):
                        acc = MultiPoly(spec.ring.vars, {})
                        for p in spec.span(i, j):
                            acc = acc + rng.randint(-4, 4) * p
                        rows[a][b] = acc
    return RingMatrix(rows)


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture,
                                       redundant_basis_spec])
def test_random_elements_take_the_draws_of_the_block_by_block_builder(make_spec):
    spec = make_spec()
    for seed in range(50):
        rng, reference = random.Random(seed), random.Random(seed)
        assert random_gma_element(spec, rng) == reference_random_gma_element(spec, reference)
        assert rng.getstate() == reference.getstate()


def test_check_membership_reports_the_first_foreign_entry_in_block_order():
    spec = standard_fixture()  # span(1,2) = <u>, span(1,3) = <v>
    u, v = spec.ring.variable("u"), spec.ring.variable("v")
    rows = [list(r) for r in random_gma_element(spec, random.Random(74)).entries]
    rows[0][3] = u  # block (1,3), first in row-major order
    rows[1][2] = v  # block (1,2), first in block order
    with pytest.raises(MembershipError) as err:
        spec.check_membership(RingMatrix(rows))
    assert str(err.value) == f"entry (1,2) = {v} outside the declared span of block (1,2)"


def _with_foreign_entry(spec, m):
    """m with one entry of an off-diagonal block replaced by a monomial outside its span."""
    off = spec.type.offsets()
    rows = [list(r) for r in m.entries]
    for x in (spec.ring.variable(v) for v in spec.ring.vars):
        if not in_span(x, spec.span(1, 2), spec.ring):
            rows[off[0]][off[1]] = x
            return RingMatrix(rows)
    raise AssertionError("every ring variable lies in span(1, 2)")


ENTRY_POINTS = {
    "delta_involution": delta_involution,
    "gma_chi_p": gma_chi_p,
    "gma_trace_det_pf": gma_trace_det_pf,
    "kernel_probe": partial(kernel_probe, trials=1, seed=0),
}


@pytest.mark.parametrize("fn", list(ENTRY_POINTS.values()), ids=list(ENTRY_POINTS))
def test_every_entry_point_refuses_a_non_member(fn):
    rng = random.Random(62)
    for spec in (standard_fixture(), counterexample_fixture()):
        bad = _with_foreign_entry(spec, random_symmetric_gma_element(spec, rng))
        with pytest.raises(MembershipError):
            fn(spec, bad)


def test_times_j_delta_matches_the_dense_product():
    rng = random.Random(63)
    for spec in (standard_fixture(), counterexample_fixture(), redundant_basis_spec()):
        for _ in range(10):
            m = random_gma_element(spec, rng)
            assert spec._form.right_product(m) == m * spec.J_delta
        q = RingMatrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(spec.n)]
                        for _ in range(spec.n)])
        assert spec._form.right_product(q) == q * spec.J_delta


def test_trace_of_product_matches_the_trace_of_the_product():
    rng = random.Random(64)
    for n in (1, 2, 4):
        a, b = (RingMatrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                            for _ in range(n)]) for _ in range(2))
        assert trace_of_product(a, b) == (a * b).trace()
    for spec in (standard_fixture(), counterexample_fixture(), redundant_basis_spec()):
        for _ in range(10):
            x, y = random_gma_element(spec, rng), random_gma_element(spec, rng)
            assert trace_of_product(x, y) == (x * y).trace()
    wide = RingMatrix([[Fraction(1), Fraction(2), Fraction(3)]])
    tall = RingMatrix([[Fraction(4)], [Fraction(5)], [Fraction(6)]])
    assert trace_of_product(wide, tall) == (wide * tall).trace() == 32


# -- the memoized reduction against the divisibility definition ---------------


def brute_reduce(p, ring):
    """p over the ring's variables, without each term that some nil monomial divides."""
    p = p.in_vars(ring.vars)
    return MultiPoly(ring.vars, {
        exp: c for exp, c in p.terms.items()
        if not any(all(e >= n for e, n in zip(exp, nil)) for nil in ring.nil_monomials)
    })


def _random_poly(rng, variables):
    return MultiPoly(variables, {
        tuple(rng.randint(0, 3) for _ in variables): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for _ in range(rng.randint(0, 6))
    })


RINGS = {
    "artinian": (("u", "v"), ((2, 0), (0, 2), (1, 1))),
    "only_u_squared": (("u", "v"), ((2, 0),)),  # not Artinian: every v^k survives
    "three_vars": (("u", "v", "w"), ((2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 3), (1, 0, 1),
                                     (0, 1, 1))),
    "no_relations": (("u",), ()),
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_reduce_drops_exactly_the_divisible_terms(name):
    ring = QuotientRing(*RINGS[name])
    rng = random.Random(71)
    kept_all = dropped = 0
    for _ in range(300):
        # a third of the inputs use a subset of the ring's variables
        k = len(ring.vars) if rng.random() < 2 / 3 else rng.randint(0, len(ring.vars))
        p = _random_poly(rng, tuple(sorted(rng.sample(ring.vars, k))))
        got = ring.reduce(p)
        assert got.vars == ring.vars
        assert got.terms == brute_reduce(p, ring).terms
        if p.vars == ring.vars:
            assert (got is p) == (len(got.terms) == len(p.terms))
        kept_all += len(got.terms) == len(p.terms)
        dropped += len(got.terms) < len(p.terms)
    assert kept_all and (dropped or not ring.nil_monomials)


def test_rings_with_different_ideals_reduce_differently():
    a = QuotientRing(("u", "v"), ((2, 0),))
    b = QuotientRing(("u", "v"), ((0, 2),))
    u, v = a.variable("u"), a.variable("v")
    p = u * u + u * v + v * v
    for _ in range(2):  # the second round reads each ring's memo
        assert a.reduce(p) == u * v + v * v
        assert b.reduce(p) == u * u + u * v
    assert a.reduce(u * u * v) == 0 and b.reduce(u * u * v) == u * u * v


def test_reduce_returns_its_argument_when_nothing_drops():
    ring = standard_fixture().ring
    u, v = ring.variable("u"), ring.variable("v")
    p = 3 * u - v + 2
    assert ring.reduce(p) is p
    q = p + u * v
    assert ring.reduce(q) == p and q.terms[(1, 1)] == 1  # q itself is left as it was


def test_reduce_matrix_returns_its_argument_when_no_entry_changes():
    ring = standard_fixture().ring
    u, v = ring.variable("u"), ring.variable("v")
    m = RingMatrix([[3 * u - v + 2, Fraction(1, 2)], [v, u]])
    assert ring.reduce_matrix(m) is m
    rational = RingMatrix([[1, 2], [3, Fraction(4, 5)]])
    assert ring.reduce_matrix(rational) is rational
    dropped = RingMatrix([[3 * u - v + 2 + u * v, Fraction(1, 2)], [v, u]])
    assert ring.reduce_matrix(dropped) == m and dropped[0, 0].terms[(1, 1)] == 1
    # an entry over fewer variables is rewritten over the ring's, so the matrix is new
    narrow = RingMatrix([[MultiPoly.variable("u"), 0], [0, 1]])
    again = ring.reduce_matrix(narrow)
    assert again is not narrow and again == narrow and again[0, 0].vars == ring.vars


def test_the_memo_does_not_enter_equality_or_hash():
    used = QuotientRing(("u", "v"), ((2, 0), (1, 1)))
    rng = random.Random(72)
    for _ in range(20):
        used.reduce(_random_poly(rng, used.vars))
    fresh = QuotientRing(["u", "v"], [[2, 0], [1, 1]])
    assert used._divisible and not fresh._divisible
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert used != QuotientRing(("u", "v"), ((2, 0),))


def three_variable_spec():
    """A valid spec in Q[u, v, w] / (u^2, v^2, uv, w^3, uw, vw) with u + w^2/2 on (1,2) and (3,1)."""
    t = GmaType(i0=(1,), i1=(2,), i2=(3,), sigma=(1, 3, 2), dims=(2, 1, 1))
    nils = ((2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 3), (1, 0, 1), (0, 1, 1))
    ring = QuotientRing(("u", "v", "w"), nils)
    x = ring.variable("u") + Fraction(1, 2) * ring.variable("w") ** 2
    return GmaSpec(t, ring, {(1, 2): (x,), (3, 1): (x,)}, {})


def test_suite_gma_passes_on_a_three_variable_spec():
    spec = three_variable_spec()
    assert validate_standard_gma(spec)["valid"]
    for seed in range(10):
        checks = suite_gma(trials=25, seed=seed, spec=spec)
        assert len(checks) == 5 and all(c["pass"] for c in checks), (seed, checks)


# redundant_basis_spec is left out: its spans are not paired by the involution
@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture,
                                       three_variable_spec])
def test_random_elements_come_out_reduced(make_spec):
    spec = make_spec()
    for seed in range(50):
        rng = random.Random(seed)
        x = random_gma_element(spec, rng)
        s = random_symmetric_gma_element(spec, rng)
        for m in (x, s):
            assert spec.ring.reduce_matrix(m) == m
            spec.check_membership(m)
        assert delta_involution(spec, s) == s


def test_a_declared_basis_is_reduced_before_random_elements_use_it():
    spec = redundant_basis_spec()  # block (1,3) is declared with u^2 + v
    rng = random.Random(73)
    for _ in range(50):
        m = random_gma_element(spec, rng)
        assert all(spec.ring.reduce(x) is x for row in m.entries for x in row)


# -- a GMA input is reduced once, at check_membership --------------------------


def _with_nil_terms(spec, m):
    """m with a nil monomial of the ring added to entry (0, 0) and to entry (0, n - 1)."""
    nil = MultiPoly(spec.ring.vars, {spec.ring.nil_monomials[-1]: 1})
    rows = [list(r) for r in m.entries]
    rows[0][0] = rows[0][0] + nil
    rows[0][-1] = rows[0][-1] + nil
    return RingMatrix(rows)


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture,
                                       three_variable_spec])
def test_check_membership_returns_the_reduced_element(make_spec):
    spec = make_spec()
    rng = random.Random(1)
    for _ in range(5):
        m = random_symmetric_gma_element(spec, rng)
        unreduced = _with_nil_terms(spec, m)
        assert unreduced != m
        assert spec.check_membership(m) is m
        assert spec.check_membership(unreduced) == m


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture,
                                       three_variable_spec])
def test_an_unreduced_member_gives_the_results_of_its_reduction(make_spec):
    spec = make_spec()
    rng = random.Random(1)
    for _ in range(5):
        m = random_symmetric_gma_element(spec, rng)
        unreduced = _with_nil_terms(spec, m)
        assert delta_involution(spec, unreduced) == delta_involution(spec, m)
        assert gma_trace_det_pf(spec, unreduced) == gma_trace_det_pf(spec, m)
        assert gma_trace_det_pf(spec, m)[2] is not None
        assert gma_chi_p(spec, unreduced) == gma_chi_p(spec, m)
        for witness in (m, gma_chi_p(spec, m)):
            assert (kernel_probe(spec, _with_nil_terms(spec, witness), trials=3, seed=2)
                    == kernel_probe(spec, witness, trials=3, seed=2))


def test_the_standard_fixture_member_with_uv_added_keeps_its_pfaffian():
    spec = standard_fixture()
    m = random_symmetric_gma_element(spec, random.Random(1))
    rows = [list(r) for r in m.entries]
    rows[0][0] = rows[0][0] + spec.ring.variable("u") * spec.ring.variable("v")
    _, _, pf = gma_trace_det_pf(spec, RingMatrix(rows))
    assert pf == gma_trace_det_pf(spec, m)[2] == -25
    gma_chi_p(spec, RingMatrix(rows))  # symmetric once reduced, so no StructureError


def test_a_form_computes_its_pfaffian_once_and_it_matches_the_expansion():
    forms = [SignedPermutation.standard(d) for d in range(1, 7)]
    forms += [_mixed_sign_spec(t)._form for t in J_DELTA_TYPES]
    for form in forms:
        assert form.pfaffian == pfaffian(form.matrix)
        assert form.pfaffian is form.pfaffian


# -- integral scalars: ints inside polynomial matrices, Fractions in every value --


def test_quotient_ring_and_span_accept_int_scalars():
    spec = standard_fixture()
    ring, u = spec.ring, spec.ring.variable("u")
    assert type(ring.reduce(3)) is int and ring.reduce(3) == 3
    assert ring.reduce(Fraction(1, 2)) == Fraction(1, 2)
    assert in_span(3, [1], ring) and in_span(3, [Fraction(1, 2)], ring)
    assert not in_span(3, [u], ring) and in_span(0, [u], ring)
    assert in_span(2 * u, [u], ring) and not in_span(u + 1, [u], ring)
    value = _constant_or_raise(3, "an int")
    assert type(value) is Fraction and value == 3
    # a member whose diagonal blocks are ints passes the diagonal test
    m = RingMatrix([[1, 2, 3 * u, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert type(m[0, 0]) is int and spec.check_membership(m) is m


@pytest.mark.parametrize("scalar", [3, Fraction(3, 2)], ids=["int", "Fraction"])
def test_a_scalar_block_basis_element_is_the_constant_polynomial(scalar):
    base = standard_fixture()
    const = MultiPoly.constant(scalar, base.ring.vars)
    spec, ref = (GmaSpec(base.type, base.ring, {(1, 2): (b,)}, {}) for b in (scalar, const))
    assert spec.blocks == ref.blocks
    assert validate_standard_gma(spec) == validate_standard_gma(ref)
    assert random_gma_element(spec, random.Random(7)) == random_gma_element(ref, random.Random(7))


def test_an_element_of_a_spec_with_no_blocks_is_rational():
    base = standard_fixture()
    spec = GmaSpec(base.type, base.ring, {}, base.tau_signs)
    rng = random.Random(5)
    for _ in range(10):
        for m in (random_gma_element(spec, rng), random_symmetric_gma_element(spec, rng)):
            assert m.cleared() is not None
            assert all(type(x) is Fraction for row in m.entries for x in row)


def _with_fraction_scalars(m):
    """m through the public constructor, with every scalar entry given as a Fraction."""
    return RingMatrix([[x if isinstance(x, MultiPoly) else Fraction(x) for x in row]
                       for row in m.entries])


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture,
                                       three_variable_spec])
def test_int_scalars_give_the_values_of_fraction_scalars(make_spec):
    spec = make_spec()
    for seed in range(20):
        rng = random.Random(seed)
        x, y = random_gma_element(spec, rng), random_gma_element(spec, rng)
        s = random_symmetric_gma_element(spec, rng)
        ref_x, ref_y, ref_s = map(_with_fraction_scalars, (x, y, s))
        assert ref_s == s and any(type(e) is int for row in s.entries for e in row)
        laws = gma_trace_det_pf(spec, s)
        assert laws == gma_trace_det_pf(spec, ref_s)
        assert all(type(v) is Fraction for v in laws)
        assert gma_chi_p(spec, s) == gma_chi_p(spec, ref_s)
        assert (kernel_probe(spec, x, trials=2, seed=seed)
                == kernel_probe(spec, ref_x, trials=2, seed=seed))
        assert trace_of_product(x, y) == trace_of_product(ref_x, ref_y)


# -- the quotient route: every Berkowitz and Horner product reduced as it forms ---


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture])
def test_lambdas_in_the_quotient_are_the_reduced_lambdas(make_spec):
    spec = make_spec()
    ring = spec.ring
    nil_terms = 0  # Lambda_i over Q[u, v] that reduction changes
    for seed in range(20):
        rng = random.Random(seed)
        for m in (random_gma_element(spec, rng), random_symmetric_gma_element(spec, rng)):
            full = lambdas_of_matrix(m)
            got = lambdas_of_matrix(m, ring.dot)
            assert len(got) == len(full) == spec.n + 1
            assert all(g == ring.reduce(lam) for g, lam in zip(got, full)), (seed, m)
            assert all(not isinstance(g, MultiPoly) or g.vars == ring.vars for g in got)
            nil_terms += sum(ring.reduce(lam) is not lam for lam in full)
    assert nil_terms  # the test meets Lambda_i that carry nil terms before reduction


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture,
                                       three_variable_spec])
def test_det_and_trace_in_the_quotient_are_the_reduced_values(make_spec):
    spec = make_spec()
    ring = spec.ring
    nil_terms = 0  # determinants over Q[vars] that reduction changes
    for seed in range(20):
        rng = random.Random(seed)
        x, y = random_gma_element(spec, rng), random_gma_element(spec, rng)
        # a general element, a symmetric one and a kernel-probe matrix 1 + x y
        for m in (x, random_symmetric_gma_element(spec, rng), ring.product(x, y)._shifted(1)):
            full = mat_det(m)
            got = mat_det(m, ring.dot)
            assert got == ring.reduce(full), (seed, m)
            assert type(got) is Fraction or (type(got) is MultiPoly and got.vars == ring.vars)
            nil_terms += ring.reduce(full) is not full
        full = trace_of_product(x, y)
        got = trace_of_product(x, y, ring.dot)
        assert got == ring.reduce(full), (seed, x, y)
        assert type(got) is Fraction or (type(got) is MultiPoly and got.vars == ring.vars)
    # the test meets determinants that carry nil terms before reduction, except in the
    # three-variable spec: its blocks (1,2) and (3,1) lie on no cycle of blocks, as a
    # block entry in a term of a determinant or of tr(xy) must
    assert nil_terms or make_spec is three_variable_spec


def test_expansions_that_cancel_keep_their_values_on_both_routes():
    ring = standard_fixture().ring
    u, v = ring.variable("u"), ring.variable("v")
    dets = [  # (rows, determinant)
        ([[u, u], [u, u]], 0),
        ([[u, v], [u, v]], 0),
        ([[u + 1, u + 1], [v, v]], 0),
        ([[u, 0], [0, 0]], 0),
        ([[1, u], [0, 1]], 1),  # the product u * 0 enters the expansion
        ([[u, v, 1], [u, v, 1], [1, 2, 3]], 0),
        ([[u, 1, 0], [0, u, 1], [1, 0, u]], u * u * u + 1),
    ]
    for rows, det in dets:
        m = RingMatrix(rows)
        got = mat_det(m)
        assert got == det and type(got) in (Fraction, MultiPoly), rows
        assert mat_det(m, ring.dot) == ring.reduce(got), rows
    traces = [  # (a, b, tr(ab))
        ([[u, 1]], [[1], [-u]], 0),
        ([[u, v], [1, 0]], [[v, 0], [-u, 0]], 0),
        ([[u, 0], [0, 1]], [[0, 1], [1, 0]], 0),
    ]
    for a, b, trace in traces:
        a, b = RingMatrix(a), RingMatrix(b)
        got = trace_of_product(a, b)
        assert got == trace and type(got) in (Fraction, MultiPoly), (a, b)
        assert trace_of_product(a, b, ring.dot) == ring.reduce(got), (a, b)


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture,
                                       three_variable_spec])
def test_chi_p_in_the_quotient_is_the_reduced_horner_value(make_spec):
    spec = make_spec()
    ring = spec.ring
    for seed in range(20):
        rng = random.Random(seed)
        m = random_symmetric_gma_element(spec, rng)
        coeffs = gma_pf_coeffs(spec, m)
        assert gma_chi_p(spec, m) == ring.reduce_matrix(matrix_poly_value(coeffs, m))
        # a polynomial that does not vanish at m, so the products leave nonzero entries
        x = random_gma_element(spec, rng)
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
        assert (matrix_poly_value(coeffs, x, ring.product)
                == ring.reduce_matrix(matrix_poly_value(coeffs, x)))


def test_dot_and_product_reduce_what_the_plain_kernels_give():
    ring = QuotientRing(*RINGS["three_vars"])
    u, v, w = (ring.variable(x) for x in ring.vars)
    # polynomials over the ring's variables and over sub-tuples of them: ("u",) and ("v", "w")
    nu, nv, nw = (MultiPoly.variable(x) for x in ring.vars)
    pool = [0, 1, -2, Fraction(1, 2), Fraction(-3, 4), u, v, w, 2 * u - v + 1, w * w + u,
            MultiPoly(ring.vars, {}), nu, nu * nu + 3, nv * nw - nw, nw * nw + Fraction(1, 3)]
    rng = random.Random(74)
    for _ in range(200):
        n = rng.randint(1, 4)
        x, y = ([rng.choice(pool) for _ in range(n)] for _ in range(2))
        got = ring.dot(x, y)
        assert got == ring.reduce(sum(map(mul, x, y))), (x, y)
        # a scalar unless a MultiPoly meets a nonzero partner, then a MultiPoly over the ring
        poly = any(a and b and MultiPoly in (type(a), type(b)) for a, b in zip(x, y))
        assert isinstance(got, MultiPoly) is poly, (x, y)
        assert not poly or got.vars == ring.vars
    for _ in range(50):
        a = RingMatrix([[rng.choice(pool) for _ in range(3)] for _ in range(2)])
        b = RingMatrix([[rng.choice(pool) for _ in range(4)] for _ in range(3)])
        got = ring.product(a, b)
        assert (got.rows, got.cols) == (2, 4)
        assert got == ring.reduce_matrix(a * b), (a, b)
    # unreduced entries: the ideal terms of each factor are dropped too
    assert ring.dot([u * u + v, nw * nw * nw], [3, u + 1]) == 3 * v
    with pytest.raises(MembershipError):
        ring.dot([u, MultiPoly.variable("z")], [1, 2])
    rational = RingMatrix([[1, Fraction(1, 2)], [3, -1]])
    assert ring.product(rational, rational) == rational * rational
    with pytest.raises(DimensionError):
        ring.product(RingMatrix([[u, 1]]), RingMatrix([[u, 1]]))


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture])
def test_dot_lifts_only_entries_over_another_variable_tuple(make_spec, monkeypatch):
    """Entries over the ring's own tuple skip ``_lift``; over an equal but distinct tuple, as a
    parsed spec gives, or over a subset, they are lifted, and every kind gives one value."""
    ring = make_spec().ring
    u, v = ring.variable("u"), ring.variable("v")
    same = MultiPoly(list(ring.vars), {(1, 0): 2, (0, 1): Fraction(-1, 2), (0, 0): 3})
    assert same.vars == ring.vars and same.vars is not ring.vars
    subset = MultiPoly(("u",), {(1,): Fraction(3, 2), (0,): -1})
    own = {name: MultiPoly._canonical(ring.vars, dict(p.in_vars(ring.vars)._packed))
           for name, p in (("same", same), ("subset", subset))}
    assert all(p.vars is ring.vars for p in own.values())
    lifted = []
    real = QuotientRing._lift
    monkeypatch.setattr(QuotientRing, "_lift", lambda self, x: lifted.append(x) or real(self, x))
    for name, p in (("same", same), ("subset", subset)):
        for left, right in (([p, 2, Fraction(1, 3)], [u + 1, v, 0]), ([u, p, p], [p, Fraction(-2, 5), u])):
            mirror = [own[name] if x is p else x for x in left], [own[name] if x is p else x for x in right]
            del lifted[:]
            expected = ring.dot(*mirror)
            assert not lifted  # every MultiPoly holds the ring's own tuple
            got = ring.dot(left, right)
            assert lifted and all(x is p for x in lifted)
            assert got == expected and str(got) == str(expected) and type(got) is type(expected)
            assert got == ring.reduce(sum(map(mul, left, right)))
            assert got.vars is ring.vars


def _fixes_cases(form, kind, rng):
    """(m, adjoint(m) == m expected) for a symmetric x + x*, that matrix with one entry moved,
    with one nonzero diagonal entry negated, and the skew x - x*."""
    n = len(form.perm)
    u = MultiPoly.variable("u").in_vars(("u", "v"))
    while True:
        if kind == "delta = 1":
            x = RingMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        elif kind == "delta > 1":
            x = RingMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                            for _ in range(n)])
        else:
            x = RingMatrix([[rng.randint(-2, 2) * u + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                             for _ in range(n)] for _ in range(n)])
        s, skew = x + form.adjoint(x), x - form.adjoint(x)
        diagonal = [a for a in range(n) if s[a, a]]
        if diagonal and not skew.is_zero():
            break
    moved = [list(row) for row in s.entries]
    moved[0][0] = moved[0][0] + 1  # its mirror, entry (perm[0], perm[0]), is another entry
    negated = [list(row) for row in s.entries]
    negated[diagonal[0]][diagonal[0]] = -negated[diagonal[0]][diagonal[0]]
    return [(s, True), (RingMatrix(moved), False), (RingMatrix(negated), False), (skew, False)]


FORMS = {"J_1": lambda: SignedPermutation.standard(1), "J_2": lambda: SignedPermutation.standard(2),
         "J_3": lambda: SignedPermutation.standard(3), "standard": lambda: standard_fixture()._form,
         "counterexample": lambda: counterexample_fixture()._form}


@pytest.mark.parametrize("kind", ["delta = 1", "delta > 1", "polynomial"])
@pytest.mark.parametrize("form", sorted(FORMS))
def test_fixes_is_the_adjoint_compared_with_the_matrix(form, kind):
    form = FORMS[form]()
    rng = random.Random(57)
    for _ in range(5):
        for m, symmetric in _fixes_cases(form, kind, rng):
            assert (m.cleared() is None) is (kind == "polynomial")
            assert (form.adjoint(m) == m) is symmetric
            assert form.fixes(m) is symmetric, m


@pytest.mark.parametrize("make_spec", [standard_fixture, counterexample_fixture])
def test_fixes_on_gma_elements(make_spec):
    spec = make_spec()
    rng = random.Random(58)
    for _ in range(20):
        x, s = random_gma_element(spec, rng), random_symmetric_gma_element(spec, rng)
        for m in (x, s, spec.ring.product(x, s)._shifted(1)):
            assert spec._form.fixes(m) == (spec._form.adjoint(m) == m)
        assert spec._form.fixes(s)
