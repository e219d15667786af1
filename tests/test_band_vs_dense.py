"""The banded operator core against its dense reference (dense_reference.py).

Every AlgebraReport field and every HopfReport field but
comult_homomorphism must be bit-identical: each banded residual entry is
the same single product or difference the dense expression computes.
comult_homomorphism sums two products per diagonal entry, which the dense
matrix product may fuse or reorder, so it agrees to rounding only.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from qsu2.classify import finite_orbit_candidates
from qsu2.hopf import (
    GenDeformation,
    build_gen_rep,
    casimir_gen,
    conjugation_residual,
    hopf_axiom_report,
)
from qsu2.operators import UnitarityError, build_rep, verify_algebra
from qsu2.qnumbers import Deformation, qnumber

SETTINGS = settings(max_examples=200)


def same_bits(a, b) -> bool:
    """Equal values with equal signs of zero (NaN equal to NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(np.imag(a)), np.signbit(np.imag(b)))
    )


def assert_reports_equal(got, want, skip=()):
    for name in got.__dataclass_fields__:
        if name in skip:
            continue
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        assert a == b or (math.isnan(a) and math.isnan(b)), (name, a, b)


def check_against_dense(d, c, ms):
    triple = build_rep(d, c, ms)
    dense = ref.build_rep(d, c, ms)
    for op, want in zip(triple, dense):
        assert same_bits(op.entries, want)
    assert_reports_equal(verify_algebra(triple, d, c), ref.verify_algebra(*dense, ms, d, c))


@SETTINGS
@given(
    s=st.floats(0.05, math.pi - 0.05),
    k=st.floats(1.0, 4.0),
    m0=st.integers(-80, 80),
    n=st.integers(5, 90),
)
def test_truncated_rep_matches_dense(s, k, m0, n):
    # c above c0 = 1/sin^2 s: every ladder radicand is positive
    d = Deformation(s)
    c = k / d.sin_s**2
    check_against_dense(d, c, m0 / 2.0 + np.arange(n))


@SETTINGS
@given(s=st.floats(0.05, math.pi - 0.05), pick=st.integers(0, 10**6))
def test_closed_finite_rep_matches_dense(s, pick):
    d = Deformation(s)
    cands = finite_orbit_candidates(d)
    assume(cands)
    N, c = cands[pick % len(cands)]
    ms = -N / 2.0 + np.arange(N + 1)
    check_against_dense(d, c, ms)
    assert verify_algebra(build_rep(d, c, ms), d, c).closed


@st.composite
def rep_inputs(draw):
    """(d, c, ms): a closed finite class at c = [(N+1)/2]^2, a truncation of
    an infinite class, or any c (NaN included) on any basis."""
    d = Deformation(draw(st.floats(0.05, math.pi - 0.05)))
    kind = draw(st.sampled_from(["finite", "truncation", "any"]))
    if kind == "finite":
        cands = finite_orbit_candidates(d)
        assume(cands)
        N, c = draw(st.sampled_from(cands))
        return d, c, -N / 2.0 + np.arange(N + 1)
    m0 = draw(st.floats(-60.0, 60.0) | st.integers(-120, 120).map(lambda k: k / 2.0))
    ms = m0 + np.arange(draw(st.integers(1, 200)))
    if kind == "truncation":  # c above c0 = 1/sin^2 s: every radicand is positive
        return d, draw(st.floats(1.0, 4.0)) / d.sin_s**2, ms
    return d, draw(st.floats(-1.0, 50.0) | st.just(math.nan)), ms


@SETTINGS
@given(case=rep_inputs())
@example(case=(Deformation(1.0), -0.0, np.array([-0.5, 0.5])))  # radicand -0.0: sqrt gives -0.0
def test_build_rep_bands_match_scalar_reference(case):
    # the array ladder against one scalar radicand per state: the same bits,
    # or the same UnitarityError text for the first rejected m
    d, c, ms = case
    try:
        want = ref.ladder_band(d, c, ms[:-1].tolist())
    except UnitarityError as exc:
        with pytest.raises(UnitarityError) as got:
            build_rep(d, c, ms)
        assert str(got.value) == str(exc)
        return
    jz, jp, jm = build_rep(d, c, ms)
    assert same_bits(jz.band, ms) and same_bits(jp.band, want) and same_bits(jm.band, want)


@st.composite
def gen_rep_inputs(draw):
    profile, params = draw(
        st.sampled_from(
            [
                ("constant", {"b0": 1.0}),
                ("constant", {"b0": 0.3}),
                ("geometric", {"f0": 20.0}),
                ("geometric", {"f0": 2.5}),
                ("sech", {"f_lo": 1.5, "f_hi": 3.0}),
                ("sech", {"f_lo": 1.1, "f_hi": 8.0}),
            ]
        )
    )
    alpha = draw(st.sampled_from([2.0, 3.0, -1.0, -2.5]))
    dim = draw(st.integers(3, 300))
    return GenDeformation(alpha=alpha, profile=profile, profile_params=params), dim, draw(st.floats(0.0, 1e4))


@SETTINGS
@given(case=gen_rep_inputs())
def test_gen_rep_matches_telescoping_loop(case):
    # the two accumulations add in the loops' order: the same |N|^2 bits, or
    # the same least |N|^2 in the error
    gd, dim, c = case
    try:
        want = ref.gen_n2(gd, dim, c)
    except ValueError:  # f(m, q1) <= 0 on this basis
        with pytest.raises(ValueError, match="g not real"):
            build_gen_rep(gd, dim, c)
        return
    try:
        rep = build_gen_rep(gd, dim, c)
    except ValueError as exc:
        assume("min |N|^2" in str(exc))
        assert str(exc).endswith(f"= {float(want.min())!r}")
        return
    assert same_bits(rep[1].band, np.sqrt(np.maximum(want, 0.0)))


def test_singlet_matches_dense():
    d = Deformation(0.7)
    c = qnumber(0.5, d) ** 2
    check_against_dense(d, c, [0.0])
    assert verify_algebra(build_rep(d, c, [0.0]), d, c).closed


def test_overflowing_maekawa_sum_is_inf_like_dense():
    # at c = 1.7e308, J_+ J_- + J_- J_+ overflows on the interior rows: both
    # reports record maekawa_2s_dev as inf, and the band code warns nothing
    d, c, ms = Deformation(0.7), 1.7e308, np.arange(-3.0, 8.0)
    with np.errstate(over="ignore", invalid="ignore"):  # as verify_algebra records them
        check_against_dense(d, c, ms)
    assert math.isinf(verify_algebra(build_rep(d, c, ms), d, c).maekawa_2s_dev)


def test_short_truncation_rejected_like_dense():
    d = Deformation(0.7)
    c = 2.0 / d.sin_s**2
    for n in (1, 2, 3, 4):
        ms = np.arange(float(n))
        with pytest.raises(ValueError, match="no interior rows"):
            verify_algebra(build_rep(d, c, ms), d, c)
        with pytest.raises(ValueError, match="no interior rows"):
            ref.verify_algebra(*ref.build_rep(d, c, ms), ms, d, c)


@st.composite
def gen_reps(draw):
    dim = draw(st.integers(5, 11))
    c = draw(st.floats(50.0, 1000.0))
    if draw(st.booleans()):
        gd = GenDeformation(
            alpha=draw(st.sampled_from([2.0, 3.0])),
            profile="geometric",
            profile_params={"f0": draw(st.floats(1.5, 30.0))},
        )
    else:
        gd = GenDeformation(
            alpha=draw(st.sampled_from([2.0, 3.0, -1.0])),
            profile="constant",
            profile_params={"b0": draw(st.floats(0.1, 2.0))},
        )
    try:
        rep = build_gen_rep(gd, dim, c)
    except ValueError:
        assume(False)
    return gd, rep, c


@settings(max_examples=30)
@given(case=gen_reps())
def test_hopf_report_matches_kronecker(case):
    gd, rep, c = case
    jz, jp, jm, g = (op.entries for op in rep)
    got = hopf_axiom_report(gd, rep)
    want = ref.hopf_axiom_report(gd, jz, jp, jm, g)
    assert_reports_equal(got, want, skip=("comult_homomorphism",))
    assert abs(got.comult_homomorphism - want.comult_homomorphism) <= 1e-12 * max(1.0, c)
    assert same_bits(np.diag(casimir_gen(gd, rep)), ref.casimir_gen(gd, jp, jm, g))
    assert conjugation_residual(gd, rep) == ref.conjugation_residual(gd, jp, g)


def test_hopf_rejects_basis_without_interior():
    gd = GenDeformation(alpha=2.0, profile="geometric", profile_params={"f0": 20.0})
    rep = build_gen_rep(gd, 4, 900.0)
    with pytest.raises(ValueError, match="no interior rows"):
        hopf_axiom_report(gd, rep)
    with pytest.raises(ValueError):  # numpy's max over an empty block
        ref.hopf_axiom_report(gd, *(op.entries for op in rep))
