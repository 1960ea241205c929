"""Soundness of the rank facts that the (2,1) checks read from proved
identities.

``corank(Fcal) = 2`` follows from Fcal^3 + Fcal = 0 (pr_S = Id + Fcal^2 is
then a projection onto ker Fcal, of rank trace(pr_S)) and trace(pr_S) = 2;
``neg(Fcal) = 1`` from the corank and the frame Z+- in ker Fcal with Gram
matrix diag(1, -1); the (eqGY) ranks n from Phi^2 = Id and trace(Phi) = 0.
The first three cases below satisfy the trace half of such an argument
but not its premise, so the fact must not be Proved: it is Failed, with the
premise's witness and the premise named in ``detail``.  The fourth
satisfies the premise and fails the trace.
"""

import pytest

from ggwb.calculus import ChartManifold
from ggwb.courant import BigEndo, BigSection
from ggwb.structures import check_phi, check_two_one
from ggwb.structures.twoone import TwoOneGAC
from ggwb.verdict import VerdictKind
from ggwb.workbench import load_builtin, run_checks


@pytest.fixture(scope="module")
def R2():
    return ChartManifold("rk2", ["x", "y"])


def _frame(chart):
    Zp = BigSection.from_components(chart, {(0,): 1, (2,): 1})
    Zm = BigSection.from_components(chart, {(0,): -1, (2,): 1})
    return Zp, Zm


def test_constant_trace_without_the_cube_identity_is_no_corank(R2, pol):
    """Fcal = J + N, J the rotation d_x -> d_y -> -d_x and N the nilpotent
    dy -> x dx: Fcal^2 is diag(-1, -1, 0, 0), so trace(Id + Fcal^2) = 2, but
    Fcal^3 + Fcal = N is not 0, and ker Fcal has rank 1."""
    Fcal = BigEndo(R2, {(1, 0): 1, (0, 1): -1, (2, 3): "x"})
    res = check_two_one(TwoOneGAC(Fcal, *_frame(R2)), pol)
    cube = res.subverdict("Fcal^3 + Fcal = 0")
    assert cube.kind is VerdictKind.FAILED
    v = res.subverdict("corank(Fcal) = 2")
    assert v.kind is VerdictKind.FAILED
    assert v.detail == "rests on 'Fcal^3 + Fcal = 0'"
    assert v.witness == cube.witness is not None
    # the index rests on the corank, and fails with it
    v = res.subverdict("neg(Fcal) = 1")
    assert v.kind is VerdictKind.FAILED
    assert v.detail == "rests on 'corank(Fcal) = 2'"


def test_traceless_phi_that_is_no_involution_has_no_eqGY(t21_s2, pol):
    """2 Fcal is g-skew, so Phi = 2i Fcal + (rank-one terms) keeps trace 0,
    but Phi^2 = Id fails."""
    s = TwoOneGAC(t21_s2.Fcal * 2, t21_s2.Z_plus, t21_s2.Z_minus)
    res = check_phi(s, pol)
    square = res.subverdict("(eqPhi) Phi^2 = Id")
    assert square.kind is VerdictKind.FAILED
    v = res.subverdict("(eqGY) eigenprojections of Phi have rank n")
    assert v.kind is VerdictKind.FAILED
    assert v.detail == "rests on '(eqPhi) Phi^2 = Id'"
    assert v.witness == square.witness is not None


def test_index_needs_the_frame_norms(t21_s2, pol):
    """With Z+ doubled, g(Z+, Z+) = 4: the corank still follows from the
    identities, the index no longer does."""
    s = TwoOneGAC(t21_s2.Fcal, t21_s2.Z_plus * 2, t21_s2.Z_minus)
    res = check_two_one(s, pol)
    assert res.subverdict("corank(Fcal) = 2").is_proved
    norm = res.subverdict("(almoctZpm) g(Z+,Z+) = 1")
    assert norm.kind is VerdictKind.FAILED
    v = res.subverdict("neg(Fcal) = 1")
    assert v.kind is VerdictKind.FAILED
    assert v.detail == "rests on '(almoctZpm) g(Z+,Z+) = 1'"
    assert v.witness == norm.witness is not None


def test_a_failed_trace_fails_the_corank(R2, pol):
    """Fcal = 0 satisfies the cube identity, and its corank is 4: the trace
    test fails with a witness of trace(Id + Fcal^2) - 2 = 2."""
    Fcal = BigEndo(R2, {})
    v = check_two_one(TwoOneGAC(Fcal, *_frame(R2)), pol).subverdict("corank(Fcal) = 2")
    assert v.kind is VerdictKind.FAILED
    assert v.detail == "trace(Id + Fcal^2) = 2 fails"
    assert v.witness.value == 2


@pytest.mark.parametrize("name", ["S1", "S2", "S3", "S4", "S5", "S6b"])
def test_builtin_rank_facts_are_proved(name):
    """On every builtin the three rank facts are Proved and name the items
    they rest on."""
    report = run_checks(load_builtin(name)).as_dict()
    items = {(c["check"], i["label"]): i for c in report["checks"] for i in c.get("items", [])}
    corank = items[("two_one", "corank(Fcal) = 2")]
    assert corank["verdict"] == "Proved"
    assert corank["detail"] == "trace(Id + Fcal^2) = 2; rests on 'Fcal^3 + Fcal = 0'"
    neg = items[("two_one", "neg(Fcal) = 1")]
    assert neg["verdict"] == "Proved"
    assert neg["detail"].startswith("Z+- span ker Fcal with Gram matrix diag(1, -1); rests on "
                                    "'corank(Fcal) = 2', '(almctF2) Fcal Z+- = 0'")
    gy = items.get(("phi", "(eqGY) eigenprojections of Phi have rank n"))
    assert (gy is not None) == (name in ("S1", "S2", "S5"))  # the builtins that check phi
    if gy is not None:
        assert gy["verdict"] == "Proved"
        assert gy["detail"] == "trace(Phi) = 0; rests on '(eqPhi) Phi^2 = Id'"
