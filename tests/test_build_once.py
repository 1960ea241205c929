"""One build per hypersurface: a scenario run builds the Gauss-Weingarten
package, its Jacobian and each induced structure once, checks each distinct
J once, and no check recomputes a result another check already holds.
Results are shared within one run (``verdict.once``) and never across runs."""

import sys
from collections import Counter

import pytest

from ggwb import hypersurface, verdict
from ggwb.hypersurface import (
    check_fundamental_form_property,
    check_hyp_CRF,
    check_hyp_CRFK,
    check_hyp_normal,
)
from ggwb.structures import classical, normality, twoone
from ggwb.verdict import once, run
from ggwb.workbench import checks, load_builtin
from ggwb.workbench.checks import run_checks

COUNTED = (
    (hypersurface, "second_fundamental_form"),
    (hypersurface, "unit_normal"),
    (hypersurface, "check_gen_kahler"),
    (hypersurface, "induced_almost_contact"),
    (hypersurface, "_crf2_defects"),  # the (eqCRF2) defect lists
    (hypersurface, "check_almost_hermitian"),
    (hypersurface.Embedding, "jacobian"),
    (classical, "check_normal_classical"),
    (twoone, "check_two_one"),
)


def _count_calls(monkeypatch, counted=COUNTED) -> Counter:
    """Wrap each counted function where it is defined and at every ggwb
    module that binds it."""
    calls = Counter()
    for module, name in counted:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("ggwb"):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("name", ["S4", "S6b"])
def test_a_scenario_run_builds_each_hypersurface_structure_once(name, monkeypatch):
    scenario = load_builtin(name)
    (decl,) = [s for s in scenario.structures if s.type == "hypersurface"]
    distinct_J = len({id(scenario.fields[decl.data[k]]) for k in ("J_plus", "J_minus")})
    calls = _count_calls(monkeypatch)
    run_checks(scenario)
    assert distinct_J == 1
    assert calls == Counter({
        "second_fundamental_form": 1,
        "unit_normal": 1,
        "check_gen_kahler": 1,
        "check_two_one": 1,
        "induced_almost_contact": distinct_J,
        "_crf2_defects": 1,
        "check_almost_hermitian": distinct_J,
        "jacobian": 1,
        # the CRFK consequences run when (eqptans3) holds: on S6b, not on S4
        "check_normal_classical": {"S4": 0, "S6b": distinct_J}[name],
    })


def test_hyp_normal_is_hyp_crf_plus_eqnormal2(sphere, pol, monkeypatch):
    calls = _count_calls(monkeypatch, ((hypersurface, "_crf2_defects"),))
    with run():
        crf = once(check_hyp_CRF, sphere["geo"], sphere["J"], pol)
        normal = check_hyp_normal(sphere["geo"], sphere["J"], pol)
    assert normal.items[:-1] == crf.items
    assert [lbl for lbl, _ in normal.items] == [lbl for lbl, _ in crf.items] + [
        "(eqnormal2) b(Z, X) = -(1/2) dOmega(nu, Z, JX) on P"
    ]
    # within one run the hyp_CRF result is read, not recomputed
    assert calls == Counter({"_crf2_defects": 1})


def test_each_run_builds_its_own_induced_structure(sphere, pol, monkeypatch):
    """The geometry keeps no build of its own: two runs over one geometry
    build the induced almost contact structure and the columns spanning P
    once each, two builds in all."""
    calls = _count_calls(monkeypatch, (
        (hypersurface, "induced_almost_contact"), (hypersurface, "_P_columns")))
    for _ in range(2):
        with run():
            check_hyp_normal(sphere["geo"], sphere["J"], pol)
            check_fundamental_form_property(sphere["geo"], sphere["J"], pol)
    assert calls == Counter({"induced_almost_contact": 2, "_P_columns": 2})


def test_a_standalone_hyp_normal_builds_the_induced_structure_once(sphere, pol, monkeypatch):
    """check_hyp_normal reads the induced structure itself and through
    check_hyp_CRF; called alone it opens one run for both."""
    calls = _count_calls(monkeypatch, ((hypersurface, "induced_almost_contact"),))
    check_hyp_normal(sphere["geo"], sphere["J"], pol)
    assert calls == Counter({"induced_almost_contact": 1})
    assert verdict._memo.get() is None


SHARED = (
    (normality, "_PairData"),
    (classical, "check_normal_classical"),
    (twoone, "check_normal_21"),
    (twoone, "second_structure"),
)


@pytest.mark.parametrize("name, classical_runs", [("S1", 3), ("S5", 4)])
def test_a_scenario_run_shares_the_pair_data_and_the_sub_checks(name, classical_runs,
                                                               monkeypatch):
    """normal_explicit and binormal read one _PairData, so the classical
    normality of each half runs once; normal21 of the structure runs once,
    for its own check and for binormal's cross-check, and binormal reads
    the companion that product_metric and sasakian read."""
    calls = _count_calls(monkeypatch, SHARED)
    run_checks(load_builtin(name))
    assert calls == Counter({"_PairData": 1, "check_normal_classical": classical_runs,
                             "check_normal_21": 2, "second_structure": 1})


def test_two_runs_share_nothing(monkeypatch):
    calls = _count_calls(monkeypatch, SHARED)
    for _ in range(2):
        run_checks(load_builtin("S1"))
    assert calls == Counter({"_PairData": 2, "check_normal_classical": 6,
                             "check_normal_21": 4, "second_structure": 2})
    assert verdict._memo.get() is None


def test_a_standalone_check_shares_its_nested_sub_checks(hyperplane, pol, monkeypatch):
    """check_hyp_CRFK(geo, J, J) alone checks J once for gen_kahler's two
    Hermitian items and the induced structure once for its two CRFK
    consequences."""
    calls = _count_calls(monkeypatch, (
        (hypersurface, "check_almost_hermitian"), (classical, "check_normal_classical")))
    result = check_hyp_CRFK(hyperplane["geo"], hyperplane["J"], hyperplane["J"], pol)
    assert result.verdict.is_proved
    assert calls == Counter({"check_almost_hermitian": 1, "check_normal_classical": 1})
    assert verdict._memo.get() is None


def test_once_keys_on_the_function_and_every_argument():
    calls = []

    def f(*args):
        calls.append(args)
        return len(calls)

    def g(*args):
        return f(*args)

    a, b, a_copy = [1], [2], [1]
    with run():
        assert [once(f, a), once(f, a), once(f, b), once(g, a), once(f, a, b), once(f, b),
                once(f, a_copy)] == [1, 1, 2, 3, 4, 2, 5]
    with run():
        assert once(f, a) == 6


def test_no_run_is_left_open(monkeypatch):
    """A run ends with its block, also when the block raises, and a call of
    once outside a run opens a run for its own duration only."""
    seen = []

    def inner(x):
        seen.append(verdict._memo.get())
        return x

    assert once(inner, 1) == 1 and seen[0] is not None
    assert verdict._memo.get() is None
    with pytest.raises(ZeroDivisionError):
        with run():
            once(lambda: 1 / 0)
    assert verdict._memo.get() is None

    def boom(ctx, obj):
        raise RuntimeError("boom")

    monkeypatch.setattr(checks.CHECKS["normal21"], "runner", boom)
    with pytest.raises(RuntimeError):
        run_checks(load_builtin("S1"))
    assert verdict._memo.get() is None


def test_crcond_evaluates_per_pair_nijenhuis_only_for_scalar_invariance(monkeypatch):
    """(CRcond) and (CRF0) contract the Nijenhuis table with F and pr_Q, so
    the per-pair N_F is evaluated only by the scalar-invariance item: 2
    calls per (CRcond) run, none per pair of spanning vectors."""
    calls = _count_calls(monkeypatch, (
        (classical, "nijenhuis_classical"), (classical, "_cr_condition_items")))
    run_checks(load_builtin("S3"))
    assert calls == Counter({"_cr_condition_items": 1, "nijenhuis_classical": 2})
