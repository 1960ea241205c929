"""One build per hypersurface: a scenario run builds the Gauss-Weingarten
package, its Jacobian and each induced structure once, checks each distinct
J once, and no check recomputes a result another check already holds."""

import sys
from collections import Counter

import pytest

from ggwb import hypersurface
from ggwb.hypersurface import check_hyp_CRF, check_hyp_normal
from ggwb.structures import classical, twoone
from ggwb.workbench import load_builtin
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


def test_hyp_normal_is_hyp_crf_plus_eqnormal2(sphere, pol):
    crf = check_hyp_CRF(sphere["geo"], sphere["J"], pol)
    normal = check_hyp_normal(sphere["geo"], sphere["J"], pol)
    assert normal.items[:-1] == crf.items
    assert [lbl for lbl, _ in normal.items] == [lbl for lbl, _ in crf.items] + [
        "(eqnormal2) b(Z, X) = -(1/2) dOmega(nu, Z, JX) on P"
    ]
    # an already computed hyp_CRF result is read, not recomputed
    reused = check_hyp_normal(sphere["geo"], sphere["J"], pol, hyp_crf=crf)
    assert reused.items == normal.items


def test_crcond_evaluates_per_pair_nijenhuis_only_for_scalar_invariance(monkeypatch):
    """(CRcond) and (CRF0) contract the Nijenhuis table with F and pr_Q, so
    the per-pair N_F is evaluated only by the scalar-invariance item: 2
    calls per (CRcond) run, none per pair of spanning vectors."""
    calls = _count_calls(monkeypatch, (
        (classical, "nijenhuis_classical"), (classical, "_cr_condition_items")))
    run_checks(load_builtin("S3"))
    assert calls == Counter({"_cr_condition_items": 1, "nijenhuis_classical": 2})
