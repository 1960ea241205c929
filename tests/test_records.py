"""The value types are plain classes: immutable, equal by their fields, and
validated by their constructor.

``Witness``, ``Verdict``, ``ZeroPolicy``, ``Embedding`` and ``AlmostContact``
keep the semantics of frozen records: assigning a field raises
``AttributeError``, two objects with the same fields are ``==`` and
hash-equal, and a changed copy (the CLI's policy flags) goes through the
validating constructor.  ``combine`` returns the weakest of its verdicts
itself, witness and detail included.
"""

import json
from fractions import Fraction

import pytest

from ggwb.hypersurface import Embedding
from ggwb.symexpr import ZeroPolicy
from ggwb.verdict import Verdict, VerdictKind, Witness, combine
from ggwb.workbench.cli import main

_WITNESS = Witness((("x", Fraction(1, 2)),), Fraction(3), "first route")


@pytest.mark.parametrize("make,field", [
    (lambda fx: ZeroPolicy(), "seed"),
    (lambda fx: Verdict.failed(_WITNESS, "why"), "kind"),
    (lambda fx: _WITNESS, "value"),
    (lambda fx: fx["hyperplane"]["embedding"], "orientation"),
    (lambda fx: fx["s1"], "xi"),
], ids=["ZeroPolicy", "Verdict", "Witness", "Embedding", "AlmostContact"])
def test_assigning_a_field_raises(hyperplane, s1, make, field):
    obj = make({"hyperplane": hyperplane, "s1": s1})
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


def test_equal_fields_are_equal_and_hash_equal(hyperplane):
    a, b = ZeroPolicy(samples=8, seed=3, tol=1), ZeroPolicy(8, 3, 1.0)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ZeroPolicy(samples=8, seed=4, tol=1)
    assert a != (8, 3, 1.0, 8)
    w = Witness((("x", Fraction(1, 2)),), Fraction(3), "first route")
    assert w == _WITNESS and hash(w) == hash(_WITNESS)
    v, u = Verdict(VerdictKind.FAILED, w, "why"), Verdict.failed(_WITNESS, "why")
    assert v == u and hash(v) == hash(u)
    assert v != Verdict.failed(_WITNESS, "other reason")
    emb = hyperplane["embedding"]
    again = Embedding(emb.domain, emb.ambient, ["u1", "u2", "u3", "0"], orientation=1)
    assert again == emb and hash(again) == hash(emb)


def test_combine_keeps_kind_witness_and_detail():
    failed = Verdict.failed(_WITNESS, "why")
    v = combine(Verdict.proved(), failed, Verdict.failed(detail="later"))
    assert (v.kind, v.witness, v.detail) == (VerdictKind.FAILED, _WITNESS, "why")
    assert combine(Verdict.numeric(), Verdict.proved()) == Verdict.numeric()
    assert combine() == Verdict.proved()


def test_a_verdict_holds_only_its_evidence():
    """A verdict is its kind, its witness and its detail; the label of an
    item is the runner's, and ``add`` records the verdict it is given."""
    from ggwb.verdict import CheckResult

    v = Verdict.failed(_WITNESS, "why")
    assert v._key() == (VerdictKind.FAILED, _WITNESS, "why")
    assert not hasattr(v, "criterion") and not hasattr(v, "relabel")
    out = CheckResult("demo")
    assert out.add("item", v) is v and out.items[0][1] is v
    assert out.verdict is v


def test_cli_policy_flags_go_through_the_constructor(capsys):
    assert main(["check", "S3", "--seed", "3", "--format", "json"]) in (0, 1)
    policy = json.loads(capsys.readouterr().out)["policy"]
    assert policy == {"seed": 3, "samples": 32, "tol": "1e-09"}
    assert main(["check", "S3", "--seed", "3", "--samples", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "samples must be at least 1, got 0" in captured.err
