"""Check registry and scenario orchestration.

Check names mirror the criteria they implement; most have equation-label
aliases so reports stay citable (``normaltotal``, ``indbin1``, ``eqptans3``).
A check binds to an explicitly named structure or, when unambiguous, to the
unique declared structure of an applicable type.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from ..calculus import EndoTM, MetricField, TwoForm, random_vector_field, zero_twoform
from ..courant import bracket_columns
from ..errors import PreconditionNotMet, ScenarioError, StructureError
from ..structures import (
    AlmostContact,
    GenF,
    GenMetric,
    TwoOneGAC,
    build_genF_from_quadruple,
    check_almost_contact,
    check_binormal,
    check_classical_CRF,
    check_CRFK,
    check_gen_contact,
    check_gen_CRF,
    check_gen_F,
    check_gen_metric,
    check_kernel_nabla_F,
    check_normal_21,
    check_normal_classical,
    check_normal_explicit,
    check_phi,
    check_product_J,
    check_product_metric,
    check_sasakian,
    check_two_one,
    check_product_complex,
    courant_brackets_Vpm,
)
from ..hypersurface import (
    Embedding,
    HypersurfaceGeometry,
    InducedGenStructure,
    check_fundamental_form_property,
    check_gen_kahler,
    check_hermitian_identities,
    check_hyp_CRF,
    check_hyp_CRFK,
    check_hyp_geometry,
    check_hyp_normal,
    check_induced_contact,
    second_fundamental_form,
)
from ..verdict import CheckResult, Verdict, once, run
from .scenario import Scenario, StructureDecl


class Hypersurface:
    """A declared hypersurface: the embedding and its ambient data.  ``J`` is
    the Hermitian structure the classical criteria read, J_plus when a pair
    is declared."""

    def __init__(self, embedding: Embedding, gamma: MetricField, psi: TwoForm, J: EndoTM,
                 pair: Optional[tuple] = None):
        self.embedding = embedding
        self.gamma = gamma
        self.psi = psi  # zero when none is declared
        self.J = J
        self.pair = pair  # (J_plus, J_minus)

    def J_pair(self, what: str) -> tuple:
        if self.pair is None:
            raise PreconditionNotMet(f"{what} needs ambient J_plus and J_minus")
        return self.pair


class ScenarioContext:
    """Builds the objects a scenario declares, each once per run (see
    :func:`~ggwb.verdict.once`)."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.policy = scenario.policy

    def field(self, name: str):
        return self.scenario.fields[name]

    def build(self, decl: StructureDecl):
        return once(getattr(ScenarioContext, f"_build_{decl.type}"), self, decl)

    def _build_almost_contact(self, decl) -> AlmostContact:
        d = decl.data
        return AlmostContact(
            self.field(d["F"]),
            self.field(d["Z"]),
            self.field(d["xi"]),
            self.field(d["metric"]) if "metric" in d else None,
            name=decl.name,
        )

    def _build_gen_metric(self, decl) -> GenMetric:
        d = decl.data
        return GenMetric(self.field(d["gamma"]), self.field(d.get("psi")) if "psi" in d else None)

    def _build_quadruple(self, decl) -> GenF:
        d = decl.data
        G = GenMetric(self.field(d["gamma"]), self.field(d.get("psi")) if "psi" in d else None)
        return build_genF_from_quadruple(
            G, self.field(d["F_plus"]), self.field(d["F_minus"]), self.policy
        )

    def _build_two_one(self, decl) -> TwoOneGAC:
        from ..courant import BigEndo, BigSection

        d = decl.data
        if "classical" in d:
            ac = self.build(self.scenario.structure(d["classical"]))
            psi = self.field(d["psi"]) if "psi" in d else None
            G = GenMetric(ac.gamma, psi) if ac.gamma is not None else None
            return TwoOneGAC(
                BigEndo.from_endo(ac.F),
                BigSection(ac.Z, ac.xi),
                BigSection(ac.Z, -ac.xi),
                G,
                name=decl.name,
            )
        genf = self.build(self.scenario.structure(d["quadruple"]))
        Zp = genf.G.section(self.field(d["Z_plus"]), 1)
        Zm = genf.G.section(self.field(d["Z_minus"]), -1)
        return TwoOneGAC(genf.Fcal, Zp, Zm, genf.G, name=decl.name)

    def _build_hypersurface(self, decl) -> Hypersurface:
        d = decl.data
        gamma = self.field(d["metric"])
        emb = Embedding(d["domain"], gamma.chart, d["map"], d["orientation"])
        psi = self.field(d["psi"]) if "psi" in d else zero_twoform(gamma.chart)
        if "J" in d:
            return Hypersurface(emb, gamma, psi, self.field(d["J"]))
        pair = (self.field(d["J_plus"]), self.field(d["J_minus"]))
        return Hypersurface(emb, gamma, psi, pair[0], pair)

    def geometry(self, h: Hypersurface) -> HypersurfaceGeometry:
        return once(second_fundamental_form, h.embedding, h.gamma, h.psi, self.policy)

    def induced(self, h: Hypersurface) -> InducedGenStructure:
        return self.geometry(h).gen_structure(*h.J_pair("the induced generalized structure"))


class CheckSpec:
    def __init__(self, name: str, applies: tuple, runner: Callable, aliases: tuple = ()):
        self.name = name
        self.applies = applies
        self.runner = runner
        self.aliases = aliases


CRVPM_PAIRS = 12  # the random section pairs of the (CrVpm) check


def _run_crvpm(ctx: ScenarioContext, obj) -> CheckResult:
    """(CrVpm) closed-form V_pm brackets against the generic Courant bracket
    on ``CRVPM_PAIRS`` random polynomial section pairs with random sign
    choices.

    The pairs are drawn first (:func:`crvpm_pairs`) and bracketed in one
    batch per sign class (:func:`crvpm_defects`); the differences are tested
    pair by pair, component by component, in the order of the draws."""
    G = obj if isinstance(obj, GenMetric) else obj.G
    if G is None:
        raise PreconditionNotMet("(CrVpm) needs a generalized metric")
    out = CheckResult("crvpm", ctx.policy)
    defects = crvpm_defects(G, crvpm_pairs(G.chart, ctx.policy.seed))
    out.test(f"(CrVpm) closed forms = generic bracket on {CRVPM_PAIRS} random pairs",
             [e for column in defects for e in column])
    return out


def crvpm_pairs(chart, seed: int) -> list:
    """The (CrVpm) check's ``CRVPM_PAIRS`` random pairs (X, Y, (s1, s2)) on
    ``chart``, drawn one after another from ``random.Random(seed + 77)``."""
    rng = random.Random(seed + 77)
    pairs = []
    for k in range(CRVPM_PAIRS):
        degree = 2 if k % 6 == 5 else 1
        X = random_vector_field(chart, rng, degree)
        Y = random_vector_field(chart, rng, degree)
        pairs.append((X, Y, (rng.choice((1, -1)), rng.choice((1, -1)))))
    return pairs


def crvpm_defects(G: GenMetric, pairs) -> list:
    """The defect, closed form - generic bracket, of each pair
    (X, Y, (s1, s2)) as its 2n components, in the order of ``pairs``.  The pairs of one sign class
    (s1 = s2, or s1 != s2) are one batch: one batched closed form
    (:func:`courant_brackets_Vpm`) and one diagonal generic bracket of their
    V_pm sections (:func:`bracket_columns`, :meth:`GenMetric.sections`)."""
    out = [None] * len(pairs)
    for same in (True, False):
        ks = [k for k, (_, _, (s1, s2)) in enumerate(pairs) if (s1 == s2) == same]
        if not ks:
            continue
        Xs, Ys, signs = zip(*(pairs[k] for k in ks))
        generic = bracket_columns(G.sections(Xs, [s1 for s1, _ in signs]),
                                  G.sections(Ys, [s2 for _, s2 in signs]))
        diff = courant_brackets_Vpm(G, Xs, Ys, signs) - generic
        for c, k in enumerate(ks):
            out[k] = diff._column(c)._flat()
    return out


def _two_one_target(ctx, obj):
    if isinstance(obj, Hypersurface):
        return ctx.induced(obj).two_one
    return obj


_HYP = ("hypersurface",)
_C21 = ("two_one", "hypersurface")

CHECKS: dict[str, CheckSpec] = {}


def _register(name, applies, runner, aliases=()):
    CHECKS[name] = CheckSpec(name, applies, runner, aliases)


_register(
    "almost_contact", ("almost_contact",),
    lambda ctx, ac: check_almost_contact(ac, ctx.policy),
    aliases=("almcont", "clasmetric"),
)
_register(
    "normal", ("almost_contact",),
    lambda ctx, ac: check_normal_classical(ac, ctx.policy),
)
_register(
    "normal_product", ("almost_contact",),
    lambda ctx, ac: check_product_complex(ac, ctx.policy),
    aliases=("JF",),
)
_register(
    "classical_CRF", ("almost_contact",),
    lambda ctx, ac: check_classical_CRF(ac, ctx.policy),
    aliases=("CRF0", "CRFcuLie", "CRcond"),
)
_register(
    "kernel_nabla_F", ("almost_contact",),
    lambda ctx, ac: check_kernel_nabla_F(ac.F, ac.gamma, ctx.policy),
)
_register(
    "gen_metric", ("gen_metric", "quadruple", "two_one"),
    lambda ctx, obj: check_gen_metric(
        obj if isinstance(obj, GenMetric) else obj.G, ctx.policy
    ),
    aliases=("condptGrond", "exprEpm"),
)
_register(
    "gen_F", ("quadruple",),
    lambda ctx, gf: check_gen_F(gf, ctx.policy),
    aliases=("G-F", "eqJrond"),
)
_register(
    "gen_CRF", ("quadruple",),
    lambda ctx, gf: check_gen_CRF(gf, ctx.policy),
)
_register(
    "CRFK", ("quadruple",),
    lambda ctx, gf: check_CRFK(gf, ctx.policy),
    aliases=("CRFK6",),
)
_register("crvpm", ("gen_metric", "quadruple", "two_one"), _run_crvpm, aliases=("CrVpm",))
_register(
    "two_one", _C21,
    lambda ctx, obj: once(check_two_one, _two_one_target(ctx, obj), ctx.policy),
    aliases=("almoctZpm", "almctF2", "21metriccuZpm", "comfr", "prScuframe"),
)
_register(
    "phi", _C21,
    lambda ctx, obj: check_phi(_two_one_target(ctx, obj), ctx.policy),
    aliases=("eqPhi", "PhiG", "eqGY", "Phiptclasic"),
)
_register(
    "gen_contact", _C21,
    lambda ctx, obj: check_gen_contact(_two_one_target(ctx, obj), ctx.policy),
)
_register(
    "product_J", _C21,
    lambda ctx, obj: check_product_J(_two_one_target(ctx, obj), ctx.policy),
    aliases=("JptFrond", "fKrond"),
)
_register(
    "normal21", _C21,
    lambda ctx, obj: once(check_normal_21, _two_one_target(ctx, obj), ctx.policy),
    aliases=("normaltotal", "normtotal2"),
)
_register(
    "normal_explicit", _C21,
    lambda ctx, obj: check_normal_explicit(_two_one_target(ctx, obj), ctx.policy),
    aliases=("indbin0", "zetarho"),
)
_register(
    "binormal", _C21,
    lambda ctx, obj: check_binormal(_two_one_target(ctx, obj), ctx.policy),
    aliases=("indbin1",),
)
_register(
    "product_metric", _C21,
    lambda ctx, obj: check_product_metric(_two_one_target(ctx, obj), ctx.policy),
)
_register(
    "sasakian", _C21,
    lambda ctx, obj: check_sasakian(_two_one_target(ctx, obj), ctx.policy),
)
_register(
    "hyp_geometry", _HYP,
    lambda ctx, h: check_hyp_geometry(ctx.geometry(h), ctx.policy),
    aliases=("G-W",),
)
_register(
    "induced_contact", _HYP,
    lambda ctx, h: check_induced_contact(ctx.geometry(h), h.J, ctx.policy),
    aliases=("strind1",),
)
_register(
    "hyp_CRF", _HYP,
    lambda ctx, h: once(check_hyp_CRF, ctx.geometry(h), h.J, ctx.policy),
    aliases=("eqCRF2", "eqCRF3"),
)
_register(
    "hyp_normal", _HYP,
    lambda ctx, h: check_hyp_normal(ctx.geometry(h), h.J, ctx.policy),
    aliases=("eqnormal2",),
)
_register(
    "LXi", _HYP,
    lambda ctx, h: check_fundamental_form_property(ctx.geometry(h), h.J, ctx.policy),
)
_register(
    "hyp_CRFK", _HYP,
    lambda ctx, h: check_hyp_CRFK(ctx.geometry(h), *h.J_pair("hyp_CRFK"), ctx.policy),
    aliases=("eqptans3",),
)
_register(
    "hermitian", _HYP,
    lambda ctx, h: check_hermitian_identities(h.gamma, h.J, ctx.policy),
    aliases=("eqdinKN", "identHerm"),
)
_register(
    "gen_kahler", _HYP,
    lambda ctx, h: once(check_gen_kahler, h.gamma, h.psi, *h.J_pair("gen_kahler"), ctx.policy),
    aliases=("relpsiJ", "relpsiOmega"),
)


def resolve_alias(name: str) -> Optional[str]:
    if name in CHECKS:
        return name
    for cname, spec in CHECKS.items():
        if name in spec.aliases:
            return cname
    return None


class CheckRun:
    def __init__(self, check: str, structure: str, result: CheckResult, seconds: float):
        self.check = check
        self.structure = structure
        self.result = result
        self.seconds = seconds


def _bind_structure(scenario: Scenario, req) -> StructureDecl:
    if req.structure is not None:
        decl = scenario.structure(req.structure)
        if decl.type not in CHECKS[req.check].applies:
            raise ScenarioError(
                f"check '{req.check}' does not apply to structure type '{decl.type}'"
            )
        return decl
    spec = CHECKS[req.check]
    candidates = [s for s in scenario.structures if s.type in spec.applies]
    if not candidates:
        raise ScenarioError(
            f"no declared structure is applicable to check '{req.check}'"
        )
    if len(candidates) > 1:
        # prefer the most specific type in declaration order of `applies`
        for t in spec.applies:
            typed = [s for s in candidates if s.type == t]
            if len(typed) == 1:
                return typed[0]
        raise ScenarioError(
            f"check '{req.check}' is ambiguous; name a structure among "
            f"{', '.join(s.name for s in candidates)}"
        )
    return candidates[0]


def run_checks(scenario: Scenario) -> "Report":
    """Dispatch every requested check, all in one run (see
    :func:`~ggwb.verdict.once`); preconditions that fail surface as
    skipped-with-reason entries, failed identities as Failed verdicts."""
    from .report import Report

    ctx = ScenarioContext(scenario)
    runs = []
    with run():
        for req in scenario.checks:
            t0 = time.perf_counter()
            decl = _bind_structure(scenario, req)
            try:
                obj = ctx.build(decl)
                result = CHECKS[req.check].runner(ctx, obj)
            except PreconditionNotMet as exc:
                result = CheckResult(req.check, skipped=str(exc))
            except StructureError as exc:
                result = CheckResult(req.check)
                failures = exc.failures or [
                    ("structure validation", Verdict.failed(detail=str(exc)))
                ]
                for lbl, v in failures:
                    result.add(lbl, v)
            runs.append(CheckRun(req.check, decl.name, result, time.perf_counter() - t0))
    return Report(scenario.name, scenario.policy, runs)
