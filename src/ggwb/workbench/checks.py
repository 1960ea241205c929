"""Check registry and scenario orchestration.

Check names mirror the criteria they implement; most have equation-label
aliases so reports stay citable (``normaltotal``, ``indbin1``, ``eqptans3``).
A check binds to an explicitly named structure or, when unambiguous, to the
unique declared structure of an applicable type.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..calculus import random_vector_field
from ..courant import courant_bracket
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
    courant_bracket_Vpm,
)
from ..hypersurface import (
    Embedding,
    check_fundamental_form_property,
    check_gen_kahler,
    check_hermitian_identities,
    check_hyp_CRF,
    check_hyp_CRFK,
    check_hyp_geometry,
    check_hyp_normal,
    check_induced_contact,
    induced_gen_structure,
    second_fundamental_form,
)
from ..symexpr import is_zero_all
from ..verdict import CheckResult, Verdict
from .scenario import Scenario, StructureDecl


class ScenarioContext:
    """Lazily builds and caches the geometric objects a scenario declares."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.policy = scenario.policy
        self._built = {}
        self._results = {}  # (check, id(target)) -> (target, CheckResult)

    def run_once(self, check: str, target, run: Callable[[], CheckResult]) -> CheckResult:
        """The result of ``check`` on ``target``, computed on first request.

        Verdicts are deterministic (every zero test draws from a fresh
        ``policy.rng()``), so a repeated request may reuse the first result.
        """
        key = (check, id(target))
        if key not in self._results:
            self._results[key] = (target, run())
        return self._results[key][1]

    def earlier_result(self, check: str, target) -> Optional[CheckResult]:
        """The result ``run_once`` already holds for ``check`` on ``target``."""
        hit = self._results.get((check, id(target)))
        return hit[1] if hit is not None else None

    def field(self, name: str):
        return self.scenario.fields[name]

    def build(self, decl: StructureDecl):
        if decl.name in self._built:
            return self._built[decl.name]
        builder = getattr(self, f"_build_{decl.type}")
        obj = builder(decl)
        self._built[decl.name] = obj
        return obj

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

    def _build_hypersurface(self, decl) -> dict:
        d = decl.data
        ambient_metric = self.field(d["metric"])
        emb = Embedding(d["domain"], ambient_metric.chart, d["map"], d["orientation"])
        bundle = {
            "embedding": emb,
            "gamma": ambient_metric,
            "psi": self.field(d["psi"]) if "psi" in d else None,
        }
        if "J" in d:
            bundle["J"] = self.field(d["J"])
        else:
            bundle["J_plus"] = self.field(d["J_plus"])
            bundle["J_minus"] = self.field(d["J_minus"])
        return bundle

    def geometry(self, bundle: dict):
        key = id(bundle["embedding"])
        cache = self._built.setdefault("__geo__", {})
        if key not in cache:
            cache[key] = second_fundamental_form(
                bundle["embedding"], bundle["gamma"], bundle["psi"], self.policy
            )
        return cache[key]

    def induced(self, bundle: dict):
        key = ("induced", id(bundle["embedding"]))
        if key not in self._built:
            if "J_plus" not in bundle:
                raise PreconditionNotMet(
                    "the induced generalized structure needs J_plus and J_minus"
                )
            from ..calculus import zero_twoform

            psi = bundle["psi"]
            if psi is None:
                psi = zero_twoform(bundle["gamma"].chart)
            self._built[key] = induced_gen_structure(
                bundle["embedding"], bundle["gamma"], psi,
                bundle["J_plus"], bundle["J_minus"], self.policy,
            )
        return self._built[key]

    def _hyp_J(self, bundle: dict):
        if "J" in bundle:
            return bundle["J"]
        return bundle["J_plus"]


@dataclass
class CheckSpec:
    name: str
    applies: tuple
    runner: Callable
    aliases: tuple = ()


def _run_crvpm(ctx: ScenarioContext, obj, pairs: int = 12) -> CheckResult:
    """(CrVpm) closed-form V_pm brackets against the generic Courant bracket
    on random polynomial section pairs with random sign choices."""
    G = obj if isinstance(obj, GenMetric) else obj.G
    if G is None:
        raise PreconditionNotMet("(CrVpm) needs a generalized metric")
    out = CheckResult("crvpm")
    rng = random.Random(ctx.policy.seed + 77)
    exprs = []
    for k in range(pairs):
        degree = 2 if k % 6 == 5 else 1
        X = random_vector_field(G.chart, rng, degree)
        Y = random_vector_field(G.chart, rng, degree)
        signs = (rng.choice((1, -1)), rng.choice((1, -1)))
        closed = courant_bracket_Vpm(G, X, Y, signs)
        generic = courant_bracket(G.section(X, signs[0]), G.section(Y, signs[1]))
        exprs.extend((closed - generic).components())
    out.add(
        f"(CrVpm) closed forms = generic bracket on {pairs} random pairs",
        is_zero_all(exprs, ctx.policy),
    )
    return out


def _two_one_target(ctx, obj):
    if isinstance(obj, dict):  # hypersurface bundle -> induced structure
        return ctx.induced(obj).two_one
    return obj


def _run_normal21(ctx, obj) -> CheckResult:
    s = _two_one_target(ctx, obj)
    return ctx.run_once("normal21", s, lambda: check_normal_21(s, ctx.policy))


def _run_binormal(ctx, obj) -> CheckResult:
    # binormality cross-checks normal21 of the structure: reuse the verdict
    # when the scenario already ran that check
    s = _two_one_target(ctx, obj)
    return check_binormal(s, ctx.policy, normal21=ctx.earlier_result("normal21", s))


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
    lambda ctx, obj: check_two_one(_two_one_target(ctx, obj), ctx.policy),
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
_register("normal21", _C21, _run_normal21, aliases=("normaltotal", "normtotal2"))
_register(
    "normal_explicit", _C21,
    lambda ctx, obj: check_normal_explicit(_two_one_target(ctx, obj), ctx.policy),
    aliases=("indbin0", "zetarho"),
)
_register("binormal", _C21, _run_binormal, aliases=("indbin1",))
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
    lambda ctx, b: check_hyp_geometry(ctx.geometry(b), ctx.policy),
    aliases=("G-W",),
)
_register(
    "induced_contact", _HYP,
    lambda ctx, b: check_induced_contact(
        b["embedding"], b["gamma"], ctx._hyp_J(b), ctx.geometry(b), ctx.policy
    ),
    aliases=("strind1",),
)
_register(
    "hyp_CRF", _HYP,
    lambda ctx, b: check_hyp_CRF(
        b["embedding"], b["gamma"], ctx._hyp_J(b), ctx.geometry(b), ctx.policy
    ),
    aliases=("eqCRF2", "eqCRF3"),
)
_register(
    "hyp_normal", _HYP,
    lambda ctx, b: check_hyp_normal(
        b["embedding"], b["gamma"], ctx._hyp_J(b), ctx.geometry(b), ctx.policy
    ),
    aliases=("eqnormal2",),
)
_register(
    "LXi", _HYP,
    lambda ctx, b: check_fundamental_form_property(
        b["embedding"], b["gamma"], ctx._hyp_J(b), ctx.geometry(b), ctx.policy
    ),
)
_register(
    "hyp_CRFK", _HYP,
    lambda ctx, b: _run_hyp_crfk(ctx, b),
    aliases=("eqptans3",),
)
_register(
    "hermitian", _HYP,
    lambda ctx, b: check_hermitian_identities(b["gamma"], ctx._hyp_J(b), ctx.policy),
    aliases=("eqdinKN", "identHerm"),
)
_register(
    "gen_kahler", _HYP,
    lambda ctx, b: _run_gen_kahler(ctx, b),
    aliases=("relpsiJ", "relpsiOmega"),
)


def _run_hyp_crfk(ctx, b) -> CheckResult:
    if "J_plus" not in b:
        raise PreconditionNotMet("hyp_CRFK needs ambient J_plus and J_minus")
    from ..calculus import zero_twoform

    psi = b["psi"] if b["psi"] is not None else zero_twoform(b["gamma"].chart)
    return check_hyp_CRFK(
        b["embedding"], b["gamma"], psi, b["J_plus"], b["J_minus"], ctx.policy,
        geo=ctx.geometry(b),
    )


def _run_gen_kahler(ctx, b) -> CheckResult:
    if "J_plus" not in b:
        raise PreconditionNotMet("gen_kahler needs ambient J_plus and J_minus")
    from ..calculus import zero_twoform

    psi = b["psi"] if b["psi"] is not None else zero_twoform(b["gamma"].chart)
    return check_gen_kahler(b["gamma"], psi, b["J_plus"], b["J_minus"], ctx.policy)


def resolve_alias(name: str) -> Optional[str]:
    if name in CHECKS:
        return name
    for cname, spec in CHECKS.items():
        if name in spec.aliases:
            return cname
    return None


@dataclass
class CheckRun:
    check: str
    structure: str
    result: CheckResult
    seconds: float


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
    """Dispatch every requested check; preconditions that fail surface as
    skipped-with-reason entries, failed identities as Failed verdicts."""
    from .report import Report

    ctx = ScenarioContext(scenario)
    runs = []
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
