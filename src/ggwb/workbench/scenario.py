"""Scenario files: a JSON description of charts, fields, structures and the
checks to run on them.

Top-level keys: ``name``, ``charts`` (or a single ``chart``), ``fields``,
``structures``, ``checks``, ``policy``.  Expressions are strings in the
scalar grammar (identifiers, rational/decimal literals, ``+ - * / ^``,
``sin( ) cos( ) exp( )``).  Parse errors carry line/column positions;
validation errors carry the JSON path of the offending field.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Optional, Union

from ..calculus import (
    MAX_DET,
    ChartManifold,
    EndoTM,
    MetricField,
    OneForm,
    TwoForm,
    VectorField,
)
from ..errors import ExprError, GgwbError, ParseError, PolicyError, ScenarioError
from ..symexpr import ZeroPolicy, check_coordinate_names, parse_scalar

_FIELD_KINDS = ("scalar", "vector", "oneform", "twoform", "endo", "metric")
_STRUCTURE_TYPES = ("almost_contact", "gen_metric", "quadruple", "two_one", "hypersurface")

# Size bounds of one scenario expression.  The builtins reach a degree
# estimate of 3 and 8 terms; S1 with xi = (0, 0, (x+y+z+1)^60) (39,711 terms)
# loads in a third of a second and then runs almost_contact for minutes.  The
# degree is estimated on the parsed tree, before conversion expands it; the
# terms are counted in the reduced numerator and denominator.
MAX_DEGREE = 12
MAX_TERMS = 64
# A chart's dimension: M x R of a chart has one more coordinate, and every
# metric's determinant must stay within calculus.MAX_DET.
MAX_DIM = MAX_DET - 1


class StructureDecl:
    def __init__(self, name: str, type: str, data: dict):
        self.name = name
        self.type = type
        self.data = data


class CheckRequest:
    def __init__(self, check: str, structure: Optional[str] = None):
        self.check = check
        self.structure = structure


class Scenario:
    def __init__(self, name: str, description: str, charts: dict, fields: dict,
                 structures: list, checks: list, policy: ZeroPolicy):
        self.name = name
        self.description = description
        self.charts = charts
        self.fields = fields
        self.structures = structures
        self.checks = checks
        self.policy = policy

    def structure(self, name: str) -> StructureDecl:
        for s in self.structures:
            if s.name == name:
                return s
        raise ScenarioError(f"unknown structure '{name}'")


def _want(obj, key, where, types, required=True, default=None):
    if key not in obj:
        if required:
            raise ScenarioError("missing required key", f"{where}.{key}")
        return default
    val = obj[key]
    if types is not None and not isinstance(val, types):
        raise ScenarioError(
            f"expected {getattr(types, '__name__', types)}, got {type(val).__name__}",
            f"{where}.{key}",
        )
    return val


def _load_chart(spec: dict, where: str) -> ChartManifold:
    name = _want(spec, "name", where, str)
    coords = _want(spec, "coords", where, list)
    if not all(isinstance(c, str) for c in coords):
        raise ScenarioError("coords must be strings", f"{where}.coords")
    if len(coords) > MAX_DIM:
        raise ScenarioError(f"{len(coords)} coordinates exceed the bound {MAX_DIM}",
                            f"{where}.coords")
    try:
        check_coordinate_names(coords)
    except ExprError as exc:
        raise ScenarioError(str(exc), f"{where}.coords") from None
    ranges = {}
    for c, pair in (_want(spec, "ranges", where, dict, required=False) or {}).items():
        if c not in coords:
            raise ScenarioError(f"range for unknown coordinate '{c}'", f"{where}.ranges")
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ScenarioError("a range is a [lo, hi] pair", f"{where}.ranges.{c}")
        try:
            from fractions import Fraction

            ranges[c] = (Fraction(str(pair[0])), Fraction(str(pair[1])))
        except ValueError as exc:
            raise ScenarioError(f"bad rational bound: {exc}", f"{where}.ranges.{c}") from None
    base = None
    raw_base = _want(spec, "base_point", where, dict, required=False)
    if raw_base:
        from fractions import Fraction

        base = {}
        for c, v in raw_base.items():
            if c not in coords:
                raise ScenarioError(f"unknown coordinate '{c}'", f"{where}.base_point")
            try:
                base[c] = Fraction(str(v))
            except ValueError as exc:
                raise ScenarioError(f"bad rational: {exc}", f"{where}.base_point.{c}") from None
    try:
        return ChartManifold(name, coords, ranges, base)
    except GgwbError as exc:
        raise ScenarioError(str(exc), where) from None


def _parse_component(text, chart: ChartManifold, where: str):
    if isinstance(text, bool) or (isinstance(text, float) and not math.isfinite(text)):
        raise ScenarioError(f"{json.dumps(text)} is not an expression string or a number", where)
    if isinstance(text, int) or (isinstance(text, float) and text.is_integer()):
        text = str(int(text))
    if not isinstance(text, str):
        raise ScenarioError("components are expression strings", where)
    try:
        value = parse_scalar(text, chart, MAX_DEGREE)
    except (ParseError, ExprError) as exc:  # ExprError: an exponent past the packed width
        raise ScenarioError(str(exc), where) from None
    terms = max(len(value.rf.numer), len(value.rf.denom))
    if terms > MAX_TERMS:
        raise ScenarioError(f"{terms} terms exceed the bound {MAX_TERMS}", where)
    return value


def _load_field(name: str, spec: dict, charts: dict, where: str):
    kind = _want(spec, "kind", where, str)
    if kind not in _FIELD_KINDS:
        raise ScenarioError(f"unknown field kind '{kind}'", f"{where}.kind")
    chart_name = _want(
        spec, "chart", where, str, required=len(charts) > 1,
        default=next(iter(charts)) if charts else None,
    )
    if chart_name not in charts:
        raise ScenarioError(f"unknown chart '{chart_name}'", f"{where}.chart")
    chart = charts[chart_name]
    if kind == "scalar":
        return _parse_component(_want(spec, "expr", where, str), chart, f"{where}.expr")
    if kind in ("vector", "oneform"):
        comps = _want(spec, "components", where, list)
        if len(comps) != chart.dim:
            raise ScenarioError(
                f"{kind} on '{chart.name}' needs {chart.dim} components, got {len(comps)}",
                f"{where}.components",
            )
        parsed = [
            _parse_component(c, chart, f"{where}.components[{i}]") for i, c in enumerate(comps)
        ]
        cls = VectorField if kind == "vector" else OneForm
        return cls(chart, parsed)
    matrix = _want(spec, "matrix", where, list)
    if len(matrix) != chart.dim or any(
        not isinstance(r, list) or len(r) != chart.dim for r in matrix
    ):
        raise ScenarioError(
            f"{kind} on '{chart.name}' needs a {chart.dim}x{chart.dim} matrix",
            f"{where}.matrix",
        )
    parsed = [
        [_parse_component(x, chart, f"{where}.matrix[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(matrix)
    ]
    try:
        if kind == "twoform":
            return TwoForm(chart, parsed)
        if kind == "endo":
            return EndoTM(chart, parsed)
        return MetricField(chart, parsed)
    except GgwbError as exc:
        raise ScenarioError(str(exc), f"{where}.matrix") from None


_STRUCT_REF_KEYS = {
    "almost_contact": {"F": True, "Z": True, "xi": True, "metric": False},
    "gen_metric": {"gamma": True, "psi": False},
    "quadruple": {"gamma": True, "psi": False, "F_plus": True, "F_minus": True},
    "two_one": {
        "classical": False,
        "psi": False,
        "quadruple": False,
        "Z_plus": False,
        "Z_minus": False,
    },
    "hypersurface": {
        "metric": True,
        "psi": False,
        "J": False,
        "J_plus": False,
        "J_minus": False,
    },
}


def _load_structure(spec: dict, charts: dict, fields: dict, structures: list, where: str):
    name = _want(spec, "name", where, str)
    stype = _want(spec, "type", where, str)
    if stype not in _STRUCTURE_TYPES:
        raise ScenarioError(f"unknown structure type '{stype}'", f"{where}.type")
    data = {}
    refs = _STRUCT_REF_KEYS[stype]
    known_structs = {s.name for s in structures}
    for key, required in refs.items():
        val = _want(spec, key, where, str, required=required)
        if val is None:
            continue
        if key in ("classical", "quadruple"):
            if val not in known_structs:
                raise ScenarioError(f"unknown structure '{val}'", f"{where}.{key}")
        elif val not in fields:
            raise ScenarioError(f"unknown field '{val}'", f"{where}.{key}")
        data[key] = val
    if stype == "two_one":
        if "classical" not in data and "quadruple" not in data:
            raise ScenarioError(
                "a two_one structure needs 'classical' or 'quadruple'", where
            )
        if "quadruple" in data and ("Z_plus" not in data or "Z_minus" not in data):
            raise ScenarioError(
                "a quadruple-based two_one needs Z_plus and Z_minus vector fields", where
            )
    if stype == "hypersurface":
        if ("J" in data) == ("J_plus" in data or "J_minus" in data):
            raise ScenarioError(
                "a hypersurface takes either J (Hermitian) or J_plus and J_minus", where
            )
        if ("J_plus" in data) != ("J_minus" in data):
            raise ScenarioError("J_plus and J_minus come together", where)
        domain_spec = _want(spec, "domain", where, dict)
        domain = _load_chart(domain_spec, f"{where}.domain")
        if domain.name in charts:
            raise ScenarioError(f"chart '{domain.name}' already declared", f"{where}.domain")
        mapping = _want(spec, "map", where, list)
        if len(mapping) != domain.dim + 1:
            raise ScenarioError(
                f"embedding map needs {domain.dim + 1} ambient components",
                f"{where}.map",
            )
        comps = [
            _parse_component(c, domain, f"{where}.map[{i}]") for i, c in enumerate(mapping)
        ]
        orientation = spec.get("orientation", 1)
        if orientation not in (1, -1):
            raise ScenarioError("orientation must be 1 or -1", f"{where}.orientation")
        data["domain"] = domain
        data["map"] = comps
        data["orientation"] = orientation
    return StructureDecl(name, stype, data)


_POLICY_KEYS = ("samples", "seed", "tol", "max_resample")


def _load_policy(spec: Optional[dict], where: str, seed_default: int = 0) -> ZeroPolicy:
    spec = {} if spec is None else spec
    if not isinstance(spec, dict):
        raise ScenarioError("policy must be an object", where)
    for key in spec:
        if key not in _POLICY_KEYS:
            raise ScenarioError(
                f"unknown policy key (known: {', '.join(_POLICY_KEYS)})", f"{where}.{key}"
            )
    try:  # ZeroPolicy checks the JSON types as well as the ranges
        return ZeroPolicy(**{"seed": seed_default, **spec})
    except PolicyError as exc:
        raise ScenarioError(f"bad policy value: {exc}", f"{where}.{exc.key}") from None


def load_scenario(source: Union[str, Path, dict], seed_default: int = 0) -> Scenario:
    """Parse and validate a scenario from a path, JSON text, or a dict."""
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text() if Path(str(source)).exists() else str(source)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"invalid JSON: {exc.msg}", f"line {exc.lineno}, column {exc.colno}"
            ) from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    name = _want(doc, "name", "$", str)
    description = doc.get("description", "")
    chart_specs = doc.get("charts")
    if chart_specs is None:
        single = _want(doc, "chart", "$", dict)
        chart_specs = [single]
    charts = {}
    for i, cs in enumerate(chart_specs):
        chart = _load_chart(cs, f"$.charts[{i}]")
        if chart.name in charts:
            raise ScenarioError(f"duplicate chart '{chart.name}'", f"$.charts[{i}]")
        charts[chart.name] = chart
    fields = {}
    for fname, fspec in (_want(doc, "fields", "$", dict, required=False) or {}).items():
        if not isinstance(fspec, dict):
            raise ScenarioError("field spec must be an object", f"$.fields.{fname}")
        fields[fname] = _load_field(fname, fspec, charts, f"$.fields.{fname}")
    structures = []
    for i, sspec in enumerate(_want(doc, "structures", "$", list, required=False) or []):
        decl = _load_structure(sspec, charts, fields, structures, f"$.structures[{i}]")
        if any(s.name == decl.name for s in structures):
            raise ScenarioError(f"duplicate structure '{decl.name}'", f"$.structures[{i}]")
        structures.append(decl)
    checks = []
    for i, c in enumerate(_want(doc, "checks", "$", list, required=False) or []):
        if isinstance(c, str):
            checks.append(CheckRequest(c))
        elif isinstance(c, dict):
            checks.append(
                CheckRequest(
                    _want(c, "check", f"$.checks[{i}]", str),
                    _want(c, "structure", f"$.checks[{i}]", str, required=False),
                )
            )
        else:
            raise ScenarioError("a check is a name or an object", f"$.checks[{i}]")
    policy = _load_policy(doc.get("policy"), "$.policy", seed_default)
    scenario = Scenario(name, description, charts, fields, structures, checks, policy)
    _validate_check_names(scenario)
    return scenario


def _validate_check_names(scenario: Scenario) -> None:
    from .checks import resolve_alias

    for i, req in enumerate(scenario.checks):
        canonical = resolve_alias(req.check)
        if canonical is None:
            raise ScenarioError(f"unknown check '{req.check}'", f"$.checks[{i}]")
        req.check = canonical
        if req.structure is not None:
            scenario.structure(req.structure)


# ---------------------------------------------------------------------------
# built-ins

_BUILTIN_FILES = {
    "S1-flat-cosymplectic": "s1.json",
    "S2-sasakian-heisenberg": "s2.json",
    "S3-exp-deformation": "s3.json",
    "S4-sphere-in-C2": "s4.json",
    "S5-NxT2": "s5.json",
    "S6b-hyperplane-in-C2": "s6b.json",
}
_BUILTIN_ALIASES = {
    "S1": "S1-flat-cosymplectic",
    "S2": "S2-sasakian-heisenberg",
    "S3": "S3-exp-deformation",
    "S4": "S4-sphere-in-C2",
    "S6a": "S4-sphere-in-C2",
    "S6a-sphere-in-C2": "S4-sphere-in-C2",
    "S5": "S5-NxT2",
    "S6b": "S6b-hyperplane-in-C2",
}


def builtin_names() -> list[str]:
    return sorted(_BUILTIN_FILES)


def resolve_builtin(name: str) -> Optional[str]:
    if name in _BUILTIN_FILES:
        return name
    return _BUILTIN_ALIASES.get(name)


def load_builtin(name: str, seed_default: int = 0) -> Scenario:
    canonical = resolve_builtin(name)
    if canonical is None:
        raise ScenarioError(
            f"unknown builtin '{name}' (known: {', '.join(builtin_names())})"
        )
    data = resources.files("ggwb.workbench").joinpath(f"builtin/{_BUILTIN_FILES[canonical]}")
    return load_scenario(json.loads(data.read_text()), seed_default)
