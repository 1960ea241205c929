"""Layer counts of one in-process round of builtins (S1, S2, S5, S6b by default).

    PYTHONHASHSEED=0 python3 tools/layer_counts.py SRC_DIR [--seed 0] [--builtins S3,S4]

SRC_DIR is the ``src`` directory of the checkout to count, so the same
script counts a parent checkout and a change.  ``--builtins`` names the
builtins of the round, comma-separated.  Every contraction pass is
recorded with its operands' shapes and nonzero positions, and the counts
are derived from them the same way on both sides:

- ``contract_calls``: contraction passes, the calls of
  ``calculus.contract_sum`` (a sum of terms in one pass, which
  ``calculus.contract`` calls with one term) or, in a checkout without it,
  of ``calculus.contract``; ``contract_terms``: the terms of those passes,
  one per call of ``contract``;
- ``merges``: entrywise sums and differences of two arrays, the calls of
  ``calculus._Components._merge``;
- ``dense_tuples``: index tuples a dense walk visits, the product of the
  sizes of all letters, for every term without an all-zero operand (or a
  zero coefficient);
- ``join_lookups`` and ``join_bindings``: index lookups and partial
  bindings of a join that binds letters operand by operand, in operand
  order, over the nonzeros;
- ``products``: terms formed, one per surviving index tuple, counted as the
  terms passed to ``calculus._field_sum``, and ``field_sums`` its calls;
- ``derivatives``: calls of the derivative kernel ``symexpr._derivative``,
  and ``field_ops``: calls of ``symexpr._field_op`` (+ - * / in one field);
- ``field_sums.integer``, ``derivatives.integer`` and ``field_ops.integer``:
  the calls whose operands (every factor of every term, the differentiated
  element, both operands) all have denominator 1, the traffic of the
  integer-polynomial lane (its derivative also needs a field without atom
  generators, and its ``_field_op`` leaves ``/`` to the fraction path);
- ``conversions``: calls that turn nested component sequences into field
  elements (``_wrap`` and ``_prepare`` where they exist, ``_gather``
  otherwise);
- ``gcds``: calls of ``poly.cofactors``, the one gcd of the field core;
- ``zero_tests.proved``, ``.numeric`` and ``.failed``: calls of the zero
  test ``symexpr.is_zero`` by the kind of verdict they return;
- ``certificates.no_witness`` and ``.witness``: calls of the positivity
  certificate ``numeric.positivity_witness`` by whether they return a
  witness (a pivot that is not positive at the point);
- ``subchecks.<name>``: calls of the sub-checks and builds that several
  checks read (``check_almost_hermitian``, ``check_gen_kahler``,
  ``check_hyp_CRF``, ``check_normal_21``, ``check_normal_classical``,
  ``check_two_one``, ``normality._PairData`` and the hypersurface builds
  ``induced_almost_contact`` and ``induced_gen_structure``), so a result
  that is shared counts once;
- ``<cache>.hits``, ``.misses`` and ``.currsize``: the ``cache_info()`` of
  each denominator cache of the field core that the checkout has
  (``symexpr._reduced``, ``symexpr._poly_lcm``, ``calculus._den_product``).

The last line of standard output is one JSON object with the counts.
``install`` and ``cache_counts`` count any other job the same way, once
the ggwb modules of that job are imported.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter


def _leaf_nonzero(e) -> bool:
    if hasattr(e, "is_syntactic_zero"):
        return not e.is_syntactic_zero
    return e != 0


def _nonzeros(o, rank: int) -> set:
    """The index tuples of the nonzero entries of a contraction operand."""
    if hasattr(o, "entries"):
        return set(o.entries)
    grid = o.components if hasattr(o, "components") else o
    out = set()

    def walk(a, ix):
        if len(ix) == rank:
            if _leaf_nonzero(a):
                out.add(ix)
            return
        for i, e in enumerate(a):
            walk(e, ix + (i,))

    walk(grid, ())
    return out


def _shape(o, rank: int) -> tuple:
    if hasattr(o, "shape"):
        return tuple(o.shape)
    shape = []
    for _ in range(rank):
        shape.append(len(o))
        o = o[0]
    return tuple(shape)


def _join(ins: list, nonzeros: list) -> tuple:
    """(lookups, bindings) of the operand-order join over the nonzeros."""
    partial, order, lookups, bindings = [()], [], 0, 0
    for idx, nz in zip(ins, nonzeros):
        first = {}
        for p, c in enumerate(idx):
            first.setdefault(c, p)
        new = [c for c in first if c not in order]
        index = {}
        for ix in nz:
            if any(ix[p] != ix[first[c]] for p, c in enumerate(idx)):
                continue
            key = tuple(ix[first[c]] for c in order if c in first)
            index.setdefault(key, []).append(tuple(ix[first[c]] for c in new))
        at = [order.index(c) for c in order if c in first]
        nxt = []
        for v in partial:
            lookups += 1
            nxt.extend(v + n for n in index.get(tuple(v[i] for i in at), ()))
        order += new
        partial = nxt
        bindings += len(partial)
        if not partial:
            break
    return lookups, bindings


def install(counts: Counter) -> None:
    """Wrap the counted functions of the ggwb modules already imported, at
    every module that binds them, and the core arrays' ``_merge``; each
    call adds to ``counts``."""
    from ggwb import calculus, hypersurface, numeric, poly, symexpr
    from ggwb.structures import classical, normality, twoone

    contract, field_sum = calculus.contract, calculus._field_sum
    fused = getattr(calculus, "contract_sum", None)

    def count_term(spec, operands):
        ins = spec.split("->")[0].split(",")
        nonzeros = [_nonzeros(o, len(idx)) for o, idx in zip(operands, ins)]
        if all(nonzeros):
            dims = {}
            for o, idx in zip(operands, ins):
                dims.update(zip(idx, _shape(o, len(idx))))
            counts["dense_tuples"] += math.prod(dims.values())
            lookups, bindings = _join(ins, nonzeros)
            counts["join_lookups"] += lookups
            counts["join_bindings"] += bindings

    def counted_contract(spec, *operands):
        counts["contract_calls"] += 1
        counts["contract_terms"] += 1
        count_term(spec, operands)
        return contract(spec, *operands)

    def counted_fused(*terms):
        counts["contract_calls"] += 1
        counts["contract_terms"] += len(terms)
        for coef, spec, *operands in terms:
            if coef:
                count_term(spec, operands)
        return fused(*terms)

    merge = calculus._Components._merge

    def counted_merge(self, other, op):
        counts["merges"] += 1
        return merge(self, other, op)

    calculus._Components._merge = counted_merge

    def integer(*elements) -> bool:
        return all(e.denom == poly.ONE for e in elements)

    def counted_field_sum(*args):  # (K, terms), or (K, one, terms) in older checkouts
        counts["field_sums"] += 1
        counts["products"] += len(args[-1])
        counts["field_sums.integer"] += integer(*(f for t in args[-1] for f in t))
        return field_sum(*args)

    derivative, field_op = symexpr._derivative, symexpr._field_op

    def counted_derivative(rf, name):
        counts["derivatives"] += 1
        counts["derivatives.integer"] += integer(rf)
        return derivative(rf, name)

    def counted_field_op(op, a, b):
        counts["field_ops"] += 1
        counts["field_ops.integer"] += integer(a, b)
        return field_op(op, a, b)

    depth = Counter()

    def counted(name, fn):
        def wrapper(*a, **k):
            if not depth[name]:
                counts["conversions"] += 1
            depth[name] += 1
            try:
                return fn(*a, **k)
            finally:
                depth[name] -= 1
        return wrapper

    cofactors = poly.cofactors

    def counted_cofactors(*args):
        counts["gcds"] += 1
        return cofactors(*args)

    zero = symexpr.is_zero

    def counted_zero(*args, **kwargs):
        verdict = zero(*args, **kwargs)
        counts[f"zero_tests.{verdict.kind.name.lower()}"] += 1
        return verdict

    certificate = numeric.positivity_witness

    def counted_certificate(*args, **kwargs):
        witness = certificate(*args, **kwargs)
        counts["certificates.no_witness" if witness is None else "certificates.witness"] += 1
        return witness

    def counted_subcheck(name, fn):
        def wrapper(*args, **kwargs):
            counts[f"subchecks.{name}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    replace = {id(field_sum): counted_field_sum,
               id(cofactors): counted_cofactors, id(derivative): counted_derivative,
               id(field_op): counted_field_op, id(zero): counted_zero,
               id(certificate): counted_certificate}
    if fused is None:
        replace[id(contract)] = counted_contract
    else:  # contract is its one-term case, counted inside it
        replace[id(fused)] = counted_fused
    for module, name in ((hypersurface, "check_almost_hermitian"),
                         (hypersurface, "check_gen_kahler"), (hypersurface, "check_hyp_CRF"),
                         (hypersurface, "induced_almost_contact"),
                         (hypersurface, "induced_gen_structure"),
                         (twoone, "check_normal_21"), (twoone, "check_two_one"),
                         (classical, "check_normal_classical"), (normality, "_PairData")):
        fn = getattr(module, name)
        replace[id(fn)] = counted_subcheck(name, fn)
    for name in ("_wrap", "_prepare", "_gather"):
        fn = getattr(calculus, name, None)
        if fn is not None:
            replace[id(fn)] = counted(name, fn)
    for modname, module in list(sys.modules.items()):
        if modname == "ggwb" or modname.startswith("ggwb."):
            for attr, val in list(vars(module).items()):
                if id(val) in replace:
                    setattr(module, attr, replace[id(val)])


def cache_counts(counts: Counter) -> None:
    """Add the ``cache_info()`` of each denominator cache to ``counts``."""
    from ggwb import calculus, symexpr

    for module, name in ((symexpr, "_reduced"), (symexpr, "_poly_lcm"), (calculus, "_den_product")):
        cache = getattr(module, name, None)
        if cache is not None:
            info = cache.cache_info()
            for field in ("hits", "misses", "currsize"):
                counts[f"{module.__name__[5:]}.{name}.{field}"] = getattr(info, field)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--builtins", default="S1,S2,S5,S6b")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)

    from ggwb.workbench import checks, report, scenario

    counts = Counter()
    install(counts)
    for name in args.builtins.split(","):
        report.emit_report(checks.run_checks(scenario.load_builtin(name, args.seed)), "json")
    cache_counts(counts)
    print(json.dumps(dict(sorted(counts.items()))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
