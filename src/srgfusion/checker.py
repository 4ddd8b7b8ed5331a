"""Certificate verification: ``verify_record`` re-checks a classification
record from the facts of ``catalogue`` alone.  Nothing this module
imports, directly or indirectly, imports ``decompose`` or ``classifier``.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .catalogue import (
    ClassificationRecord, ProofLeaf, _RESULTANT_MAX_SIZE, _ROWS,
    _apply_substitutions, _bound_conflict, _feasible_root_points,
    _orthant_sign, _residual_roots, _resultant, _rootless_on_region, _verdict,
    potential_equality_graph,
)
from .exact import MultiPoly


def _pairwise_blocked(rows: Sequence[int], blocked: int) -> bool:
    """Are the increasing ``rows`` pairwise blocked in ``blocked``?"""
    return all(blocked >> (a * _ROWS + b) & 1
               for a, b in itertools.combinations(rows, 2))


def _leaf_consequence(
    poly: MultiPoly, leaf: ProofLeaf, equations: Sequence[MultiPoly]
) -> bool:
    """Is poly forced to vanish on the leaf by the grouping's equations?

    It must be the normalized image, under the leaf's substitution chain,
    of one of the equations or of the leaf's assumptions, or the normalized
    resultant of two such images that eliminates a variable poly lacks.
    The first match ends the search; resultants are tried smallest
    Sylvester matrix first, up to the size the prover forms.
    """
    images = []
    for e in itertools.chain(equations, leaf.assumptions):
        image = _apply_substitutions(e, leaf.substitutions)[0].normalized()
        if image == poly:
            return True
        if not image.is_zero():
            images.append(image)
    syms = poly.symbols()
    pairs = []
    for f, g in itertools.combinations(dict.fromkeys(images), 2):
        for var in sorted((f.symbols() & g.symbols()) - syms):
            size = f.degree(var) + g.degree(var)
            if size <= _RESULTANT_MAX_SIZE and syms <= f.symbols() | g.symbols():
                pairs.append((size, f, g, var))
    return any(
        _resultant(f, g, var).normalized() == poly
        for _, f, g, var in sorted(pairs, key=lambda t: t[0])
    )


def _verify_bound_conflict(leaf: ProofLeaf, equations: Sequence[MultiPoly]) -> bool:
    """Re-derive the mathematical content of a bounds contradiction."""
    conflict = leaf.bound_conflict
    if conflict is None:
        return False
    kind, data = conflict.kind, conflict.data
    if kind == "definite":
        return (_orthant_sign(data[0]) is not None
                and _leaf_consequence(data[0], leaf, equations))
    if kind == "no-region-root":
        return (_rootless_on_region(data[0])
                and _leaf_consequence(data[0], leaf, equations))
    if kind == "no-feasible-root":
        # the roots are those of the residual's gcd, every residual equation
        # follows from the grouping's, and no root pins a feasible point
        var, roots = data
        return (bool(leaf.residual)
                and all(e.symbols() == {var} for e in leaf.residual)
                and _residual_roots(leaf.residual, var) == list(roots)
                and _feasible_root_points(leaf.substitutions, var, roots) == ((), True)
                and all(_leaf_consequence(e, leaf, equations)
                        for e in leaf.residual))
    if kind in ("constant", "image-definite"):
        # the bound analysis of the stored substitutions must find this conflict
        return _bound_conflict(leaf.substitutions) == conflict
    return False


def verify_record(rec: ClassificationRecord) -> bool:
    """Re-check the mechanical content of a classification record.

    Unit contradictions remultiply their sieve certificates; every
    substitution's denominator must be a nonzero constant or carry a sieve
    certificate that remultiplies to it, checked before a leaf's conflict is
    replayed; bound conflicts recompute the sign data from the stored
    substitution chains, and a definite or region-rootless equation must be
    re-derived from the grouping's equations; row-count certificates
    re-check pairwise blockedness.  A GUARANTEED record must name no family
    and pass the Bannai-Muzychuk criterion on the symbolic table, which the
    two trivial partitions pass too; any other record must carry the
    verdict and families ``_verdict`` concludes from its proof, a row-count
    certificate or at least one grouping.
    """
    p = rec.partition
    m = p.num_blocks + 1
    if rec.trivial != (p.is_discrete() or p.is_single_block()):
        return False
    if rec.verdict == "GUARANTEED":
        # the criterion as bm_check counts it: m distinct summed rows
        return not rec.families and len(potential_equality_graph(p).classes) == m
    if (rec.verdict, rec.families) != _verdict(str(p), rec.groupings):
        return False
    if rec.row_count_certificate is not None:
        cert = rec.row_count_certificate
        graph = potential_equality_graph(p)
        first_of_row = {row: cls[0] for cls in graph.classes for row in cls}
        firsts = sorted(first_of_row[row] for row in cert.representatives)
        if (cert.required != m or len(set(firsts)) != len(firsts)
                or len(firsts) <= m):
            return False
        # only the pairs among the representatives' classes need checking
        return _pairwise_blocked(firsts, graph.blocked)
    if not rec.groupings:
        return False
    for ga in rec.groupings:
        for leaf in ga.leaves:
            for sub in leaf.substitutions:
                if sub.den.is_constant():
                    if sub.den.is_zero():
                        return False
                    continue
                cert = sub.den_certificate
                if cert is None or cert.reconstruct() != sub.den.normalized():
                    return False
            if leaf.outcome == "contradiction-unit":
                cert = leaf.unit_certificate
                if cert is None or cert.reconstruct() != leaf.unit_poly:
                    return False
            elif leaf.outcome == "contradiction-bounds":
                if not _verify_bound_conflict(leaf, ga.equations):
                    return False
    return True
