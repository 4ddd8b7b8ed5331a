"""Certificate verification: ``verify_record`` re-checks a classification
record from the facts of ``catalogue`` alone.  Nothing this module
imports, directly or indirectly, imports ``decompose`` or ``classifier``.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .catalogue import (
    ClassificationRecord, EqualityGraph, ProofLeaf, _RESULTANT_MAX_SIZE, _ROWS,
    _apply_substitutions, _bound_conflict, _feasible_root_points,
    _orthant_sign, _residual_roots, _resultant, _rootless_on_region, _verdict,
    potential_equality_graph,
)
from .exact import MultiPoly


def _merge_patterns(graph: EqualityGraph, m: int, ci: int = 1, groups: tuple = ()) -> list:
    """The merged rows of every merge pattern, in the prover's order: class 0
    alone, then each class in turn joins each earlier group whose classes it
    can all merge with, then a new group, until m groups hold every class.
    A group is (bitmask of its classes' first rows, its rows); (0, ()) is
    the new one."""
    classes = graph.classes
    if not len(groups) < m <= len(groups) + 1 + len(classes) - ci:
        return []
    if ci == len(classes):
        return [(classes[0],) + tuple(tuple(sorted(rows)) for _, rows in groups)]
    first, patterns = classes[ci][0], []
    for gi, (mask, rows) in enumerate(groups + ((0, ()),)):
        if not graph.blocked >> first * _ROWS & mask:
            patterns += _merge_patterns(graph, m, ci + 1, groups[:gi] + (
                (mask | 1 << first, rows + classes[ci]),) + groups[gi + 1:])
    return patterns


def _leaf_consequence(
    poly: MultiPoly, leaf: ProofLeaf, equations: Sequence[MultiPoly], chains: dict
) -> bool:
    """Is poly forced to vanish on the leaf by the grouping's equations?

    It must be the image, under the leaf's substitution chain and
    normalized after each step, of one of the equations or of the leaf's
    assumptions, or the normalized resultant of two such images that
    eliminates a variable poly lacks.  The first match ends the search;
    resultants are tried smallest Sylvester matrix first, up to the size
    the prover forms.  ``chains`` holds each step's images for the call.
    """
    images = []
    steps = [(sub, chains[sub]) for sub in leaf.substitutions]
    for image in itertools.chain(equations, leaf.assumptions):
        for sub, step in steps:
            if image not in step:
                step[image] = _apply_substitutions(image, (sub,))[0].normalized()
            image = step[image]
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


def _verify_bound_conflict(
    leaf: ProofLeaf, equations: Sequence[MultiPoly], chains: dict
) -> bool:
    """Re-derive the mathematical content of a bounds contradiction."""
    conflict = leaf.bound_conflict
    if conflict is None:
        return False
    kind, data = conflict.kind, conflict.data
    if kind == "definite":
        return (_orthant_sign(data[0]) is not None
                and _leaf_consequence(data[0], leaf, equations, chains))
    if kind == "no-region-root":
        return (_rootless_on_region(data[0])
                and _leaf_consequence(data[0], leaf, equations, chains))
    if kind == "no-feasible-root":
        # the roots are those of the residual's gcd, every residual equation
        # follows from the grouping's, and no root pins a feasible point
        var, roots = data
        return (bool(leaf.residual)
                and all(e.symbols() == {var} for e in leaf.residual)
                and _residual_roots(leaf.residual, var) == list(roots)
                and _feasible_root_points(leaf.substitutions, var, roots) == ((), True)
                and all(_leaf_consequence(e, leaf, equations, chains)
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
    certificate or groupings whose merge patterns are, in order, every
    pattern ``_merge_patterns`` enumerates.  Each distinct substitution is
    checked once, and ``chains``, a memo that lives for this call, clears
    each equation along each chain prefix once.
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
        # more than m rows, each blocked with every earlier one; a blocked
        # pair differs on the region, so the rows lie in distinct classes
        cert, blocked = rec.row_count_certificate, potential_equality_graph(p).blocked
        rows = 0
        for row in cert.representatives:
            if not 0 <= row < _ROWS or blocked >> row * _ROWS & rows != rows:
                return False
            rows |= 1 << row
        return cert.required == m < len(cert.representatives)
    patterns = [ga.merge_classes for ga in rec.groupings]
    if not patterns or patterns != _merge_patterns(potential_equality_graph(p), m):
        return False
    chains: dict = {}  # {polynomial: normalized image} per checked substitution
    for ga in rec.groupings:
        for leaf in ga.leaves:
            for sub in leaf.substitutions:
                if sub in chains:
                    continue
                chains[sub] = {}
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
                if not _verify_bound_conflict(leaf, ga.equations, chains):
                    return False
    return True
