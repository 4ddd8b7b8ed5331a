"""Ground truth on adjacency matrices.

For a concrete graph every fusion verdict can be checked with no character
theory at all.  The graph's basis {I, A, J-I-A} is multiplied once, which
proves it a scheme and gives its intersection numbers p_ac^e.  Its
KroneckerSquare then decides every fused square from those numbers alone
(see srgfusion.products.KroneckerSquare for the rule); no matrix of the
tensor square is formed.  This script verifies a
positive and a negative case on the Petersen graph and then runs the
exhaustive criterion-versus-matrix comparison over all 4140 partitions of
the pentagon.
"""

from srgfusion import (
    IntersectionTensor, build_graph, cross_check, parse, scheme_matrices,
    tensor_fuse, verify_scheme,
)

sm = scheme_matrices(build_graph("petersen"))

result = verify_scheme(tensor_fuse(sm, parse("2347|5689")))
assert isinstance(result, IntersectionTensor)
print("petersen / 2347|5689 is a fusion; valencies", result.valencies)
print("  intersection numbers of the middle class:", result.p[1][1])

witness = verify_scheme(tensor_fuse(sm, parse("249|37|5|68")))
print("petersen / 249|37|5|68 fails: product of classes "
      f"{witness.i},{witness.j} takes values {witness.value_a} != "
      f"{witness.value_b} on class {witness.klass}")

print("\npentagon, all 4140 partitions, criterion vs matrices:")
report = cross_check(build_graph("paley5"))
print(f"  {report.checked} checked, {report.positives} fusions, "
      f"{len(report.disagreements)} disagreements")
