"""End-to-end verification: composition, coherence, and both evaluation paths.

This is the same machinery the `lincat verify` command runs.  The compositor
check certifies that the matrix of a composite span is the integer product of
the factors' matrices, and that at each pair of apex objects the comparison
map is a bijection of finite sets (the Mackey decomposition of the middle
automorphism group into double cosets), checked exactly from the group
tables; the vertical/horizontal checks compare composite span maps against
composites of their matrices.
"""

from lincat import beta_compositor, reverse_span, verify_functoriality
from lincat.suites import default_suite, fig1_span

print("compositor on the set-span and its reverse:")
fig1 = fig1_span()
rep = beta_compositor(reverse_span(fig1), fig1)
print(f"  composite dims {rep.dims_composite.tolist()} "
      f"(integer product check: {rep.dims_ok})")
print(f"  comparison maps: {len(rep.gammas)} Mackey bijections, defect "
      f"{rep.max_defect:.0f} (each a permutation: condition number "
      f"{rep.max_condition_number:.1f})")

print()
print("full default suite:")
report = verify_functoriality(default_suite())
by_section = {}
for r in report.results:
    ok, n = by_section.get(r.section, (True, 0))
    by_section[r.section] = (ok and r.passed, n + 1)
for section, (ok, n) in sorted(by_section.items()):
    print(f"  {section:12s}: {n:3d} checks, {'all pass' if ok else 'FAILURES'}")
for s in report.skipped:
    print(f"  skipped: {s}")
print(f"overall: {'PASS' if report.ok else 'FAIL'} "
      f"(max deviation {report.max_deviation:.2e})")
