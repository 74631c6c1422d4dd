#!/usr/bin/env bash
# Documentation gate, run by ctest (docs_check) and the CI docs job:
#   1. every relative markdown link in the top-level docs resolves to a file
#      or directory in the repository;
#   2. every src/*/ module directory appears in DESIGN.md's module inventory
#      (section 2) — adding a library without documenting it fails CI;
#   3. the matrix-free layer stays documented: DESIGN.md must keep the §14
#      section header and name each of its load-bearing pieces, and the
#      README must document the --matrix-free flag.
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 1

status=0
docs="README.md DESIGN.md EXPERIMENTS.md CHANGES.md ROADMAP.md"

# --- 1. relative link checker -------------------------------------------
# Matches [text](target) capturing the target; external (scheme://) and
# intra-document (#anchor) links are skipped. Targets may carry an anchor
# suffix, which is stripped before the existence check.
for doc in $docs; do
  [ -f "$doc" ] || continue
  # shellcheck disable=SC2013
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$path" ]; then
      echo "check_docs: $doc links to missing path '$path'" >&2
      status=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
done

# --- 2. DESIGN.md module inventory gate ---------------------------------
for dir in src/*/; do
  module="$(basename "$dir")"
  if ! grep -q "src/$module" DESIGN.md; then
    echo "check_docs: src/$module is not documented in DESIGN.md's module inventory" >&2
    status=1
  fi
done

# --- 3. matrix-free documentation gate ----------------------------------
# The source tree references DESIGN.md §14 by number and name; keep the
# section and its inventory tokens from silently disappearing or drifting.
require_in() {
  # require_in FILE PATTERN DESCRIPTION
  if ! grep -q -e "$2" "$1"; then
    echo "check_docs: $1 is missing $3 ('$2')" >&2
    status=1
  fi
}
require_in DESIGN.md "^## 14\. Matrix-free KLE" "the §14 matrix-free section header"
for token in "src/linalg/hmat" "src/core/matfree_operator" \
             "KernelOperator" "ExactKernelOperator" "aca_tolerance" \
             "admissibility" "kDenseFallbackMaxN" "bench_matfree"; do
  require_in DESIGN.md "$token" "a §14 matrix-free inventory token"
done
require_in README.md "\-\-matrix-free" "the matrix-free flag documentation"
require_in README.md "\-\-aca-tol" "the ACA tolerance flag documentation"

if [ "$status" -eq 0 ]; then
  echo "check_docs: all links resolve and every src/ module is documented"
fi
exit "$status"
