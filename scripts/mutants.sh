#!/usr/bin/env bash
# Mutation check, run by hand (scripts/verify.sh does not run it): for each
# record of scripts/mutants.txt, put the mutant into a copy of the tree, run
# the test it names, and list every mutant that test lets through.
#
#   scripts/mutants.sh [DIR]
#
# DIR holds the copy and its cargo target directory (default
# ${TMPDIR:-/tmp}/bcs-mutants); the working tree is never written. The copy
# is of the tracked and untracked, not ignored, files as they are now, so
# uncommitted changes are checked too (a tracked file deleted from the
# working tree is left out). Each mutant is built and tested in
# debug, where the shadow checks are compiled in. Exits 0 when every mutant
# is caught, 1 when one survives, no longer applies or does not build.
set -euo pipefail
cd "$(dirname "$0")/.."

work="${1:-${TMPDIR:-/tmp}/bcs-mutants}"
tree="$work/tree"
export CARGO_NET_OFFLINE=true
export CARGO_TARGET_DIR="$work/target"
rm -rf "$tree"
mkdir -p "$tree"
git ls-files -z -co --exclude-standard |
    while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -cf - | tar -xf - -C "$tree"

failed=()
name= file= test=
seds=()

check() {
    [ -n "$name" ] || return 0
    local orig="$work/$name.orig" log="$work/$name.log" args=() targs=()
    for e in "${seds[@]}"; do args+=(-e "$e"); done
    read -ra targs <<< "$test"
    cp "$tree/$file" "$orig"
    sed -i "${args[@]}" "$tree/$file"
    if cmp -s "$tree/$file" "$orig"; then
        echo "mutant $name: STALE (the sed no longer changes $file)"
        failed+=("$name")
    elif ! (cd "$tree" && cargo test -q --no-run "${targs[@]}") >"$log" 2>&1; then
        echo "mutant $name: DOES NOT BUILD (see $log)"
        failed+=("$name")
    elif (cd "$tree" && cargo test -q "${targs[@]}") >>"$log" 2>&1; then
        echo "mutant $name: SURVIVED cargo test $test"
        failed+=("$name")
    else
        echo "mutant $name: caught by cargo test $test"
    fi
    cp "$orig" "$tree/$file"
    name= file= test=
    seds=()
}

while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in
        '#'*) ;;
        '') check ;;
        'mutant: '*) name="${line#mutant: }" ;;
        'file: '*) file="${line#file: }" ;;
        'sed: '*) seds+=("${line#sed: }") ;;
        'test: '*) test="${line#test: }" ;;
        *) echo "scripts/mutants.txt: cannot read: $line" >&2; exit 2 ;;
    esac
done < scripts/mutants.txt
check

if [ "${#failed[@]}" -gt 0 ]; then
    echo "mutants: ${#failed[@]} not caught: ${failed[*]}"
    exit 1
fi
echo "mutants: all caught"
