#!/usr/bin/env bash
# check-run-list.sh — fail unless every alternative of a `go test -run`
# regex names at least one test.
#
# Usage: scripts/check-run-list.sh 'TestA|TestB|...' PKG...
#
# `go test -run` passes silently when a name matches nothing, so a test
# that is renamed or deleted would otherwise drop out of a CI step
# unnoticed. The regex is split at its `|` characters, so it must not
# use groups; each alternative is matched, unanchored like -run, against
# the top-level test, fuzz and example names `go test -list` reports for
# PKG....
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 REGEX PKG..." >&2
    exit 2
fi
regex=$1
shift
case $regex in
*'('* | *')'*)
    echo "check-run-list: regex must be a flat list of alternatives, got groups: $regex" >&2
    exit 2
    ;;
esac

names=$(go test -list . "$@" | grep -E '^(Test|Fuzz|Example)' || true)
missing=0
IFS='|' read -ra alts <<<"$regex"
for alt in "${alts[@]}"; do
    n=$(grep -cE -- "$alt" <<<"$names" || true)
    if [ "$n" -eq 0 ]; then
        echo "MISSING  $alt matches no test"
        missing=1
    else
        echo "ok       $alt ($n)"
    fi
done
if [ "$missing" -ne 0 ]; then
    echo "check-run-list: some -run alternatives match nothing; fix the list" >&2
    exit 1
fi
echo "every -run alternative matches at least one test"
