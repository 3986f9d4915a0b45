#!/bin/sh
# Check that README.md's environment-knob table and the code agree:
# every "CISA_*" string literal under src/ and tools/ needs a
# | `CISA_...` | row in README.md, and every row must name a knob
# that some code there reads. Registered with ctest as knob_docs.
#
#   scripts/knob_docs.sh [repo-root]
set -eu

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

code=$(grep -rhoE '"CISA_[A-Z0-9_]+"' "$root/src" "$root/tools" |
    tr -d '"' | sort -u)
docs=$(grep -oE '^\| `CISA_[A-Z0-9_]+` \|' "$root/README.md" |
    grep -oE 'CISA_[A-Z0-9_]+' | sort -u)

status=0
for k in $code; do
    if ! printf '%s\n' "$docs" | grep -qx "$k"; then
        echo "knob_docs: $k is read by the code but has no" \
            "README.md row" >&2
        status=1
    fi
done
for k in $docs; do
    if ! printf '%s\n' "$code" | grep -qx "$k"; then
        echo "knob_docs: README.md documents $k, which no code" \
            "under src/ or tools/ reads" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] &&
    echo "knob_docs: $(printf '%s\n' "$code" | wc -l) knobs, all" \
        "documented"
exit "$status"
