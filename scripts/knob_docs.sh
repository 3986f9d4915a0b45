#!/bin/sh
# Check that README.md's environment-knob table and the code agree:
# every "CISA_*" string literal under src/ and tools/ needs a
# | `CISA_...` | row in README.md, every row must name a knob that
# some code there reads, and wherever the code gives a knob a literal
# default (envInt("CISA_X", D or envIntRange("CISA_X", D), the row's
# Default column must read D. Registered with ctest as knob_docs.
#
#   scripts/knob_docs.sh [repo-root]
set -eu

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

code=$(grep -rhoE '"CISA_[A-Z0-9_]+"' "$root/src" "$root/tools" |
    tr -d '"' | sort -u)
docs=$(grep -oE '^\| `CISA_[A-Z0-9_]+` \|' "$root/README.md" |
    grep -oE 'CISA_[A-Z0-9_]+' | sort -u)
# "KNOB DEFAULT" pairs from the code's literals and README's table.
code_dflt=$(grep -rhoE 'envInt(Range)?\("CISA_[A-Z0-9_]+", *-?[0-9]+[,)]' \
    "$root/src" "$root/tools" |
    sed -E 's/.*"(CISA_[A-Z0-9_]+)", *(-?[0-9]+).*/\1 \2/' | sort -u)
docs_dflt=$(sed -nE \
    's/^\| `(CISA_[A-Z0-9_]+)` \| *([^|]*[^ |]) *\|.*/\1 \2/p' \
    "$root/README.md")

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
checked=0
while read -r k d; do
    [ -n "$k" ] || continue
    checked=$((checked + 1))
    doc=$(printf '%s\n' "$docs_dflt" |
        awk -v k="$k" '$1 == k { sub(/^[^ ]+ /, ""); print; exit }')
    if [ "$doc" != "$d" ]; then
        echo "knob_docs: README.md gives $k the default" \
            "'$doc', but the code uses $d" >&2
        status=1
    fi
done <<END
$code_dflt
END
[ "$status" -eq 0 ] &&
    echo "knob_docs: $(printf '%s\n' "$code" | wc -l) knobs, all" \
        "documented; $checked literal defaults match"
exit "$status"
