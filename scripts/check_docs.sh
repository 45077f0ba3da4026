#!/bin/sh
# Fails when any internal/, pkg/ or paper/ package is missing its doc.go package
# comment, or keeps a package comment outside doc.go (one source of truth:
# the documented contract lives in doc.go, code files hold code).
set -eu

status=0
for dir in $(find internal pkg paper -type d -not -path '*/testdata*' | sort); do
    # Only package directories: at least one non-test .go file.
    has_go=false
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in *_test.go) ;; *) has_go=true ;; esac
    done
    $has_go || continue

    if [ ! -f "$dir/doc.go" ]; then
        echo "undocumented package: $dir has no doc.go" >&2
        status=1
        continue
    fi
    if ! grep -q '^// Package ' "$dir/doc.go"; then
        echo "$dir/doc.go lacks a '// Package ...' comment" >&2
        status=1
    fi
    for f in "$dir"/*.go; do
        [ "$f" = "$dir/doc.go" ] && continue
        case "$f" in *_test.go) continue ;; esac
        if grep -q '^// Package ' "$f"; then
            echo "$f carries a package comment; it belongs in $dir/doc.go" >&2
            status=1
        fi
    done
done

# Every cmd/odserve flag must have a row in docs/API.md's flag table: the
# flag definitions are the source of truth, the table is the contract users
# read. A new flag without a documented row fails here.
for flag in $(grep -o 'fs\.[A-Za-z0-9]*("[a-z-]*"' cmd/odserve/main.go | sed 's/.*("\([a-z-]*\)".*/\1/' | sort -u); do
    if ! grep -q "^| \`-$flag\`" docs/API.md; then
        echo "cmd/odserve flag -$flag is missing from the docs/API.md flag table" >&2
        status=1
    fi
done

# internal/metrics is named explicitly on top of the directory walk: its
# doc.go carries the exposition-format contract every scraper depends on,
# so a future rewrite of the walk above must not silently drop it.
if [ ! -f internal/metrics/doc.go ]; then
    echo "internal/metrics must keep its exposition contract in doc.go" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "every internal/, pkg/ and paper/ package documents itself in doc.go"
fi
exit "$status"
