#!/bin/sh
# loc.sh [rev] — non-test Go lines added and removed per package between
# rev (default HEAD~1) and the working tree, from `git diff --numstat`:
# the table a diet PR reports, generated instead of counted by hand.
# _test.go files and testdata/ corpora are tests and are left out.
# Untracked files are not in a diff: `git add` new ones first. A deleted
# or renamed file counts under the package it left and the one it joined.
set -eu
cd "$(dirname "$0")/.."
rev=${1:-HEAD~1}
git diff --numstat --no-renames "$rev" -- '*.go' ':!*_test.go' ':!*/testdata/*' | awk '
{
    pkg = $3
    if (!sub("/[^/]*$", "", pkg)) pkg = "."
    add[pkg] += $1; del[pkg] += $2
}
END {
    printf "%-36s %7s %7s %7s\n", "package", "added", "removed", "net"
    for (p in add) {
        printf "%-36s %7d %7d %+7d\n", p, add[p], del[p], add[p] - del[p] | "sort"
        ta += add[p]; td += del[p]
    }
    close("sort")
    printf "%-36s %7d %7d %+7d\n", "total", ta, td, ta - td
}'
