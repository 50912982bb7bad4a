# The two sides of a revision comparison, sourced by scripts/ab.sh and
# scripts/identity.sh.
#
#   sides <parent-rev> <change-rev or "">
#
# exports <parent-rev> with `git archive` into $TMP/parent, and
# <change-rev> into $TMP/change or, when it is empty, names the working
# tree instead. Afterwards tree[parent] and tree[change] are the two
# source trees and $change names the change side for printing. $TMP is a
# temporary directory removed on exit; each side builds into its own
# CARGO_TARGET_DIR, $TMP/target-<side>.

ROOT="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
declare -A tree

# checkout <side> <rev>: the files of <rev> under $TMP/<side>.
checkout() {
    local rev
    rev="$(git -C "$ROOT" rev-parse --verify --quiet "$2^{commit}")" ||
        { echo "$(basename "$0"): $2 names no commit" >&2; exit 2; }
    mkdir "$TMP/$1"
    git -C "$ROOT" archive "$rev" | tar -x -C "$TMP/$1"
}

sides() {
    checkout parent "$1"
    tree[parent]="$TMP/parent"
    if [[ -n $2 ]]; then
        checkout change "$2"
        tree[change]="$TMP/change"
        change=$2
    else
        tree[change]="$ROOT"
        change="working tree"
    fi
}
