#!/usr/bin/env bash
# results_check.sh — the committed-results gate. Reruns every registered
# experiment at one profile into a temporary directory and byte-compares each
# <id>.{csv,gp,txt} with the committed copy. A differing, missing or extra
# file fails the check. checkpoint.jsonl (the run journal) and REPORT.md
# (written by `mtsim -report`, which reruns the whole registry) are skipped.
#
# Usage: scripts/results_check.sh <profile> <dir> [mtsim flags...]
#
#   scripts/results_check.sh medium results                      # make results-check
#   scripts/results_check.sh paper results-paper                 # make results-paper-check
#   scripts/results_check.sh medium results -sptcache=false      # a byte-identical mode
#
# The committed files were written on amd64. Go fuses multiply-adds on other
# architectures (arm64, ppc64le, s390x), which can move the last printed
# digit of a float; the check says so before it fails there.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
    echo "usage: $0 <profile> <dir> [mtsim flags...]" >&2
    exit 2
fi
profile=$1 golden=$2
shift 2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/mtsim" ./cmd/mtsim
"$tmp/mtsim" -experiment all -profile "$profile" -parallel 0 -out "$tmp/out" "$@" >/dev/null

outputs() { (cd "$1" && find . -maxdepth 1 -type f \( -name '*.csv' -o -name '*.gp' -o -name '*.txt' \) | sed 's|^\./||' | LC_ALL=C sort); }
outputs "$golden" >"$tmp/want"
outputs "$tmp/out" >"$tmp/got"

failed=0
while read -r f; do
    echo "results-check: $golden/$f was not written by this run" >&2
    failed=1
done < <(LC_ALL=C comm -23 "$tmp/want" "$tmp/got")
while read -r f; do
    echo "results-check: this run wrote $f, which $golden/ lacks" >&2
    failed=1
done < <(LC_ALL=C comm -13 "$tmp/want" "$tmp/got")
n=0
while read -r f; do
    n=$((n + 1))
    if ! cmp -s "$golden/$f" "$tmp/out/$f"; then
        echo "results-check: $golden/$f differs:" >&2
        diff "$golden/$f" "$tmp/out/$f" | head -n 6 >&2 || true
        failed=1
    fi
done < <(LC_ALL=C comm -12 "$tmp/want" "$tmp/got")

if [[ $failed -ne 0 ]]; then
    if [[ "$(go env GOARCH)" != amd64 ]]; then
        echo "results-check: note: $golden/ is an amd64 golden and this is $(go env GOARCH)," >&2
        echo "results-check: where fused multiply-adds can move the last digit of a float" >&2
    fi
    echo "results-check: FAIL ($profile profile against $golden/)" >&2
    exit 1
fi
echo "results-check: $n files byte-identical to $golden/ ($profile profile${*:+, $*})"
