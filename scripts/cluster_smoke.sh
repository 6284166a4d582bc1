#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end cluster determinism against real binaries:
# build mtsimd and mtctl, start two daemons, record the single-process golden
# (mtctl -local), then run the same grid three ways, each merged output
# byte-compared against the golden:
#
#   1. over both workers, killing one as soon as it has completed a shard;
#   2. over one worker with -out, SIGKILLing the coordinator after two
#      completed shards, then rerunning it with -resume on the same journal;
#   3. over a TLS worker that demands a shard token (mtsimd -tls-cert,
#      -tls-key, -shard-token; mtctl -tls-ca, -token).
#
# The deterministic in-process variants live in cmd/mtsimd's
# TestClusterSurvivesDaemonKillMidRun and internal/cluster's
# TestCoordinatorResume and TestCoordinatorOverTLS; this script proves the
# same properties across real processes, real sockets and a real journal.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT_A=${PORT_A:-18081}
PORT_B=${PORT_B:-18082}
PORT_C=${PORT_C:-18083}
TOKEN=cluster-smoke-token
CERT=internal/cluster/testdata/test_cert.pem
KEY=internal/cluster/testdata/test_key.pem
# ti5000 (5000-node transit-stub) at this protocol width keeps each shard
# around ~100ms of real compute, so the kill below reliably lands while
# shards are still queued.
GRID=(-kind ensemble -topo ti5000 -nets 8 -nsource 600 -nrcvr 40 -sizes 1,3,10,30,100 -seed 5)

bin=$(mktemp -d) out=$(mktemp -d)
cleanup() {
    for pid in "${A_PID:-}" "${B_PID:-}" "${C_PID:-}" "${CTL_PID:-}"; do
        [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$bin" "$out"
}
trap cleanup EXIT

go build -o "$bin/mtsimd" ./cmd/mtsimd
go build -o "$bin/mtctl" ./cmd/mtctl

"$bin/mtsimd" -addr "127.0.0.1:$PORT_A" -worker-id smoke-a >"$out/a.log" 2>&1 &
A_PID=$!
"$bin/mtsimd" -addr "127.0.0.1:$PORT_B" -worker-id smoke-b >"$out/b.log" 2>&1 &
B_PID=$!

wait_ready() {
    for _ in $(seq 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null; then exec 3>&- 3<&-; return 0; fi
        sleep 0.1
    done
    echo "cluster-smoke: worker on port $1 never became reachable" >&2
    return 1
}
wait_ready "$PORT_A"
wait_ready "$PORT_B"

echo "cluster-smoke: recording single-process golden"
"$bin/mtctl" -local "${GRID[@]}" -out "$out/local" 2>/dev/null

echo "cluster-smoke: running 8 shards over two workers, killing smoke-b after its first shard"
"$bin/mtctl" \
    -workers "http://127.0.0.1:$PORT_A,http://127.0.0.1:$PORT_B" \
    "${GRID[@]}" -shards 8 -retries 8 -backoff 100ms \
    -out "$out/cluster" 2>"$out/progress" &
CTL_PID=$!

# Kill worker B the moment the progress log attributes a completed shard to
# it — mid-run whenever shards remain. If the run drains before B completes
# anything, the identity check below still gates the result.
while kill -0 "$CTL_PID" 2>/dev/null; do
    if grep -q "complete on http://127.0.0.1:$PORT_B" "$out/progress" 2>/dev/null; then
        echo "cluster-smoke: killing smoke-b (pid $B_PID)"
        kill -9 "$B_PID"
        break
    fi
    sleep 0.05
done

if ! wait "$CTL_PID"; then
    echo "cluster-smoke: mtctl failed; progress follows" >&2
    cat "$out/progress" >&2
    exit 1
fi
CTL_PID=
sed 's/^/cluster-smoke:   /' "$out/progress"

cmp "$out/local/merged.json" "$out/cluster/merged.json"
echo "cluster-smoke: merged output byte-identical to single-process golden"

echo "cluster-smoke: SIGKILLing a journaling coordinator after two shards, then resuming it"
"$bin/mtctl" -workers "http://127.0.0.1:$PORT_A" \
    "${GRID[@]}" -shards 8 -retries 8 -backoff 100ms \
    -out "$out/resume" 2>"$out/progress2" &
CTL_PID=$!
while kill -0 "$CTL_PID" 2>/dev/null; do
    n=$(grep -c "complete on" "$out/progress2" 2>/dev/null) || n=0
    if [[ $n -ge 2 ]]; then
        echo "cluster-smoke: killing the coordinator (pid $CTL_PID) after $n completed shards"
        kill -9 "$CTL_PID"
        break
    fi
    sleep 0.05
done
wait "$CTL_PID" 2>/dev/null || true
CTL_PID=

if ! "$bin/mtctl" -workers "http://127.0.0.1:$PORT_A" \
    "${GRID[@]}" -shards 8 -retries 8 -backoff 100ms \
    -out "$out/resume" -resume 2>"$out/progress3"; then
    echo "cluster-smoke: resumed mtctl failed; progress follows" >&2
    cat "$out/progress3" >&2
    exit 1
fi
sed 's/^/cluster-smoke:   /' "$out/progress3"
grep -q "resumed from journal" "$out/progress3" || {
    echo "cluster-smoke: the resumed coordinator replayed no journal entries" >&2
    exit 1
}
cmp "$out/local/merged.json" "$out/resume/merged.json"
echo "cluster-smoke: resumed merged output byte-identical to single-process golden"

echo "cluster-smoke: running over a TLS worker that demands a shard token"
"$bin/mtsimd" -addr "127.0.0.1:$PORT_C" -worker-id smoke-c \
    -tls-cert "$CERT" -tls-key "$KEY" -shard-token "$TOKEN" >"$out/c.log" 2>&1 &
C_PID=$!
wait_ready "$PORT_C"
if ! "$bin/mtctl" -workers "https://127.0.0.1:$PORT_C" -tls-ca "$CERT" -token "$TOKEN" \
    "${GRID[@]}" -shards 8 -out "$out/tls" 2>"$out/progress4"; then
    echo "cluster-smoke: TLS mtctl failed; progress follows" >&2
    cat "$out/progress4" >&2
    exit 1
fi
sed 's/^/cluster-smoke:   /' "$out/progress4"
cmp "$out/local/merged.json" "$out/tls/merged.json"
echo "cluster-smoke: TLS merged output byte-identical to single-process golden"
