#!/usr/bin/env bash
# Replication chaos smoke test through the real binary.
#
# Topology: moq serve (primary) <- moq chaos (seeded fault proxy) <- moq
# serve --follow (read replica).  The primary takes an update stream while
# the replication link suffers the proxy's seeded delays, reordering and
# torn frames; mid-stream the proxy itself is SIGKILLed (a hard cut) and
# restarted on the same port, forcing the follower through its reconnect +
# delta-resume path.  The follower must converge to the primary's exact
# clock, report zero digest divergence, and answer a k-NN query
# byte-identically to the primary.
#
# Usage: scripts/chaos_smoke.sh [SEED]
# Env:   MOQ — the moq binary (default: dune exec bin/moq.exe --)
#        MOQ_FAULT_SEEDS — comma-separated seeds; the first is used when
#        no SEED argument is given (default 7)
#        MOQ_SMOKE_ARTIFACTS — when set and the script fails, flight-recorder
#        dumps and node logs are copied there before the workdir is wiped
#        (CI uploads that directory for post-mortem)

set -euo pipefail
cd "$(dirname "$0")/.."

MOQ=${MOQ:-"dune exec --no-print-directory bin/moq.exe --"}
SEED=${1:-${MOQ_FAULT_SEEDS:-7}}
SEED=${SEED%%,*}
SEED=${SEED:-7}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/moq_chaos_smoke.XXXXXX")
PRI_PID="" FOL_PID="" PROXY_PID=""
cleanup() {
  status=$?
  for pid in "$PROXY_PID" "$FOL_PID" "$PRI_PID"; do
    [ -n "$pid" ] && kill -KILL "$pid" 2>/dev/null || true
  done
  if [ "$status" -ne 0 ] && [ -n "${MOQ_SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$MOQ_SMOKE_ARTIFACTS"
    find "$WORK" -name 'flight-*.json' -exec cp -t "$MOQ_SMOKE_ARTIFACTS" {} + 2>/dev/null || true
    cp "$WORK"/*.log "$MOQ_SMOKE_ARTIFACTS"/ 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for_line() { # $1 = log file, $2 = awk program printing the wanted token
  local out=""
  for _ in $(seq 1 100); do
    out=$(awk "$2" "$1" 2>/dev/null || true)
    [ -n "$out" ] && { echo "$out"; return 0; }
    sleep 0.1
  done
  echo "timed out waiting on $1" >&2
  cat "$1" >&2
  return 1
}

# ----- primary ------------------------------------------------------------
$MOQ serve --listen tcp:127.0.0.1:0 --store "$WORK/primary" --seed 5 -n 8 \
  --no-fsync --digest-every 4 >"$WORK/primary.log" 2>&1 &
PRI_PID=$!
disown "$PRI_PID"
PADDR=$(wait_for_line "$WORK/primary.log" '/^listening on /{print $3; exit}')

# a fixed port so the restarted proxy is reachable at the same address
CPORT=$(python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1]); s.close()')

# A proxy restarted right after a SIGKILL can find the port still held by
# the dying one (its bind fails with EADDRINUSE and it exits), and a
# disowned process cannot be waited for: retry until one logs its port.
start_proxy() { # $1 = log file
  for _ in $(seq 1 20); do
    $MOQ chaos --upstream "$PADDR" --seed "$SEED" --profile flaky \
      --port "$CPORT" >"$1" 2>&1 &
    PROXY_PID=$!
    disown "$PROXY_PID"
    for _ in $(seq 1 100); do
      grep -q '^chaos proxy on ' "$1" && return 0
      kill -0 "$PROXY_PID" 2>/dev/null || break
      sleep 0.1
    done
    kill -KILL "$PROXY_PID" 2>/dev/null || true
    sleep 0.2
  done
  echo "chaos proxy never came up on port $CPORT" >&2
  cat "$1" >&2
  return 1
}
start_proxy "$WORK/proxy1.log"

# ----- follower, replicating through the proxy ----------------------------
$MOQ serve --listen tcp:127.0.0.1:0 --store "$WORK/follower" --no-fsync \
  --follow "tcp:127.0.0.1:$CPORT" >"$WORK/follower.log" 2>&1 &
FOL_PID=$!
disown "$FOL_PID"
FADDR=$(wait_for_line "$WORK/follower.log" '/^listening on /{print $3; exit}')

follower_clock() {
  echo PING | $MOQ client --connect "$FADDR" 2>/dev/null \
    | awk '/^OK PONG clock /{print $4; exit}'
}

wait_for_clock() { # $1 = expected clock on the follower
  for _ in $(seq 1 150); do
    [ "$(follower_clock)" = "$1" ] && return 0
    sleep 0.1
  done
  echo "follower never reached clock $1; logs:" >&2
  cat "$WORK/follower.log" >&2
  return 1
}

# ----- first half of the stream, then a hard proxy kill -------------------
printf 'UPDATE chdir 1 1 2 0\nUPDATE new 9 2 1 1 3 3\nUPDATE chdir 2 3 0 1\n' \
  | $MOQ client --connect "$PADDR" >/dev/null
wait_for_clock 3

# REPL-HELLOs the primary has answered: each one starts a follow stream
primary_handshakes() {
  echo 'STATS prometheus' | $MOQ client --connect "$PADDR" 2>/dev/null \
    | awk '/^moq_repl_(delta_resumes|snapshots)_total /{n += $2} END {print n + 0}'
}

kill -KILL "$PROXY_PID"
PROXY_PID=""
HANDSHAKES=$(primary_handshakes)
start_proxy "$WORK/proxy2.log"
# the digest is streamed to connected followers only: resume before the
# second half, or the digest audit below has nothing to check
for _ in $(seq 1 150); do
  [ "$(primary_handshakes)" -gt "$HANDSHAKES" ] && break
  sleep 0.1
done

printf 'UPDATE terminate 3 4\nUPDATE chdir 9 5 0 0\nUPDATE chdir 1 6 -1 2\n' \
  | $MOQ client --connect "$PADDR" >/dev/null
wait_for_clock 6

# ----- audit: digest checks ran, none diverged ----------------------------
echo 'STATS prometheus' | $MOQ client --connect "$FADDR" >"$WORK/follower.stats"
checks=$(awk '/^moq_repl_digest_checks_total /{print $2}' "$WORK/follower.stats")
diverged=$(awk '/^moq_repl_divergence_total /{print $2}' "$WORK/follower.stats")
[ -n "$checks" ] && [ "$checks" -ge 1 ] \
  || { echo "follower ran no digest audits"; cat "$WORK/follower.stats"; exit 1; }
[ -z "$diverged" ] || [ "$diverged" -eq 0 ] \
  || { echo "follower diverged from the primary ($diverged digest mismatches)"; exit 1; }

# ----- the replica must answer queries byte-identically -------------------
echo 'QUERY knn 1 0 10' | $MOQ client --connect "$PADDR" \
  | sed -n '/^OK QUERY/,$p' >"$WORK/primary.query"
echo 'QUERY knn 1 0 10' | $MOQ client --connect "$FADDR" \
  | sed -n '/^OK QUERY/,$p' >"$WORK/follower.query"
[ -s "$WORK/primary.query" ] || { echo "primary produced no query answer"; exit 1; }
cmp "$WORK/primary.query" "$WORK/follower.query" \
  || { echo "replica query diverges from primary"; \
       diff "$WORK/primary.query" "$WORK/follower.query" || true; exit 1; }

# ----- a follower is read-only --------------------------------------------
echo 'UPDATE chdir 1 7 0 0' | $MOQ client --connect "$FADDR" >"$WORK/readonly.out" || true
grep -q '^ERR read-only' "$WORK/readonly.out" \
  || { echo "follower accepted a local update"; cat "$WORK/readonly.out"; exit 1; }

# ----- flight recorder survives the chaos run ------------------------------
# SIGQUIT the primary: its black-box dump must parse and its last recorded
# admitted update must agree with the primary WAL tail (blackbox exits 5
# on disagreement)
kill -QUIT "$PRI_PID"
DUMP=""
for _ in $(seq 1 50); do
  DUMP=$(ls "$WORK"/primary/flight-*.json 2>/dev/null | head -n1 || true)
  [ -n "$DUMP" ] && break
  sleep 0.1
done
[ -n "$DUMP" ] || { echo "SIGQUIT produced no flight-recorder dump on the primary"; \
                    cat "$WORK/primary.log"; exit 1; }
$MOQ blackbox "$DUMP" --wal "$WORK/primary" >"$WORK/blackbox.out"
grep -q 'agrees with the WAL tail' "$WORK/blackbox.out" \
  || { echo "flight dump does not correlate with the primary WAL"; \
       cat "$WORK/blackbox.out"; exit 1; }

echo "chaos smoke OK (seed $SEED): follower converged through faults + a proxy kill," \
     "zero divergence, byte-identical query answers, flight dump correlates"
