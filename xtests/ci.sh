#!/usr/bin/env sh
# Offline CI gate: everything runs from the local toolchain and the
# in-tree dependency shims (crates/shims/*) — no network, no registry.
#
# Usage: xtests/ci.sh          (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> cargo test -q --workspace --no-fail-fast"
cargo test -q --workspace --no-fail-fast

echo "==> cargo test -q --release -p gomq-engine --test serve_stress"
cargo test -q --release -p gomq-engine --test serve_stress

echo "==> cargo test -q --release -p gomq-core --test store_props"
cargo test -q --release -p gomq-core --test store_props

echo "==> cargo test -q --release -p gomq-engine --test wal_props"
cargo test -q --release -p gomq-engine --test wal_props

echo "==> cargo test -q --release -p gomq-engine --test chaos_recovery"
cargo test -q --release -p gomq-engine --test chaos_recovery

# The follower tests run in release: a view that misses a replicated
# rollback answers stale there, where a debug build would panic.
echo "==> cargo test -q --release -p gomq-engine --test ivm_props (views = recompute, follower = primary)"
cargo test -q --release -p gomq-engine --test ivm_props

echo "==> cargo test -q --release -p gomq-engine --lib follower_views"
cargo test -q --release -p gomq-engine --lib follower_views

echo "==> cargo test -q --release -p gomq-engine --features chaos --test ivm_props (chaos build, no plan)"
cargo test -q --release -p gomq-engine --features chaos --test ivm_props

echo "==> cargo test -q --release -p gomq-engine --features chaos --test ivm_chaos (ivm.apply faults)"
cargo test -q --release -p gomq-engine --features chaos --test ivm_chaos

echo "==> cargo test -q --release -p gomq-engine --test cert_props (verifier cross-check)"
cargo test -q --release -p gomq-engine --test cert_props

echo "==> cargo test -q --release -p gomq-engine --features chaos --test cert_props (chaos build)"
cargo test -q --release -p gomq-engine --features chaos --test cert_props

echo "==> cargo test -q --release -p gomq-engine --test sql_crosscheck (native = SQL)"
cargo test -q --release -p gomq-engine --test sql_crosscheck

echo "==> cargo test -q --release -p gomq-xtests --test plan_equivalence (one-pass compile = reference pipeline)"
cargo test -q --release -p gomq-xtests --test plan_equivalence

echo "==> cargo test -q -p gomq-xtests --test chaos (fixed-seed chaos smoke)"
cargo test -q -p gomq-xtests --test chaos

echo "==> E14_TINY=1 cargo bench -p gomq-bench --bench e14_store (smoke)"
E14_TINY=1 cargo bench -p gomq-bench --bench e14_store

echo "==> E15_TINY=1 cargo bench -p gomq-bench --bench e15_ivm (smoke)"
E15_TINY=1 cargo bench -p gomq-bench --bench e15_ivm

echo "==> E15_TINY=1 cargo bench -p gomq-bench --features gomq-engine/chaos --bench e15_ivm (chaos build smoke)"
E15_TINY=1 cargo bench -p gomq-bench --features gomq-engine/chaos --bench e15_ivm

echo "==> E16_TINY=1 cargo bench -p gomq-bench --bench e16_cert (smoke)"
E16_TINY=1 cargo bench -p gomq-bench --bench e16_cert

echo "==> E17_TINY=1 cargo bench -p gomq-bench --bench e17_sql (smoke)"
E17_TINY=1 cargo bench -p gomq-bench --bench e17_sql

echo "==> E18_TINY=1 cargo bench -p gomq-bench --bench e18_compile (smoke)"
E18_TINY=1 cargo bench -p gomq-bench --bench e18_compile

echo "==> E19_TINY=1 cargo bench -p gomq-bench --bench e19_request (smoke)"
E19_TINY=1 cargo bench -p gomq-bench --bench e19_request

# gomq-cert round-trip smoke on the committed example families: the
# company OMQ is answered with a certificate on the request-ABox path,
# on the session path (snapshot-bound) and on the session path of a
# server with view maintenance off (--max-views 0: the certificate
# comes from a recording view built for that one read), and every
# response must verify with the standalone checker. The anatomy family
# sits outside the rewritable fragment (transitive partOf) and must
# come back as a typed refusal, never as an uncertified answer.
json_escape_file() {
    awk 'NF && !/^#/ { gsub(/"/, "\\\""); printf "%s%s", (n++ ? "\\n" : ""), $0 }' "$1"
}
echo "==> gomq-cert round-trip smoke (examples/data, release)"
cert_dir="$(mktemp -d)"
cert_onto="$(json_escape_file examples/data/company.dl)"
cert_facts="$(json_escape_file examples/data/company.facts)"
{
    printf '{"id": "abox", "ontology": "%s", "query": "Employee", "abox": "%s", "certificate": true}\n' \
        "$cert_onto" "$cert_facts"
    printf '{"op": "assert", "abox": "%s"}\n' "$cert_facts"
    printf '{"id": "session", "ontology": "%s", "query": "Employee", "session": true, "certificate": true}\n' \
        "$cert_onto"
} | target/release/gomq-serve --data-dir "$cert_dir/data" 2>/dev/null \
    | target/release/gomq-cert
{
    printf '{"op": "assert", "abox": "%s"}\n' "$cert_facts"
    printf '{"id": "views-off", "ontology": "%s", "query": "Employee", "session": true, "certificate": true}\n' \
        "$cert_onto"
} | target/release/gomq-serve --max-views 0 2>/dev/null \
    | target/release/gomq-cert
cert_onto="$(json_escape_file examples/data/anatomy.dl)"
cert_facts="$(json_escape_file examples/data/anatomy.facts)"
printf '{"ontology": "%s", "query": "partOf", "abox": "%s", "certificate": true}\n' \
    "$cert_onto" "$cert_facts" \
    | target/release/gomq-serve 2>/dev/null \
    | grep -q '"status": "error".*not.*rewritable' || {
    echo "anatomy (transitive) should be refused as non-rewritable" >&2
    exit 1
}
rm -rf "$cert_dir"

# gomq-sql round-trip smoke on the committed example families: the
# role-free org hierarchy is emitted as SQL and executed in-process
# (all three individuals are certainly Person), while the role-bearing
# company ontology compiles to a recursive rewriting and must be
# refused with the typed non-rewritable-to-sql status.
echo "==> gomq-sql round-trip smoke (examples/data, release)"
sql_out="$(target/release/gomq-sql --ontology examples/data/org.dl --query Person \
    --abox examples/data/org.facts --execute)"
for needle in 'WITH' '-- requires table "Person"(c0)' '(ada)' '(grace)' '(alan)'; do
    case "$sql_out" in
        *"$needle"*) ;;
        *)
            echo "gomq-sql org round trip is missing $needle:" >&2
            echo "$sql_out" >&2
            exit 1
            ;;
    esac
done
sql_err="$(mktemp)"
if target/release/gomq-sql --ontology examples/data/company.dl --query Employee \
    2>"$sql_err" >/dev/null; then
    echo "company (role-bearing) should be refused as non-rewritable-to-sql" >&2
    exit 1
fi
grep -q 'non-rewritable-to-sql' "$sql_err" || {
    echo "company refusal is not typed:" >&2
    cat "$sql_err" >&2
    exit 1
}
rm -f "$sql_err"

# Stats-op smoke: the cumulative totals are a request of their own,
# answered after the query they count.
echo "==> gomq-serve stats op smoke (stdin, release)"
stats_out="$(printf '%s\n' \
    '{"ontology": "A sub B", "query": "B", "abox": "A(x)"}' \
    '{"op": "stats"}' \
    | target/release/gomq-serve 2>/dev/null | tail -n 1)"
case "$stats_out" in
    *'"op": "stats", "engine": {"requests": 1,'*) ;;
    *)
        echo "the stats op did not count the one query:" >&2
        echo "$stats_out" >&2
        exit 1
        ;;
esac

# Text-memo smoke: one OMQ, the same request text again, then a
# whitespace variant. The repeat is served from the plan cache's text
# memo without a parse; the variant misses the memo but hits the plan
# by its canonical text. One compile, three equal answers, one text hit.
echo "==> gomq-serve text-memo smoke (stdin, release)"
memo_out="$(printf '%s\n' \
    '{"ontology": "A sub B\nB sub C", "query": "C", "abox": "A(x)"}' \
    '{"ontology": "A sub B\nB sub C", "query": "C", "abox": "A(x)"}' \
    '{"ontology": "  A sub B\n\nB sub C ", "query": "C", "abox": "A(x)"}' \
    '{"op": "stats"}' \
    | target/release/gomq-serve 2>/dev/null)"
memo_answers="$(printf '%s\n' "$memo_out" | grep -c '"answers": \[\["x"\]\]')"
memo_stats="$(printf '%s\n' "$memo_out" | tail -n 1)"
case "$memo_answers:$memo_stats" in
    3:*'"cache_misses": 1,'*'"plan_text_hits": 1'*) ;;
    *)
        echo "text-memo smoke: $memo_answers of 3 equal answers, stats:" >&2
        echo "$memo_stats" >&2
        exit 1
        ;;
esac

# Vocabulary-bound smoke: 200 distinct OMQs over one pool of ten
# concept and three role names, through a 4-plan cache so nearly every
# request evicts and compiles. Plans share the rewriting's fixed IDB
# names, so the second hundred compiles must intern no relation: the
# vocab_relations gauge reads the same after 100 and after 200.
vocab_omqs() {
    awk -v from="$1" -v to="$2" 'BEGIN {
        for (i = from; i < to; i++) {
            a = i % 10; k = i % 3; b = (a + 1 + int(i / 30) % 9) % 10
            printf "{\"ontology\": \"C%d sub ex r%d.C%d\\nC%d sub not C%d\", ", a, k, b, b, a
            printf "\"query\": \"C%d\", \"abox\": \"C%d(x)\"}\n", b, a
        }
    }'
}
echo "==> gomq-serve vocabulary-bound smoke (stdin, --cache 4, release)"
vocab_out="$( { vocab_omqs 0 100; echo '{"op": "stats"}'; vocab_omqs 100 200; echo '{"op": "stats"}'; } \
    | target/release/gomq-serve --cache 4 2>/dev/null)"
vocab_ok="$(printf '%s\n' "$vocab_out" | grep -c '"status": "ok", "cached": false')"
vocab_rels="$(printf '%s\n' "$vocab_out" | grep '"op": "stats"' \
    | sed -n 's/.*"vocab_relations": \([0-9]*\).*/\1/p' | tr '\n' ' ')"
case "$vocab_ok:$vocab_rels" in
    200:[0-9]*)
        set -- $vocab_rels
        if [ "$#" -ne 2 ] || [ "$1" != "$2" ]; then
            echo "vocab_relations grew between 100 and 200 compiles: $vocab_rels" >&2
            exit 1
        fi
        ;;
    *)
        echo "vocabulary smoke: $vocab_ok of 200 compiles answered, gauges '$vocab_rels'" >&2
        exit 1
        ;;
esac

# Refusal-rollback smoke: each refused line interns `R` as a concept
# before it is refused (a parse error, a query outside the ontology).
# A refusal takes its names back, so the line after them, which uses
# `R` as a role, answers as on a fresh server, and the vocab_relations
# gauge reads the same before and after the refusals.
echo "==> gomq-serve refusal-rollback smoke (stdin, release)"
refuse_line='{"ontology": "A sub ex R.B", "query": "B", "abox": "A(x)"}'
refuse_fresh="$(printf '%s\n' "$refuse_line" | target/release/gomq-serve 2>/dev/null \
    | sed 's/"[a-z_]*_us": [0-9]*/"_us": 0/g')"
refuse_out="$(printf '%s\n' \
    '{"op": "stats"}' \
    '{"ontology": "R sub sub B", "query": "B", "abox": ""}' \
    '{"ontology": "R sub C", "query": "B", "abox": ""}' \
    '{"op": "stats"}' \
    "$refuse_line" \
    | target/release/gomq-serve 2>/dev/null)"
refuse_rels="$(printf '%s\n' "$refuse_out" | grep '"op": "stats"' \
    | sed -n 's/.*"vocab_relations": \([0-9]*\).*/\1/p' | tr '\n' ' ')"
refuse_last="$(printf '%s\n' "$refuse_out" | tail -n 1 | sed 's/"[a-z_]*_us": [0-9]*/"_us": 0/g')"
refuse_errors="$(printf '%s\n' "$refuse_out" | grep -c '"status": "error"')"
set -- $refuse_rels
if [ "$refuse_errors" != 2 ] || [ "$#" -ne 2 ] || [ "$1" != "$2" ] \
    || [ "$refuse_last" != "$refuse_fresh" ]; then
    echo "refusal smoke: $refuse_errors of 2 refused, vocab_relations '$refuse_rels'," >&2
    echo "answer after refusals: $refuse_last" >&2
    echo "answer on a fresh server: $refuse_fresh" >&2
    exit 1
fi
# An accepted ontology that declares `R` a role does not change how an
# ABox of another plan parses: its fact over `R`, outside that plan's
# signature, is dropped as on a fresh server.
sig_line='{"ontology": "A sub B", "query": "B", "abox": "A(a)\nR(a)"}'
sig_fresh="$(printf '%s\n' "$sig_line" | target/release/gomq-serve 2>/dev/null \
    | sed 's/"[a-z_]*_us": [0-9]*/"_us": 0/g')"
sig_last="$(printf '%s\n' \
    '{"ontology": "X sub ex R.Y", "query": "Y", "abox": "X(q)"}' \
    "$sig_line" \
    | target/release/gomq-serve 2>/dev/null | tail -n 1 | sed 's/"[a-z_]*_us": [0-9]*/"_us": 0/g')"
case "$sig_fresh" in
    *'"answers": [["a"]]'*) ;;
    *)
        echo "signature smoke: a fresh server answered $sig_fresh" >&2
        exit 1
        ;;
esac
if [ "$sig_last" != "$sig_fresh" ]; then
    echo "signature smoke: after another ontology declared R a role: $sig_last" >&2
    echo "answer on a fresh server: $sig_fresh" >&2
    exit 1
fi

# Request-constant smoke: 200 request ABoxes over one OMQ, each with
# its own constants, and a stats op before them, after 100 and after
# 200. A request's constants live in its own table and never enter the
# vocabulary, so the vocab_constants gauge stays flat: it reads the
# same all three times.
const_aboxes() {
    awk -v from="$1" -v to="$2" 'BEGIN {
        for (i = from; i < to; i++) {
            printf "{\"ontology\": \"A sub ex r.B\\nB sub C\", \"query\": \"C\", "
            printf "\"abox\": \"A(a%d)\\nr(a%d, b%d)\\nB(c%d)\"}\n", i, i, i, i
        }
    }'
}
echo "==> gomq-serve request-constant smoke (stdin, release)"
const_out="$( { echo '{"op": "stats"}'; const_aboxes 0 100; echo '{"op": "stats"}'
    const_aboxes 100 200; echo '{"op": "stats"}'; } \
    | target/release/gomq-serve 2>/dev/null)"
const_ok="$(printf '%s\n' "$const_out" | grep -c '"status": "ok", "cached"')"
const_gauges="$(printf '%s\n' "$const_out" | grep '"op": "stats"' \
    | sed -n 's/.*"vocab_constants": \([0-9]*\).*/\1/p' | tr '\n' ' ')"
set -- $const_gauges
if [ "$const_ok" != 200 ] || [ "$#" -ne 3 ] || [ "$1" != "$2" ] || [ "$2" != "$3" ]; then
    echo "constant smoke: $const_ok of 200 answered, vocab_constants '$const_gauges'" >&2
    exit 1
fi

# Release-mode TCP smoke: an ephemeral-port listener driven by
# gomq-bench for ~2s at low rate. The bench exits nonzero on any lost
# or malformed response, and --validate re-checks the JSON report.
tcp_smoke() {
    tcp_extra=$1
    tcp_tag=$2
    tcp_dir="$(mktemp -d)"
    # shellcheck disable=SC2086  # word-splitting of $tcp_extra is intended
    target/release/gomq-serve --listen 127.0.0.1:0 \
        --data-dir "$tcp_dir/data" $tcp_extra 2>"$tcp_dir/serve.err" &
    tcp_srv=$!
    tcp_addr=""
    for _ in $(seq 1 50); do
        tcp_addr="$(sed -n 's/^gomq-serve: listening on //p' "$tcp_dir/serve.err")"
        [ -n "$tcp_addr" ] && break
        sleep 0.1
    done
    if [ -z "$tcp_addr" ]; then
        echo "gomq-serve never announced its address:" >&2
        cat "$tcp_dir/serve.err" >&2
        exit 1
    fi
    target/release/gomq-bench --addr "$tcp_addr" --rate 100 --duration-ms 2000 \
        --conns 1,4 --seed 42 --out "$tcp_dir/BENCH_serve_$tcp_tag.json"
    kill -TERM "$tcp_srv"
    wait "$tcp_srv"
    if ! grep -q "gomq-serve: drained:" "$tcp_dir/serve.err"; then
        echo "no graceful-drain summary after SIGTERM:" >&2
        cat "$tcp_dir/serve.err" >&2
        exit 1
    fi
    # Every admitted request and connection was released: the gate's
    # and the connection table's gauges must both read 0 at exit.
    for tcp_gauge in '"queue_depth": 0,' '"conns_active": 0,'; do
        if ! grep '^gomq-serve: stats ' "$tcp_dir/serve.err" | grep -qF "$tcp_gauge"; then
            echo "gauge not balanced after drain (want $tcp_gauge):" >&2
            cat "$tcp_dir/serve.err" >&2
            exit 1
        fi
    done
    target/release/gomq-bench --validate "$tcp_dir/BENCH_serve_$tcp_tag.json"
    rm -rf "$tcp_dir"
}

echo "==> TCP smoke: gomq-serve --listen + gomq-bench (release)"
tcp_smoke "" smoke

# Two-process replication smoke: a primary ships its WAL to a follower
# on ephemeral ports. The follower joins only after the primary has
# taken writes and (--snapshot-every 4) moved its retained log past lsn
# 0, so it must bootstrap from a shipped snapshot. gomq-bench then
# drives read-only load at the replica (--target replica labels the
# report), the primary is SIGKILLed, the follower promotes itself
# (--promote-on-disconnect), and the promoted node must take writes —
# both bench reports pass --validate.
repl_smoke() {
    repl_extra=$1
    repl_tag=$2
    repl_dir="$(mktemp -d)"
    # shellcheck disable=SC2086  # word-splitting of $repl_extra is intended
    target/release/gomq-serve --listen 127.0.0.1:0 --data-dir "$repl_dir/primary" \
        --replicate-to 127.0.0.1:0 --snapshot-every 4 $repl_extra 2>"$repl_dir/primary.err" &
    repl_pri=$!
    repl_ship=""
    for _ in $(seq 1 50); do
        repl_ship="$(sed -n 's/^gomq-serve: replication listening on //p' "$repl_dir/primary.err")"
        [ -n "$repl_ship" ] && break
        sleep 0.1
    done
    if [ -z "$repl_ship" ]; then
        echo "primary never announced its replication address:" >&2
        cat "$repl_dir/primary.err" >&2
        exit 1
    fi
    repl_pri_addr="$(sed -n 's/^gomq-serve: listening on //p' "$repl_dir/primary.err")"
    # Writes land at the primary, before the follower exists.
    target/release/gomq-bench --addr "$repl_pri_addr" --rate 100 --duration-ms 1000 \
        --conns 1 --seed 42 --out "$repl_dir/BENCH_primary_$repl_tag.json"
    # shellcheck disable=SC2086
    target/release/gomq-serve --listen 127.0.0.1:0 --data-dir "$repl_dir/replica" \
        --follow "$repl_ship" --promote-on-disconnect $repl_extra 2>"$repl_dir/replica.err" &
    repl_fol=$!
    repl_fol_addr=""
    for _ in $(seq 1 50); do
        repl_fol_addr="$(sed -n 's/^gomq-serve: listening on //p' "$repl_dir/replica.err")"
        [ -n "$repl_fol_addr" ] && break
        sleep 0.1
    done
    if [ -z "$repl_fol_addr" ]; then
        echo "follower never announced its client address:" >&2
        cat "$repl_dir/replica.err" >&2
        exit 1
    fi
    grep -q "installed primary snapshot" "$repl_dir/replica.err" || {
        echo "late follower did not bootstrap from a shipped snapshot:" >&2
        cat "$repl_dir/replica.err" >&2
        exit 1
    }
    # Reads land at the replica.
    target/release/gomq-bench --addr "$repl_fol_addr" --target replica --rate 100 \
        --duration-ms 2000 --conns 1,4 --seed 42 \
        --out "$repl_dir/BENCH_replica_$repl_tag.json"
    grep -q '"target": "replica"' "$repl_dir/BENCH_replica_$repl_tag.json" || {
        echo "replica bench report is missing the target label" >&2
        exit 1
    }
    # SIGKILL the primary; the follower must promote itself.
    kill -KILL "$repl_pri"
    wait "$repl_pri" 2>/dev/null || true
    repl_up=""
    for _ in $(seq 1 100); do
        if grep -q "promoted to primary" "$repl_dir/replica.err"; then
            repl_up=yes
            break
        fi
        sleep 0.1
    done
    if [ -z "$repl_up" ]; then
        echo "follower never promoted itself after the primary died:" >&2
        cat "$repl_dir/replica.err" >&2
        exit 1
    fi
    # The promoted node takes writes again; --validate gates both reports.
    target/release/gomq-bench --addr "$repl_fol_addr" --rate 100 --duration-ms 1000 \
        --conns 1 --seed 43 --out "$repl_dir/BENCH_promoted_$repl_tag.json"
    target/release/gomq-bench --validate "$repl_dir/BENCH_replica_$repl_tag.json"
    target/release/gomq-bench --validate "$repl_dir/BENCH_promoted_$repl_tag.json"
    kill -TERM "$repl_fol"
    wait "$repl_fol"
    rm -rf "$repl_dir"
}

echo "==> replication smoke: primary + follower, SIGKILL failover (release)"
repl_smoke "" repl

echo "==> TCP smoke under deterministic chaos (--chaos-seed, release chaos build)"
cargo build --release -p gomq-engine --features chaos --bins
tcp_smoke "--chaos-seed 20260808" chaos

echo "==> replication smoke under deterministic chaos (--chaos-seed, release chaos build)"
repl_smoke "--chaos-seed 20260808" repl_chaos

echo "==> cargo test -q --release -p gomq-engine --test repl_chaos (failover equivalence)"
cargo test -q --release -p gomq-engine --test repl_chaos

echo "==> cargo test -q --release -p gomq-engine --features chaos --test repl_chaos (repl.ship/repl.apply faults)"
cargo test -q --release -p gomq-engine --features chaos --test repl_chaos

echo "==> cargo test --release --offline --manifest-path perfbench/Cargo.toml (benchmark self-tests)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# One-second oracle-checked run of every BENCHMARK.json workload: the
# benchmark checks every answer (hot_small mixes kernel-served and
# certified requests; session_rw drives asserts, rollbacks and
# maintained views against one durable session), and its last line must
# report them all correct.
perfbench_smoke() {
    echo "==> perfbench $1 smoke (1 s, oracle-checked, release)"
    bench_last="$(bash perfbench/run.sh --workload "$1" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
    case "$bench_last" in
        *'"correct": true'*'"failed": 0,'*) ;;
        *)
            echo "perfbench $1 smoke did not report correct: true, failed: 0:" >&2
            echo "$bench_last" >&2
            exit 1
            ;;
    esac
}
for workload in hot_small bulk_abox cold_compile session_rw; do
    perfbench_smoke "$workload"
done

echo "CI gate passed."
