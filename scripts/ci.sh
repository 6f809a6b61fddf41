#!/usr/bin/env sh
# The full local CI gate: release build, the whole test suite, clippy
# with warnings promoted to errors, and formatting. Run from anywhere;
# it always operates on the repo root.
#
#   scripts/ci.sh
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$REPO_ROOT"

# --workspace: the root facade package would otherwise satisfy a bare
# `cargo build`, leaving the CLI and bench binaries the later gates
# invoke unbuilt (or stale).
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The telemetry privacy gate, run by name so a filtered or partial test
# invocation can never silently skip it: traces must carry only bounded
# protocol coordinates, independent of the private data.
echo "==> cargo test --test trace_no_leak"
cargo test --test trace_no_leak

# Wire-codec gates, also run by name. The proptest file checks the
# compact codec (roundtrips; varint, truncation and stray-trailing-byte
# rejection) and that every tag outside 6-10, the reserved fixed-width
# tags 1-5 included, is refused; the frame-budget smoke asserts a
# compact B=64 batch hop stays under half the 2312.6 B mean frame of the
# retired fixed-width codec.
echo "==> cargo test -p privtopk-core --test codec_proptests"
cargo test -p privtopk-core --test codec_proptests

echo "==> cargo test -p privtopk-core --test codec_proptests reserved_legacy_tags_are_rejected"
TAGS_OUT=$(cargo test -p privtopk-core --test codec_proptests reserved_legacy_tags_are_rejected 2>&1)
echo "$TAGS_OUT"
echo "$TAGS_OUT" | grep -q "1 passed" \
    || { echo "error: reserved-tag gate matched no test (renamed?)" >&2; exit 1; }

# TCP framing gate: a header that claims 16 MiB and then stops must
# give a typed error after at most one 64 KiB read step.
echo "==> cargo test -p privtopk-ring --lib read_frame_lying_length_prefix_is_a_bounded_typed_error"
FRAME_OUT=$(cargo test -p privtopk-ring --lib read_frame_lying_length_prefix_is_a_bounded_typed_error 2>&1)
echo "$FRAME_OUT"
echo "$FRAME_OUT" | grep -q "1 passed" \
    || { echo "error: TCP lying-length gate matched no test (renamed?)" >&2; exit 1; }

# `read_frame` allocates each payload buffer itself, so its other checks
# are gates too: an oversized length or a header cut short is a typed
# error, and payloads of 0, 1, 64 KiB and 64 KiB + 1 bytes come back
# whole with nothing left unread.
for gate in read_frame_rejects_oversized_and_truncated_headers \
    frames_round_trip_across_read_step_boundaries; do
    echo "==> cargo test -p privtopk-ring --lib $gate"
    GATE_OUT=$(cargo test -p privtopk-ring --lib "$gate" 2>&1)
    echo "$GATE_OUT"
    echo "$GATE_OUT" | grep -q "1 passed" \
        || { echo "error: TCP framing gate $gate matched no test (renamed?)" >&2; exit 1; }
done

# Storage gates, run by name: the incremental candidate index must
# agree with a full re-sort over randomized insert/delete/query
# interleavings, and a standing service racing a writer thread must
# produce transcripts bit-identical to a frozen-snapshot run. The replay
# gate pins the block-read log replay to the record-at-a-time reference
# it replaced: on random logs spanning up to three read blocks, with
# stray tags, out-of-domain inserts, unmatched deletes and torn tails,
# read whole or 1-13 bytes at a time, both give the same counts and
# record count or the same first error text. A failed `insert_many`
# that landed rows must not leave a stale snapshot behind.
echo "==> cargo test --test store_index_equivalence"
cargo test --test store_index_equivalence

echo "==> cargo test --test store_snapshot_isolation"
cargo test --test store_snapshot_isolation

# Fault-injection gates, run by name with the same rename guard: a
# whole-run chaos loss window must drop exactly the frames the retired
# uniform-drop wrapper dropped (504, 391 and 210 of 1,000 at three
# seeds), and an impossible lossy drop probability, or a chaos network
# whose outage lasts the whole healing budget, must be a typed
# configuration error on both entry points, not a panic or a timeout.
echo "==> cargo test -p privtopk-ring --lib whole_run_loss_window_drops_what_faulty_endpoint_dropped"
LOSS_OUT=$(cargo test -p privtopk-ring --lib whole_run_loss_window_drops_what_faulty_endpoint_dropped 2>&1)
echo "$LOSS_OUT"
echo "$LOSS_OUT" | grep -q "1 passed" \
    || { echo "error: loss-window gate matched no test (renamed?)" >&2; exit 1; }

echo "==> cargo test -p privtopk-core --lib lossy_network_rejects_impossible_drop_probabilities"
DROP_OUT=$(cargo test -p privtopk-core --lib lossy_network_rejects_impossible_drop_probabilities 2>&1)
echo "$DROP_OUT"
echo "$DROP_OUT" | grep -q "1 passed" \
    || { echo "error: drop-probability gate matched no test (renamed?)" >&2; exit 1; }

echo "==> cargo test -p privtopk-store --lib replay_matches_record_at_a_time_reference"
REPLAY_OUT=$(cargo test -p privtopk-store --lib replay_matches_record_at_a_time_reference 2>&1)
echo "$REPLAY_OUT"
echo "$REPLAY_OUT" | grep -q "1 passed" \
    || { echo "error: replay reference gate matched no test (renamed?)" >&2; exit 1; }

echo "==> cargo test -p privtopk-store --lib partial_insert_many_failure_invalidates_the_snapshot"
STALE_OUT=$(cargo test -p privtopk-store --lib partial_insert_many_failure_invalidates_the_snapshot 2>&1)
echo "$STALE_OUT"
echo "$STALE_OUT" | grep -q "1 passed" \
    || { echo "error: stale-snapshot gate matched no test (renamed?)" >&2; exit 1; }

# SLO gate: evicting by each record's own stamp must keep exactly what
# rescanning the window for its newest stamp did, report for report, on
# out-of-order stamps.
echo "==> cargo test -p privtopk-observe --lib stamp_horizon_eviction_matches_the_window_scan"
SLO_OUT=$(cargo test -p privtopk-observe --lib stamp_horizon_eviction_matches_the_window_scan 2>&1)
echo "$SLO_OUT"
echo "$SLO_OUT" | grep -q "1 passed" \
    || { echo "error: SLO window gate matched no test (renamed?)" >&2; exit 1; }

# Recorder lane gates, run by name with the same rename guard. A
# histogram sum must saturate on record as it does on merge, instead of
# wrapping below the maximum; six clones recording on six threads must
# merge into exact phase counts, per-node digests and ring counts; and
# events still pending in a lane whose thread has exited must reach every
# reader, the Prometheus body included. A hop's laps must tile it (their
# durations sum to the time from its first clock read to its last lap,
# and a batch hop's buffer keeps its allocation); a disabled or
# sampled-out hop must read no clock and record nothing; a sampled
# recorder must keep whole hops, every phase of each; and a filed hop
# must reach the phase histograms, node digests and flight ring once
# each, and none of them before it is filed.
for gate in histogram::tests::record_saturates_the_sum_like_merge \
    recorder::tests::lanes_merge_concurrent_handles_exactly \
    recorder::tests::pending_lane_events_reach_every_reader \
    recorder::tests::laps_tile_the_hop_exactly \
    recorder::tests::untimed_hops_read_no_clock_and_record_nothing \
    recorder::tests::sampled_hops_keep_every_phase \
    recorder::tests::a_filed_hop_reaches_every_reader_once; do
    echo "==> cargo test -p privtopk-observe --lib $gate"
    GATE_OUT=$(cargo test -p privtopk-observe --lib "$gate" 2>&1)
    echo "$GATE_OUT"
    echo "$GATE_OUT" | grep -q "1 passed" \
        || { echo "error: recorder gate $gate matched no test (renamed?)" >&2; exit 1; }
done

echo "==> cargo test -p privtopk-core --lib compact_b64_mean_frame_under_budget"
BUDGET_OUT=$(cargo test -p privtopk-core --lib compact_b64_mean_frame_under_budget 2>&1)
echo "$BUDGET_OUT"
echo "$BUDGET_OUT" | grep -q "1 passed" \
    || { echo "error: frame-budget smoke matched no test (renamed?)" >&2; exit 1; }

# Local top-k compile gates, run by name with the same rename guard: the
# bounded selection in `TopKVector::from_values` must equal a full sort,
# and a batch compiling each column once must answer every spec exactly
# as its solo run, with the same first error.
echo "==> cargo test -p privtopk-domain --test proptests from_values_matches_full_sort_reference"
TOPK_OUT=$(cargo test -p privtopk-domain --test proptests from_values_matches_full_sort_reference 2>&1)
echo "$TOPK_OUT"
echo "$TOPK_OUT" | grep -q "1 passed" \
    || { echo "error: from_values reference gate matched no test (renamed?)" >&2; exit 1; }

echo "==> cargo test -p privtopk-federation --lib batch_compile_shares_columns_and_keeps_outcomes"
BATCH_OUT=$(cargo test -p privtopk-federation --lib batch_compile_shares_columns_and_keeps_outcomes 2>&1)
echo "$BATCH_OUT"
echo "$BATCH_OUT" | grep -q "1 passed" \
    || { echo "error: shared batch compile gate matched no test (renamed?)" >&2; exit 1; }

# Aggregate overflow gate, run by name with the same rename guard: a sum
# whose true total does not fit in u64, within one member or across
# members, must be a typed error from `sum` and `mean`, never a panic or
# a wrapped answer.
echo "==> cargo test -p privtopk-federation --lib aggregate_sum_rejects_totals_past_u64"
SUM_OUT=$(cargo test -p privtopk-federation --lib aggregate_sum_rejects_totals_past_u64 2>&1)
echo "$SUM_OUT"
echo "$SUM_OUT" | grep -q "1 passed" \
    || { echo "error: aggregate overflow gate matched no test (renamed?)" >&2; exit 1; }

# Aggregate answers, run by name with the same rename guard: sum, count
# and mean must match the plaintext totals, and a federation holding no
# rows must sum and count to zero and refuse a mean with a typed error.
echo "==> cargo test -p privtopk-federation --lib aggregate_sum_count_mean"
MEAN_OUT=$(cargo test -p privtopk-federation --lib aggregate_sum_count_mean 2>&1)
echo "$MEAN_OUT"
echo "$MEAN_OUT" | grep -q "1 passed" \
    || { echo "error: aggregate answer gate matched no test (renamed?)" >&2; exit 1; }

# Node machine gates, run by name with the same rename guard. The one
# per-node protocol machine must turn a wrong sender, a wrong round
# label and a premature termination into typed errors; eight queries
# interleaved in one thread under 256 seeded delivery orders must each
# equal the simulation engine's transcript at the paper's n*r + n - 1
# frames; and a frame for a query a standing service has already closed,
# or has never assigned, must be dropped instead of stalling the next
# query. A slot
# given a batch of the wrong width, a token where a batch belongs or
# members that fall out of lock-step must give typed errors too, and a
# batch of one group of four and four one-member groups must run on one
# ring over in-memory, TCP, lossy and chaos networks (the chaos network
# takes node 1 down for the first 150 ms, and must drop frames), every
# transcript equal to its solo run and, in memory and over TCP, every
# group at n*r + n - 1 frames.
for gate in bad_inputs_give_typed_errors_not_panics \
    interleaved_queries_match_the_simulation \
    stale_frame_for_a_closed_query_does_not_stall_the_ring \
    frame_for_an_unassigned_query_does_not_stall_the_ring \
    slot_width_and_lockstep_mismatches_are_typed_errors \
    heterogeneous_batch_runs_on_one_ring_over_every_network; do
    echo "==> cargo test -p privtopk-core --lib $gate"
    GATE_OUT=$(cargo test -p privtopk-core --lib "$gate" 2>&1)
    echo "$GATE_OUT"
    echo "$GATE_OUT" | grep -q "1 passed" \
        || { echo "error: node machine gate $gate matched no test (renamed?)" >&2; exit 1; }
done

# Batch over TCP through the CLI: the groups of a batch share one ring of
# socket-connected workers, and the answers must match the simulated
# batch line for line.
echo "==> privtopk query --batch 8 --network tcp smoke"
BATCH_DIR=$(mktemp -d)
./target/release/privtopk query --kind topk --k 3 --nodes 5 --batch 8 > "$BATCH_DIR/sim.txt"
./target/release/privtopk query --kind topk --k 3 --nodes 5 --batch 8 --network tcp > "$BATCH_DIR/tcp.txt"
diff "$BATCH_DIR/sim.txt" "$BATCH_DIR/tcp.txt" \
    || { echo "error: batch over TCP differs from the simulated batch" >&2; exit 1; }
rm -rf "$BATCH_DIR"
echo "    batch over TCP matches the simulated batch"

# Wake gates, run by name with the same rename guard. A service worker
# blocks only on its endpoint, and the scheduler wakes it there. A wake
# must arrive as an empty frame from the endpoint's own node, in memory
# and over TCP, and no frame counter may see it.
echo "==> cargo test -p privtopk-ring --lib a_wake_is_an_uncounted_empty_frame_from_the_endpoint_itself"
WAKE_OUT=$(cargo test -p privtopk-ring --lib a_wake_is_an_uncounted_empty_frame_from_the_endpoint_itself 2>&1)
echo "$WAKE_OUT"
echo "$WAKE_OUT" | grep -q "1 passed" \
    || { echo "error: wake gate matched no test (renamed?)" >&2; exit 1; }

# The reliability layer must pass a wake through untouched, both in a
# receive and while a send waits for its ACK, instead of failing to
# decode it as a sequenced frame.
echo "==> cargo test -p privtopk-ring --lib a_wake_passes_through_recv_and_the_ack_wait"
PASS_OUT=$(cargo test -p privtopk-ring --lib a_wake_passes_through_recv_and_the_ack_wait 2>&1)
echo "$PASS_OUT"
echo "$PASS_OUT" | grep -q "1 passed" \
    || { echo "error: wake passthrough gate matched no test (renamed?)" >&2; exit 1; }

# A service dropped without `shutdown()` must still end every worker
# thread it started, over TCP and over the lossy in-process network, and
# an in-memory ring, which starts none, must leave none. Its own binary,
# so no sibling test moves the thread count it reads.
echo "==> cargo test --test service_drop"
cargo test --test service_drop

# Shutdown drains and joins: over the lossy in-process network a
# standing service runs exactly one worker thread per node and leaves
# none after `shutdown()`; an in-memory ring never raises the count.
echo "==> cargo test --test service_shutdown"
cargo test --test service_shutdown

# FIFO ring gates, run by name with the same rename guard. An in-memory
# ring runs every worker on the caller's thread through one FIFO: 50
# queries at depths 1, 4 and 16 must give the outcomes, frames, logical
# messages and bytes of the same workload over TCP, at n*r + n - 1
# frames per query, with the simulation engine's transcripts; and
# recovery from a crash must rebuild the in-memory ring at once, well
# inside a 5 s worker timeout, excluding the node a threaded run
# excludes, while the TCP run waits out its 200 ms worker timeout and
# finishes inside 5 s.
for gate in service::tests::fifo_ring_matches_tcp_and_the_engine \
    distributed::tests::recovery_over_memory_rebuilds_without_waiting_the_timeout; do
    echo "==> cargo test -p privtopk-core --lib $gate"
    GATE_OUT=$(cargo test -p privtopk-core --lib "$gate" 2>&1)
    echo "$GATE_OUT"
    echo "$GATE_OUT" | grep -q "1 passed" \
        || { echo "error: FIFO ring gate $gate matched no test (renamed?)" >&2; exit 1; }
done

# TCP push gates, run by name with the same rename guard. A TCP
# endpoint's readers must hand peer frames to an installed sink on their
# own thread, while wakes and frames naming the endpoint's own node still
# reach its inbox. A dropped endpoint's wake connection to its acceptor
# must end in a reset, so 20 dropped rings leave no TIME_WAIT entry on
# either end of a listener's port (Linux only: it reads /proc/net/tcp).
for gate in a_pushing_endpoint_hands_peer_frames_to_its_sink_and_wakes_to_its_inbox \
    dropped_rings_leave_no_time_wait_toward_their_listeners; do
    echo "==> cargo test -p privtopk-ring --lib $gate"
    GATE_OUT=$(cargo test -p privtopk-ring --lib "$gate" 2>&1)
    echo "$GATE_OUT"
    echo "$GATE_OUT" | grep -q "1 passed" \
        || { echo "error: TCP push gate $gate matched no test (renamed?)" >&2; exit 1; }
done

# TCP workers are dispatched on their readers' threads, under a lock a
# reader only try-locks. A frame queued while the worker is held must
# never be stranded once every push has returned; 300 one-shot rings of
# six nodes must open every slot before a reader dispatches, each
# finishing under 5 s with the engine's transcript; a depth-16 service
# of 500 queries must give the engine's transcripts at n*r + n - 1
# frames per query; a batch of several lock-step groups must match its
# solo runs; and a node thread idling past its receive deadline must
# sleep, not poll the expired deadline (Linux only: it reads its CPU
# time from /proc).
for gate in service::tests::a_frame_queued_while_the_worker_is_held_is_never_stranded \
    service::tests::an_idle_node_thread_sleeps_through_its_deadlines \
    service::tests::one_shot_tcp_rings_open_every_slot_before_a_reader_dispatches \
    service::tests::a_deep_tcp_service_matches_the_engine_at_the_paper_frame_count \
    service::tests::a_tcp_batch_of_several_groups_matches_its_solo_runs; do
    echo "==> cargo test -p privtopk-core --lib $gate"
    GATE_OUT=$(cargo test -p privtopk-core --lib "$gate" 2>&1)
    echo "$GATE_OUT"
    echo "$GATE_OUT" | grep -q "1 passed" \
        || { echo "error: TCP dispatch gate $gate matched no test (renamed?)" >&2; exit 1; }
done

# Crash recovery through the one-shot worker loop: a node dies in round
# 3, the ring is rebuilt without it, and the example asserts the
# survivors' answer itself.
echo "==> cargo run --release --example node_failure"
cargo run --release --example node_failure

# Healing through the one-shot worker loop: 25% of frames are dropped
# under the reliability layer `build_endpoints` stacks, and the example
# asserts the lossy transcript equals the lossless one.
echo "==> cargo run --release --example lossy_network"
cargo run --release --example lossy_network

# Privacy-accounting gates, run by name so they can never be silently
# skipped: the live accountant must match the offline harness bit for
# bit on the same shadow seed, and two services holding different
# private data must produce identical privacy snapshots.
echo "==> cargo test --test privacy_accounting live_accountant_matches_offline_measure_lop"
cargo test --test privacy_accounting live_accountant_matches_offline_measure_lop
echo "==> cargo test --test privacy_accounting privacy_accounting_no_leak"
cargo test --test privacy_accounting privacy_accounting_no_leak

# The accountant counts a query without building its coordinate key when
# the coordinates match the previous query's. Run by name with the same
# rename guard: interleaved configurations, two of them equal under
# `PartialEq` but keyed apart (0.0 vs -0.0), must give the keys, counts
# and snapshot of a per-query key lookup.
echo "==> cargo test -p privtopk-privacy --lib interleaved_configurations_snapshot_as_keyed_per_query"
ACCT_OUT=$(cargo test -p privtopk-privacy --lib interleaved_configurations_snapshot_as_keyed_per_query 2>&1)
echo "$ACCT_OUT"
echo "$ACCT_OUT" | grep -q "1 passed" \
    || { echo "error: accountant keying gate matched no test (renamed?)" >&2; exit 1; }

# The vendored channel notifies only when a receiver is blocked. Run by
# name with the same rename guard (the vendored crates sit outside the
# workspace, so `cargo test --workspace` never runs them): 10,000
# messages, each sent while the receiver is blocked in `recv` or
# `recv_timeout`, must all arrive without a stall.
echo "==> cargo test -p crossbeam --lib channel::tests::blocked_receivers_get_every_message"
CHAN_OUT=$(cargo test -p crossbeam --lib channel::tests::blocked_receivers_get_every_message 2>&1)
echo "$CHAN_OUT"
echo "$CHAN_OUT" | grep -q "1 passed" \
    || { echo "error: channel wake gate matched no test (renamed?)" >&2; exit 1; }

# Chaos observability gates, run by name so they can never be silently
# skipped: a seeded crash + partition + loss schedule against a standing
# depth-16 service must answer every query bit-identical to the
# fault-free run, with the analyzer attributing nonzero healing cost to
# reconstructed incidents; and a stats-only recorder's event ring must
# feed the analyzer.
echo "==> cargo test --test chaos_observability chaos_run_is_bit_identical_with_attributed_healing_cost"
cargo test --test chaos_observability chaos_run_is_bit_identical_with_attributed_healing_cost
echo "==> cargo test --test chaos_observability flight_recorder_feeds_the_analyzer_even_in_stats_only_mode"
cargo test --test chaos_observability flight_recorder_feeds_the_analyzer_even_in_stats_only_mode

# Trace tooling smoke: export a fresh 2-query distributed (service-mode)
# trace through the CLI and analyze it back — the reconstructed critical
# path must be non-empty for both queries.
echo "==> privtopk trace analyze smoke"
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
./target/release/privtopk query --kind topk --k 3 --nodes 5 \
    --repeat 2 --pipeline 2 --trace-out "$TRACE_DIR/svc.jsonl" > /dev/null
./target/release/privtopk trace analyze "$TRACE_DIR/svc.jsonl" > "$TRACE_DIR/report.txt"
grep -q "trace analysis: 2 queries" "$TRACE_DIR/report.txt" \
    || { echo "error: expected 2 analyzed queries" >&2; cat "$TRACE_DIR/report.txt" >&2; exit 1; }
grep -q "critical path" "$TRACE_DIR/report.txt" \
    || { echo "error: empty critical path in trace analysis" >&2; cat "$TRACE_DIR/report.txt" >&2; exit 1; }
echo "    critical paths reconstructed for both queries"
./target/release/privtopk privacy report "$TRACE_DIR/svc.jsonl" --trials 8 > "$TRACE_DIR/privacy.txt"
grep -q "privacy report: 2 queries accounted" "$TRACE_DIR/privacy.txt" \
    || { echo "error: privacy report missed the 2 traced queries" >&2; cat "$TRACE_DIR/privacy.txt" >&2; exit 1; }
echo "    privacy report accounted both queries"

# The spacing behind the smoke below, run by name with the same rename
# guard: over 1,000 seeds, the quiet between consecutive seeded chaos
# windows must exceed the analyzer's default incident gap plus one ACK
# timeout.
echo "==> cargo test -p privtopk-ring --lib seeded_windows_leave_more_quiet_than_the_incident_gap"
GAP_OUT=$(cargo test -p privtopk-ring --lib seeded_windows_leave_more_quiet_than_the_incident_gap 2>&1)
echo "$GAP_OUT"
echo "$GAP_OUT" | grep -q "1 passed" \
    || { echo "error: chaos spacing gate matched no test (renamed?)" >&2; exit 1; }

# Chaos smoke: a seeded 2-incident schedule injected through the CLI
# against a standing service must come back bit-identical to the
# fault-free baseline and reconstruct both incidents from the trace,
# apart: seeded windows leave more quiet between them than the
# analyzer's incident gap plus an ACK timeout.
echo "==> privtopk chaos run smoke"
./target/release/privtopk chaos run --nodes 5 --incidents 2 --seed 42 \
    --pipeline 8 > "$TRACE_DIR/chaos.txt"
grep -q "bit-identity: OK" "$TRACE_DIR/chaos.txt" \
    || { echo "error: chaos run lost bit-identity" >&2; cat "$TRACE_DIR/chaos.txt" >&2; exit 1; }
grep -q "incident 1:" "$TRACE_DIR/chaos.txt" \
    || { echo "error: chaos run reconstructed no incident" >&2; cat "$TRACE_DIR/chaos.txt" >&2; exit 1; }
grep -q "incident 2:" "$TRACE_DIR/chaos.txt" \
    || { echo "error: chaos run merged its two incidents into one" >&2; cat "$TRACE_DIR/chaos.txt" >&2; exit 1; }
echo "    chaos run bit-identical with both incidents reconstructed"

# The paired A/B tool is only run by hand (it takes minutes per pair);
# keep it at least parseable.
echo "==> sh -n scripts/ab.sh"
sh -n scripts/ab.sh

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# Rustdoc with warnings denied: a doc link left pointing at a renamed or
# deleted item fails here instead of rendering as plain text.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "ci: all gates passed"
