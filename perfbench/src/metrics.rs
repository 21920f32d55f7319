//! Turns run outcomes into the named metrics and the JSON lines.
//!
//! Percentiles are nearest-rank over the raw per-operation samples, never
//! histogram bucket bounds. Host-time metrics are medians over the runs of
//! one invocation; the virtual-time ones repeat exactly for a seed.

use crate::ledger::{Reading, Slot, NESTED, REPLAY};
use crate::run::RunOutcome;
use crate::workloads::Plan;
use std::fmt::Write as _;
use std::time::Duration;

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (mean of the middle two for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The longest virtual interval during which some operation was due and
/// none completed, over `(due, done)` pairs.
fn max_stall_ns(ops: &[(u64, u64)]) -> u64 {
    let mut ops = ops.to_vec();
    ops.sort_by_key(|&(_, done)| done);
    // earliest[i]: the earliest due instant among operations completing at
    // or after the i-th completion — those are all waiting just before it.
    let mut earliest = vec![u64::MAX; ops.len() + 1];
    for i in (0..ops.len()).rev() {
        earliest[i] = earliest[i + 1].min(ops[i].0);
    }
    let mut prev: Option<u64> = None;
    let mut best = 0;
    for (i, &(_, done)) in ops.iter().enumerate() {
        let from = prev.map_or(earliest[i], |p| p.max(earliest[i]));
        best = best.max(done.saturating_sub(from));
        prev = Some(done);
    }
    best
}

/// Peak resident memory of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    context: Vec<(&'static str, String)>,
}

impl Report {
    pub fn new(
        plan: &Plan,
        warmup: &[RunOutcome],
        untraced: &[RunOutcome],
        traced: &[RunOutcome],
        direct: &(Vec<(u64, u64)>, u64),
    ) -> Report {
        let reference = &warmup[0].sim;
        let runs = warmup.iter().chain(untraced).chain(traced);
        let mut failed: u64 = runs.clone().map(|r| r.failures).sum::<u64>() + direct.1;
        for (i, r) in runs.clone().enumerate().skip(1) {
            if r.sim != *reference {
                eprintln!("run {i} of this seed diverged from the first run's simulated outcome");
                failed += 1;
            }
        }
        let ops = plan.measured_ops() as u64;
        let attempted = ops * runs.count() as u64;

        let mut latencies: Vec<u64> = reference
            .ops
            .iter()
            .map(|&(due, done)| done - due)
            .collect();
        latencies.sort_unstable();
        let first_due = reference.ops.iter().map(|o| o.0).min().unwrap_or(0);
        let last_done = reference.ops.iter().map(|o| o.1).max().unwrap_or(0);
        let replicated_ns: u64 = latencies.iter().sum();
        let direct_ns: u64 = direct.0.iter().map(|&(due, done)| done - due).sum();
        let ms = |ns: u64| ns as f64 / 1e6;
        let end_to_end = vec![
            m(
                "host_ops_per_s",
                median(untraced.iter().map(|r| ops as f64 / secs(r.host)).collect()),
                "1/s",
            ),
            m(
                "sim_ops_per_s",
                ratio(
                    reference.ops.len() as f64,
                    (last_done - first_due) as f64 / 1e9,
                ),
                "1/s",
            ),
            m("sim_latency_p50_ms", ms(percentile(&latencies, 0.5)), "ms"),
            m("sim_latency_p99_ms", ms(percentile(&latencies, 0.99)), "ms"),
            m(
                "sim_overhead_pct",
                (ratio(replicated_ns as f64, direct_ns as f64) - 1.0) * 100.0,
                "%",
            ),
            m("sim_max_stall_ms", ms(max_stall_ns(&reference.ops)), "ms"),
            m(
                "ok_frac",
                1.0 - ratio(failed as f64, attempted as f64),
                "frac",
            ),
            m("peak_rss_mb", peak_rss_mb(), "MiB"),
            m(
                "setup_s",
                median(untraced.iter().map(|r| secs(r.setup)).collect()),
                "s",
            ),
        ];

        let per_layer = if traced.is_empty() {
            Vec::new()
        } else {
            let each: Vec<Vec<Metric>> = traced.iter().map(|r| layers(r, ops)).collect();
            let mut out: Vec<Metric> = (0..each[0].len())
                .map(|k| {
                    let first = &each[0][k];
                    m(
                        first.name,
                        median(each.iter().map(|v| v[k].value).collect()),
                        first.unit,
                    )
                })
                .collect();
            let host = |rs: &[RunOutcome]| median(rs.iter().map(|r| secs(r.host)).collect());
            out.push(m(
                "trace.overhead_frac",
                host(traced) / host(untraced) - 1.0,
                "frac",
            ));
            out
        };

        let digest_workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let phase_samples = traced
            .first()
            .and_then(|r| r.trace.as_ref())
            .map_or(0, |t| t.spans.len());
        let context = vec![
            ("nproc", digest_workers.to_string()),
            // BaseService sizes its digest pool by the same probe.
            ("digest_workers", digest_workers.to_string()),
            (
                "profile",
                format!(
                    "\"{}\"",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }
                ),
            ),
            ("runs", untraced.len().to_string()),
            ("traced_runs", traced.len().to_string()),
            ("latency_samples", latencies.len().to_string()),
            ("direct_latency_samples", direct.0.len().to_string()),
            ("phase_samples", phase_samples.to_string()),
        ];
        Report {
            correct: failed == 0,
            attempted,
            failed,
            end_to_end,
            per_layer,
            context,
        }
    }

    /// The context line: what produced the numbers.
    pub fn context_json(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        let mut s = format!(
            "{{\"context\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}",
            u8::from(trace)
        );
        for (k, v) in &self.context {
            let _ = write!(s, ", \"{k}\": {v}");
        }
        s.push_str("}}");
        s
    }

    /// The result line.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|x| {
                let value = if x.value.is_finite() { x.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    x.name, x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// The per-layer metrics of one traced run.
fn layers(run: &RunOutcome, ops: u64) -> Vec<Metric> {
    let t = run.trace.as_ref().expect("traced runs carry a trace");
    let n = ops as f64;
    let l = |s: Slot| -> Reading { t.ledger[s as usize] };
    let us_per_op = |ns: u64| ns as f64 / 1e3 / n;
    let ms = |ns: u64| ns as f64 / 1e6;
    let sum =
        |f: fn(&crate::group::ReplicaCounters) -> u64| -> u64 { t.counters.iter().map(f).sum() };
    let total = run.host.as_nanos() as f64;
    let replay: u64 = REPLAY.iter().map(|&s| l(s).total_ns).sum();
    let callbacks = l(Slot::ReplicaActor).total_ns + l(Slot::ClientActor).total_ns;
    let sched_self = (t.in_sim.as_nanos() as u64).saturating_sub(callbacks + replay);
    let nested_self: u64 = NESTED.iter().map(|&s| l(s).self_ns).sum();

    let phase_p50 = |f: fn(&base_simnet::Segments) -> u64| -> f64 {
        let mut v: Vec<u64> = t.spans.iter().map(|s| f(&s.segments)).collect();
        v.sort_unstable();
        percentile(&v, 0.5) as f64 / 1e6
    };
    let checkpoints = sum(|c| c.checkpoints);
    vec![
        m("simnet.sched_self_frac", sched_self as f64 / total, "frac"),
        m(
            "simnet.events_per_op",
            (l(Slot::ReplicaActor).calls + l(Slot::ClientActor).calls) as f64 / n,
            "count/op",
        ),
        m("simnet.msgs_per_op", run.sim.msgs as f64 / n, "count/op"),
        m("simnet.bytes_per_op", run.sim.bytes as f64 / n, "B/op"),
        m(
            "pbft.replica_self_us_per_op",
            us_per_op(l(Slot::ReplicaActor).self_ns),
            "us/op",
        ),
        m(
            "pbft.client_self_us_per_op",
            us_per_op(l(Slot::ClientActor).self_ns),
            "us/op",
        ),
        m(
            "pbft.ops_per_batch",
            ratio(
                sum(|c| c.executed_requests) as f64,
                sum(|c| c.executed_batches) as f64,
            ),
            "count",
        ),
        m(
            "pbft.phase.request_p50_ms",
            phase_p50(|s| s.request_ns),
            "ms",
        ),
        m(
            "pbft.phase.prepare_p50_ms",
            phase_p50(|s| s.prepare_ns),
            "ms",
        ),
        m("pbft.phase.commit_p50_ms", phase_p50(|s| s.commit_ns), "ms"),
        m(
            "pbft.phase.execute_p50_ms",
            phase_p50(|s| s.execute_ns),
            "ms",
        ),
        m("pbft.phase.reply_p50_ms", phase_p50(|s| s.reply_ns), "ms"),
        m(
            "pbft.phase.delivery_p50_ms",
            phase_p50(|s| s.delivery_ns),
            "ms",
        ),
        m(
            "pbft.view_changes",
            t.counters.iter().map(|c| c.new_views).max().unwrap_or(0) as f64,
            "count",
        ),
        m(
            "pbft.client_retx_per_op",
            t.client_retransmissions as f64 / n,
            "count/op",
        ),
        m(
            "xdr.decode_us_per_op",
            us_per_op(l(Slot::ReplayDecode).total_ns),
            "us/op",
        ),
        m(
            "xdr.encode_us_per_op",
            us_per_op(l(Slot::ReplayEncode).total_ns),
            "us/op",
        ),
        m(
            "crypto.mac_checks_per_op",
            l(Slot::ReplayMac).calls as f64 / n,
            "count/op",
        ),
        m(
            "crypto.mac_us_per_op",
            us_per_op(l(Slot::ReplayMac).total_ns),
            "us/op",
        ),
        m(
            "crypto.msg_digest_bytes_per_op",
            l(Slot::ReplayDigest).units as f64 / n,
            "B/op",
        ),
        m(
            "crypto.msg_digest_us_per_op",
            us_per_op(l(Slot::ReplayDigest).total_ns),
            "us/op",
        ),
        m(
            "core.exec_self_us_per_op",
            us_per_op(l(Slot::SvcExecute).self_ns),
            "us/op",
        ),
        m(
            "core.checkpoint_ms",
            ms(l(Slot::SvcCheckpoint).total_ns),
            "ms",
        ),
        m("core.checkpoints", checkpoints as f64, "count"),
        m(
            "core.objects_digested_per_ckpt",
            ratio(sum(|c| c.objects_digested) as f64, checkpoints as f64),
            "count",
        ),
        m(
            "core.node_hashes_per_ckpt",
            ratio(sum(|c| c.node_hashes) as f64, checkpoints as f64),
            "count",
        ),
        m("core.serve_ms", ms(l(Slot::SvcServe).total_ns), "ms"),
        m("core.install_ms", ms(l(Slot::SvcInstall).total_ns), "ms"),
        m("core.reboot_ms", ms(l(Slot::SvcReboot).total_ns), "ms"),
        m(
            "wrapper.execute_self_us_per_op",
            us_per_op(l(Slot::WrapExecute).self_ns),
            "us/op",
        ),
        m(
            "wrapper.get_obj_calls_per_op",
            l(Slot::WrapGetObj).calls as f64 / n,
            "count/op",
        ),
        m(
            "wrapper.get_obj_us",
            l(Slot::WrapGetObj).total_ns as f64 / 1e3,
            "us",
        ),
        m(
            "wrapper.put_objs_objects",
            l(Slot::WrapPutObjs).units as f64,
            "count",
        ),
        m(
            "wrapper.put_objs_ms",
            ms(l(Slot::WrapPutObjs).total_ns),
            "ms",
        ),
        m(
            "nfs.inode_us_per_op",
            us_per_op(l(Slot::NfsInode).total_ns),
            "us/op",
        ),
        m(
            "nfs.flat_us_per_op",
            us_per_op(l(Slot::NfsFlat).total_ns),
            "us/op",
        ),
        m(
            "nfs.log_us_per_op",
            us_per_op(l(Slot::NfsLog).total_ns),
            "us/op",
        ),
        m(
            "nfs.btree_us_per_op",
            us_per_op(l(Slot::NfsBtree).total_ns),
            "us/op",
        ),
        m("transfer.recoveries", sum(|c| c.recoveries) as f64, "count"),
        m(
            "transfer.recovery_ms",
            ratio(
                sum(|c| c.recovery_ns) as f64,
                sum(|c| c.recovery_count) as f64,
            ) / 1e6,
            "ms",
        ),
        m(
            "transfer.objects_fetched",
            sum(|c| c.fetched_objects) as f64,
            "count",
        ),
        m(
            "transfer.fetched_bytes",
            sum(|c| c.fetched_bytes) as f64,
            "B",
        ),
        m(
            "transfer.retransmissions",
            sum(|c| c.transfer_retransmissions) as f64,
            "count",
        ),
        m(
            "trace.unattributed_frac",
            (total - (replay + sched_self + nested_self) as f64) / total,
            "frac",
        ),
    ]
}
