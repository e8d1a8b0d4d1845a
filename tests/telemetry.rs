//! Telemetry integration: same-seed campaigns export byte-identical
//! metrics, the span tree has the campaign → iteration → destination →
//! attempt shape, and the disabled (no-op) recorder is effectively free
//! on the measurement hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use upin::pathdb::Database;
use upin::scion_sim::net::ScionNetwork;
use upin::upin_core::collect::{collect_paths, register_available_servers};
use upin::upin_core::{run_suite, SuiteConfig};
use upin::upin_telemetry::{AttrValue, Recorder, SpanId, Telemetry};

fn quick_cfg() -> SuiteConfig {
    SuiteConfig {
        iterations: 1,
        ping_count: 3,
        run_bwtests: false,
        skip_collection: true,
        ..SuiteConfig::default()
    }
}

/// Run a full 21-destination campaign with `recorder` attached to both
/// the network and the database.
fn campaign_with(seed: u64, recorder: Option<Arc<dyn Recorder>>) -> std::time::Duration {
    let mut net = ScionNetwork::scionlab(seed);
    let mut db = Database::new();
    if let Some(rec) = recorder {
        net.set_recorder(rec.clone());
        db.set_recorder(Some(rec));
    }
    let cfg = quick_cfg();
    register_available_servers(&db, &net).unwrap();
    collect_paths(&db, &net, &cfg).unwrap();
    let started = Instant::now();
    run_suite(&db, &net, &cfg).unwrap();
    started.elapsed()
}

#[test]
fn same_seed_campaigns_export_identical_metrics() {
    let t1 = Arc::new(Telemetry::new());
    let t2 = Arc::new(Telemetry::new());
    campaign_with(42, Some(t1.clone()));
    campaign_with(42, Some(t2.clone()));

    let j1 = t1.metrics_json();
    let j2 = t2.metrics_json();
    assert_eq!(j1, j2, "same seed must export byte-identical metrics");
    assert_eq!(t1.trace_json(), t2.trace_json());

    // Every destination has a populated per-server latency histogram.
    for server in 1..=21 {
        let key = format!("campaign.destination_ms{{server={server}}}");
        assert!(j1.contains(&key), "missing {key} in export");
    }
    // The simulator and the database both contributed.
    assert!(t1.counter("sim.ping_ops") > 0);
    assert!(t1.counter("pathdb.plan.index_hit") > 0);
    assert!(t1.counter("campaign.docs_inserted") > 0);
}

#[test]
fn different_workloads_diverge() {
    // Sanity check that the export is not static: doubling the
    // iteration count must change the recorded volume. (Same-seed
    // identity above is meaningful only because of this.)
    let t1 = Arc::new(Telemetry::new());
    let t2 = Arc::new(Telemetry::new());
    campaign_with(42, Some(t1.clone()));

    let mut net = ScionNetwork::scionlab(42);
    let mut db = Database::new();
    net.set_recorder(t2.clone());
    db.set_recorder(Some(t2.clone()));
    let cfg = SuiteConfig {
        iterations: 2,
        ..quick_cfg()
    };
    register_available_servers(&db, &net).unwrap();
    collect_paths(&db, &net, &cfg).unwrap();
    run_suite(&db, &net, &cfg).unwrap();

    assert_ne!(t1.metrics_json(), t2.metrics_json());
    assert_eq!(
        t2.counter("campaign.docs_inserted"),
        2 * t1.counter("campaign.docs_inserted")
    );
}

#[test]
fn span_tree_has_campaign_destination_attempt_shape() {
    let t = Arc::new(Telemetry::new());
    campaign_with(7, Some(t.clone()));
    let spans = t.spans();

    let campaign: Vec<_> = spans.iter().filter(|s| s.name == "campaign").collect();
    assert_eq!(campaign.len(), 1);
    assert!(campaign[0].parent.is_none(), "campaign is the root");
    assert!(campaign[0].closed());

    let iterations: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "campaign.iteration")
        .collect();
    assert_eq!(iterations.len(), 1);
    assert_eq!(iterations[0].parent, campaign[0].id);

    let destinations: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "campaign.destination")
        .collect();
    assert_eq!(destinations.len(), 21, "one span per destination");
    for d in &destinations {
        assert_eq!(d.parent, iterations[0].id);
        assert!(d.closed());
        assert!(d.duration_ms() >= 0.0);
    }

    let dest_ids: Vec<SpanId> = destinations.iter().map(|d| d.id).collect();
    let attempts: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "campaign.attempt")
        .collect();
    assert!(attempts.len() >= 21, "at least one attempt per destination");
    for a in &attempts {
        assert!(
            dest_ids.contains(&a.parent),
            "attempts nest in destinations"
        );
    }
}

/// Counts every recorder call without collecting anything — stands in
/// for the no-op recorder to size the instrumentation overhead.
#[derive(Debug, Default)]
struct CountingRecorder {
    calls: AtomicU64,
}

impl Recorder for CountingRecorder {
    fn add(&self, _name: &str, _delta: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn gauge(&self, _name: &str, _value: f64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn observe(&self, _name: &str, _value: f64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn span_start(
        &self,
        _name: &str,
        _parent: SpanId,
        _start_ms: f64,
        _attrs: &[(&str, AttrValue)],
    ) -> SpanId {
        self.calls.fetch_add(1, Ordering::Relaxed);
        SpanId::NONE
    }
    fn span_end(&self, _span: SpanId, _end_ms: f64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
    fn event(&self, _span: SpanId, _name: &str, _at_ms: f64, _attrs: &[(&str, AttrValue)]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn noop_recorder_overhead_is_within_three_percent() {
    // How many recorder calls does one campaign make?
    let counter = Arc::new(CountingRecorder::default());
    campaign_with(42, Some(counter.clone()));
    let calls = counter.calls.load(Ordering::Relaxed);
    assert!(calls > 0);

    // Cost of that many calls through the disabled path: a dynamic
    // dispatch to an empty body.
    let noop = upin::upin_telemetry::noop();
    let started = Instant::now();
    for i in 0..calls {
        std::hint::black_box(&noop).add("overhead.probe", i);
    }
    let noop_cost = started.elapsed();

    // Against the uninstrumented campaign wall time. The margin is huge
    // (empty virtual calls are ~ns, the campaign is ~ms), so the 3%
    // budget holds even on noisy CI machines.
    let baseline = campaign_with(42, None);
    assert!(
        noop_cost.as_secs_f64() <= baseline.as_secs_f64() * 0.03,
        "no-op recorder cost {noop_cost:?} exceeds 3% of campaign time {baseline:?} ({calls} calls)"
    );
}
