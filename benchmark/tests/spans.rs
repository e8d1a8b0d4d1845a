//! Span self-time arithmetic on a hand-driven clock.

use upin_benchmark::trace::{unattributed_share, Tracer};

#[test]
fn self_time_is_duration_minus_children() {
    let mut tr = Tracer::manual();
    tr.enter("bench.root", 0);
    tr.advance(5); // root's own work
    tr.enter("api.dispatch", 1);
    tr.advance(10);
    tr.enter("select.recommend", 1);
    tr.advance(30);
    assert_eq!(tr.exit(), 30);
    tr.advance(2);
    tr.enter("select.recommend", 1);
    tr.advance(8);
    tr.exit();
    assert_eq!(tr.exit(), 50);
    tr.advance(5);
    tr.enter("api.json_encode", 1);
    tr.advance(40);
    tr.exit();
    assert_eq!(tr.exit(), 100);

    let t = tr.totals();
    let dispatch = t.get("api.dispatch");
    assert_eq!(
        (dispatch.count, dispatch.total_ns, dispatch.self_ns),
        (1, 50, 12)
    );
    let rec = t.get("select.recommend");
    assert_eq!((rec.count, rec.total_ns, rec.self_ns), (2, 38, 38));
    assert_eq!(rec.mean(1.0), 19.0);
    let root = t.get("bench.root");
    assert_eq!((root.total_ns, root.self_ns), (100, 10));
    // Self times of the tree add up to the root's duration.
    let sum: u64 = t.iter().map(|(_, n)| n.self_ns).sum();
    assert_eq!(sum, 100);
    // The root's own 10 ns is what no layer accounts for.
    assert!((unattributed_share(t, "bench.root", 100) - 0.10).abs() < 1e-12);
}

#[test]
fn records_keep_parent_and_unit() {
    let mut tr = Tracer::manual();
    tr.enter("a", 7);
    tr.advance(1);
    tr.enter("b", 7);
    tr.advance(2);
    tr.exit();
    tr.exit();
    let r = tr.records();
    assert_eq!(r.len(), 2);
    assert_eq!(
        (r[0].parent, r[0].unit, r[0].start_ns, r[0].end_ns),
        (u32::MAX, 7, 0, 3)
    );
    assert_eq!(
        (r[1].parent, r[1].unit, r[1].start_ns, r[1].end_ns),
        (0, 7, 1, 3)
    );
    assert_eq!(tr.durations("b"), vec![2.0]);
    let mut csv = Vec::new();
    tr.write_csv(&mut csv, "main").unwrap();
    assert_eq!(
        String::from_utf8(csv).unwrap(),
        "main,0,,a,7,0,3\nmain,1,0,b,7,1,3\n"
    );
}
