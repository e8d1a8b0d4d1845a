//! Text rendering of figure data: every series the paper plots, printed
//! as aligned rows so `cargo bench`/`figures` output can be compared to
//! the published figures directly.

use crate::analysis::{
    CampaignSummary, IsdSetLatency, PathBandwidth, PathLatency, PathLoss, ReachabilityHistogram,
    Whisker,
};

fn whisker_cells(w: &Whisker) -> String {
    format!(
        "min {:>8.2}  q1 {:>8.2}  med {:>8.2}  q3 {:>8.2}  max {:>8.2}  mean {:>8.2}  n {:>3}",
        w.min, w.q1, w.median, w.q3, w.max, w.mean, w.n
    )
}

/// Fig. 4: reachability histogram with a unicode bar per bin.
pub fn render_fig4(h: &ReachabilityHistogram) -> String {
    let mut out = String::from("Fig 4 — Server reachability from MY_AS#1 (min hop count)\n");
    out.push_str("hops  destinations\n");
    for (hops, count) in &h.bins {
        out.push_str(&format!("{hops:>4}  {count:>3}  {}\n", "█".repeat(*count)));
    }
    out.push_str(&format!(
        "destinations: {}   mean min-hops: {:.2}   within 6 hops: {:.1}%\n",
        h.destinations,
        h.mean_min_hops,
        h.frac_within(6) * 100.0
    ));
    out
}

/// Fig. 5: per-path latency whiskers, grouped by hop count.
pub fn render_fig5(dest_label: &str, paths: &[PathLatency]) -> String {
    let mut out = format!("Fig 5 — Average latency per path to {dest_label}\n");
    for p in paths {
        out.push_str(&format!(
            "{:<8} hops {}  {}\n",
            p.path_id.to_string(),
            p.hops,
            whisker_cells(&p.whisker)
        ));
    }
    out
}

/// Fig. 6: latency grouped by ISD set × hop count, with and without the
/// long-distance exclusions.
pub fn render_fig6(
    dest_label: &str,
    all: &[IsdSetLatency],
    excluded: &[IsdSetLatency],
    excluded_ases: &[&str],
) -> String {
    let fmt_group = |g: &IsdSetLatency| {
        format!(
            "ISDs {:?} hops {} ({} paths)  {}\n",
            g.isds,
            g.hops,
            g.paths,
            whisker_cells(&g.whisker)
        )
    };
    let mut out = format!("Fig 6 — Latency per ISD set, grouped by hop count, to {dest_label}\n");
    out.push_str("[left: all measurements]\n");
    for g in all {
        out.push_str(&fmt_group(g));
    }
    out.push_str(&format!(
        "[right: excluding long-distance ASes {excluded_ases:?}]\n"
    ));
    for g in excluded {
        out.push_str(&fmt_group(g));
    }
    out
}

/// Figs. 7/8: per-path bandwidth whiskers at one target rate.
pub fn render_fig_bandwidth(
    fig: &str,
    dest_label: &str,
    target_mbps: f64,
    paths: &[PathBandwidth],
) -> String {
    let mut out = format!(
        "{fig} — Achieved bandwidth per path to {dest_label} (target {target_mbps} Mbps)\n"
    );
    let cell = |w: &Option<Whisker>| match w {
        Some(w) => format!("{:>7.2} Mbps (n={})", w.mean, w.n),
        None => "      -        ".to_string(),
    };
    out.push_str("[upstream: client -> server]\n");
    for p in paths {
        out.push_str(&format!(
            "{:<8} 64B {}   MTU {}\n",
            p.path_id.to_string(),
            cell(&p.up_64),
            cell(&p.up_mtu)
        ));
    }
    out.push_str("[downstream: server -> client]\n");
    for p in paths {
        out.push_str(&format!(
            "{:<8} 64B {}   MTU {}\n",
            p.path_id.to_string(),
            cell(&p.down_64),
            cell(&p.down_mtu)
        ));
    }
    out
}

/// Fig. 9: per-path loss dots (loss %, count of measurements).
pub fn render_fig9(dest_label: &str, paths: &[PathLoss]) -> String {
    let mut out = format!("Fig 9 — Average packet loss per path to {dest_label}\n");
    for p in paths {
        let dots: Vec<String> = p
            .points
            .iter()
            .map(|(loss, count)| format!("{loss:.1}%x{count}"))
            .collect();
        out.push_str(&format!(
            "{:<8} {}{}\n",
            p.path_id.to_string(),
            dots.join("  "),
            if p.total_blackout() {
                "   <- 100% loss"
            } else {
                ""
            }
        ));
    }
    out
}

/// §6 scalar summary.
pub fn render_summary(s: &CampaignSummary) -> String {
    format!(
        "Campaign summary\n  reachable destinations: {}\n  samples collected:      {}\n  mean min hop count:     {:.2}\n  within 6 hops:          {:.1}%\n",
        s.destinations,
        s.samples,
        s.mean_min_hops,
        s.frac_within_6 * 100.0
    )
}

/// The [`crate::axioms`] scorecard table: one row per strategy, best
/// (highest combined axiom score) first.
pub fn render_strategies(cards: &[crate::axioms::Scorecard]) -> String {
    if cards.is_empty() {
        return "no strategy scorecards stored — run `evaluate-strategies` first\n".to_string();
    }
    let cell = |x: Option<f64>| match x {
        Some(v) => format!("{v:>9.3}"),
        None => format!("{:>9}", "-"),
    };
    let mut out = String::from("Strategy scorecard — axiomatic evaluation (best first)\n");
    out.push_str(&format!(
        "{:<4} {:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "rank", "strategy", "pareto", "stable", "fair", "combined", "answered", "failures"
    ));
    for (i, c) in cards.iter().enumerate() {
        out.push_str(&format!(
            "{:<4} {:<16} {} {} {} {:>9.3} {:>9} {:>9}\n",
            i + 1,
            c.strategy,
            cell(c.pareto_efficiency),
            cell(c.stability),
            cell(c.fairness),
            c.combined,
            c.answered,
            c.failures
        ));
    }
    out
}

/// The chaos campaign table: per-destination availability, switch
/// latency percentiles, SLA violations and degraded time, plus a
/// campaign-wide totals line.
pub fn render_chaos(r: &crate::failover::ChaosReport) -> String {
    use crate::analysis::percentile;
    let cell = |x: Option<f64>| match x {
        Some(v) => format!("{v:>8.1}"),
        None => format!("{:>8}", "-"),
    };
    let mut out = format!(
        "Chaos campaign — switch SLA {:.0} ms, {} scheduled transitions\n",
        r.sla_ms, r.transitions
    );
    out.push_str(&format!(
        "{:<6} {:<28} {:>6} {:>8} {:>8} {:>8} {:>5} {:>11} {:>6}\n",
        "dest", "address", "avail", "switches", "p50 ms", "p99 ms", "viol", "degraded ms", "stale"
    ));
    for d in &r.dests {
        out.push_str(&format!(
            "{:<6} {:<28} {:>5.1}% {:>8} {} {} {:>5} {:>11.0} {:>6}\n",
            d.server_id,
            d.dest,
            d.availability() * 100.0,
            d.switch_ms.len(),
            cell(percentile(&d.switch_ms, 0.50)),
            cell(percentile(&d.switch_ms, 0.99)),
            d.sla_violations,
            d.degraded_ms,
            d.stale_ticks
        ));
    }
    let all = r.switch_latencies();
    let degraded: f64 = r.dests.iter().map(|d| d.degraded_ms).sum();
    let avail = if r.dests.is_empty() {
        0.0
    } else {
        r.dests.iter().map(|d| d.availability()).sum::<f64>() / r.dests.len() as f64
    };
    out.push_str(&format!(
        "total: {} switches, p50 {} / p99 {} ms, {} SLA violations, availability {:.1}%, degraded {:.0} ms\n",
        all.len(),
        cell(percentile(&all, 0.50)).trim(),
        cell(percentile(&all, 0.99)).trim(),
        r.total_sla_violations(),
        avail * 100.0,
        degraded
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::PathId;
    use std::collections::BTreeMap;

    fn whisker(mean: f64) -> Whisker {
        Whisker {
            n: 10,
            min: mean - 2.0,
            q1: mean - 1.0,
            median: mean,
            q3: mean + 1.0,
            max: mean + 2.0,
            mean,
            std: 1.0,
        }
    }

    #[test]
    fn fig4_renders_bars_and_stats() {
        let mut bins = BTreeMap::new();
        bins.insert(2, 1);
        bins.insert(5, 5);
        bins.insert(6, 7);
        let h = ReachabilityHistogram {
            bins,
            destinations: 13,
            mean_min_hops: 5.4,
        };
        let text = render_fig4(&h);
        assert!(text.contains("█████"), "{text}");
        assert!(text.contains("mean min-hops: 5.40"), "{text}");
    }

    #[test]
    fn fig5_lists_paths() {
        let paths = vec![PathLatency {
            path_id: PathId {
                server_id: 2,
                path_index: 3,
            },
            hops: 6,
            whisker: whisker(28.0),
        }];
        let text = render_fig5("AWS Ireland", &paths);
        assert!(text.contains("2_3"), "{text}");
        assert!(text.contains("hops 6"), "{text}");
    }

    #[test]
    fn fig9_marks_blackouts() {
        let paths = vec![
            PathLoss {
                path_id: PathId {
                    server_id: 2,
                    path_index: 16,
                },
                points: vec![(100.0, 4)],
            },
            PathLoss {
                path_id: PathId {
                    server_id: 2,
                    path_index: 1,
                },
                points: vec![(0.0, 4)],
            },
        ];
        let text = render_fig9("AWS N. Virginia", &paths);
        assert!(text.contains("<- 100% loss"), "{text}");
        assert!(text.contains("0.0%x4"), "{text}");
    }

    #[test]
    fn summary_renders_scalars() {
        let s = CampaignSummary {
            destinations: 21,
            samples: 3000,
            mean_min_hops: 5.66,
            frac_within_6: 0.70,
        };
        let text = render_summary(&s);
        assert!(text.contains("21"));
        assert!(text.contains("3000"));
        assert!(text.contains("5.66"));
        assert!(text.contains("70.0%"));
    }

    #[test]
    fn chaos_table_shows_sla_and_degradation() {
        let report = crate::failover::ChaosReport {
            sla_ms: 500.0,
            transitions: 4,
            trace: String::new(),
            dests: vec![crate::failover::DestReport {
                server_id: 2,
                dest: "16-ffaa:0:1002,[172.31.43.7]".into(),
                candidates: 5,
                ticks: 20,
                ok_ticks: 18,
                degraded_ticks: 2,
                stale_ticks: 2,
                degraded_ms: 2000.0,
                switch_ms: vec![180.0, 620.0],
                sla_violations: 1,
                restores: 1,
                recoveries: 1,
                serving: None,
            }],
        };
        let text = render_chaos(&report);
        assert!(text.contains("switch SLA 500 ms"), "{text}");
        assert!(text.contains("4 scheduled transitions"), "{text}");
        assert!(text.contains("90.0%"), "{text}");
        assert!(text.contains("620.0"), "{text}");
        assert!(text.contains("1 SLA violations"), "{text}");
        assert!(text.contains("degraded 2000 ms"), "{text}");
    }
}
