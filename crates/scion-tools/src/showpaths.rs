//! `scion showpaths` — list available paths to a destination AS.
//!
//! Supports the two flags the paper's test-suite depends on: `-m` (raise
//! the 10-path default cap; the suite uses `-m 40`) and `--extended`
//! (per-path MTU, status and latency metadata).

use crate::args::{Parsed, Spec};
use crate::error::ToolError;
use scion_sim::addr::IsdAsn;
use scion_sim::net::ScionNetwork;
use scion_sim::path::ScionPath;

/// Options of one `showpaths` invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShowpathsOptions {
    /// `-m`: maximum number of paths to display (CLI default 10).
    pub max_paths: usize,
    /// `--extended`: include MTU / status / latency columns.
    pub extended: bool,
}

impl Default for ShowpathsOptions {
    fn default() -> Self {
        ShowpathsOptions {
            max_paths: 10,
            extended: false,
        }
    }
}

impl ShowpathsOptions {
    /// `scion showpaths`'s option table, on top of `spec`.
    pub fn options(spec: Spec) -> Spec {
        spec.value("m").alias("maxpaths", "m").flag("extended")
    }

    pub fn from_parsed(p: &Parsed) -> Result<ShowpathsOptions, ToolError> {
        Ok(ShowpathsOptions {
            max_paths: p
                .get_or("m", ShowpathsOptions::default().max_paths)
                .map_err(ToolError::Usage)?,
            extended: p.flag("extended"),
        })
    }
}

/// One listed path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathEntry {
    /// Display index (the `[N]` prefix in CLI output).
    pub index: usize,
    pub path: ScionPath,
}

/// Structured result of `showpaths`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShowpathsResult {
    pub local: IsdAsn,
    pub destination: IsdAsn,
    pub options: ShowpathsOptions,
    pub paths: Vec<PathEntry>,
}

impl ShowpathsResult {
    /// CLI-style text rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Available paths to {} ({} shown)\n",
            self.destination,
            self.paths.len()
        );
        for e in &self.paths {
            out.push_str(&format!("[{:>2}] {}", e.index, e.path));
            if self.options.extended {
                out.push_str(&format!(
                    " MTU: {} Latency: {:.2}ms Status: {} Hops: {}",
                    e.path.mtu,
                    e.path.expected_latency_ms,
                    e.path.status,
                    e.path.hop_count()
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// Run `scion showpaths <dst> [-m N] [--extended]` from `local`.
pub fn showpaths(
    net: &ScionNetwork,
    local: IsdAsn,
    destination: IsdAsn,
    options: ShowpathsOptions,
) -> Result<ShowpathsResult, ToolError> {
    if net.topology().index_of(destination).is_none() {
        return Err(ToolError::Usage(format!(
            "unknown destination {destination}"
        )));
    }
    if local == destination {
        return Err(ToolError::Usage("destination equals the local AS".into()));
    }
    let paths = net.paths(local, destination, options.max_paths);
    Ok(ShowpathsResult {
        local,
        destination,
        options,
        paths: paths
            .into_iter()
            .enumerate()
            .map(|(index, path)| PathEntry { index, path })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_sim::fault::ServerBehavior;
    use scion_sim::path::PathStatus;
    use scion_sim::topology::scionlab::{paper_destinations, AWS_IRELAND, MY_AS};

    fn net() -> ScionNetwork {
        ScionNetwork::scionlab(3)
    }

    #[test]
    fn default_caps_at_ten() {
        let r = showpaths(&net(), MY_AS, AWS_IRELAND, ShowpathsOptions::default()).unwrap();
        assert_eq!(r.paths.len(), 10);
        // Ranked by hop count.
        for w in r.paths.windows(2) {
            assert!(w[0].path.hop_count() <= w[1].path.hop_count());
        }
    }

    #[test]
    fn dash_m_raises_cap() {
        let opts = ShowpathsOptions {
            max_paths: 40,
            extended: true,
        };
        let r = showpaths(&net(), MY_AS, AWS_IRELAND, opts).unwrap();
        assert!(r.paths.len() > 10, "got {}", r.paths.len());
        assert!(r.paths.iter().all(|e| e.path.status == PathStatus::Alive));
    }

    #[test]
    fn extended_render_includes_metadata() {
        let opts = ShowpathsOptions {
            max_paths: 3,
            extended: true,
        };
        let r = showpaths(&net(), MY_AS, AWS_IRELAND, opts).unwrap();
        let text = r.render();
        assert!(text.contains("MTU: 1472"), "{text}");
        assert!(text.contains("Status: alive"), "{text}");
        assert!(text.contains("Latency:"), "{text}");
    }

    #[test]
    fn plain_render_omits_metadata() {
        let r = showpaths(&net(), MY_AS, AWS_IRELAND, ShowpathsOptions::default()).unwrap();
        assert!(!r.render().contains("MTU"));
    }

    #[test]
    fn unknown_destination_rejected() {
        let bogus: IsdAsn = "99-ffaa:0:1".parse().unwrap();
        assert!(matches!(
            showpaths(&net(), MY_AS, bogus, ShowpathsOptions::default()),
            Err(ToolError::Usage(_))
        ));
    }

    #[test]
    fn self_destination_rejected() {
        assert!(matches!(
            showpaths(&net(), MY_AS, MY_AS, ShowpathsOptions::default()),
            Err(ToolError::Usage(_))
        ));
    }

    #[test]
    fn server_state_does_not_change_path_status() {
        // Path liveness is about links/routers, not application servers.
        let n = net();
        n.set_server_behavior(paper_destinations()[1], ServerBehavior::Down);
        let r = showpaths(&n, MY_AS, AWS_IRELAND, ShowpathsOptions::default()).unwrap();
        assert!(r.paths.iter().all(|e| e.path.status == PathStatus::Alive));
    }
}
