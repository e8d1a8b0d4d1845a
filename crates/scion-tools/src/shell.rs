//! Command-line emulation: execute the literal command strings the
//! paper's Python scripts spawn as subprocesses.
//!
//! `collect_paths.py` and `run_test.py` build strings like
//!
//! ```text
//! scion showpaths 16-ffaa:0:1002 --extended -m 40
//! scion ping 16-ffaa:0:1002,[172.31.43.7] -c 30 --sequence '...' --interval 0.1s
//! scion-bwtestclient -s 19-ffaa:0:1303,[141.44.25.144] -cs 3,64,?,12Mbps
//! ```
//!
//! [`execute`] parses exactly these shapes (including single-quoted
//! arguments) and dispatches to the tool implementations, returning the
//! rendered stdout — so higher layers can be written against command
//! strings, like the original suite.
//!
//! Only the quoting (`tokenize`) is this module's own. The tokens are
//! read by [`Spec::parse`] against the option table each tool declares
//! next to its options — [`PingOptions::options`],
//! [`PathSelection::options`], [`ShowpathsOptions::options`],
//! [`bwtester::options`] — and turned into options by the matching
//! `from_parsed`. The `upin ping|traceroute|bwtest|showpaths` commands
//! use the same tables and readers, so the two faces accept the same
//! options; what differs stays here: the server is `-s` rather than a
//! positional, and `-cs` defaults to the tool's own `3,1000,30,?`.

use crate::args::{Parsed, Spec};
use crate::bwtester;
use crate::error::ToolError;
use crate::ping::{ping, PathSelection, PingOptions};
use crate::showpaths::{showpaths, ShowpathsOptions};
use crate::traceroute::traceroute;
use scion_sim::addr::{HostAddr, IsdAsn, ScionAddr};
use scion_sim::net::ScionNetwork;

/// Split a command line into tokens, honoring single and double quotes
/// (the suite quotes hop-predicate sequences).
fn tokenize(line: &str) -> Result<Vec<String>, ToolError> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quote: Option<char> = None;
    let mut had_token = false;
    for ch in line.chars() {
        match quote {
            Some(q) => {
                if ch == q {
                    quote = None;
                } else {
                    cur.push(ch);
                }
            }
            None => match ch {
                '\'' | '"' => {
                    quote = Some(ch);
                    had_token = true;
                }
                c if c.is_whitespace() => {
                    if had_token || !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                        had_token = false;
                    }
                }
                c => {
                    cur.push(c);
                    had_token = true;
                }
            },
        }
    }
    if quote.is_some() {
        return Err(ToolError::Usage(format!("unterminated quote in {line:?}")));
    }
    if had_token || !cur.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

/// Execute one SCION tool command line from a host in `local` (with
/// host address `local_host` for `scion address`). Returns the tool's
/// rendered output.
pub fn execute(
    net: &ScionNetwork,
    local: IsdAsn,
    local_host: HostAddr,
    line: &str,
) -> Result<String, ToolError> {
    let tokens = tokenize(line)?;
    let mut it = tokens.iter().map(String::as_str);
    let program = it
        .next()
        .ok_or_else(|| ToolError::Usage("empty command line".into()))?;
    let rest: Vec<&str> = it.collect();
    match program {
        "scion" => {
            let (sub, args) = rest
                .split_first()
                .ok_or_else(|| ToolError::Usage("scion: missing subcommand".into()))?;
            match *sub {
                "address" => Ok(crate::address::address(net, local, local_host)?.render() + "\n"),
                "showpaths" => exec_showpaths(net, local, args),
                "ping" => exec_ping(net, local, args),
                "traceroute" => exec_traceroute(net, local, args),
                other => Err(ToolError::Usage(format!(
                    "scion: unknown subcommand {other:?}"
                ))),
            }
        }
        "scion-bwtestclient" => exec_bwtest(net, local, &rest),
        other => Err(ToolError::Usage(format!("unknown program {other:?}"))),
    }
}

/// Parse a tool's arguments against its table, naming the tool in the
/// error.
fn parse(tool: &str, spec: Spec, args: &[&str]) -> Result<Parsed, ToolError> {
    spec.parse(args)
        .map_err(|e| ToolError::Usage(format!("{tool}: {e}")))
}

fn exec_showpaths(net: &ScionNetwork, local: IsdAsn, args: &[&str]) -> Result<String, ToolError> {
    let p = parse(
        "showpaths",
        ShowpathsOptions::options(Spec::new(1, 1)),
        args,
    )?;
    let dst = p.positional[0].parse()?;
    Ok(showpaths(net, local, dst, ShowpathsOptions::from_parsed(&p)?)?.render())
}

fn exec_ping(net: &ScionNetwork, local: IsdAsn, args: &[&str]) -> Result<String, ToolError> {
    let p = parse("ping", PingOptions::options(Spec::new(1, 1)), args)?;
    let dst = p.positional[0].parse()?;
    Ok(ping(net, local, dst, &PingOptions::from_parsed(&p)?)?.render())
}

fn exec_traceroute(net: &ScionNetwork, local: IsdAsn, args: &[&str]) -> Result<String, ToolError> {
    let p = parse("traceroute", PathSelection::options(Spec::new(1, 1)), args)?;
    // Accept both bare ISD-AS and full addresses.
    let dst = match p.positional[0].parse::<ScionAddr>() {
        Ok(addr) => addr.ia,
        Err(_) => p.positional[0].parse()?,
    };
    Ok(traceroute(net, local, dst, &PathSelection::from_parsed(&p)?)?.render())
}

fn exec_bwtest(net: &ScionNetwork, local: IsdAsn, args: &[&str]) -> Result<String, ToolError> {
    let spec = bwtester::options(Spec::new(0, 0).value("s").alias("server", "s"));
    let p = parse("bwtestclient", spec, args)?;
    let server = p
        .required("s", "bwtestclient: missing -s server")
        .map_err(ToolError::Usage)?
        .parse()?;
    Ok(bwtester::bwtest_parsed(net, local, server, &p, "3,1000,30,?")?.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_sim::topology::scionlab::MY_AS;

    fn net() -> ScionNetwork {
        ScionNetwork::scionlab(91)
    }

    fn host() -> HostAddr {
        HostAddr::new(10, 0, 2, 15)
    }

    #[test]
    fn tokenizer_handles_quotes() {
        assert_eq!(
            tokenize("scion ping x --sequence '17-ffaa:1:eaf#0,1 17-ffaa:0:1107#3,0'").unwrap(),
            vec![
                "scion",
                "ping",
                "x",
                "--sequence",
                "17-ffaa:1:eaf#0,1 17-ffaa:0:1107#3,0"
            ]
        );
        assert_eq!(tokenize("a \"b c\" d").unwrap(), vec!["a", "b c", "d"]);
        assert_eq!(tokenize("  ").unwrap(), Vec::<String>::new());
        assert_eq!(tokenize("a ''").unwrap(), vec!["a", ""]);
        assert!(tokenize("a 'b").is_err());
    }

    #[test]
    fn paper_showpaths_command_runs() {
        let out = execute(
            &net(),
            MY_AS,
            host(),
            "scion showpaths 16-ffaa:0:1002 --extended -m 40",
        )
        .unwrap();
        assert!(out.contains("Available paths to 16-ffaa:0:1002"), "{out}");
        assert!(out.contains("MTU:"), "{out}");
    }

    #[test]
    fn paper_ping_command_with_sequence_runs() {
        let n = net();
        let seq = n.paths(MY_AS, "16-ffaa:0:1002".parse().unwrap(), 1)[0].sequence();
        let line = format!(
            "scion ping 16-ffaa:0:1002,[172.31.43.7] -c 30 --sequence '{seq}' --interval 0.1s"
        );
        let out = execute(&n, MY_AS, host(), &line).unwrap();
        assert!(out.contains("30 packets transmitted"), "{out}");
    }

    #[test]
    fn paper_bwtest_command_runs() {
        let out = execute(
            &net(),
            MY_AS,
            host(),
            "scion-bwtestclient -s 19-ffaa:0:1303,[141.44.25.144] -cs 3,64,?,12Mbps",
        )
        .unwrap();
        assert!(out.contains("Achieved bandwidth"), "{out}");
    }

    #[test]
    fn address_and_traceroute_run() {
        let n = net();
        let out = execute(&n, MY_AS, host(), "scion address").unwrap();
        assert_eq!(out, "17-ffaa:1:eaf,10.0.2.15\n");
        let out = execute(&n, MY_AS, host(), "scion traceroute 16-ffaa:0:1002").unwrap();
        assert!(out.contains("17-ffaa:0:1107"), "{out}");
    }

    #[test]
    fn malformed_commands_are_usage_errors() {
        let n = net();
        for line in [
            "",
            "rm -rf /",
            "scion",
            "scion frobnicate",
            "scion showpaths",
            "scion showpaths 16-ffaa:0:1002 -m lots",
            "scion ping",
            "scion-bwtestclient -cs 3,64,?,12Mbps", // missing -s
            // What the hand-written loops special-cased, now `Spec`'s:
            // a value missing at the end, a value that is itself an
            // option, a second positional, a leading-digit dash token
            // (positional, so a bad address), another tool's option.
            "scion ping 16-ffaa:0:1002,[172.31.43.7] -c",
            "scion ping 16-ffaa:0:1002,[172.31.43.7] --interval --timeout 1s",
            "scion ping 16-ffaa:0:1002,[172.31.43.7] -c lots",
            "scion showpaths 16-ffaa:0:1002 17-ffaa:0:1107",
            "scion ping -5",
            "scion traceroute 16-ffaa:0:1002 --interactive 2",
            "scion-bwtestclient -s",
        ] {
            assert!(
                matches!(execute(&n, MY_AS, host(), line), Err(ToolError::Usage(_))),
                "{line:?} should be a usage error"
            );
        }
    }

    #[test]
    fn interactive_scripted_index_selects_path() {
        let n = net();
        let out = execute(
            &n,
            MY_AS,
            host(),
            "scion ping 16-ffaa:0:1002,[172.31.43.7] -c 2 --interactive 3",
        )
        .unwrap();
        assert!(out.contains("2 packets transmitted"), "{out}");
    }
}
