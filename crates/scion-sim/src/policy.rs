//! Path policies: SCION's ACL-style path filtering language.
//!
//! Real SCION end hosts filter candidate paths with ordered
//! allow/deny rules over hop predicates (the `pathpol` package). This
//! implements the ACL core of that language:
//!
//! ```text
//! +                 allow everything (default-accept terminator)
//! - 16              deny any path touching ISD 16
//! + 16-ffaa:0:1002  allow paths touching this AS
//! - 0               deny everything (default-deny terminator)
//! ```
//!
//! A path is evaluated against the rules in order: the first rule whose
//! pattern matches *any hop* of the path decides. A trailing `+`/`- 0`
//! decides paths no rule matched; without a terminator the default is
//! deny (as in SCION).
//!
//! ```
//! use scion_sim::policy::Acl;
//! let acl: Acl = "- 16-ffaa:0:1004\n+".parse().unwrap();
//! ```

use crate::addr::{Asn, IsdAsn};
use crate::path::ScionPath;
use std::fmt;
use std::str::FromStr;

/// A hop pattern: ISD and ASN each either a wildcard or pinned.
/// `0` / `0-0` match anything, `16` any AS of ISD 16, `16-ffaa:0:1002`
/// exactly one AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopPattern {
    pub isd: Option<u16>,
    pub asn: Option<Asn>,
}

impl HopPattern {
    /// The match-anything pattern.
    const ANY: HopPattern = HopPattern {
        isd: None,
        asn: None,
    };

    pub fn matches(&self, ia: IsdAsn) -> bool {
        self.isd.is_none_or(|isd| isd == ia.isd.0) && self.asn.is_none_or(|asn| asn == ia.asn)
    }
}

impl fmt::Display for HopPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.isd, self.asn) {
            (None, None) => write!(f, "0"),
            (Some(isd), None) => write!(f, "{isd}"),
            (Some(isd), Some(asn)) => write!(f, "{isd}-{asn}"),
            (None, Some(asn)) => write!(f, "0-{asn}"),
        }
    }
}

impl FromStr for HopPattern {
    type Err = PolicyParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(PolicyParseError(format!("empty hop pattern in {s:?}")));
        }
        match s.split_once('-') {
            None => {
                let isd: u16 = s
                    .parse()
                    .map_err(|_| PolicyParseError(format!("bad ISD in pattern {s:?}")))?;
                Ok(HopPattern {
                    isd: (isd != 0).then_some(isd),
                    asn: None,
                })
            }
            Some((isd, asn)) => {
                let isd: u16 = isd
                    .parse()
                    .map_err(|_| PolicyParseError(format!("bad ISD in pattern {s:?}")))?;
                let asn: Asn = asn
                    .parse()
                    .map_err(|_| PolicyParseError(format!("bad ASN in pattern {s:?}")))?;
                Ok(HopPattern {
                    isd: (isd != 0).then_some(isd),
                    asn: (asn.0 != 0).then_some(asn),
                })
            }
        }
    }
}

/// Allow or deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Allow,
    Deny,
}

/// One ACL entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AclRule {
    pub action: Action,
    pub pattern: HopPattern,
}

impl fmt::Display for AclRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = match self.action {
            Action::Allow => '+',
            Action::Deny => '-',
        };
        if self.pattern == HopPattern::ANY {
            write!(f, "{sign}")
        } else {
            write!(f, "{sign} {}", self.pattern)
        }
    }
}

/// Parse error for policies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyParseError(pub String);

impl fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy parse error: {}", self.0)
    }
}

impl std::error::Error for PolicyParseError {}

/// An ordered ACL. Parsed from newline- or comma-separated rules.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Acl {
    pub rules: Vec<AclRule>,
}

impl Acl {
    /// The decision for one path: first rule whose pattern matches any
    /// hop wins; unmatched paths are denied (SCION's default).
    pub fn decide(&self, path: &ScionPath) -> Action {
        for rule in &self.rules {
            if rule.pattern == HopPattern::ANY
                || path.hops.iter().any(|h| rule.pattern.matches(h.ia))
            {
                return rule.action;
            }
        }
        Action::Deny
    }

    /// Keep only the allowed paths, preserving order.
    pub fn filter(&self, paths: Vec<ScionPath>) -> Vec<ScionPath> {
        paths
            .into_iter()
            .filter(|p| self.decide(p) == Action::Allow)
            .collect()
    }
}

impl fmt::Display for Acl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

impl FromStr for Acl {
    type Err = PolicyParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut rules = Vec::new();
        for raw in s.split(['\n', ',']) {
            let raw = raw.trim();
            if raw.is_empty() || raw.starts_with('#') {
                continue;
            }
            let (action, rest) = match raw.chars().next() {
                Some('+') => (Action::Allow, &raw[1..]),
                Some('-') => (Action::Deny, &raw[1..]),
                _ => {
                    return Err(PolicyParseError(format!(
                        "rule must start with '+' or '-': {raw:?}"
                    )))
                }
            };
            let rest = rest.trim();
            let pattern = if rest.is_empty() {
                HopPattern::ANY
            } else {
                rest.parse()?
            };
            rules.push(AclRule { action, pattern });
        }
        if rules.is_empty() {
            return Err(PolicyParseError("empty policy".into()));
        }
        Ok(Acl { rules })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::ScionNetwork;
    use crate::topology::scionlab::{AWS_IRELAND, AWS_OHIO, AWS_SINGAPORE, MY_AS};

    fn paths() -> Vec<ScionPath> {
        ScionNetwork::scionlab(44).paths(MY_AS, AWS_IRELAND, 40)
    }

    #[test]
    fn hop_pattern_parsing_and_wildcards() {
        let any: HopPattern = "0".parse().unwrap();
        assert_eq!(any, HopPattern::ANY);
        assert!(any.matches(AWS_IRELAND));

        let isd: HopPattern = "16".parse().unwrap();
        assert!(isd.matches(AWS_IRELAND));
        assert!(!isd.matches(MY_AS));

        let exact: HopPattern = "16-ffaa:0:1004".parse().unwrap();
        assert!(exact.matches(AWS_SINGAPORE));
        assert!(!exact.matches(AWS_IRELAND));

        assert!("".parse::<HopPattern>().is_err());
        assert!("x".parse::<HopPattern>().is_err());
        assert!("16-xyz".parse::<HopPattern>().is_err());
    }

    #[test]
    fn acl_roundtrip_display_parse() {
        let acl: Acl = "- 16-ffaa:0:1004\n- 16-ffaa:0:1007\n+".parse().unwrap();
        assert_eq!(acl.rules.len(), 3);
        let text = acl.to_string();
        let back: Acl = text.parse().unwrap();
        assert_eq!(acl, back);
    }

    #[test]
    fn comma_separated_and_comments() {
        let acl: Acl = "# drop Singapore detours\n- 16-ffaa:0:1004, +"
            .parse()
            .unwrap();
        assert_eq!(acl.rules.len(), 2);
    }

    #[test]
    fn first_match_wins() {
        // Allow Singapore explicitly before denying ISD 16: Singapore
        // paths survive, other AWS paths die.
        let acl: Acl = "+ 16-ffaa:0:1004\n- 16\n+".parse().unwrap();
        let kept = acl.filter(paths());
        assert!(!kept.is_empty());
        assert!(kept
            .iter()
            .all(|p| p.hops.iter().any(|h| h.ia == AWS_SINGAPORE)));
    }

    #[test]
    fn default_is_deny_without_terminator() {
        let acl: Acl = "- 16-ffaa:0:1004".parse().unwrap();
        // No path avoids matching... paths not touching Singapore match
        // no rule -> denied; Singapore paths match the deny.
        assert!(acl.filter(paths()).is_empty());
    }

    #[test]
    fn deny_detours_keep_the_rest() {
        let acl: Acl = "- 16-ffaa:0:1004\n- 16-ffaa:0:1007\n+".parse().unwrap();
        let all = paths();
        let kept = acl.filter(all.clone());
        assert!(!kept.is_empty());
        assert!(kept.len() < all.len());
        for p in &kept {
            assert!(!p
                .hops
                .iter()
                .any(|h| h.ia == AWS_SINGAPORE || h.ia == AWS_OHIO));
        }
    }

    #[test]
    fn isd_wide_deny() {
        let acl: Acl = "- 18\n+".parse().unwrap();
        let kept = acl.filter(paths());
        assert!(!kept.is_empty());
        assert!(kept.iter().all(|p| !p.isd_set().contains(&18)));
    }

    #[test]
    fn malformed_policies_rejected() {
        assert!("".parse::<Acl>().is_err());
        assert!("allow all".parse::<Acl>().is_err());
        assert!("+ 16-".parse::<Acl>().is_err());
    }
}
