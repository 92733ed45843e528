//! Fault plans: what kind of fault, at which sites, how often, and when.

use sc_core::Error;

/// The physical failure mode a site models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transient single-event upset: one bit flips for one cycle.
    Transient,
    /// Persistent stuck-at-0: the node reads 0 while the fault is live.
    StuckAt0,
    /// Persistent stuck-at-1: the node reads 1 while the fault is live.
    StuckAt1,
    /// Timing starvation: the node misses its update this cycle (the
    /// clock still advances, the work is dropped).
    Starve,
}

impl FaultKind {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "flip" => Some(FaultKind::Transient),
            "stuck0" => Some(FaultKind::StuckAt0),
            "stuck1" => Some(FaultKind::StuckAt1),
            "starve" => Some(FaultKind::Starve),
            _ => None,
        }
    }

    /// The spec-grammar token for this kind.
    pub fn token(&self) -> &'static str {
        match self {
            FaultKind::Transient => "flip",
            FaultKind::StuckAt0 => "stuck0",
            FaultKind::StuckAt1 => "stuck1",
            FaultKind::Starve => "starve",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

/// One armed entry of a plan: a site pattern plus fault parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Site name to match: exact, or a prefix ending in `*`.
    pub pattern: String,
    /// Failure mode injected at matching sites.
    pub kind: FaultKind,
    /// Per-draw fault probability in `[0, 1]`.
    pub rate: f64,
    /// Optional half-open index window `[start, end)` outside which the
    /// site never fires (models a burst / beam window).
    pub window: Option<(u64, u64)>,
}

impl SiteSpec {
    /// Whether this entry's pattern matches `site` (exact match, or
    /// prefix match when the pattern ends in `*`).
    pub fn matches(&self, site: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.pattern == site,
        }
    }
}

/// A complete, deterministic fault campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every draw (default 0).
    pub seed: u64,
    /// Armed entries in spec order; the first match wins.
    pub entries: Vec<SiteSpec>,
}

impl FaultPlan {
    /// Parses an `SC_FAULTS` spec string (see the crate docs for the
    /// grammar). Empty / whitespace-only specs yield an empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, Error> {
        let mut plan = FaultPlan { seed: 0, entries: Vec::new() };
        for raw in spec.split(';') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed.trim().parse::<u64>().map_err(|_| Error::FaultSpecParse {
                    entry: entry.to_string(),
                    reason: "seed must be an unsigned 64-bit integer".to_string(),
                })?;
                continue;
            }
            plan.entries.push(Self::parse_site_entry(entry)?);
        }
        Ok(plan)
    }

    fn parse_site_entry(entry: &str) -> Result<SiteSpec, Error> {
        let err = |reason: &str| Error::FaultSpecParse {
            entry: entry.to_string(),
            reason: reason.to_string(),
        };
        let (site, rest) = entry
            .split_once(':')
            .ok_or_else(|| err("expected `<site>:<kind>@<rate>[@start..end]` or `seed=<u64>`"))?;
        let site = site.trim();
        if site.is_empty() || site.strip_suffix('*').unwrap_or(site).contains('*') {
            return Err(err("site must be a non-empty name, `*` only allowed as a suffix"));
        }
        let mut parts = rest.split('@');
        let kind = FaultKind::parse(parts.next().unwrap_or("").trim())
            .ok_or_else(|| err("kind must be one of flip|stuck0|stuck1|starve"))?;
        let rate: f64 = parts
            .next()
            .ok_or_else(|| err("missing `@<rate>`"))?
            .trim()
            .parse()
            .map_err(|_| err("rate must be a float"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(err("rate must be in [0, 1]"));
        }
        let window = match parts.next() {
            None => None,
            Some(w) => {
                let (start, end) =
                    w.trim().split_once("..").ok_or_else(|| err("window must be `start..end`"))?;
                let start: u64 =
                    start.trim().parse().map_err(|_| err("window start must be a u64"))?;
                let end: u64 = end.trim().parse().map_err(|_| err("window end must be a u64"))?;
                if end <= start {
                    return Err(err("window end must be greater than start"));
                }
                Some((start, end))
            }
        };
        if parts.next().is_some() {
            return Err(err("too many `@` sections"));
        }
        Ok(SiteSpec { pattern: site.to_string(), kind, rate, window })
    }

    /// The first entry whose pattern matches `site`, if any.
    pub fn lookup(&self, site: &str) -> Option<&SiteSpec> {
        self.entries.iter().find(|e| e.matches(site))
    }

    /// Whether any entry could ever fire (nonzero rate).
    pub fn is_armed(&self) -> bool {
        self.entries.iter().any(|e| e.rate > 0.0)
    }

    /// Renders the plan back into spec-string form (parseable by
    /// [`FaultPlan::parse`]).
    pub fn to_spec(&self) -> String {
        let mut parts: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                let mut s = format!("{}:{}@{}", e.pattern, e.kind, e.rate);
                if let Some((a, b)) = e.window {
                    s.push_str(&format!("@{a}..{b}"));
                }
                s
            })
            .collect();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        parts.join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse("rtlsim.mac.stream:flip@1e-3; mem.*:stuck1@0.5@10..20; seed=9")
            .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.entries[0].kind, FaultKind::Transient);
        assert_eq!(plan.entries[0].rate, 1e-3);
        assert_eq!(plan.entries[0].window, None);
        assert_eq!(plan.entries[1].kind, FaultKind::StuckAt1);
        assert_eq!(plan.entries[1].window, Some((10, 20)));
    }

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("  ;; ").unwrap();
        assert!(plan.entries.is_empty());
        assert!(!plan.is_armed());
    }

    #[test]
    fn wildcard_and_exact_matching() {
        let plan = FaultPlan::parse("mem.*:flip@0.1;rtlsim.fsm.state:flip@0.2").unwrap();
        assert!(plan.lookup("mem.sram").is_some());
        assert!(plan.lookup("mem.sram.bank0").is_some());
        assert_eq!(plan.lookup("rtlsim.fsm.state").unwrap().rate, 0.2);
        assert!(plan.lookup("rtlsim.mac.stream").is_none());
        // First match wins.
        let plan = FaultPlan::parse("a.*:flip@0.1;a.b:stuck0@0.9").unwrap();
        assert_eq!(plan.lookup("a.b").unwrap().rate, 0.1);
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "noseparator",
            "site:badkind@0.1",
            "site:flip",
            "site:flip@nan_rate_x",
            "site:flip@1.5",
            "site:flip@-0.1",
            "site:flip@0.1@5..5",
            "site:flip@0.1@9..3",
            "site:flip@0.1@1..2@3",
            "si*te:flip@0.1",
            ":flip@0.1",
            "seed=notanumber",
        ] {
            let e = FaultPlan::parse(bad).unwrap_err();
            match e {
                Error::FaultSpecParse { entry, .. } => assert!(bad.contains(&entry)),
                other => panic!("expected FaultSpecParse, got {other:?}"),
            }
        }
    }

    #[test]
    fn site_names_may_end_in_a_multibyte_character() {
        let plan = FaultPlan::parse("é:flip@0.1").unwrap();
        assert!(plan.lookup("é").is_some());
        let plan = FaultPlan::parse("accel.é:flip@0.1").unwrap();
        assert!(plan.lookup("accel.é").is_some());
        assert!(matches!(FaultPlan::parse("a*é:flip@0.1"), Err(Error::FaultSpecParse { .. })));
    }

    #[test]
    fn spec_round_trip() {
        let spec = "rtlsim.mac.stream:flip@0.001;mem.*:stuck1@0.5@10..20;seed=9";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn zero_rate_entries_do_not_arm() {
        let plan = FaultPlan::parse("a:flip@0;b:flip@0.0").unwrap();
        assert!(!plan.is_armed());
    }
}
