//! Declarative campaign descriptions and their expansion into jobs.
//!
//! A [`CampaignSpec`] is a cartesian grid over (algorithm, adversary,
//! k, fault count, seed index). Expansion order — and therefore every
//! job's `job_id` and derived RNG seed — is a deterministic function of
//! the spec alone, which is what makes parallel execution, resumption,
//! and artifact comparison sound.

use std::fmt;

use dispersion_engine::ModelSpec;

/// Robot algorithm to run (statically dispatched in `job::execute`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlgorithmKind {
    /// Algorithm 4 of the paper (`DispersionDynamic`).
    Alg4,
    /// The group-DFS baseline.
    LocalDfs,
    /// The anchored random-walk baseline.
    RandomWalk,
    /// The greedy local-model baseline (Theorem 1 victim).
    GreedyLocal,
    /// The global-communication, no-1-NK baseline (Theorem 2 victim).
    BlindGlobal,
}

impl AlgorithmKind {
    /// All parseable names, for help texts.
    pub const NAMES: &'static str = "alg4 | local-dfs | random-walk | greedy-local | blind-global";

    /// Parses an algorithm name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "alg4" => Ok(AlgorithmKind::Alg4),
            "local-dfs" => Ok(AlgorithmKind::LocalDfs),
            "random-walk" => Ok(AlgorithmKind::RandomWalk),
            "greedy-local" => Ok(AlgorithmKind::GreedyLocal),
            "blind-global" => Ok(AlgorithmKind::BlindGlobal),
            other => Err(format!(
                "unknown algorithm `{other}` (expected {})",
                Self::NAMES
            )),
        }
    }

    /// Stable name used in records and tables.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::Alg4 => "alg4",
            AlgorithmKind::LocalDfs => "local-dfs",
            AlgorithmKind::RandomWalk => "random-walk",
            AlgorithmKind::GreedyLocal => "greedy-local",
            AlgorithmKind::BlindGlobal => "blind-global",
        }
    }

    /// The communication model each algorithm is specified for.
    pub fn model(self) -> ModelSpec {
        match self {
            AlgorithmKind::Alg4 | AlgorithmKind::RandomWalk => ModelSpec::GLOBAL_WITH_NEIGHBORHOOD,
            AlgorithmKind::LocalDfs | AlgorithmKind::GreedyLocal => {
                ModelSpec::LOCAL_WITH_NEIGHBORHOOD
            }
            AlgorithmKind::BlindGlobal => ModelSpec::GLOBAL_BLIND,
        }
    }
}

impl fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Dynamic network / adversary to run against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdversaryKind {
    /// Fresh seeded random connected graph every round.
    Churn,
    /// One seeded random connected graph, fixed.
    Static,
    /// A fixed star (the Theorem 1 static control).
    StaticStar,
    /// A fixed cycle (sparse static control).
    StaticCycle,
    /// Dynamic ring, re-embedded each round.
    Ring,
    /// Dynamic ring with one edge missing each round.
    BrokenRing,
    /// The Theorem 3 lower-bound adversary.
    StarPair,
    /// T-interval connected dynamics (window 4).
    TInterval,
    /// Oracle-guided progress-minimizing sampler.
    MinProgress,
    /// The Theorem 1 path-trap adversary.
    PathTrap,
    /// The Theorem 2 clique-trap adversary.
    CliqueTrap,
    /// Panics on its first round — the harness's own panic-isolation
    /// probe (a deliberately crashing job must not kill a campaign).
    PanicProbe,
}

impl AdversaryKind {
    /// All parseable names, for help texts.
    pub const NAMES: &'static str = "churn | static | static-star | static-cycle | ring | \
         broken-ring | star-pair | t-interval | min-progress | path-trap | clique-trap | \
         panic-probe";

    /// Parses a network name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "churn" => Ok(AdversaryKind::Churn),
            "static" => Ok(AdversaryKind::Static),
            "static-star" => Ok(AdversaryKind::StaticStar),
            "static-cycle" => Ok(AdversaryKind::StaticCycle),
            "ring" => Ok(AdversaryKind::Ring),
            "broken-ring" => Ok(AdversaryKind::BrokenRing),
            "star-pair" => Ok(AdversaryKind::StarPair),
            "t-interval" => Ok(AdversaryKind::TInterval),
            "min-progress" => Ok(AdversaryKind::MinProgress),
            "path-trap" => Ok(AdversaryKind::PathTrap),
            "clique-trap" => Ok(AdversaryKind::CliqueTrap),
            "panic-probe" => Ok(AdversaryKind::PanicProbe),
            other => Err(format!(
                "unknown network `{other}` (expected {})",
                Self::NAMES
            )),
        }
    }

    /// Stable name used in records and tables.
    pub fn name(self) -> &'static str {
        match self {
            AdversaryKind::Churn => "churn",
            AdversaryKind::Static => "static",
            AdversaryKind::StaticStar => "static-star",
            AdversaryKind::StaticCycle => "static-cycle",
            AdversaryKind::Ring => "ring",
            AdversaryKind::BrokenRing => "broken-ring",
            AdversaryKind::StarPair => "star-pair",
            AdversaryKind::TInterval => "t-interval",
            AdversaryKind::MinProgress => "min-progress",
            AdversaryKind::PathTrap => "path-trap",
            AdversaryKind::CliqueTrap => "clique-trap",
            AdversaryKind::PanicProbe => "panic-probe",
        }
    }
}

impl fmt::Display for AdversaryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Initial robot placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// All `k` robots on node 0.
    Rooted,
    /// Seeded arbitrary placement with one guaranteed multiplicity.
    Scattered,
    /// `k − 1` nodes singly occupied plus one multiplicity — the
    /// impossibility proofs' starting configuration.
    NearDispersed,
}

impl Placement {
    /// Parses a placement name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "rooted" => Ok(Placement::Rooted),
            "scattered" => Ok(Placement::Scattered),
            "near-dispersed" => Ok(Placement::NearDispersed),
            other => Err(format!(
                "unknown placement `{other}` (expected rooted | scattered | near-dispersed)"
            )),
        }
    }

    /// Stable name used in records.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Rooted => "rooted",
            Placement::Scattered => "scattered",
            Placement::NearDispersed => "near-dispersed",
        }
    }
}

/// How the node count `n` is derived from each `k` in the grid:
/// `n = k·num/den + add` (integer arithmetic), or a fixed `n` when
/// `num == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NRule {
    /// Multiplier numerator (0 ⇒ fixed n).
    pub num: usize,
    /// Multiplier denominator (≥ 1).
    pub den: usize,
    /// Additive term.
    pub add: usize,
}

impl NRule {
    /// `n = k`.
    pub const K: NRule = NRule {
        num: 1,
        den: 1,
        add: 0,
    };

    /// `n = k + add`.
    pub const fn k_plus(add: usize) -> Self {
        NRule {
            num: 1,
            den: 1,
            add,
        }
    }

    /// `n = 3k/2` — the sweep-standard headroom.
    pub const THREE_HALVES: NRule = NRule {
        num: 3,
        den: 2,
        add: 0,
    };

    /// Applies the rule.
    pub fn n_for(&self, k: usize) -> usize {
        k * self.num / self.den + self.add
    }

    /// Parses `"k"`, `"k+5"`, `"3k/2"`, `"3k/2+1"`, or a literal like
    /// `"24"` (fixed n).
    pub fn parse(s: &str) -> Result<Self, String> {
        let err = || format!("bad n-rule `{s}` (expected e.g. `k+5`, `3k/2`, or `24`)");
        if let Ok(fixed) = s.parse::<usize>() {
            return Ok(NRule {
                num: 0,
                den: 1,
                add: fixed,
            });
        }
        let k_at = s.find('k').ok_or_else(err)?;
        let num = if k_at == 0 {
            1
        } else {
            s[..k_at].parse::<usize>().map_err(|_| err())?
        };
        let rest = &s[k_at + 1..];
        let (den, add_str) = match rest.strip_prefix('/') {
            Some(tail) => match tail.find('+') {
                Some(plus) => (
                    tail[..plus].parse::<usize>().map_err(|_| err())?,
                    Some(&tail[plus + 1..]),
                ),
                None => (tail.parse::<usize>().map_err(|_| err())?, None),
            },
            None => (1, rest.strip_prefix('+')),
        };
        if den == 0 {
            return Err(err());
        }
        let add = match add_str {
            Some("") | None if rest.is_empty() || rest.starts_with('/') => 0,
            Some(a) => a.parse::<usize>().map_err(|_| err())?,
            None => return Err(err()),
        };
        Ok(NRule { num, den, add })
    }
}

impl fmt::Display for NRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.num == 0 {
            return write!(f, "{}", self.add);
        }
        if self.num != 1 {
            write!(f, "{}", self.num)?;
        }
        f.write_str("k")?;
        if self.den != 1 {
            write!(f, "/{}", self.den)?;
        }
        if self.add != 0 {
            write!(f, "+{}", self.add)?;
        }
        Ok(())
    }
}

/// A declarative description of one experiment campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign (and artifact file) name.
    pub name: String,
    /// Algorithm axis.
    pub algorithms: Vec<AlgorithmKind>,
    /// Adversary axis.
    pub adversaries: Vec<AdversaryKind>,
    /// Robot-count axis.
    pub ks: Vec<usize>,
    /// Node count derived from each k.
    pub n_rule: NRule,
    /// Crash-fault axis (f values; 0 = fault-free).
    pub faults: Vec<usize>,
    /// Seed indices per cell (`0..seeds`).
    pub seeds: u64,
    /// Root seed every job seed derives from.
    pub campaign_seed: u64,
    /// Initial placement for every job.
    pub placement: Placement,
    /// Per-run round cap.
    pub max_rounds: u64,
    /// Edge probability for the randomized networks (churn, static,
    /// t-interval, min-progress).
    pub edge_prob: f64,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".into(),
            algorithms: vec![AlgorithmKind::Alg4],
            adversaries: vec![AdversaryKind::Churn],
            ks: vec![4, 8, 16],
            n_rule: NRule::THREE_HALVES,
            faults: vec![0],
            seeds: 5,
            campaign_seed: 7,
            placement: Placement::Scattered,
            max_rounds: 100_000,
            edge_prob: 0.1,
        }
    }
}

impl CampaignSpec {
    /// Checks the spec is a runnable, non-empty grid.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.contains(['/', '\\']) {
            return Err("campaign name must be a non-empty file stem".into());
        }
        if self.algorithms.is_empty()
            || self.adversaries.is_empty()
            || self.ks.is_empty()
            || self.faults.is_empty()
            || self.seeds == 0
        {
            return Err("campaign grid has an empty axis".into());
        }
        for &k in &self.ks {
            if k == 0 {
                return Err("k must be ≥ 1".into());
            }
            let n = self.n_rule.n_for(k);
            if n < k {
                return Err(format!("n-rule {} gives n={n} < k={k}", self.n_rule));
            }
        }
        for &f in &self.faults {
            if self.ks.iter().any(|&k| f > k) {
                return Err(format!("faults {f} exceeds some k in the grid"));
            }
        }
        if !(0.0..=1.0).contains(&self.edge_prob) {
            return Err("edge-prob must be in [0, 1]".into());
        }
        Ok(())
    }

    /// A canonical text form of everything that affects job *content*
    /// (the name is excluded: renaming a campaign does not invalidate
    /// its artifact).
    pub fn canonical(&self) -> String {
        let join = |it: &mut dyn Iterator<Item = String>| it.collect::<Vec<_>>().join(",");
        format!(
            "algs={};advs={};ks={};n={};faults={};seeds={};cseed={};placement={};max_rounds={};edge_prob={:.4}",
            join(&mut self.algorithms.iter().map(|a| a.name().to_string())),
            join(&mut self.adversaries.iter().map(|a| a.name().to_string())),
            join(&mut self.ks.iter().map(ToString::to_string)),
            self.n_rule,
            join(&mut self.faults.iter().map(ToString::to_string)),
            self.seeds,
            self.campaign_seed,
            self.placement.name(),
            self.max_rounds,
            self.edge_prob,
        )
    }

    /// FNV-1a hash of [`CampaignSpec::canonical`]; stamped into every
    /// record so artifacts can be matched to their spec.
    pub fn spec_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.canonical().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Total number of jobs in the grid.
    pub fn job_count(&self) -> u64 {
        (self.algorithms.len() * self.adversaries.len() * self.ks.len() * self.faults.len()) as u64
            * self.seeds
    }

    /// Expands the grid into jobs, in deterministic order: algorithm ▸
    /// adversary ▸ k ▸ faults ▸ seed index, `job_id` numbering from 0.
    pub fn jobs(&self) -> Vec<crate::job::RunJob> {
        let mut jobs = Vec::with_capacity(self.job_count() as usize);
        for &algorithm in &self.algorithms {
            for &adversary in &self.adversaries {
                for &k in &self.ks {
                    for &faults in &self.faults {
                        for seed_index in 0..self.seeds {
                            let job_id = jobs.len() as u64;
                            jobs.push(crate::job::RunJob {
                                job_id,
                                algorithm,
                                adversary,
                                n: self.n_rule.n_for(k),
                                k,
                                faults,
                                seed_index,
                                derived_seed: derive_seed(self.campaign_seed, job_id),
                            });
                        }
                    }
                }
            }
        }
        jobs
    }
}

/// Derives a job's RNG seed from `(campaign seed, job index)` — the
/// contract that makes `--jobs 1` and `--jobs N` byte-identical.
pub fn derive_seed(campaign_seed: u64, job_id: u64) -> u64 {
    let mut z = campaign_seed
        .wrapping_add(job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_rules_parse_and_apply() {
        assert_eq!(NRule::parse("k").unwrap().n_for(8), 8);
        assert_eq!(NRule::parse("k+5").unwrap().n_for(8), 13);
        assert_eq!(NRule::parse("3k/2").unwrap().n_for(8), 12);
        assert_eq!(NRule::parse("3k/2+1").unwrap().n_for(8), 13);
        assert_eq!(NRule::parse("24").unwrap().n_for(8), 24);
        assert_eq!(NRule::parse("2k").unwrap().n_for(8), 16);
        for bad in ["", "k+", "k/0", "3q/2", "k+x"] {
            assert!(NRule::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn n_rules_render_round_trip() {
        for s in ["k", "k+5", "3k/2", "3k/2+1", "24", "2k"] {
            let rule = NRule::parse(s).unwrap();
            assert_eq!(rule.to_string(), s);
            assert_eq!(NRule::parse(&rule.to_string()).unwrap(), rule);
        }
    }

    #[test]
    fn expansion_is_deterministic_and_dense() {
        let spec = CampaignSpec {
            algorithms: vec![AlgorithmKind::Alg4, AlgorithmKind::LocalDfs],
            adversaries: vec![AdversaryKind::Churn, AdversaryKind::StarPair],
            ks: vec![4, 8],
            faults: vec![0, 1],
            seeds: 3,
            ..CampaignSpec::default()
        };
        let jobs = spec.jobs();
        assert_eq!(jobs.len() as u64, spec.job_count());
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2 * 3);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(job.job_id, i as u64);
            assert_eq!(
                job.derived_seed,
                derive_seed(spec.campaign_seed, job.job_id)
            );
        }
        assert_eq!(jobs, spec.jobs(), "expansion must be reproducible");
    }

    #[test]
    fn seeds_differ_across_jobs_and_campaigns() {
        let a: Vec<u64> = (0..100).map(|j| derive_seed(7, j)).collect();
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn hash_ignores_name_but_not_grid() {
        let a = CampaignSpec::default();
        let mut b = CampaignSpec {
            name: "other".into(),
            ..a.clone()
        };
        assert_eq!(a.spec_hash(), b.spec_hash());
        b.ks.push(32);
        assert_ne!(a.spec_hash(), b.spec_hash());
    }

    #[test]
    fn validation_catches_bad_grids() {
        assert!(CampaignSpec::default().validate().is_ok());
        let empty = CampaignSpec {
            ks: vec![],
            ..CampaignSpec::default()
        };
        assert!(empty.validate().is_err());
        let tight = CampaignSpec {
            n_rule: NRule {
                num: 1,
                den: 2,
                add: 0,
            },
            ..CampaignSpec::default()
        };
        assert!(tight.validate().is_err(), "n = k/2 < k must be rejected");
        let faulty = CampaignSpec {
            faults: vec![99],
            ..CampaignSpec::default()
        };
        assert!(faulty.validate().is_err());
        let bad_name = CampaignSpec {
            name: "a/b".into(),
            ..CampaignSpec::default()
        };
        assert!(bad_name.validate().is_err());
    }

    #[test]
    fn parsers_cover_every_kind() {
        for kind in [
            AlgorithmKind::Alg4,
            AlgorithmKind::LocalDfs,
            AlgorithmKind::RandomWalk,
            AlgorithmKind::GreedyLocal,
            AlgorithmKind::BlindGlobal,
        ] {
            assert_eq!(AlgorithmKind::parse(kind.name()).unwrap(), kind);
        }
        for kind in [
            AdversaryKind::Churn,
            AdversaryKind::Static,
            AdversaryKind::StaticStar,
            AdversaryKind::StaticCycle,
            AdversaryKind::Ring,
            AdversaryKind::BrokenRing,
            AdversaryKind::StarPair,
            AdversaryKind::TInterval,
            AdversaryKind::MinProgress,
            AdversaryKind::PathTrap,
            AdversaryKind::CliqueTrap,
            AdversaryKind::PanicProbe,
        ] {
            assert_eq!(AdversaryKind::parse(kind.name()).unwrap(), kind);
        }
        assert!(AlgorithmKind::parse("mesh").is_err());
        assert!(AdversaryKind::parse("mesh").is_err());
        assert!(Placement::parse("sideways").is_err());
    }
}
