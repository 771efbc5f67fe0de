//! The answer check: every personalize solution the server returned is
//! compared bit-for-bit with an in-process `CqpSystem::personalize` over
//! the same database, profile version, query, problem and algorithm.

use crate::client::Sample;
use crate::workload::{Op, Plan, Read};
use cqp_core::prelude::{CqpSystem, ProblemSpec, Solution, SolverConfig};
use cqp_obs::Json;
use cqp_prefs::Profile;
use cqp_server::{SessionStore, UpsertMode};
use cqp_storage::Database;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The compared fields of one solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Selected preferences (P-indices).
    pub prefs: Vec<u64>,
    /// `doi` bits.
    pub doi_bits: u64,
    /// Estimated cost, blocks.
    pub cost_blocks: u64,
    /// `size_rows` bits.
    pub size_rows_bits: u64,
    /// Whether a personalization was found.
    pub found: bool,
}

impl Answer {
    /// The fields of an in-process solution.
    pub fn of(solution: &Solution) -> Answer {
        Answer {
            prefs: solution.prefs.iter().map(|&p| p as u64).collect(),
            doi_bits: solution.doi.value().to_bits(),
            cost_blocks: solution.cost_blocks,
            size_rows_bits: solution.size_rows.to_bits(),
            found: solution.found,
        }
    }
}

/// A parsed `200` personalize response.
#[derive(Debug, Clone)]
pub struct Served {
    /// The profile version the answer was computed at.
    pub version: u64,
    /// The solution.
    pub answer: Answer,
    /// True when the solution was budget-degraded.
    pub degraded: bool,
    /// The answer-cache tier that served it.
    pub tier: String,
}

/// Parses a personalize response body.
pub fn parse_read(body: &[u8]) -> Option<Served> {
    let json = cqp_server::json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let sol = json.get("solution")?;
    Some(Served {
        version: json.get("profile_version")?.as_u64()?,
        answer: Answer {
            prefs: sol
                .get("prefs")?
                .as_array()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()?,
            doi_bits: sol.get("doi")?.as_f64()?.to_bits(),
            cost_blocks: sol.get("cost_blocks")?.as_u64()?,
            size_rows_bits: sol.get("size_rows")?.as_f64()?.to_bits(),
            found: sol.get("found")?.as_bool()?,
        },
        degraded: !matches!(sol.get("degraded"), Some(Json::Null)),
        tier: json.get("cache")?.as_str()?.to_string(),
    })
}

/// The version a profile write response reports.
pub fn parse_write(body: &[u8]) -> Option<u64> {
    let json = cqp_server::json::parse(std::str::from_utf8(body).ok()?).ok()?;
    json.get("version")?.as_u64()
}

/// Every profile each user had, by `(user, version)`, rebuilt by applying
/// the acknowledged writes in version order through an in-process
/// session store (so merges combine exactly as the server's do).
pub fn profile_history<'s>(
    plan: &Plan,
    db: &Database,
    samples: impl Iterator<Item = &'s Sample>,
) -> Result<HashMap<(usize, u64), Profile>, String> {
    let mut writes: BTreeMap<(usize, u64), (&str, bool)> = BTreeMap::new();
    for s in samples.filter(|s| s.status == 200) {
        if let Op::Write(w) = &s.op {
            let version = parse_write(&s.body).ok_or("unparsable write response")?;
            if writes
                .insert((w.user, version), (&w.text, w.merge))
                .is_some()
            {
                return Err(format!(
                    "two writes acked as {} v{version}",
                    plan.users[w.user]
                ));
            }
        }
    }
    let store = SessionStore::new(1);
    let mut out = HashMap::new();
    for (&(user, version), &(text, merge)) in &writes {
        let name = &plan.users[user];
        let mode = if merge {
            UpsertMode::Merge
        } else {
            UpsertMode::Replace
        };
        let (applied, _) = store
            .upsert_text(name, text, db.catalog(), mode)
            .map_err(|e| format!("{name}: {e}"))?;
        if applied != version {
            return Err(format!(
                "{name}: acked versions are not contiguous at v{version}"
            ));
        }
        out.insert(
            (user, version),
            store.get(name).expect("just written").profile,
        );
    }
    Ok(out)
}

/// What the answer check found over one window.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Reads answered 200.
    pub reads_ok: u64,
    /// Writes answered 200.
    pub writes_ok: u64,
    /// Non-200 responses.
    pub non_ok: u64,
    /// Socket-level failures.
    pub socket_errors: u64,
    /// 200s with a degraded solution.
    pub degraded: u64,
    /// 200s that disagree with the in-process reference (or do not parse).
    pub wrong: u64,
    /// Distinct (user, version, query, problem, algorithm) solves checked.
    pub distinct_checked: usize,
    /// Reads per answer-cache tier, as the responses report it.
    pub tiers: BTreeMap<String, u64>,
}

impl Verdict {
    /// Failed operations: non-200, socket error, degraded, or wrong.
    pub fn failed(&self) -> u64 {
        self.non_ok + self.socket_errors + self.degraded + self.wrong
    }
}

/// Checks every operation of `window`; `setup` holds what the deployment
/// saw before it (uploads, warm-up), so profile versions can be rebuilt.
pub fn check(
    db: &Database,
    plan: &Plan,
    setup: &[Sample],
    window: &[Sample],
) -> Result<Verdict, String> {
    let profiles = profile_history(plan, db, setup.iter().chain(window))?;
    let mut v = Verdict::default();
    // Identical bodies share one allocation: parse each once.
    let mut parsed: HashMap<*const Vec<u8>, Option<Served>> = HashMap::new();
    for s in window.iter().filter(|s| s.status == 200 && s.is_read()) {
        parsed
            .entry(Arc::as_ptr(&s.body))
            .or_insert_with(|| parse_read(&s.body));
    }
    let mut served = Vec::new();
    for s in window {
        match s.status {
            0 => v.socket_errors += 1,
            200 => {}
            _ => v.non_ok += 1,
        }
        if s.status != 200 {
            continue;
        }
        let Op::Read(r) = &s.op else {
            v.writes_ok += 1;
            continue;
        };
        v.reads_ok += 1;
        match &parsed[&Arc::as_ptr(&s.body)] {
            None => v.wrong += 1,
            Some(got) => {
                *v.tiers.entry(got.tier.clone()).or_default() += 1;
                if got.degraded {
                    v.degraded += 1;
                    continue;
                }
                let key = (
                    r.user,
                    got.version,
                    r.template,
                    r.algorithm.wire_name(),
                    r.cmax,
                );
                served.push((key, r, &got.answer));
            }
        }
    }
    let mut jobs: Vec<(JobKey, &Read)> = served.iter().map(|(key, r, _)| (*key, *r)).collect();
    jobs.sort_by_key(|(key, _)| *key);
    jobs.dedup_by_key(|(key, _)| *key);
    v.distinct_checked = jobs.len();
    let wanted: HashMap<JobKey, Answer> = reference_answers(db, plan, &profiles, &jobs)?
        .into_iter()
        .collect();
    v.wrong += served
        .iter()
        .filter(|(key, _, got)| wanted.get(key) != Some(*got))
        .count() as u64;
    Ok(v)
}

type JobKey = (usize, u64, usize, &'static str, u64);

/// Runs the in-process reference for each job on all cores.
fn reference_answers(
    db: &Database,
    plan: &Plan,
    profiles: &HashMap<(usize, u64), Profile>,
    jobs: &[(JobKey, &Read)],
) -> Result<Vec<(JobKey, Answer)>, String> {
    let system = CqpSystem::new(db);
    let queries: Vec<_> = plan
        .templates
        .iter()
        .map(|sql| cqp_engine::parse_query(sql, db.catalog()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = jobs.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .chunks(chunk)
            .map(|part| {
                let (system, queries) = (&system, &queries);
                s.spawn(move || {
                    part.iter()
                        .map(|(key, r)| {
                            let profile = profiles.get(&(r.user, key.1)).ok_or_else(|| {
                                format!("no profile {} v{}", plan.users[r.user], key.1)
                            })?;
                            let config = SolverConfig {
                                algorithm: r.algorithm,
                                ..Default::default()
                            };
                            let out = system
                                .personalize(
                                    &queries[r.template],
                                    profile,
                                    &ProblemSpec::p2(r.cmax),
                                    &config,
                                )
                                .map_err(|e| e.to_string())?;
                            Ok((*key, Answer::of(&out.solution)))
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut out = Vec::new();
        for h in handles {
            out.extend(h.join().expect("reference worker")?);
        }
        Ok(out)
    })
}
