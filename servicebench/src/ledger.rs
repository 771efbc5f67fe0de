//! The per-layer ledger: an in-process replay of a workload's exact
//! request sequence that times the benchmark's own call into each layer's
//! public function, in the order the server's personalize and profile
//! handlers make them.
//!
//! Consecutive laps cover the whole replay of an operation, so the layer
//! times add up to the replay's time. The search runs through the
//! `CqpSystem` facade without the server's shared submit cost cache
//! (cached costs are exact, so answers are identical); the cost cache's
//! effect is read from the server's `/metrics` instead. Phase times of
//! C-BOUNDARIES come from the `find_boundaries` / `find_max_doi` spans the
//! search already opens, captured by a [`Recorder`] the benchmark passes in.

use crate::check::Answer;
use cqp_core::construct::construct;
use cqp_core::prelude::Algorithm;
use cqp_core::prelude::{
    AnswerCache, CachedAnswer, CqpSystem, FamilyKey, Lookup, ProblemSpec, SolverConfig, VariantKey,
};
use cqp_obs::{Json, Recorder};
use cqp_server::http::{RequestParser, Response};
use cqp_server::{AdmissionController, Permit, SessionStore, UpsertMode};
use cqp_storage::{Database, IoMeter};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Accumulated layer times and counts over the replayed operations.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations replayed.
    pub ops: u64,
    /// Layer → total time. The layers partition each operation's replay.
    pub time: BTreeMap<&'static str, Duration>,
    /// Sub-layer spans (search phases) → total time; not part of `time`'s sum.
    pub phases: BTreeMap<&'static str, Duration>,
    /// Algorithm wire name → (searches, states examined).
    pub states: BTreeMap<&'static str, (u64, u64)>,
    /// C-BOUNDARIES boundaries found, summed.
    pub boundaries: u64,
    /// Preference spaces built (fresh or repaired) and their summed K.
    pub spaces: (u64, u64),
}

impl Ledger {
    /// Summed layer time.
    pub fn total(&self) -> Duration {
        self.time.values().sum()
    }

    /// Time in the search layers.
    pub fn search(&self) -> Duration {
        self.time
            .iter()
            .filter(|(k, _)| k.starts_with("search."))
            .map(|(_, v)| *v)
            .sum()
    }
}

/// Charges elapsed time to layers, one lap at a time.
struct Laps<'l> {
    ledger: &'l mut Ledger,
    t: Instant,
}

impl Laps<'_> {
    fn lap(&mut self, layer: &'static str) {
        let now = Instant::now();
        *self.ledger.time.entry(layer).or_default() += now - self.t;
        self.t = now;
    }
}

/// Captures the durations of the spans a search opens.
#[derive(Default)]
struct PhaseClock(Mutex<PhaseSpans>);

#[derive(Default)]
struct PhaseSpans {
    open: Vec<(&'static str, Instant)>,
    done: Vec<(&'static str, Duration)>,
}

impl Recorder for PhaseClock {
    fn span_enter(&self, name: &'static str) {
        let mut spans = self.0.lock().expect("span bookkeeping never panics");
        spans.open.push((name, Instant::now()));
    }

    fn span_exit(&self) {
        let mut spans = self.0.lock().expect("span bookkeeping never panics");
        if let Some((name, t)) = spans.open.pop() {
            spans.done.push((name, t.elapsed()));
        }
    }
}

/// What replaying one operation produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Replayed {
    /// A personalize answer at a profile version.
    Read {
        /// Profile version read.
        version: u64,
        /// The answer-cache tier that served it.
        tier: &'static str,
        /// The solution's compared fields.
        answer: Answer,
    },
    /// A profile write at a version.
    Write(u64),
}

/// The server's layers, instantiated in-process with serverd's defaults.
pub struct Replayer<'a> {
    db: &'a Database,
    system: CqpSystem<'a>,
    store: SessionStore,
    cache: AnswerCache,
    gate: AdmissionController,
}

/// Search-layer name of each algorithm the workloads use.
fn search_layer(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::CBoundaries => "search.c_boundaries",
        Algorithm::CMaxBounds => "search.c_maxbounds",
        Algorithm::DHeurDoi => "search.d_heurdoi",
        Algorithm::BranchBound => "search.branch_bound",
        _ => "search.other",
    }
}

fn bad(what: &str) -> String {
    format!("replay: {what}")
}

impl<'a> Replayer<'a> {
    /// Fresh layers over `db`; the session store journals to a WAL in
    /// `wal_dir` when given (as the write workload's primary does).
    pub fn new(db: &'a Database, wal_dir: Option<&Path>) -> Result<Replayer<'a>, String> {
        let defaults = cqp_server::ServerConfig::default();
        let store = match wal_dir {
            Some(dir) => {
                SessionStore::recover(defaults.store_shards, dir, db.catalog())
                    .map_err(|e| format!("replay WAL: {e}"))?
                    .0
            }
            None => SessionStore::new(defaults.store_shards),
        };
        Ok(Replayer {
            db,
            system: CqpSystem::new(db),
            store,
            cache: AnswerCache::with_capacity(defaults.answer_cache_capacity),
            gate: AdmissionController::new(
                defaults.max_inflight,
                defaults.queue_cap,
                defaults.retry_after_ms,
            ),
        })
    }

    /// Replays one HTTP request, charging its layers to `ledger`.
    pub fn apply(&self, wire: &[u8], ledger: &mut Ledger) -> Result<Replayed, String> {
        ledger.ops += 1;
        let mut laps = Laps {
            ledger,
            t: Instant::now(),
        };
        let mut parser = RequestParser::new();
        parser.feed(wire);
        let req = parser
            .try_next()
            .map_err(|e| bad(&e.to_string()))?
            .ok_or_else(|| bad("incomplete request"))?;
        laps.lap("http.parse");
        match req.segments().as_slice() {
            ["personalize"] => self.personalize(&req.body, laps),
            ["profiles", user] => self.write(user, &req, laps),
            _ => Err(bad("unexpected path")),
        }
    }

    fn write(
        &self,
        user: &str,
        req: &cqp_server::http::Request,
        mut laps: Laps<'_>,
    ) -> Result<Replayed, String> {
        let text = std::str::from_utf8(&req.body).map_err(|_| bad("utf-8"))?;
        let mode = if req.query_param("merge") == Some("true") {
            UpsertMode::Merge
        } else {
            UpsertMode::Replace
        };
        let (version, prefs) = self
            .store
            .upsert_text(user, text, self.db.catalog(), mode)
            .map_err(|e| bad(&e.to_string()))?;
        laps.lap("session.put");
        self.cache.invalidate_profile(user, version);
        laps.lap("answer_cache.invalidate");
        let body = Json::obj(vec![
            ("user", Json::from(user)),
            ("version", Json::from(version)),
            ("preferences", Json::from(prefs as u64)),
            ("epoch", Json::from(0u64)),
        ]);
        Response::json(200, &body)
            .write_to(&mut Vec::new(), true)
            .map_err(|e| bad(&e.to_string()))?;
        laps.lap("http.render");
        Ok(Replayed::Write(version))
    }

    fn personalize(&self, body: &[u8], mut laps: Laps<'_>) -> Result<Replayed, String> {
        let json = cqp_server::json::parse(std::str::from_utf8(body).map_err(|_| bad("utf-8"))?)
            .map_err(|e| bad(&e.to_string()))?;
        let field = |k: &str| json.get(k).ok_or_else(|| bad(k));
        let user = field("user")?.as_str().ok_or_else(|| bad("user"))?;
        let sql = field("sql")?.as_str().ok_or_else(|| bad("sql"))?;
        let cmax = field("problem")?
            .get("cmax")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("cmax"))?;
        let algorithm = field("algorithm")?
            .as_str()
            .and_then(Algorithm::by_name)
            .ok_or_else(|| bad("algorithm"))?;
        let want_rows = json.get("rows").and_then(Json::as_bool).unwrap_or(false);
        laps.lap("json.parse");

        let query =
            cqp_engine::parse_query(sql, self.db.catalog()).map_err(|e| bad(&e.to_string()))?;
        let template_hash = cqp_server::template_hash(sql, &query);
        laps.lap("engine.parse");
        let stored = self
            .store
            .select(user, None)
            .ok_or_else(|| bad("unknown user"))?;
        laps.lap("session.select");
        let permit = self
            .gate
            .admit(Duration::from_secs(1))
            .map_err(|_| bad("admission"))?;
        laps.lap("admission.admit");

        let config = SolverConfig {
            algorithm,
            ..Default::default()
        };
        let problem = ProblemSpec::p2(cmax);
        let key = FamilyKey::new(template_hash, user, &config);
        let variant = VariantKey::of(&problem);
        let lookup = self.cache.lookup(&key, stored.version, &variant, &problem);
        laps.lap("answer_cache.lookup");
        let tier = lookup.tier();

        let (space, seed) = match lookup {
            Lookup::Exact(hit) => {
                return self.finish(
                    user,
                    stored.version,
                    algorithm,
                    tier,
                    &hit,
                    want_rows,
                    permit,
                    laps,
                );
            }
            Lookup::Warm { space, seed } => (space, seed),
            Lookup::Repair { space, .. } => {
                let delta =
                    self.system
                        .preference_space_delta(&query, &stored.profile, &config, &space);
                laps.lap("prefspace.extract_delta");
                (delta.space, None)
            }
            Lookup::Miss => {
                let space = self
                    .system
                    .preference_space(&query, &stored.profile, &config);
                laps.lap("prefspace.extract");
                (space, None)
            }
        };
        laps.ledger.spaces.0 += 1;
        laps.ledger.spaces.1 += space.k() as u64;

        let clock = PhaseClock::default();
        let solution = self
            .system
            .search_warm_recorded(&space, &problem, &config, seed, &clock);
        laps.lap(search_layer(algorithm));
        let counts = laps.ledger.states.entry(algorithm.wire_name()).or_default();
        counts.0 += 1;
        counts.1 += solution.instrument.states_examined;
        if algorithm == Algorithm::CBoundaries {
            laps.ledger.boundaries += solution.instrument.boundaries_found;
            let spans = clock.0.into_inner().expect("span bookkeeping never panics");
            for (name, d) in spans.done {
                let phase = match name {
                    "find_boundaries" => "search.c_boundaries.find_boundaries",
                    "find_max_doi" => "search.c_boundaries.find_max_doi",
                    _ => continue,
                };
                *laps.ledger.phases.entry(phase).or_default() += d;
            }
        }

        let pq = construct(&query, &space, &solution.prefs).map_err(|e| bad(&e.to_string()))?;
        let personalized = cqp_engine::sql::personalized_sql(self.db.catalog(), &pq);
        let pref_dois = solution
            .prefs
            .iter()
            .map(|&i| space.doi(i).value())
            .collect();
        laps.lap("construct");
        let item = CachedAnswer {
            solution,
            query: pq,
            sql: personalized,
            pref_dois,
            space_k: space.k(),
        };
        self.cache
            .insert(&key, stored.version, variant, &space, item.clone());
        laps.lap("answer_cache.insert");
        self.finish(
            user,
            stored.version,
            algorithm,
            tier,
            &item,
            want_rows,
            permit,
            laps,
        )
    }

    /// Materializes rows when asked, releases the admission permit, and
    /// renders and serializes the response — for every tier alike, as the
    /// server does.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        user: &str,
        version: u64,
        algorithm: Algorithm,
        tier: &'static str,
        item: &CachedAnswer,
        want_rows: bool,
        permit: Permit<'_>,
        mut laps: Laps<'_>,
    ) -> Result<Replayed, String> {
        let rows = if want_rows {
            let out = cqp_engine::execute_personalized(self.db, &item.query, &IoMeter::new(0.0))
                .map_err(|e| bad(&e.to_string()))?;
            laps.lap("engine.execute");
            Some(out.rows)
        } else {
            None
        };
        drop(permit);
        let s = &item.solution;
        let mut members = vec![
            ("user", Json::from(user)),
            ("profile_version", Json::from(version)),
            ("problem", Json::from("p2")),
            ("algorithm", Json::from(algorithm.name())),
            ("space_k", Json::from(item.space_k as u64)),
            (
                "solution",
                Json::obj(vec![
                    (
                        "prefs",
                        Json::Arr(s.prefs.iter().map(|&p| Json::from(p as u64)).collect()),
                    ),
                    ("doi", Json::from(s.doi.value())),
                    ("cost_blocks", Json::from(s.cost_blocks)),
                    ("size_rows", Json::from(s.size_rows)),
                    ("found", Json::Bool(s.found)),
                    ("degraded", Json::Null),
                ]),
            ),
            (
                "pref_dois",
                Json::Arr(item.pref_dois.iter().map(|&d| Json::from(d)).collect()),
            ),
            ("sql", Json::from(item.sql.as_str())),
            ("cache", Json::from(tier)),
            ("latency_us", Json::from(0u64)),
        ];
        if let Some(rows) = rows {
            members.push((
                "rows",
                Json::Arr(
                    rows.iter()
                        .map(|r| Json::Arr(r.iter().map(|v| Json::from(v.to_string())).collect()))
                        .collect(),
                ),
            ));
        }
        Response::json(200, &Json::obj(members))
            .write_to(&mut Vec::new(), true)
            .map_err(|e| bad(&e.to_string()))?;
        laps.lap("http.render");
        Ok(Replayed::Read {
            version,
            tier,
            answer: Answer::of(&item.solution),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{parse_read, parse_write};
    use crate::workload::{Plan, Workload, SERVERD_DB_SEED};
    use std::sync::Arc;

    /// Sends a short seeded sequence of each workload to an in-process
    /// server with serverd's defaults over one connection, replays it, and
    /// requires the replay to reproduce every answer, version and tier.
    #[test]
    fn replay_returns_the_servers_answers() {
        let db = Arc::new(cqp_datagen::generate_movie_db(
            &cqp_datagen::MovieDbConfig::tiny(SERVERD_DB_SEED),
        ));
        for workload in [Workload::HotReads, Workload::ColdSolves, Workload::WriteMix] {
            let plan = Plan::new(workload, 5, &db);
            let server =
                cqp_server::start(Arc::clone(&db), cqp_server::ServerConfig::default()).unwrap();
            let mut ops = plan.uploads();
            ops.extend(plan.warmup(1).into_iter().take(40));
            ops.extend((0..12).map(|i| plan.op(0, i)));
            let load = crate::client::Load {
                conns: 1,
                spin: true,
            };
            let samples =
                crate::client::run_fixed(server.addr(), load, &plan, &ops, Instant::now());
            let replayer = Replayer::new(&db, None).unwrap();
            let mut ledger = Ledger::default();
            for s in &samples {
                assert_eq!(
                    s.status,
                    200,
                    "{workload:?}: {}",
                    String::from_utf8_lossy(&s.body)
                );
                match replayer.apply(&plan.request(&s.op), &mut ledger).unwrap() {
                    Replayed::Read {
                        version,
                        tier,
                        answer,
                    } => {
                        let served = parse_read(&s.body).unwrap();
                        assert_eq!(
                            (version, tier),
                            (served.version, served.tier.as_str()),
                            "{workload:?}"
                        );
                        assert_eq!(answer, served.answer, "{workload:?}");
                    }
                    Replayed::Write(version) => assert_eq!(Some(version), parse_write(&s.body)),
                }
            }
            assert_eq!(ledger.ops, samples.len() as u64);
            let total = ledger.total();
            assert!(total > Duration::ZERO && ledger.time.values().all(|t| *t <= total));
        }
    }
}
