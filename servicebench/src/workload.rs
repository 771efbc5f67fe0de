//! Seeded workload generation.
//!
//! Every input the server sees — profiles, query templates, and each
//! operation of each client stream — is a pure function of the workload,
//! the `--seed`, and the operation's `(stream, index)` coordinates, so one
//! seed always yields byte-identical requests.

use cqp_core::prelude::{Algorithm, CqpSystem, SolverConfig};
use cqp_datagen::movies::GENRES;
use cqp_datagen::{
    generate_movie_profile, generate_movie_queries, ProfileGenConfig, QueryGenConfig,
};
use cqp_obs::Json;
use cqp_storage::Database;
use rand::{splitmix64, splitmix64_mix};

/// `serverd`'s default `--seed`: the benchmark never sets it, so the
/// server's database is `MovieDbConfig::tiny(SERVERD_DB_SEED)`.
pub const SERVERD_DB_SEED: u64 = 7;

/// Stream ids at or above this are warm-up streams.
pub const WARMUP_STREAM: u64 = 1_000;

/// Algorithms `cold_solves` rotates through.
pub const COLD_ALGORITHMS: [Algorithm; 4] = [
    Algorithm::CBoundaries,
    Algorithm::CMaxBounds,
    Algorithm::DHeurDoi,
    Algorithm::BranchBound,
];

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of Zipf-skewed reads over a small key set: the answer
    /// cache's exact tier serves nearly everything.
    HotReads,
    /// Closed loop of reads over many full-depth profiles at varied
    /// budgets and algorithms: the search dominates.
    ColdSolves,
    /// Open loop of skewed reads plus profile merges against a WAL-backed
    /// primary with a synchronous follower.
    WriteMix,
}

impl Workload {
    /// Parses the command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot_reads" => Some(Workload::HotReads),
            "cold_solves" => Some(Workload::ColdSolves),
            "write_mix" => Some(Workload::WriteMix),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotReads => "hot_reads",
            Workload::ColdSolves => "cold_solves",
            Workload::WriteMix => "write_mix",
        }
    }
}

/// One personalize request.
#[derive(Debug, Clone, PartialEq)]
pub struct Read {
    /// Index into [`Plan::users`].
    pub user: usize,
    /// Index into [`Plan::templates`].
    pub template: usize,
    /// Search algorithm.
    pub algorithm: Algorithm,
    /// Problem 2 cost bound, blocks.
    pub cmax: u64,
    /// Whether the response carries the result rows.
    pub rows: bool,
}

/// One profile write: a replace (upload) or a merge.
#[derive(Debug, Clone, PartialEq)]
pub struct Write {
    /// Index into [`Plan::users`].
    pub user: usize,
    /// `# cqp-profile v1` wire text.
    pub text: String,
    /// `?merge=true` when set; a replacing upload otherwise.
    pub merge: bool,
}

/// One operation a client sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST /personalize`.
    Read(Read),
    /// `POST /profiles/{user}`.
    Write(Write),
}

/// Everything a workload sends, derived from `(workload, seed)`.
#[derive(Debug)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The `--seed`.
    pub seed: u64,
    /// User ids.
    pub users: Vec<String>,
    /// Initial profile of each user, in wire format.
    pub profiles: Vec<String>,
    /// SQL templates.
    pub templates: Vec<String>,
    /// `cold_solves`: Supreme Cost of each (user, template) space,
    /// row-major by user.
    supreme: Vec<u64>,
    /// Cumulative Zipf weights over the read keys (empty = uniform).
    zipf_cdf: Vec<f64>,
    /// Seeded rank → key permutation under `zipf_cdf`.
    zipf_keys: Vec<usize>,
}

/// Zipf skew of the hot workloads.
const ZIPF_THETA: f64 = 1.2;
/// Fixed cost bound of the hot workloads' reads, blocks (about a third of
/// the Supreme Cost of their profiles on serverd's database).
const HOT_CMAX: u64 = 200;
/// `write_mix`: one operation in this many merges into a profile.
const WRITE_EVERY: u64 = 5;
/// `cold_solves`: budgets span this share of Supreme Cost.
const COLD_BUDGET_LO: f64 = 0.10;
const COLD_BUDGET_SPAN: f64 = 0.25;
/// `cold_solves`: one request in this many sets `rows: true`.
const COLD_ROWS_EVERY: u64 = 25;

fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

fn sub_seed(seed: u64, salt: u64) -> u64 {
    splitmix64_mix(seed ^ splitmix64_mix(salt))
}

impl Plan {
    /// Builds the workload's inputs over serverd's database `db`.
    pub fn new(workload: Workload, seed: u64, db: &Database) -> Plan {
        let catalog = db.catalog();
        let (prefix, n_users, n_templates) = match workload {
            Workload::HotReads => ("hot", 32, 4),
            Workload::ColdSolves => ("cold", 300, 20),
            Workload::WriteMix => ("mix", 32, 4),
        };
        let users: Vec<String> = (0..n_users).map(|i| format!("{prefix}{i:03}")).collect();
        let profiles: Vec<cqp_prefs::Profile> = (0..n_users)
            .map(|i| {
                let pseed = sub_seed(seed, 0x5052_4f46 + i as u64);
                let cfg = match workload {
                    // Full-depth profiles: K = 20 related preferences.
                    Workload::ColdSolves => ProfileGenConfig {
                        genre_selections: 12,
                        director_selections: 15,
                        actor_selections: 15,
                        year_selections: 4,
                        doi_mean: 0.35 + 0.5 * unit(pseed),
                        doi_deviation: 0.15 + 0.05 * (i % 4) as f64,
                        ..ProfileGenConfig::tiny(pseed)
                    },
                    _ => ProfileGenConfig::tiny(pseed),
                };
                generate_movie_profile(catalog, &cfg)
            })
            .collect();
        // Distinct SQL texts only: repeated templates would share
        // answer-cache families.
        let mut templates: Vec<String> = Vec::new();
        for q in generate_movie_queries(
            catalog,
            &QueryGenConfig {
                count: 8 * n_templates,
                seed: sub_seed(seed, 0x5445_4d50),
                ..Default::default()
            },
        ) {
            let sql = cqp_engine::sql::conjunctive_sql(catalog, &q);
            if templates.len() < n_templates && !templates.contains(&sql) {
                templates.push(sql);
            }
        }
        let supreme = match workload {
            Workload::ColdSolves => supreme_costs(db, &profiles, &templates),
            _ => Vec::new(),
        };
        let zipf_n = match workload {
            Workload::HotReads => n_users * n_templates,
            Workload::WriteMix => n_users,
            Workload::ColdSolves => 0,
        };
        let mut total = 0.0;
        let zipf_cdf: Vec<f64> = (0..zipf_n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(ZIPF_THETA);
                total
            })
            .collect();
        let mut zipf_keys: Vec<usize> = (0..zipf_n).collect();
        let mut state = sub_seed(seed, 0x5a49_5046);
        for i in (1..zipf_keys.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            zipf_keys.swap(i, j);
        }
        Plan {
            workload,
            seed,
            users,
            profiles: profiles
                .iter()
                .map(|p| cqp_prefs::to_text(p, catalog))
                .collect(),
            templates,
            supreme,
            zipf_cdf,
            zipf_keys,
        }
    }

    fn zipf(&self, r: u64) -> usize {
        let target = unit(r) * self.zipf_cdf.last().copied().unwrap_or(0.0);
        let rank = self.zipf_cdf.partition_point(|&c| c < target);
        self.zipf_keys[rank.min(self.zipf_keys.len() - 1)]
    }

    fn hot_read(&self, user: usize, template: usize) -> Op {
        Op::Read(Read {
            user,
            template,
            algorithm: Algorithm::CMaxBounds,
            cmax: HOT_CMAX,
            rows: false,
        })
    }

    /// Operation `index` of stream `stream`.
    pub fn op(&self, stream: u64, index: u64) -> Op {
        let mut op = self.draw(stream, index);
        // Warm-up solves stay at the cheap end of the budget range, so
        // set-up time does not depend on which budgets the seed drew.
        if let (Op::Read(r), Workload::ColdSolves, true) =
            (&mut op, self.workload, stream >= WARMUP_STREAM)
        {
            let supreme = self.supreme[r.user * self.templates.len() + r.template];
            r.cmax = (supreme as f64 * COLD_BUDGET_LO).round() as u64;
        }
        op
    }

    fn draw(&self, stream: u64, index: u64) -> Op {
        let mut state = sub_seed(self.seed, (stream << 40) ^ index);
        let mut draw = || splitmix64(&mut state);
        let t = self.templates.len();
        match self.workload {
            Workload::HotReads => {
                let key = self.zipf(draw());
                self.hot_read(key / t, key % t)
            }
            Workload::ColdSolves => {
                let user = (draw() % self.users.len() as u64) as usize;
                let template = (draw() % t as u64) as usize;
                // Stratified, not drawn: every stream cycles the algorithms
                // and walks the budget range by a golden-ratio step, so the
                // mix's shape is the same on every seed.
                let phase = unit(sub_seed(self.seed, 0x4255_4447 + stream));
                let frac = COLD_BUDGET_LO
                    + COLD_BUDGET_SPAN * (phase + index as f64 * 0.618_033_988_749_895).fract();
                let supreme = self.supreme[user * t + template];
                Op::Read(Read {
                    user,
                    template,
                    algorithm: COLD_ALGORITHMS[((index + stream) % 4) as usize],
                    cmax: (supreme as f64 * frac).round() as u64,
                    rows: (index + stream).is_multiple_of(COLD_ROWS_EVERY),
                })
            }
            Workload::WriteMix => {
                // Blocks of WRITE_EVERY operations: a merge into one user's
                // profile, users taken round robin from a seeded start; then
                // that user's reads under all but one template, which take
                // the repair tier; then one skewed read.
                let slot = index % WRITE_EVERY;
                let start = sub_seed(self.seed, 0x5752_4954 + stream);
                let user =
                    (start.wrapping_add(index / WRITE_EVERY) % self.users.len() as u64) as usize;
                let skipped = sub_seed(self.seed, (stream << 40) ^ (index - slot)) % t as u64;
                match slot {
                    0 => {
                        let genre = GENRES[(draw() % GENRES.len() as u64) as usize];
                        let doi = 5 + draw() % 90;
                        Op::Write(Write {
                            user,
                            text: format!(
                                "# cqp-profile v1\nprofile {}\nselect 0.{doi:02} GENRE.genre eq \"{genre}\"\n",
                                self.users[user]
                            ),
                            merge: true,
                        })
                    }
                    s if s < WRITE_EVERY - 1 => {
                        let template = (skipped + s) % t as u64;
                        self.hot_read(user, template as usize)
                    }
                    _ => {
                        let user = self.zipf(draw());
                        self.hot_read(user, (draw() % t as u64) as usize)
                    }
                }
            }
        }
    }

    /// The uploads that seed every user's initial profile.
    pub fn uploads(&self) -> Vec<Op> {
        (0..self.users.len())
            .map(|user| {
                Op::Write(Write {
                    user,
                    text: self.profiles[user].clone(),
                    merge: false,
                })
            })
            .collect()
    }

    /// Warm-up operations, in send order: the hot workloads read every key
    /// once, then every workload runs a short stretch of warm-up streams.
    pub fn warmup(&self, clients: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        let t = self.templates.len();
        if self.workload != Workload::ColdSolves {
            for user in 0..self.users.len() {
                for template in 0..t {
                    ops.push(self.hot_read(user, template));
                }
            }
        }
        let per_stream = match self.workload {
            Workload::HotReads => 256,
            Workload::ColdSolves => 16,
            Workload::WriteMix => 64,
        };
        for index in 0..per_stream {
            for c in 0..clients as u64 {
                ops.push(self.op(WARMUP_STREAM + c, index));
            }
        }
        ops
    }

    /// The JSON body of a personalize request.
    pub fn personalize_body(&self, r: &Read) -> String {
        let mut members = vec![
            ("user", Json::from(self.users[r.user].as_str())),
            ("sql", Json::from(self.templates[r.template].as_str())),
            (
                "problem",
                Json::obj(vec![
                    ("kind", Json::from("p2")),
                    ("cmax", Json::from(r.cmax)),
                ]),
            ),
            ("algorithm", Json::from(r.algorithm.wire_name())),
        ];
        if r.rows {
            members.push(("rows", Json::Bool(true)));
        }
        Json::obj(members).render()
    }

    /// The full HTTP/1.1 request bytes for `op`.
    pub fn request(&self, op: &Op) -> Vec<u8> {
        let (path, body) = match op {
            Op::Read(r) => ("/personalize".to_string(), self.personalize_body(r)),
            Op::Write(w) => (
                format!(
                    "/profiles/{}{}",
                    self.users[w.user],
                    if w.merge { "?merge=true" } else { "" }
                ),
                w.text.clone(),
            ),
        };
        let mut wire = format!(
            "POST {path} HTTP/1.1\r\nhost: cqp\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body.as_bytes());
        wire
    }
}

/// Supreme Cost (the cost of the query with all K preferences) of every
/// (profile, template) space, computed on all cores.
fn supreme_costs(db: &Database, profiles: &[cqp_prefs::Profile], templates: &[String]) -> Vec<u64> {
    let system = CqpSystem::new(db);
    let queries: Vec<_> = templates
        .iter()
        .map(|sql| cqp_engine::parse_query(sql, db.catalog()).expect("generated SQL parses"))
        .collect();
    let config = SolverConfig {
        algorithm: Algorithm::CBoundaries,
        ..Default::default()
    };
    let pairs: Vec<(usize, usize)> = (0..profiles.len())
        .flat_map(|u| (0..templates.len()).map(move |t| (u, t)))
        .collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = pairs.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                let (system, queries, config) = (&system, &queries, &config);
                s.spawn(move || {
                    part.iter()
                        .map(|&(u, t)| {
                            let space = system.preference_space(&queries[t], &profiles[u], config);
                            (0..space.k()).map(|i| space.cost_blocks(i)).sum::<u64>()
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("supreme-cost worker"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        cqp_datagen::generate_movie_db(&cqp_datagen::MovieDbConfig::tiny(SERVERD_DB_SEED))
    }

    fn wire_sequence(plan: &Plan) -> Vec<u8> {
        let mut out = Vec::new();
        for op in plan.uploads().iter().chain(&plan.warmup(2)) {
            out.extend(plan.request(op));
        }
        for stream in 0..2 {
            for index in 0..300 {
                out.extend(plan.request(&plan.op(stream, index)));
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_sequence() {
        let db = db();
        for workload in [Workload::HotReads, Workload::ColdSolves, Workload::WriteMix] {
            let a = wire_sequence(&Plan::new(workload, 11, &db));
            let b = wire_sequence(&Plan::new(workload, 11, &db));
            assert!(a == b, "{workload:?}: same seed, different bytes");
            let c = wire_sequence(&Plan::new(workload, 12, &db));
            assert!(a != c, "{workload:?}: the seed must matter");
        }
    }

    #[test]
    fn workloads_have_their_intended_shape() {
        let db = db();
        let cold = Plan::new(Workload::ColdSolves, 3, &db);
        let mut per_alg = [0usize; 4];
        for index in 0..400 {
            let Op::Read(r) = cold.op(0, index) else {
                panic!("cold_solves only reads")
            };
            let supreme = cold.supreme[r.user * cold.templates.len() + r.template];
            assert!(r.cmax * 100 >= supreme * 9 && r.cmax * 100 <= supreme * 36);
            per_alg[COLD_ALGORITHMS
                .iter()
                .position(|&a| a == r.algorithm)
                .unwrap()] += 1;
        }
        assert_eq!(per_alg, [100; 4]);
        let mix = Plan::new(Workload::WriteMix, 3, &db);
        let writes: Vec<usize> = (0..2000)
            .filter_map(|i| match mix.op(0, i) {
                Op::Write(w) => Some(w.user),
                Op::Read(_) => None,
            })
            .collect();
        assert_eq!(writes.len(), 400);
        assert!((0..mix.users.len()).all(|u| writes.iter().filter(|&&w| w == u).count() >= 12));
        // Each write is followed by reads of the written user under three
        // distinct templates, then one skewed read.
        for block in 0..400 {
            let Op::Write(w) = mix.op(0, block * WRITE_EVERY) else {
                panic!("a block opens with its write")
            };
            let mut templates: Vec<usize> = (1..WRITE_EVERY - 1)
                .map(|slot| match mix.op(0, block * WRITE_EVERY + slot) {
                    Op::Read(r) if r.user == w.user => r.template,
                    other => panic!("slot {slot}: {other:?}"),
                })
                .collect();
            templates.sort_unstable();
            templates.dedup();
            assert_eq!(templates.len(), 3);
            assert!(matches!(mix.op(0, block * WRITE_EVERY + 4), Op::Read(_)));
        }
    }
}
