//! The six workloads: what one round of each is, and why it exists.
//!
//! A workload owns its catalog, its engine and its expected answers. One
//! client drives it in a closed loop on one thread (the engine is
//! single-threaded): the next query starts when the previous one returned.
//! Every round's *timed region* covers what a caller pays for — plan or
//! compile, bind, run, decode — and nothing of the benchmark's own
//! (oracle checks, stage replays for tracing and hot-add bookkeeping sit
//! outside it).

use crate::oracle::{self, Answer};
use crate::tally::Tally;
use crate::trace::Recorder;
use adamant::prelude::*;
use adamant::sql::{binder, lower, parser, rewrite};
use adamant::storage::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Scale factor of the TPC-H workloads (`lineitem` ≈ 60 k rows).
pub const SF: f64 = 0.01;
/// Scale factor of `sql_small` (`orders` 1500 rows, `customer` 150).
pub const SF_SMALL: f64 = 0.001;
/// Chunk size of every engine: `lineitem` at [`SF`] streams as 8 chunks.
pub const CHUNK_ROWS: usize = 1 << 13;
/// `faulty_all_on` kills its primary device in every round `r` with
/// `r % DEATH_EVERY == DEATH_EVERY - 1`, and re-arms the standing fault plan
/// in every round with `r % REARM_EVERY == 0`.
pub const DEATH_EVERY: usize = 20;
pub const REARM_EVERY: usize = 5;

/// One workload of the benchmark.
pub struct Spec {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it exists: the layers it loads and the ones it bypasses.
    pub why: &'static str,
    /// Measured rounds whose modeled time and counters are reported: a
    /// fixed count, so that the same seed gives the same sums however long
    /// `--seconds` lets the wall-clock sampling continue.
    pub window: usize,
    /// Whether the engine runs under a fault plan (recovery counters may
    /// then be non-zero, and a long enough window must exercise them all).
    pub faulty: bool,
    /// Whether the engine has a residency cache (the traced run then prices
    /// it against a twin engine without one).
    pub residency: bool,
}

/// The workloads, in reporting order.
pub const SPECS: [Spec; 6] = [
    Spec {
        name: "scan_cold",
        why: "Q1/Q6/Q14 x 3 models, every chunk uploaded and checksummed: hub staging, verify and scan kernels dominate; no SQL, scheduler, cache or recovery",
        window: 40,
        residency: false,
        faulty: false,
    },
    Spec {
        name: "join_cold",
        why: "Q3/Q4/Q10/Q12 x 3 models: hash build/probe/agg kernels, pipeline breakers and host accumulation dominate; shows task-layer and join-fusion changes",
        window: 40,
        residency: false,
        faulty: false,
    },
    Spec {
        name: "sql_small",
        why: "8 SQL templates on 10-1500 row tables via Session::sql with seeded literals: the only workload where compile and session overhead are a visible share",
        window: 2000,
        residency: false,
        faulty: false,
    },
    Spec {
        name: "warm_repeat",
        why: "TPC-H SQL Q1/Q3/Q4/Q6 on a residency cache that holds everything: all hits, chunks staged from pins; modeled time gains while host time pays for fingerprints",
        window: 40,
        residency: true,
        faulty: false,
    },
    Spec {
        name: "concurrent_mixed",
        why: "10-query batches from 3 weighted tenants on two 6 MiB GPUs: admission holds, WFQ slicing and preemption; the only workload where the scheduler does real work",
        window: 40,
        residency: false,
        faulty: false,
    },
    Spec {
        name: "faulty_all_on",
        why: "5 queries, rotating models, fusion + residency + checkpoints + hedging under seeded faults and a scripted device death every 20th round: the recovery half of the executor",
        window: 40,
        residency: true,
        faulty: true,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What one round produced.
#[derive(Default)]
pub struct RoundOut {
    /// Wall ns of the timed region.
    pub wall_ns: u64,
    /// Queries issued.
    pub attempted: u64,
    /// Queries that errored, were shed or rejected, missed a deadline, or
    /// returned something other than the oracle's answer.
    pub failed: u64,
    /// SQL texts that had been issued before in this run.
    pub repeated: u64,
    /// Rows of the driving table of every completed query.
    pub rows: u64,
    /// `ExecutionStats::wall_ns` summed over completed queries — the
    /// engine's own clock around its run.
    pub run_wall_ns: u64,
    /// End-to-end modeled ns: Σ `total_ns`, or the scheduler's makespan.
    pub modeled_ns: f64,
    /// Engine-exported counters of this round.
    pub tally: Tally,
    /// `stats.to_json()` minus `wall_ns` per completed query, kept only
    /// for the rounds the determinism guard compares.
    pub stats_json: Vec<String>,
}

impl RoundOut {
    /// Counts an operation of the benchmark's own script that failed (arming
    /// a fault plan, hot-adding a device) as one failed operation.
    fn broke(&mut self, what: std::fmt::Arguments) {
        eprintln!("FAILED {what}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// Scores one finished query against the oracle (outside the timed
    /// region) and folds its statistics in.
    fn settle(
        &mut self,
        what: &dyn std::fmt::Display,
        got: Result<(Answer, Box<ExecutionStats>), String>,
        want: &Answer,
        rows: u64,
        keep_json: bool,
    ) {
        self.attempted += 1;
        match got {
            Ok((answer, stats)) => {
                if answer != *want {
                    self.failed += 1;
                    eprintln!("MISMATCH {what}: got {answer:?}, want {want:?}");
                }
                self.rows += rows;
                self.run_wall_ns += stats.wall_ns;
                self.tally.fold_stats(&stats);
                if keep_json {
                    self.stats_json.push(strip_wall_ns(&stats.to_json()));
                }
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
            }
        }
    }
}

/// Drops `"wall_ns":<n>,` — the only wall-clock value in the stats export.
pub fn strip_wall_ns(json: &str) -> String {
    match json.find("\"wall_ns\":") {
        None => json.to_string(),
        Some(start) => {
            let end = json[start..]
                .find(',')
                .map_or(json.len(), |i| start + i + 1);
            format!("{}{}", &json[..start], &json[end..])
        }
    }
}

/// What the isolated probes replay a layer's functions over: the
/// workload's own columns, graphs and texts at its chunk size.
#[derive(Default)]
pub struct ProbeSet {
    /// Distinct input columns the workload's queries bind, by name.
    pub columns: Vec<(String, Arc<Vec<i64>>)>,
    /// One unfused primitive graph per distinct query.
    pub graphs: Vec<PrimitiveGraph>,
    /// Distinct SQL texts (empty for hand-built workloads).
    pub sql_texts: Vec<String>,
}

/// A built workload.
pub trait Workload {
    /// Runs round `r` (rounds count from 0 at engine creation, warm-up
    /// included, so scripted events land on the same rounds every run).
    fn round(&mut self, r: usize, keep_json: bool, rec: &mut Recorder) -> RoundOut;
    /// The engine, for the residue check after the last round.
    fn engine(&mut self) -> &mut Adamant;
    /// Inputs for the isolated probes.
    fn probe_set(&self) -> Result<ProbeSet, String>;
}

/// Builds `spec`'s workload from `seed`; also returns the ns the catalog
/// generation took. `residency` switches the residency cache of the
/// workloads that have one (the twin without it prices the cache's host
/// cost).
pub fn build(spec: &Spec, seed: u64, residency: bool) -> Result<(Box<dyn Workload>, u64), String> {
    let sf = if spec.name == "sql_small" {
        SF_SMALL
    } else {
        SF
    };
    let t0 = Instant::now();
    let cat = TpchGenerator::new(sf, seed).generate();
    let gen_ns = t0.elapsed().as_nanos() as u64;
    use ExecutionModel::{Chunked, FourPhasePipelined, OperatorAtATime};
    const THREE: &[ExecutionModel] = &[OperatorAtATime, Chunked, FourPhasePipelined];
    use TpchQuery::*;
    let workload: Box<dyn Workload> = match spec.name {
        "scan_cold" => Box::new(Direct::new(cat, &[Q1, Q6, Q14], Models::Each(THREE), None)?),
        "join_cold" => Box::new(Direct::new(
            cat,
            &[Q3, Q4, Q10, Q12],
            Models::Each(THREE),
            None,
        )?),
        "sql_small" => Box::new(Sql::small(cat, seed)?),
        "warm_repeat" => Box::new(Sql::warm(cat, residency)?),
        "concurrent_mixed" => Box::new(Concurrent::new(cat)?),
        "faulty_all_on" => Box::new(Direct::new(
            cat,
            &[Q1, Q3, Q4, Q6, Q12],
            Models::Rotate,
            Some(Chaos {
                seed,
                arms: 0,
                residency,
            }),
        )?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok((workload, gen_ns))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Rows of the largest column a query binds: its driving table.
fn driving_rows(inputs: &QueryInputs) -> u64 {
    inputs
        .iter()
        .map(|(_, c)| c.len() as u64)
        .max()
        .unwrap_or(0)
}

fn push_columns(into: &mut Vec<(String, Arc<Vec<i64>>)>, inputs: &QueryInputs) {
    for (name, col) in inputs.iter() {
        if !into.iter().any(|(n, _)| n == name) {
            into.push((name.to_string(), Arc::clone(col)));
        }
    }
}

// ---- hand-built plans through `Adamant::run` ------------------------------

enum Models {
    /// Every query under each of these models.
    Each(&'static [ExecutionModel]),
    /// Query `j` of round `r` under model `(j + r) % 5`.
    Rotate,
}

/// The fault script of `faulty_all_on`.
struct Chaos {
    seed: u64,
    /// Fault plans armed so far; each gets its own seed.
    arms: u64,
    residency: bool,
}

impl Chaos {
    /// The standing plan, re-armed on the primary every [`REARM_EVERY`]
    /// rounds. Most of its faults are scripted by operation ordinal, so
    /// every seed meets the same recovery work and `modeled_ms_total` moves
    /// between seeds by the data, not by luck: the first launch after arming
    /// fails (a retry), the 9th allocation runs out of memory (a chunk
    /// backoff when it lands in a streamed pipeline), the 3rd upload is
    /// damaged (a retransmit; with warm pins few bytes cross the link, so a
    /// rate alone could leave a window without one). Low seeded rates of the
    /// same three classes keep the fault mix from being a fixed script.
    fn plan(&mut self) -> FaultPlan {
        self.arms += 1;
        FaultPlan::none()
            .with_seed(self.seed ^ self.arms.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .exec_error_rate(0.00025)
            .oom_rate(0.00015)
            .corrupt_transfer_rate(0.00025)
            .transient_exec_errors(1)
            .oom_on_allocation(9)
            .corrupt_on_place(3)
    }
}

struct Direct {
    cat: Catalog,
    engine: Adamant,
    /// The device plans target; replaced after each scripted death.
    primary: DeviceId,
    queries: Vec<TpchQuery>,
    want: Vec<Answer>,
    rows: Vec<u64>,
    models: Models,
    chaos: Option<Chaos>,
}

impl Direct {
    fn new(
        cat: Catalog,
        queries: &[TpchQuery],
        models: Models,
        mut chaos: Option<Chaos>,
    ) -> Result<Self, String> {
        let mut b = Adamant::builder()
            .chunk_rows(CHUNK_ROWS)
            .device(DeviceProfile::cuda_rtx2080ti());
        if let Some(c) = &mut chaos {
            // Everything on at once: fusion (default), residency,
            // checkpoints, hedging (default) and a survivor to recover on.
            b = b
                .device(DeviceProfile::opencl_rtx2080ti())
                .checkpoints(CheckpointConfig::enabled().chunk_interval(2))
                .retry_policy(RetryPolicy {
                    max_attempts: 6,
                    ..RetryPolicy::default()
                })
                .fault_plan(0, c.plan());
            if c.residency {
                b = b.residency_cache(ResidencyConfig::new(1 << 30));
            }
        }
        let engine = b.build().map_err(err)?;
        let mut want = Vec::new();
        let mut rows = Vec::new();
        for &q in queries {
            want.push(oracle::reference(q, &cat)?);
            rows.push(driving_rows(&q.bind(&cat).map_err(err)?));
        }
        Ok(Direct {
            primary: engine.device_ids()[0],
            cat,
            engine,
            queries: queries.to_vec(),
            want,
            rows,
            models,
            chaos,
        })
    }
}

impl Workload for Direct {
    fn round(&mut self, r: usize, keep_json: bool, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut::default();
        if let Some(c) = &mut self.chaos {
            let plan = if r % DEATH_EVERY == DEATH_EVERY - 1 {
                // The primary straggles at a fortieth of its speed, so the
                // watchdog hedges its chunks onto the survivor, and dies for
                // good on its 12th launch of this round: inside the round's
                // first query, which streams 8 chunks, so a checkpoint
                // exists and the survivor resumes past it. Nothing else is
                // injected: a retry would move the death to another launch.
                // (Not `stall_on_exec`: when the stalled launch is a
                // whole-mode node no hedge rescues it, and its 10^15 modeled
                // ns land in `total_ns`.)
                Some(FaultPlan::none().slowdown(40.0).die_on_exec(12))
            } else {
                r.is_multiple_of(REARM_EVERY).then(|| c.plan())
            };
            if let Some(Err(e)) =
                plan.map(|p| self.engine.executor_mut().set_fault_plan(self.primary, p))
            {
                out.broke(format_args!("arming a fault plan on {}: {e}", self.primary));
            }
        }
        let mut died = false;
        for j in 0..self.queries.len() {
            let q = self.queries[j];
            let rotated = [ExecutionModel::ALL[(j + r) % ExecutionModel::ALL.len()]];
            let models: &[ExecutionModel] = match self.models {
                Models::Each(ms) => ms,
                Models::Rotate => &rotated,
            };
            for &model in models {
                let span = rec.open_query();
                let t0 = Instant::now();
                let got = (|| {
                    let s = rec.open("plan.build");
                    let graph = q.plan(self.primary, &self.cat);
                    rec.close(s);
                    let s = rec.open("plan.bind_inputs");
                    let inputs = q.bind(&self.cat);
                    rec.close(s);
                    let (graph, inputs) = (graph.map_err(err)?, inputs.map_err(err)?);
                    let s = rec.open("core.executor.run");
                    let ran = self.engine.run(&graph, &inputs, model);
                    rec.close_noting(s, ran.as_ref().map_or(0, |(_, st)| st.wall_ns));
                    let (output, stats) = ran.map_err(err)?;
                    let s = rec.open("tpch.decode");
                    let answer = oracle::decode(q, &self.cat, &output);
                    rec.close(s);
                    Ok((answer.map_err(err)?, Box::new(stats)))
                })();
                out.wall_ns += t0.elapsed().as_nanos() as u64;
                let s = rec.open("oracle.check");
                if let Ok((_, stats)) = &got {
                    out.modeled_ns += stats.total_ns;
                    died |= stats.device_deaths > 0;
                }
                out.settle(
                    &format_args!("{q} under {model} in round {r}"),
                    got,
                    &self.want[j],
                    self.rows[j],
                    keep_json,
                );
                rec.close(s);
                rec.close(span);
            }
        }
        if let (Some(c), true) = (&mut self.chaos, died) {
            // Hot-add a replacement for the corpse and make it the new
            // primary under a fresh standing plan. Membership is read from
            // the live registry: `Adamant::device_ids()` still lists a
            // device that died mid-query.
            let s = rec.open("adamant.attach_profile");
            let attached = self
                .engine
                .attach_profile(&DeviceProfile::cuda_rtx2080ti())
                .and_then(|id| {
                    self.primary = id;
                    self.engine.executor_mut().set_fault_plan(id, c.plan())
                });
            rec.close(s);
            let live = self.engine.executor().devices().ids();
            if attached.is_err() || live.len() != 2 || !live.contains(&self.primary) {
                out.broke(format_args!(
                    "hot-add after round {r}: {attached:?}, live {live:?}"
                ));
            }
        }
        out
    }

    fn engine(&mut self) -> &mut Adamant {
        &mut self.engine
    }

    fn probe_set(&self) -> Result<ProbeSet, String> {
        let mut set = ProbeSet::default();
        for &q in &self.queries {
            push_columns(&mut set.columns, &q.bind(&self.cat).map_err(err)?);
            set.graphs
                .push(q.plan(self.primary, &self.cat).map_err(err)?);
        }
        Ok(set)
    }
}

// ---- SQL texts through `Session::sql` -------------------------------------

/// Literal sets each `sql_small` template draws from.
pub const LITERAL_POOL: usize = 4;

/// The eight `sql_small` templates with one seeded literal set filled in.
/// Literals are drawn so that no result is empty (MIN/MAX of nothing is an
/// edge the engine and the interpreter have not agreed on yet).
pub fn small_texts(rng: &mut Rng) -> [String; 8] {
    let date = |rng: &mut Rng, years: std::ops::Range<i64>| {
        format!(
            "{}-{:02}-{:02}",
            rng.gen_range(years),
            rng.gen_range(1i64..13),
            rng.gen_range(1i64..29)
        )
    };
    let size_lo = rng.gen_range(1i64..20);
    let like = ["PROMO", "STANDARD", "ECONOMY"][rng.gen_range(0usize..3)];
    let segment = adamant::tpch::gen::SEGMENTS[rng.gen_range(0usize..5)];
    [
        format!(
            "SELECT COUNT(*) AS n, SUM(c_acctbal) AS bal FROM customer WHERE c_acctbal > {}",
            rng.gen_range(-50_000i64..400_000)
        ),
        format!(
            "SELECT MIN(p_retailprice) AS lo, MAX(p_retailprice) AS hi FROM part \
             WHERE p_size BETWEEN {size_lo} AND {}",
            size_lo + rng.gen_range(10i64..30)
        ),
        format!(
            "SELECT SUM(CASE WHEN p_type LIKE '{like}%' THEN p_retailprice ELSE 0 END) AS picked, \
             SUM(p_retailprice) AS total FROM part WHERE p_size < {}",
            rng.gen_range(20i64..51)
        ),
        format!(
            "SELECT COUNT(*) AS n FROM orders WHERE o_orderpriority IN ('1-URGENT', '2-HIGH') \
             AND o_orderdate >= DATE '{}'",
            date(rng, 1992..1997)
        ),
        format!(
            "SELECT n_regionkey, COUNT(*) AS n FROM nation WHERE n_nationkey < {} \
             GROUP BY n_regionkey ORDER BY n_regionkey",
            rng.gen_range(10i64..26)
        ),
        format!(
            "SELECT o_orderpriority, SUM(o_totalprice) AS total FROM orders \
             WHERE o_orderdate < DATE '{}' GROUP BY o_orderpriority ORDER BY total DESC LIMIT 3",
            date(rng, 1994..1999)
        ),
        format!(
            "SELECT SUM(o_totalprice) AS total, COUNT(*) AS n FROM customer \
             JOIN orders ON o_custkey = c_custkey WHERE c_mktsegment = '{segment}'"
        ),
        format!(
            "SELECT COUNT(*) AS n, MAX(s_acctbal) AS hi FROM supplier WHERE s_suppkey <= {}",
            rng.gen_range(3i64..11)
        ),
    ]
}

/// The texts a SQL workload issues: per template a pool of variants, one
/// of which is drawn (seeded) each round. Also counts how many issued
/// texts had been issued before — `bench.sql_repeat_share`, the share of a
/// run a plan cache could serve.
pub struct TextStream {
    /// `texts[template][variant]`.
    pub texts: Vec<Vec<String>>,
    rng: Rng,
    seen: BTreeSet<(usize, usize)>,
}

impl TextStream {
    /// The `sql_small` stream: eight templates, [`LITERAL_POOL`] seeded
    /// literal sets each.
    pub fn small(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x011E_7A15);
        let mut texts = vec![Vec::new(); 8];
        for _ in 0..LITERAL_POOL {
            for (t, text) in small_texts(&mut rng).into_iter().enumerate() {
                texts[t].push(text);
            }
        }
        TextStream {
            texts,
            rng,
            seen: BTreeSet::new(),
        }
    }

    /// A stream of fixed texts, one variant per template.
    pub fn fixed(texts: &[&str]) -> Self {
        TextStream {
            texts: texts.iter().map(|t| vec![t.to_string()]).collect(),
            rng: Rng::new(0),
            seen: BTreeSet::new(),
        }
    }

    /// The variant `template` issues next, and whether that text is a repeat
    /// (two variants that drew the same literals are the same text).
    pub fn next(&mut self, template: usize) -> (usize, bool) {
        let pool = &self.texts[template];
        let v = if pool.len() > 1 {
            self.rng.gen_range(0..pool.len())
        } else {
            0
        };
        let first_same = pool.iter().position(|t| *t == pool[v]).unwrap_or(v);
        (v, !self.seen.insert((template, first_same)))
    }
}

struct Sql {
    cat: Catalog,
    engine: Adamant,
    stream: TextStream,
    want: Vec<Vec<Answer>>,
    rows: Vec<u64>,
}

impl Sql {
    fn small(cat: Catalog, seed: u64) -> Result<Self, String> {
        let engine = Adamant::builder()
            .chunk_rows(CHUNK_ROWS)
            .device(DeviceProfile::cuda_rtx2080ti());
        Sql::new(cat, engine, TextStream::small(seed))
    }

    fn warm(cat: Catalog, residency: bool) -> Result<Self, String> {
        use adamant::tpch::sql::{Q1, Q3, Q4, Q6};
        let mut engine = Adamant::builder()
            .chunk_rows(CHUNK_ROWS)
            .device(DeviceProfile::cuda_rtx2080ti());
        if residency {
            // 1 GiB holds every column at SF 0.01: nothing is ever evicted.
            engine = engine.residency_cache(ResidencyConfig::new(1 << 30));
        }
        Sql::new(cat, engine, TextStream::fixed(&[Q1, Q3, Q4, Q6]))
    }

    fn new(cat: Catalog, engine: AdamantBuilder, stream: TextStream) -> Result<Self, String> {
        let engine = engine.build().map_err(err)?;
        let device = engine.device_ids()[0];
        let mut want = Vec::new();
        let mut rows = Vec::new();
        for variants in &stream.texts {
            let mut answers = Vec::new();
            for text in variants {
                answers.push(oracle::sql_reference(text, &cat, device)?);
            }
            want.push(answers);
            rows.push(driving_rows(&sql_inputs(&variants[0], &cat, device)?));
        }
        Ok(Sql {
            cat,
            engine,
            stream,
            want,
            rows,
        })
    }
}

/// The input columns `Session::sql` would bind for `text`.
fn sql_inputs(text: &str, cat: &Catalog, device: DeviceId) -> Result<QueryInputs, String> {
    let compiled = adamant::sql::compile(text, cat, device).map_err(err)?;
    let mut inputs = QueryInputs::new();
    for (table, col) in &compiled.input_columns {
        let column = cat.table(table).and_then(|t| t.column(col)).map_err(err)?;
        inputs.bind_column(col.as_str(), column).map_err(err)?;
    }
    Ok(inputs)
}

/// `Session::sql` compiles inside one call; this replays its four stages
/// under a span each, outside the timed region, to see them apart. A stage
/// that fails ends the replay: the session call that follows reports it.
fn replay_compile(rec: &mut Recorder, text: &str, cat: &Catalog, device: DeviceId) -> Option<()> {
    let s = rec.open("sql.parse");
    let stmt = parser::parse(text);
    rec.close(s);
    let s = rec.open("sql.bind");
    let bound = binder::bind(&stmt.ok()?, cat);
    rec.close(s);
    let mut bound = bound.ok()?;
    let s = rec.open("sql.rewrite");
    let rewritten = rewrite::rewrite(&mut bound);
    rec.close(s);
    rewritten.ok()?;
    let s = rec.open("sql.lower");
    let _ = std::hint::black_box(lower::lower(&bound, device));
    rec.close(s);
    Some(())
}

impl Workload for Sql {
    fn round(&mut self, r: usize, keep_json: bool, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut::default();
        let device = self.engine.device_ids()[0];
        for t in 0..self.stream.texts.len() {
            let (v, repeat) = self.stream.next(t);
            out.repeated += u64::from(repeat);
            let text = &self.stream.texts[t][v];
            let span = rec.open_query();
            if rec.enabled() {
                replay_compile(rec, text, &self.cat, device);
            }
            let t0 = Instant::now();
            let s = rec.open("adamant.session.sql");
            let served = Session::new(&mut self.engine, &self.cat).sql(text);
            rec.close_noting(s, served.as_ref().map_or(0, |rs| rs.stats.wall_ns));
            out.wall_ns += t0.elapsed().as_nanos() as u64;
            let s = rec.open("oracle.check");
            let got = served
                .map(|rs| {
                    out.modeled_ns += rs.stats.total_ns;
                    out.tally.add("sched.wait_modeled_ms", rs.wait_ns / 1e6);
                    (Answer::Rows(rs.rows), Box::new(rs.stats))
                })
                .map_err(err);
            out.settle(
                &format_args!("`{text}` in round {r}"),
                got,
                &self.want[t][v],
                self.rows[t],
                keep_json,
            );
            rec.close(s);
            rec.close(span);
        }
        out
    }

    fn engine(&mut self) -> &mut Adamant {
        &mut self.engine
    }

    fn probe_set(&self) -> Result<ProbeSet, String> {
        let device = self.engine.device_ids()[0];
        let mut set = ProbeSet {
            sql_texts: self.stream.texts.iter().flatten().cloned().collect(),
            ..ProbeSet::default()
        };
        for variants in &self.stream.texts {
            push_columns(
                &mut set.columns,
                &sql_inputs(&variants[0], &self.cat, device)?,
            );
            let compiled = adamant::sql::compile(&variants[0], &self.cat, device).map_err(err)?;
            set.graphs.push(compiled.graph);
        }
        Ok(set)
    }
}

// ---- batches through the scheduler ----------------------------------------

/// Queries per `concurrent_mixed` batch.
pub const BATCH: usize = 10;
/// Tenants and their fair-share weights; query `k` belongs to tenant `k % 3`.
pub const TENANTS: [(&str, f64); 3] = [("gold", 4.0), ("silver", 2.0), ("bronze", 1.0)];
/// Modeled deadline of the heaviest tenant's queries, from submission, and
/// the urgency headroom at which they preempt. The last gold query of a
/// batch finishes ≈ 3.5 modeled ms in (the batch's makespan is ≈ 11 ms), so
/// every deadline is met with 70 % to spare, and the 3 ms slack makes the
/// later gold queries suspend two running ones per batch on the way. With
/// the issue's slack of 0 a preemption fires only when the deadline is
/// then missed by a slice anyway: no setting both preempts and meets.
const GOLD_DEADLINE_NS: f64 = 6e6;
const PREEMPT_SLACK_NS: f64 = 3e6;

struct Concurrent {
    cat: Catalog,
    engine: Adamant,
    want: Vec<Answer>,
    rows: Vec<u64>,
}

impl Concurrent {
    fn new(cat: Catalog) -> Result<Self, String> {
        // Two GPUs shrunk to 6 MiB (2 MiB pinned): a batch's reservations
        // do not all fit, so admissions are held at the gate.
        let gpu = || DeviceProfile::cuda_rtx2080ti().with_memory(6 << 20, 2 << 20);
        let engine = Adamant::builder()
            .chunk_rows(CHUNK_ROWS)
            .device(gpu())
            .device(gpu())
            .preempt_slack_ns(PREEMPT_SLACK_NS)
            .build()
            .map_err(err)?;
        let mut want = Vec::new();
        let mut rows = Vec::new();
        for q in TpchQuery::ALL {
            want.push(oracle::reference(q, &cat)?);
            rows.push(driving_rows(&q.bind(&cat).map_err(err)?));
        }
        Ok(Concurrent {
            cat,
            engine,
            want,
            rows,
        })
    }
}

impl Workload for Concurrent {
    fn round(&mut self, r: usize, keep_json: bool, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut::default();
        let device = self.engine.device_ids()[0];
        let t0 = Instant::now();
        let mut specs = Vec::with_capacity(BATCH);
        for k in 0..BATCH {
            let q = TpchQuery::ALL[k % TpchQuery::ALL.len()];
            let model = ExecutionModel::ALL[k % ExecutionModel::ALL.len()];
            let span = rec.open_query();
            let s = rec.open("plan.build");
            let graph = q.plan(device, &self.cat);
            rec.close(s);
            let s = rec.open("plan.bind_inputs");
            let inputs = q.bind(&self.cat);
            rec.close(s);
            rec.close(span);
            specs.push(graph.and_then(|g| Ok((g, inputs?))).map(|(g, i)| {
                let spec = QuerySpec::new(g, i, model);
                if k % TENANTS.len() == 0 {
                    spec.with_deadline_ns(GOLD_DEADLINE_NS)
                } else {
                    spec
                }
            }));
        }

        let s = rec.open("sched.submit_all");
        let mut session = self.engine.session();
        for (tenant, weight) in TENANTS {
            session.tenant(tenant, weight);
        }
        let tickets: Vec<Result<QueryTicket, String>> = specs
            .into_iter()
            .enumerate()
            .map(|(k, spec)| Ok(session.submit(TENANTS[k % TENANTS.len()].0, spec.map_err(err)?)))
            .collect();
        let mut report = session.run_all();
        drop(session);
        let ran_ns = report
            .outcomes()
            .values()
            .map(|o| match o {
                QueryOutcome::Completed { stats, .. } => stats.wall_ns,
                _ => 0,
            })
            .sum();
        rec.close_noting(s, ran_ns);

        let mut got = Vec::with_capacity(BATCH);
        for (k, ticket) in tickets.into_iter().enumerate() {
            let q = TpchQuery::ALL[k % TpchQuery::ALL.len()];
            got.push(ticket.and_then(|t| match report.take_outcome(t) {
                Some(QueryOutcome::Completed {
                    missed_deadline: true,
                    finish_ns,
                    ..
                }) => Err(format!(
                    "finished at {finish_ns} modeled ns, past its deadline"
                )),
                Some(QueryOutcome::Completed { output, stats, .. }) => {
                    let s = rec.open("tpch.decode");
                    let answer = oracle::decode(q, &self.cat, &output);
                    rec.close(s);
                    Ok((answer.map_err(err)?, stats))
                }
                Some(QueryOutcome::Failed { error }) => Err(format!("failed: {error}")),
                Some(QueryOutcome::Shed { reason }) => Err(format!("shed: {reason}")),
                Some(QueryOutcome::Rejected { reason }) => Err(format!("rejected: {reason}")),
                None => Err("no outcome".to_string()),
            }));
        }
        out.wall_ns = t0.elapsed().as_nanos() as u64;

        let s = rec.open("oracle.check");
        out.modeled_ns = report.stats().makespan_ns;
        out.tally
            .fold_sched(report.stats(), TENANTS[0].0, TENANTS[2].0);
        for (k, got) in got.into_iter().enumerate() {
            let qi = k % TpchQuery::ALL.len();
            out.settle(
                &format_args!("{} (batch slot {k}) in round {r}", TpchQuery::ALL[qi]),
                got,
                &self.want[qi],
                self.rows[qi],
                keep_json,
            );
        }
        rec.close(s);
        out
    }

    fn engine(&mut self) -> &mut Adamant {
        &mut self.engine
    }

    fn probe_set(&self) -> Result<ProbeSet, String> {
        let device = self.engine.device_ids()[0];
        let mut set = ProbeSet::default();
        for q in TpchQuery::ALL {
            push_columns(&mut set.columns, &q.bind(&self.cat).map_err(err)?);
            set.graphs.push(q.plan(device, &self.cat).map_err(err)?);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_texts_and_repeat_share() {
        let run = |seed: u64| {
            let mut stream = TextStream::small(seed);
            let mut sequence = Vec::new();
            let mut repeated = 0;
            for _round in 0..50 {
                for t in 0..8 {
                    let (v, repeat) = stream.next(t);
                    repeated += usize::from(repeat);
                    sequence.push(stream.texts[t][v].clone());
                }
            }
            (sequence, repeated)
        };
        let (a, ra) = run(0xADA);
        let (b, rb) = run(0xADA);
        assert_eq!(a, b, "same seed, same text sequence");
        assert_eq!(ra, rb);
        let (c, _) = run(0xADB);
        assert_ne!(a, c, "another seed, other literals");
        // 400 texts over at most 8 x 4 distinct ones: every occurrence of a
        // text but its first is a repeat.
        let distinct: BTreeSet<&String> = a.iter().collect();
        assert_eq!(ra, a.len() - distinct.len());
        assert!(distinct.len() <= 8 * LITERAL_POOL && distinct.len() > 8);

        let mut fixed = TextStream::fixed(&["SELECT 1", "SELECT 2"]);
        assert_eq!(
            (fixed.next(0), fixed.next(1), fixed.next(0)),
            ((0, false), (0, false), (0, true))
        );
    }

    #[test]
    fn wall_ns_is_stripped_and_nothing_else() {
        assert_eq!(
            strip_wall_ns("{\"a\":1,\"wall_ns\":123,\"b\":2}"),
            "{\"a\":1,\"b\":2}"
        );
        assert_eq!(strip_wall_ns("{\"a\":1}"), "{\"a\":1}");
        let json = ExecutionStats::default().to_json();
        assert!(json.contains("\"wall_ns\":0,"));
        assert!(!strip_wall_ns(&json).contains("wall_ns"));
    }

    #[test]
    fn windows_cover_a_scripted_death() {
        for s in &SPECS {
            assert!(spec(s.name).is_some());
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            if s.faulty {
                // Warm-up takes rounds 0..5; the window must reach round 19.
                assert!(s.window + 5 >= DEATH_EVERY);
            }
        }
    }
}
