//! Recovery trajectory — restart-from-zero vs checkpoint-resume under
//! scripted mid-query device deaths.
//!
//! For each chunked execution model and death point (50/70/90 % of the
//! fault-free device time), the doomed primary is killed mid-query and the
//! run recovers on the survivor twice: once with checkpoints off (the
//! legacy full restart) and once with checkpoint capture enabled (resume
//! from the last validated chunk boundary). Rows land in
//! `BENCH_recovery.json`. Gate: after the file is written, every row must
//! have resumed at least once and re-executed strictly fewer chunks than
//! the restart; otherwise the bin panics naming the rows that failed.
//!
//! Run: `cargo run --release -p adamant-bench --bin recovery`

use adamant::prelude::*;
use adamant_bench::{catalog, jnum, jobj, jstr, ms, standard_tasks, write_bench_json, Report};

const SF: f64 = 0.01;
const CHUNK_ROWS: usize = 1 << 11;

const MODELS: [ExecutionModel; 4] = [
    ExecutionModel::Chunked,
    ExecutionModel::Pipelined,
    ExecutionModel::FourPhaseChunked,
    ExecutionModel::FourPhasePipelined,
];

fn engine(checkpoints: bool, die_at_ns: Option<f64>) -> Adamant {
    let mut b = Adamant::builder()
        .tasks(standard_tasks())
        .chunk_rows(CHUNK_ROWS)
        .device(DeviceProfile::cuda_rtx2080ti())
        .device(DeviceProfile::opencl_cpu_i7());
    if checkpoints {
        b = b.checkpoints(CheckpointConfig::enabled().cost_factor(0.5));
    }
    if let Some(ns) = die_at_ns {
        b = b.fault_plan(0, FaultPlan::none().die_at_ns(ns));
    }
    b.build().expect("engine construction")
}

fn main() {
    println!("# Recovery — restart-from-zero vs checkpoint-resume (SF {SF})");
    let cat = catalog(SF);
    let q = TpchQuery::Q6;
    let inputs = q.bind(&cat).unwrap();

    let mut rep = Report::new(&[
        "model",
        "death at",
        "restart chunks",
        "resume chunks",
        "skipped",
        "restart (ms)",
        "resume (ms)",
    ]);
    let mut json_rows: Vec<String> = Vec::new();
    let mut failed: Vec<String> = Vec::new();
    for model in MODELS {
        // Fault-free run: the clock the death triggers are placed on.
        let clean_ns = {
            let mut e = engine(false, None);
            let dev0 = e.device_ids()[0];
            let graph = q.plan(dev0, &cat).unwrap();
            e.run(&graph, &inputs, model).unwrap();
            e.executor().devices().get(dev0).unwrap().clock().total_ns()
        };
        for frac in [0.5, 0.7, 0.9] {
            let die_at = clean_ns * frac;
            let run = |checkpoints: bool| -> ExecutionStats {
                let mut e = engine(checkpoints, Some(die_at));
                let dev0 = e.device_ids()[0];
                let graph = q.plan(dev0, &cat).unwrap();
                let (_, stats) = e.run(&graph, &inputs, model).expect("recovers on survivor");
                assert_eq!(stats.device_deaths, 1, "the scripted death must fire");
                stats
            };
            let restart = run(false);
            let resume = run(true);
            if resume.resumes < 1 || resume.chunks_processed >= restart.chunks_processed {
                failed.push(format!("{model} @{frac}"));
            }
            rep.row(vec![
                model.to_string(),
                format!("{:.0}%", frac * 100.0),
                restart.chunks_processed.to_string(),
                resume.chunks_processed.to_string(),
                resume.chunks_skipped_on_resume.to_string(),
                ms(restart.total_ns),
                ms(resume.total_ns),
            ]);
            json_rows.push(jobj(&[
                ("section", jstr("restart_vs_resume")),
                ("query", jstr(&q.to_string())),
                ("model", jstr(&model.to_string())),
                ("death_frac", jnum(frac)),
                ("restart_chunks", restart.chunks_processed.to_string()),
                ("resume_chunks", resume.chunks_processed.to_string()),
                (
                    "chunks_skipped",
                    resume.chunks_skipped_on_resume.to_string(),
                ),
                ("checkpoints_taken", resume.checkpoints_taken.to_string()),
                ("checkpoint_bytes", resume.checkpoint_bytes.to_string()),
                ("resumes", resume.resumes.to_string()),
                ("restart_ns", jnum(restart.total_ns)),
                ("resume_ns", jnum(resume.total_ns)),
            ]));
        }
    }
    rep.print("restart-from-zero vs checkpoint-resume after a mid-query death");
    println!(
        "\nEvery death lands at >= 50% progress, so the resume must re-execute\n\
         strictly fewer chunks than the restart (gated below, per row);\n\
         the makespan delta is the re-executed work minus the capture cost."
    );

    let path = write_bench_json("recovery", &json_rows).expect("write BENCH_recovery.json");
    println!("\nwrote {}", path.display());
    assert!(
        failed.is_empty(),
        "recovery gate (resumed, fewer chunks than the restart) failed on {} \
         (values in BENCH_recovery.json)",
        failed.join(", ")
    );
}
