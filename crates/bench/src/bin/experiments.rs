//! Experiment harness regenerating every table and figure of the M2AI
//! paper's evaluation (Section VI).
//!
//! ```text
//! cargo run --release -p m2ai-bench --bin experiments -- all
//! cargo run --release -p m2ai-bench --bin experiments -- fig9 --fast
//! cargo run --release -p m2ai-bench --bin experiments -- obs --metrics-out m.json
//! ```

use m2ai_bench::{run_all, Budget};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Extract `--metrics-out <path>` (value form `--metrics-out=<path>`
    // also accepted) before positional parsing, so the path is never
    // mistaken for a subcommand.
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--metrics-out" {
            if i + 1 >= args.len() {
                eprintln!("--metrics-out needs a path");
                std::process::exit(2);
            }
            metrics_out = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(path) = args[i].strip_prefix("--metrics-out=") {
            metrics_out = Some(path.to_string());
            args.remove(i);
        } else if args[i] == "--trace-out" {
            if i + 1 >= args.len() {
                eprintln!("--trace-out needs a path");
                std::process::exit(2);
            }
            trace_out = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(path) = args[i].strip_prefix("--trace-out=") {
            trace_out = Some(path.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    // `--trace-out` samples every trace for the whole run and exports
    // the collected spans as a Chrome trace_event JSON (loadable in
    // Perfetto / chrome://tracing) on exit.
    if trace_out.is_some() {
        m2ai_obs::trace::set_trace_config(m2ai_obs::trace::TraceConfig { sample_one_in_n: 1 });
    }
    let budget = if args.iter().any(|a| a == "--fast") {
        Budget::Fast
    } else {
        Budget::Full
    };
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };
    for w in which {
        match w {
            "all" => run_all(budget),
            "fig2" => m2ai_bench::fig2(budget),
            "fig3" => m2ai_bench::fig3(budget),
            "fig9" | "table1" => m2ai_bench::fig9_and_table1(budget),
            "fig10" => m2ai_bench::fig10(budget),
            "fig11" => m2ai_bench::fig11(budget),
            "fig12" => m2ai_bench::fig12(budget),
            "fig13" => m2ai_bench::fig13(budget),
            "fig14" => m2ai_bench::fig14(budget),
            "fig15" => m2ai_bench::fig15(budget),
            "fig16" => m2ai_bench::fig16(budget),
            "fig17" => m2ai_bench::fig17(budget),
            "ablation-aoa" => m2ai_bench::ablation_aoa(budget),
            "ext-transfer" => m2ai_bench::ext_transfer(budget),
            "robustness" => {
                m2ai_bench::robustness::run_and_write(budget, "BENCH_robustness.json", 2026);
            }
            "chaos" => {
                if args.iter().any(|a| a == "--check") {
                    if !m2ai_bench::chaos::check("BENCH_chaos.json") {
                        std::process::exit(1);
                    }
                } else {
                    m2ai_bench::chaos::run_and_write("BENCH_chaos.json");
                }
            }
            "obs" => {
                if !m2ai_bench::obs::check() {
                    if let Some(path) = &metrics_out {
                        m2ai_bench::obs::write_metrics(path);
                    }
                    std::process::exit(1);
                }
            }
            "trace" => {
                if !m2ai_bench::trace_gate::check() {
                    std::process::exit(1);
                }
            }
            other => {
                eprintln!("unknown experiment '{other}'");
                eprintln!(
                    "known: all fig2 fig3 fig9 table1 fig10..fig17 ablation-aoa ext-transfer robustness chaos obs trace; flags --fast --check --metrics-out <path> --trace-out <path>"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &metrics_out {
        m2ai_bench::obs::write_metrics(path);
    }
    if let Some(path) = &trace_out {
        let spans = m2ai_obs::trace::take_spans();
        let body = m2ai_obs::trace::render_trace_events(&spans);
        std::fs::write(path, body).unwrap_or_else(|e| panic!("write trace to {path}: {e}"));
        println!("wrote {path} ({} spans)", spans.len());
    }
}
