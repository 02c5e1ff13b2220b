//! Tests of the benchmark itself: replayable job lists, span nesting and
//! self time, failure accounting, and staged-call fidelity.

use hostbench::jobs::{programs, Hw, Job, JobList, Kind, Machine, Opt, WORKLOADS};
use hostbench::run::{rounds, run, setup, suite_job, Metric, Options, Report, Tally};
use hostbench::speed::{probe_ns, Speed};
use hostbench::stages::{compile_plain, compile_staged, simulate_staged};
use hostbench::trace::{self_times, Tracer};

fn job(name: &str, opt: Opt, machine: Machine) -> Job {
    let program = programs().iter().position(|w| w.name == name).unwrap();
    Job {
        id: 7,
        program: u8::try_from(program).unwrap(),
        opt,
        machine,
        variant: 0,
        kind: Kind::Sim,
    }
}

#[test]
fn same_seed_gives_the_same_job_list() {
    for workload in WORKLOADS {
        let a = JobList::generate(workload, 42, 6).unwrap();
        let b = JobList::generate(workload, 42, 6).unwrap();
        assert_eq!(a.rounds, b.rounds, "{workload}");
        assert_eq!(a.digest(), b.digest(), "{workload}");
        let c = JobList::generate(workload, 43, 6).unwrap();
        assert_ne!(a.digest(), c.digest(), "{workload}: the seed must matter");
    }
    assert!(JobList::generate("nope", 1, 1).is_err());
}

#[test]
fn rounds_repeat_the_same_job_set() {
    for workload in ["suite-sim", "compile"] {
        let list = JobList::generate(workload, 5, 3).unwrap();
        let key = |r: &Vec<Job>| {
            let mut k: Vec<_> = r.iter().map(|j| (j.program, j.opt, j.machine)).collect();
            k.sort();
            k
        };
        assert_eq!(key(&list.rounds[0]), key(&list.rounds[1]), "{workload}");
        assert_ne!(list.rounds[0], list.rounds[1], "{workload}: order is drawn");
    }
}

#[test]
fn service_lists_keep_the_known_deadlocks_and_a_third_of_each_kind() {
    for seed in 0..25 {
        let list = JobList::generate("service", seed, 4).unwrap();
        for name in ["od", "smooth"] {
            assert!(
                list.rounds[0].iter().any(|j| j.workload().name == name
                    && j.opt == Opt::Modulo
                    && j.machine == Machine::Wm(Hw::Fifo2)
                    && j.known_defect()),
                "seed {seed}: {name} modulo fifo2 missing"
            );
        }
        let all: Vec<Job> = list.rounds.iter().flatten().copied().collect();
        for round in &list.rounds {
            for kind in [Kind::Cold, Kind::Reuse, Kind::Repeat] {
                let n = round.iter().filter(|j| j.kind == kind).count();
                assert_eq!(n, programs().len(), "seed {seed}: one {kind:?} per program");
            }
        }
        for (i, j) in all.iter().enumerate() {
            let before = &all[..i];
            let same_pair = |k: &&Job| k.program == j.program && k.variant == j.variant;
            match j.kind {
                Kind::Cold => assert!(!before.iter().any(|k| same_pair(&k))),
                Kind::Reuse => {
                    assert!(before
                        .iter()
                        .any(|k| same_pair(&k) && k.kind == Kind::Cold && k.opt == j.opt));
                    assert!(
                        !before
                            .iter()
                            .any(|k| same_pair(&k) && k.opt == j.opt && k.machine == j.machine),
                        "a reuse runs the pair on a new machine"
                    );
                }
                Kind::Repeat => assert!(before
                    .iter()
                    .any(|k| same_pair(&k) && k.opt == j.opt && k.machine == j.machine)),
                _ => unreachable!(),
            }
        }
    }
}

#[test]
fn spans_nest_and_children_fit_in_their_parent() {
    let mut tr = Tracer::new(true);
    for (i, machine) in [Machine::Wm(Hw::Default), Machine::Wm(Hw::Tiles2)]
        .into_iter()
        .enumerate()
    {
        let j = job("banner", Opt::Streaming, machine);
        tr.set_job(i as u32);
        tr.span("job", |tr| {
            let (c, _) = compile_staged(&j.source(), &j.options(), j.opt.target(), tr).unwrap();
            simulate_staged(&c, j.machine, tr).unwrap();
        });
    }
    let spans = tr.spans();
    assert!(spans.iter().any(|s| s.name == "sim.tiled_run"));
    assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 2);
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        assert!(s.start_ns <= s.end_ns);
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            assert_eq!(parent.job, s.job);
            child_sum[p] += s.dur_ns();
        }
    }
    for (s, sum) in spans.iter().zip(child_sum) {
        assert!(sum <= s.dur_ns(), "{}: children exceed the parent", s.name);
    }
    let json = tr.chrome_json();
    let doc = wm_stream::json::parse(&json).expect("valid trace JSON");
    assert!(doc.get("traceEvents").is_some());
}

#[test]
fn per_layer_self_time_per_job_is_at_most_the_job_time() {
    let mut tr = Tracer::new(true);
    let j = job("dot-product", Opt::Modulo, Machine::Wm(Hw::Default));
    tr.span("job", |tr| {
        let (c, _) = compile_staged(&j.source(), &j.options(), j.opt.target(), tr).unwrap();
        simulate_staged(&c, j.machine, tr).unwrap();
    });
    let job_ns = tr.spans()[0].dur_ns();
    let selfs = self_times(tr.spans());
    let layers: u64 = selfs
        .iter()
        .filter(|(name, _)| **name != "job")
        .map(|(_, ns)| ns)
        .sum();
    assert!(layers <= job_ns);
    for (name, ns) in &selfs {
        assert!(*ns <= job_ns, "{name}");
    }
    assert_eq!(
        layers + selfs["job"],
        job_ns,
        "self times partition the job"
    );
}

#[test]
fn a_wrong_answer_is_counted_as_failed_not_dropped() {
    let j = job("livermore5", Opt::Streaming, Machine::Wm(Hw::Default));
    let expected = wm_stream::workloads::livermore5_expected();
    let mut tally = Tally::default();
    tally.record(&j, suite_job(&j, expected).map(|_| ()));
    tally.record(&j, suite_job(&j, expected + 1).map(|_| ()));
    assert_eq!((tally.attempted, tally.ok, tally.failed), (2, 1, 1));
    assert!(tally.messages[0].contains("wrong answer"));
    assert!((tally.ok_frac() - 0.5).abs() < 1e-12);
}

#[test]
fn known_defects_fail_and_count_against_ok_frac() {
    let j = job("od", Opt::Modulo, Machine::Wm(Hw::Fifo2));
    assert!(j.known_defect());
    let c = compile_plain(&j).unwrap();
    let err = simulate_staged(&c, j.machine, &mut Tracer::new(false)).unwrap_err();
    assert!(err.contains("deadlock"), "{err}");
    let mut tally = Tally::default();
    tally.record(&j, Err(err));
    assert_eq!((tally.attempted, tally.known, tally.failed), (1, 1, 0));
    assert!(tally.ok_frac() < 1.0);
}

#[test]
fn staged_calls_build_the_same_module_as_the_compiler() {
    for (name, opt, hw) in [
        ("uuencode", Opt::Modulo, Hw::Default),
        ("livermore5", Opt::Full, Hw::Tiles2),
        ("dhrystone", Opt::Recurrence, Hw::Default),
        ("livermore5", Opt::Table1Rec, Hw::Default),
    ] {
        let mut j = job(name, opt, Machine::Wm(hw));
        if opt == Opt::Table1Rec {
            j.machine = Machine::Scalar(0);
        }
        let plain = compile_plain(&j).unwrap();
        let (staged, facts) = compile_staged(
            &j.source(),
            &j.options(),
            j.opt.target(),
            &mut Tracer::new(false),
        )
        .unwrap();
        assert_eq!(plain.module, staged.module, "{name} {opt:?} {hw:?}");
        assert!(facts.target_insts > 0);
    }
}

#[test]
fn the_result_line_is_json_with_exact_keys() {
    let report = Report {
        attempted: 3,
        failed: 1,
        metrics: vec![
            Metric {
                name: "job_ms_p90",
                value: f64::INFINITY,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: 0.125,
                unit: "s",
            },
        ],
        notes: Vec::new(),
    };
    let doc = wm_stream::json::parse(&report.json()).expect("valid JSON");
    assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
    let m = doc.get("metrics").unwrap();
    let p90 = m.get("job_ms_p90").and_then(|v| v.get("value")).unwrap();
    assert!(p90.as_f64().unwrap().is_finite());
    let setup = m.get("setup_s").unwrap();
    assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
}

#[test]
fn a_traced_run_counts_each_job_once() {
    let opts = Options {
        workload: "compile".to_string(),
        seed: 3,
        seconds: 20.0,
        trace: true,
    };
    assert_eq!(rounds(&opts.workload, opts.seconds, opts.trace), 1);
    let (state, setup_s) = setup(&opts).unwrap();
    let jobs = state.list.rounds.iter().flatten().count() as u64;
    let report = run(&opts, state, setup_s);
    assert_eq!(
        (report.attempted, report.failed),
        (jobs, 0),
        "{:?}",
        report.notes
    );
    let drift = report
        .metrics
        .iter()
        .find(|m| m.name == "bench.drift")
        .unwrap();
    assert_eq!(drift.value, 0.0);
}

#[test]
fn the_round_count_follows_the_command_line_alone() {
    assert_eq!(rounds("suite-sim", 20.0, false), 5);
    assert_eq!(rounds("compile", 20.0, false), 27);
    assert_eq!(rounds("service", 20.0, false), 8);
    assert_eq!(rounds("service", 1.0, false), 3, "at least three rounds");
    assert_eq!(rounds("suite-sim", 20.0, true), 1, "a traced run does one");
}

#[test]
fn the_host_slowdown_is_a_positive_finite_ratio() {
    assert!(probe_ns() > 0);
    let mut speed = Speed::start();
    for _ in 0..3 {
        let (wall_s, slowdown) = speed.cut();
        assert!(wall_s >= 0.0);
        assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
    }
}
