//! End-to-end tests: compile mini-C through the full WM pipeline and
//! execute on the cycle-level simulator.

use wm_ir::{BinOp, FuncBuilder, InstKind, Module, Operand, RExpr, Reg};
use wm_opt::{optimize_generic, optimize_wm, OptOptions};
use wm_sim::{SimError, WmConfig, WmMachine};
use wm_target::{allocate_registers, expand_wm, TargetKind};

/// Compile a module for the WM with the given options.
fn compile(src: &str, opts: &OptOptions) -> Module {
    let mut module = wm_frontend::compile(src).expect("compiles");
    for f in module.functions.iter_mut() {
        optimize_generic(f, opts);
        expand_wm(f);
        optimize_wm(f, opts);
        allocate_registers(f, TargetKind::Wm).expect("allocates");
    }
    module
}

fn run(src: &str, entry: &str, args: &[i64], opts: &OptOptions) -> wm_sim::RunResult {
    let module = compile(src, opts);
    WmMachine::run(&module, entry, args, &WmConfig::default()).expect("runs")
}

fn run_all_opt(src: &str, entry: &str, args: &[i64]) -> wm_sim::RunResult {
    run(src, entry, args, &OptOptions::all())
}

#[test]
fn arithmetic_and_control_flow() {
    let r = run_all_opt(
        "int main() { int s; int i; s = 0; for (i = 1; i <= 10; i++) s = s + i; return s; }",
        "main",
        &[],
    );
    assert_eq!(r.ret_int, 55);
}

#[test]
fn unoptimized_code_also_runs() {
    let r = run(
        "int main() { int s; int i; s = 0; for (i = 1; i <= 10; i++) s = s + i; return s; }",
        "main",
        &[],
        &OptOptions::none(),
    );
    assert_eq!(r.ret_int, 55);
}

#[test]
fn doubles_and_conversions() {
    let r = run_all_opt(
        r"
        double half(int n) { return n / 2.0; }
        int main() { double x; x = half(7); return (int) (x * 10.0); }
        ",
        "main",
        &[],
    );
    assert_eq!(r.ret_int, 35);
}

#[test]
fn arrays_and_loops_match_reference() {
    let r = run_all_opt(
        r"
        int a[64];
        int main() {
            int i; int s;
            for (i = 0; i < 64; i++) a[i] = i * i;
            s = 0;
            for (i = 0; i < 64; i++) s = s + a[i];
            return s;
        }
        ",
        "main",
        &[],
    );
    let expected: i64 = (0..64).map(|i| i * i).sum();
    assert_eq!(r.ret_int, expected);
}

#[test]
fn livermore5_computes_the_recurrence() {
    // compare against a Rust reference implementation
    const SRC: &str = r"
        double x[200]; double y[200]; double z[200];
        int main() {
            int i;
            for (i = 0; i < 200; i++) {
                x[i] = i * 0.5;
                y[i] = i * 0.25 + 1.0;
                z[i] = 2.0 - i * 0.125;
            }
            for (i = 2; i < 200; i++)
                x[i] = z[i] * (y[i] - x[i-1]);
            return (int) (x[199] * 1000.0);
        }
    ";
    let mut x = [0.0f64; 200];
    let mut y = [0.0f64; 200];
    let mut z = [0.0f64; 200];
    for i in 0..200 {
        x[i] = i as f64 * 0.5;
        y[i] = i as f64 * 0.25 + 1.0;
        z[i] = 2.0 - i as f64 * 0.125;
    }
    for i in 2..200 {
        x[i] = z[i] * (y[i] - x[i - 1]);
    }
    let expected = (x[199] * 1000.0) as i64;

    for opts in [
        OptOptions::none(),
        OptOptions::all().without_streaming().without_recurrence(),
        OptOptions::all().without_streaming(),
        OptOptions::all(),
    ] {
        let r = run(SRC, "main", &[], &opts);
        assert_eq!(r.ret_int, expected, "options: {opts:?}");
    }
}

#[test]
fn streaming_reduces_cycles_on_livermore5() {
    const SRC: &str = r"
        double x[5000]; double y[5000]; double z[5000];
        int main() {
            int i;
            for (i = 0; i < 5000; i++) {
                x[i] = 1.0; y[i] = 2.0; z[i] = 0.5;
            }
            for (i = 2; i < 5000; i++)
                x[i] = z[i] * (y[i] - x[i-1]);
            return 0;
        }
    ";
    let base = run(SRC, "main", &[], &OptOptions::all().without_streaming());
    let streamed = run(SRC, "main", &[], &OptOptions::all());
    assert!(
        streamed.cycles < base.cycles,
        "streaming must win: {} vs {}",
        streamed.cycles,
        base.cycles
    );
    assert!(streamed.stats.stream_reads > 0);
    assert!(streamed.stats.stream_writes > 0);
}

#[test]
fn recursion_quicksort_style() {
    let r = run_all_opt(
        r"
        int a[100];
        void swap(int i, int j) { int t; t = a[i]; a[i] = a[j]; a[j] = t; }
        void qs(int lo, int hi) {
            int p; int i; int j;
            if (lo >= hi) return;
            p = a[hi]; i = lo;
            for (j = lo; j < hi; j++)
                if (a[j] < p) { swap(i, j); i = i + 1; }
            swap(i, hi);
            qs(lo, i - 1);
            qs(i + 1, hi);
        }
        int main() {
            int i; int ok;
            for (i = 0; i < 100; i++) a[i] = (i * 37 + 11) % 100;
            qs(0, 99);
            ok = 1;
            for (i = 1; i < 100; i++) if (a[i-1] > a[i]) ok = 0;
            return ok;
        }
        ",
        "main",
        &[],
    );
    assert_eq!(r.ret_int, 1, "array must be sorted");
    assert!(r.stats.calls > 100);
}

#[test]
fn pointer_string_copy_with_infinite_streams() {
    const SRC: &str = r#"
        char src[32]; char dst[32];
        int main() {
            int i; int n;
            for (i = 0; i < 26; i++) src[i] = 'a' + i;
            src[26] = 0;
            i = 0;
            while (src[i]) { dst[i] = src[i]; i = i + 1; }
            dst[i] = 0;
            n = 0;
            while (dst[n]) n = n + 1;
            return n;
        }
    "#;
    let r = run(SRC, "main", &[], &OptOptions::all());
    assert_eq!(r.ret_int, 26);
}

#[test]
fn putchar_output_is_captured() {
    let r = run_all_opt(
        r#"
        int main() {
            char msg[8];
            msg[0] = 'h'; msg[1] = 'i'; msg[2] = '\n';
            putchar(msg[0]); putchar(msg[1]); putchar(msg[2]);
            return 0;
        }
        "#,
        "main",
        &[],
    );
    assert_eq!(r.output, b"hi\n");
}

#[test]
fn entry_arguments_are_passed() {
    let r = run_all_opt("int dbl(int x) { return x + x; }", "dbl", &[21]);
    assert_eq!(r.ret_int, 42);
}

#[test]
fn division_by_zero_faults() {
    let module = compile(
        "int main() { int z; z = 0; return 7 / z; }",
        &OptOptions::none(),
    );
    let err = WmMachine::run(&module, "main", &[], &WmConfig::default()).unwrap_err();
    assert!(matches!(err, SimError::Fault { .. }), "{err}");
}

#[test]
fn missing_entry_is_reported() {
    let module = compile("int main() { return 0; }", &OptOptions::all());
    let err = WmMachine::run(&module, "nope", &[], &WmConfig::default()).unwrap_err();
    assert!(matches!(err, SimError::BadProgram(_)));
}

#[test]
fn cycle_limit_catches_infinite_loops() {
    let module = compile(
        "int main() { int i; i = 0; while (1) i = i + 1; return i; }",
        &OptOptions::none(),
    );
    let cfg = WmConfig::default().with_max_cycles(5_000);
    let err = WmMachine::run(&module, "main", &[], &cfg).unwrap_err();
    assert!(matches!(err, SimError::Timeout { .. }), "{err}");
}

#[test]
fn memory_latency_slows_unstreamed_code() {
    const SRC: &str = r"
        double a[2000]; double b[2000];
        int main() {
            int i;
            for (i = 0; i < 2000; i++) a[i] = i * 1.0;
            for (i = 0; i < 2000; i++) b[i] = a[i] * 2.0;
            return 0;
        }
    ";
    let opts = OptOptions::all().without_streaming();
    let module = compile(SRC, &opts);
    let fast = WmMachine::run(
        &module,
        "main",
        &[],
        &WmConfig::default().with_mem_latency(2),
    )
    .unwrap();
    let slow = WmMachine::run(
        &module,
        "main",
        &[],
        &WmConfig::default().with_mem_latency(40),
    )
    .unwrap();
    assert!(
        slow.cycles > fast.cycles,
        "latency must matter: {} vs {}",
        slow.cycles,
        fast.cycles
    );
}

#[test]
fn streaming_hides_memory_latency_better() {
    const SRC: &str = r"
        double a[3000]; double s[1];
        int main() {
            int i; double acc;
            for (i = 0; i < 3000; i++) a[i] = 1.5;
            acc = 0.0;
            for (i = 0; i < 3000; i++) acc = acc + a[i];
            s[0] = acc;
            return (int) acc;
        }
    ";
    let streamed = compile(SRC, &OptOptions::all());
    let scalar = compile(SRC, &OptOptions::all().without_streaming());
    let lat = WmConfig::default().with_mem_latency(20);
    let rs = WmMachine::run(&streamed, "main", &[], &lat).unwrap();
    let rb = WmMachine::run(&scalar, "main", &[], &lat).unwrap();
    assert_eq!(rs.ret_int, 4500);
    assert_eq!(rb.ret_int, 4500);
    // relative advantage should be large under high latency
    assert!(
        rs.cycles * 2 < rb.cycles * 2 && rs.cycles < rb.cycles,
        "streamed {} vs scalar {}",
        rs.cycles,
        rb.cycles
    );
}

#[test]
fn deterministic_cycle_counts() {
    const SRC: &str = r"
        int a[100];
        int main() { int i; int s; s = 0;
            for (i = 0; i < 100; i++) a[i] = i;
            for (i = 0; i < 100; i++) s = s + a[i];
            return s; }
    ";
    let m = compile(SRC, &OptOptions::all());
    let c1 = WmMachine::run(&m, "main", &[], &WmConfig::default()).unwrap();
    let c2 = WmMachine::run(&m, "main", &[], &WmConfig::default()).unwrap();
    assert_eq!(c1.cycles, c2.cycles);
    assert_eq!(c1.ret_int, 4950);
}

#[test]
fn vectorized_maps_match_scalar_results_including_tails() {
    // 10007 is not a multiple of the vector length: the scalar tail loop
    // must finish the job
    const SRC: &str = r"
        double a[10007]; double b[10007]; double c[10007];
        int main() {
            int i; double s;
            for (i = 0; i < 10007; i++) { a[i] = i % 13 * 0.5; b[i] = 1.0 + i % 7; }
            for (i = 0; i < 10007; i++) c[i] = a[i] * b[i];
            s = 0.0;
            for (i = 0; i < 10007; i++) s = s + c[i];
            return (int) (s / 100.0);
        }
    ";
    let reference = run(SRC, "main", &[], &OptOptions::all().without_streaming());
    let vectorized = run(SRC, "main", &[], &OptOptions::all().with_vectorization());
    assert_eq!(vectorized.ret_int, reference.ret_int);
    assert!(
        vectorized.cycles < reference.cycles,
        "vector loop should win: {} vs {}",
        vectorized.cycles,
        reference.cycles
    );
}

#[test]
fn consecutive_vector_loops_do_not_confuse_the_counter() {
    const SRC: &str = r"
        double a[2000]; double b[2000]; double c[2000]; double d[2000];
        int main() {
            int i; double s;
            for (i = 0; i < 2000; i++) { a[i] = 1.0; b[i] = 2.0; }
            for (i = 0; i < 2000; i++) c[i] = a[i] + b[i];
            for (i = 0; i < 2000; i++) d[i] = c[i] * 3.0;
            s = 0.0;
            for (i = 0; i < 2000; i++) s = s + d[i];
            return (int) s;
        }
    ";
    let r = run(SRC, "main", &[], &OptOptions::all().with_vectorization());
    assert_eq!(r.ret_int, 2000 * 9);
}

/// Unit instructions the decode tables cannot express are refused when
/// the machine is built, with the reason, rather than faulting mid-run:
/// a register of the other unit's class, a write to the read-only FIFO
/// register 1, and the address of a non-data symbol.
#[test]
fn malformed_unit_instructions_are_refused_at_load() {
    let module_with = |emit: &dyn Fn(&mut FuncBuilder, &Module)| {
        let mut m = Module::new();
        let mut helper = FuncBuilder::new("helper", 0, 0);
        helper.emit(InstKind::Ret);
        m.add_function(helper.finish());
        let mut b = FuncBuilder::new("main", 0, 0);
        emit(&mut b, &m);
        b.emit(InstKind::Ret);
        m.add_function(b.finish());
        m
    };
    let cases: [(&str, Module); 3] = [
        (
            "cross-unit register read of f3 on the int unit",
            module_with(&|b, _| {
                b.assign(
                    Reg::int(5),
                    RExpr::Bin(BinOp::Add, Reg::flt(3).into(), Operand::Imm(1)),
                );
            }),
        ),
        (
            "register 1 is read-only FIFO-mapped",
            module_with(&|b, _| {
                b.copy(Reg::int(1), Operand::Imm(7));
            }),
        ),
        (
            "address taken of non-data symbol helper",
            module_with(&|b, m| {
                b.emit(InstKind::LoadAddr {
                    dst: Reg::int(3),
                    sym: m.lookup("helper").expect("helper defined"),
                    disp: 0,
                });
            }),
        ),
    ];
    for (want, module) in &cases {
        match WmMachine::new(module, &WmConfig::default()) {
            Err(SimError::BadProgram(msg)) => assert_eq!(&msg, want),
            Err(e) => panic!("expected BadProgram({want}), got {e}"),
            Ok(_) => panic!("expected BadProgram({want}), but the module loaded"),
        }
    }
}
