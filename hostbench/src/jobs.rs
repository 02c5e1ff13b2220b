//! The job model and the seeded job lists of the three workloads.
//!
//! A job list is a sequence of *rounds*, each with the same mix of
//! programs, optimizer levels and machines, so the mix a run measures does
//! not depend on how many rounds it does.

use wm_stream::sim::MemModel;
use wm_stream::{MachineModel, OptOptions, Target, WmConfig, Workload};

/// The workloads the benchmark knows, by command-line name.
pub const WORKLOADS: [&str; 3] = ["suite-sim", "compile", "service"];

/// An optimizer configuration, named as `perf` (`scalar`, `streaming`),
/// as the `wmd` wire protocol (`classical` … `modulo`) or as Table I
/// (`table1`, `table1-rec`) names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Opt {
    /// Classical passes, no recurrence, no streaming, no-alias model.
    Scalar,
    /// Everything plus streaming, no-alias model (Table II).
    Streaming,
    /// Classical passes only.
    Classical,
    /// Classical passes plus the recurrence pass.
    Recurrence,
    /// Every default pass, streaming included.
    Full,
    /// `full` plus solver-based modulo scheduling.
    Modulo,
    /// Table I baseline for a scalar machine: no recurrence, no streaming.
    Table1,
    /// Table I with the recurrence pass.
    Table1Rec,
}

impl Opt {
    /// The four levels the `compile` and `service` workloads draw from.
    pub const WIRE: [Opt; 4] = [Opt::Classical, Opt::Recurrence, Opt::Full, Opt::Modulo];

    /// Short name used in job descriptions.
    pub fn name(self) -> &'static str {
        match self {
            Opt::Scalar => "scalar",
            Opt::Streaming => "streaming",
            Opt::Classical => "classical",
            Opt::Recurrence => "recurrence",
            Opt::Full => "full",
            Opt::Modulo => "modulo",
            Opt::Table1 => "table1",
            Opt::Table1Rec => "table1-rec",
        }
    }

    /// The code generator's target.
    pub fn target(self) -> Target {
        match self {
            Opt::Table1 | Opt::Table1Rec => Target::Scalar,
            _ => Target::Wm,
        }
    }

    /// The optimizer options this level stands for.
    pub fn options(self) -> OptOptions {
        let all = OptOptions::all();
        match self {
            Opt::Scalar => all
                .without_recurrence()
                .without_streaming()
                .assume_noalias(),
            Opt::Streaming => all.assume_noalias(),
            Opt::Classical | Opt::Table1 => all.without_recurrence().without_streaming(),
            Opt::Recurrence | Opt::Table1Rec => all.without_streaming(),
            Opt::Full => all,
            Opt::Modulo => all.with_modulo(),
        }
    }
}

/// A WM machine configuration of the `service` draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hw {
    /// `WmConfig::default()`.
    Default,
    /// 24-cycle memory with a single port.
    Latency24,
    /// The banked-DRAM memory model.
    Banked,
    /// The cache memory model.
    Cache,
    /// Two tiles (the partitioning pass compiles for two as well).
    Tiles2,
    /// FIFO capacity 2.
    Fifo2,
}

impl Hw {
    /// Every configuration, in draw order.
    pub const ALL: [Hw; 6] = [
        Hw::Default,
        Hw::Latency24,
        Hw::Banked,
        Hw::Cache,
        Hw::Tiles2,
        Hw::Fifo2,
    ];

    /// Short name used in job descriptions.
    pub fn name(self) -> &'static str {
        match self {
            Hw::Default => "default",
            Hw::Latency24 => "latency24",
            Hw::Banked => "banked",
            Hw::Cache => "cache",
            Hw::Tiles2 => "tiles2",
            Hw::Fifo2 => "fifo2",
        }
    }

    /// The simulator configuration. No engine is pinned: every job runs
    /// on the default engine.
    pub fn config(self) -> WmConfig {
        let base = WmConfig::default();
        match self {
            Hw::Default => base,
            Hw::Latency24 => base.with_mem_latency(24).with_mem_ports(1),
            Hw::Banked => base.with_mem_model(MemModel::parse("banked").expect("preset")),
            Hw::Cache => base.with_mem_model(MemModel::parse("cache").expect("preset")),
            Hw::Tiles2 => base.with_tiles(2),
            Hw::Fifo2 => base.with_fifo_capacity(2),
        }
    }

    /// Tiles the compiler partitions for.
    pub fn tiles(self) -> usize {
        if self == Hw::Tiles2 {
            2
        } else {
            1
        }
    }
}

/// Where a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Machine {
    /// The WM simulator.
    Wm(Hw),
    /// A Table I scalar model, by index into
    /// [`MachineModel::table1_machines`].
    Scalar(u8),
}

impl Machine {
    /// Short name used in job descriptions.
    pub fn name(self) -> String {
        match self {
            Machine::Wm(hw) => hw.name().to_string(),
            Machine::Scalar(i) => scalar_model(i).name.to_string(),
        }
    }
}

/// A Table I scalar model by index.
pub fn scalar_model(index: u8) -> MachineModel {
    MachineModel::table1_machines()
        .into_iter()
        .nth(usize::from(index))
        .expect("Table I has four machines")
}

/// What a job does and, for `service`, how it relates to earlier jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// Compile and simulate (`suite-sim`).
    Sim,
    /// Compile only (`compile`).
    Compile,
    /// A `(source, opt)` pair never sent before: compile, simulate, store.
    Cold,
    /// An earlier `(source, opt)` pair on a new machine: module memo hit,
    /// simulate, store.
    Reuse,
    /// An exact repeat of an earlier job: artifact-cache read.
    Repeat,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Sim => "sim",
            Kind::Compile => "compile",
            Kind::Cold => "cold",
            Kind::Reuse => "reuse",
            Kind::Repeat => "repeat",
        }
    }
}

/// One job of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Position in the whole job list.
    pub id: u32,
    /// Index into [`programs`].
    pub program: u8,
    /// Optimizer level.
    pub opt: Opt,
    /// Where it runs.
    pub machine: Machine,
    /// Source variant: 0 is the program as written; `n > 0` appends the
    /// comment `/* variant n */`, which makes the source new to every
    /// cache while leaving the compiled code unchanged.
    pub variant: u32,
    /// What the job does.
    pub kind: Kind,
}

/// Identifies a job's result: jobs with equal keys must produce equal
/// results (a source variant only adds a comment).
pub type ResultKey = (u8, Opt, Machine);

/// Identifies a job's compiled module.
pub type CompileKey = (u8, Opt, usize);

impl Job {
    /// The benchmark program.
    pub fn workload(&self) -> Workload {
        programs()[usize::from(self.program)]
    }

    /// The mini-C source sent to the compiler.
    pub fn source(&self) -> String {
        let src = self.workload().source;
        if self.variant == 0 {
            src.to_string()
        } else {
            format!("{src}\n/* variant {} */\n", self.variant)
        }
    }

    /// Tiles the job compiles and runs for.
    pub fn tiles(&self) -> usize {
        match self.machine {
            Machine::Wm(hw) => hw.tiles(),
            Machine::Scalar(_) => 1,
        }
    }

    /// Optimizer options, tile count included.
    pub fn options(&self) -> OptOptions {
        self.opt.options().with_tiles(self.tiles())
    }

    /// The key its result is checked under.
    pub fn result_key(&self) -> ResultKey {
        (self.program, self.opt, self.machine)
    }

    /// The key its compiled module is checked under.
    pub fn compile_key(&self) -> CompileKey {
        (self.program, self.opt, self.tiles())
    }

    /// A failure this job is known to meet on today's code. These stay in
    /// the job lists and count against `ok_frac`.
    pub fn known_defect(&self) -> bool {
        self.opt == Opt::Modulo
            && self.machine == Machine::Wm(Hw::Fifo2)
            && FIFO2_MODULO_DEADLOCKS.contains(&self.workload().name)
    }

    /// One line naming everything that determines the job.
    pub fn describe(&self) -> String {
        format!(
            "{} {} {} {} {} v{}",
            self.id,
            self.kind.name(),
            self.workload().name,
            self.opt.name(),
            self.machine.name(),
            self.variant
        )
    }
}

/// Programs that deadlock at `modulo` on `fifo2`: the modulo scheduler
/// assumes FIFOs of depth 4.
pub const FIFO2_MODULO_DEADLOCKS: [&str; 2] = ["od", "smooth"];

/// Every benchmark program, in `wm_workloads::all()` order.
pub fn programs() -> Vec<Workload> {
    wm_stream::workloads::all()
}

fn program_index(name: &str) -> u8 {
    let i = programs()
        .iter()
        .position(|w| w.name == name)
        .unwrap_or_else(|| panic!("no program named {name}"));
    u8::try_from(i).expect("fewer than 256 programs")
}

/// SplitMix64: a small, seedable, portable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A workload's generated job list.
#[derive(Debug, Clone)]
pub struct JobList {
    /// The workload name.
    pub workload: &'static str,
    /// The seed it was drawn from.
    pub seed: u64,
    /// Whole rounds, in run order.
    pub rounds: Vec<Vec<Job>>,
}

impl JobList {
    /// Draw `rounds` rounds of `workload` from `seed`.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown workload name.
    pub fn generate(workload: &str, seed: u64, rounds: usize) -> Result<JobList, String> {
        let mut rng = Rng::new(seed);
        let (name, rounds) = match workload {
            "suite-sim" => (
                "suite-sim",
                shuffled_rounds(&suite_jobs(), rounds, &mut rng),
            ),
            "compile" => (
                "compile",
                shuffled_rounds(&compile_jobs(), rounds, &mut rng),
            ),
            "service" => ("service", service_rounds(rounds, &mut rng)),
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected one of {})",
                    WORKLOADS.join(", ")
                ))
            }
        };
        Ok(JobList {
            workload: name,
            seed,
            rounds,
        })
    }

    /// SHA-256 over every job's description: two runs that print the
    /// same digest were handed the same job list.
    pub fn digest(&self) -> String {
        let mut text = format!("{} seed {}\n", self.workload, self.seed);
        for job in self.rounds.iter().flatten() {
            text.push_str(&job.describe());
            text.push('\n');
        }
        wm_serve::hash::sha256_hex(text.as_bytes())
    }
}

/// `suite-sim`'s distinct jobs: Table II plus livermore5, od, uuencode,
/// smooth and the sparse kernels at `scalar` and `streaming` on the
/// default WM; Table I's livermore5 and livermore5-init on the four
/// scalar models with and without the recurrence pass.
pub fn suite_jobs() -> Vec<Job> {
    let mut names: Vec<&str> = wm_stream::workloads::table2()
        .iter()
        .map(|w| w.name)
        .collect();
    names.extend([
        "livermore5",
        "od",
        "uuencode",
        "smooth",
        "sparse-matvec",
        "histogram",
    ]);
    let mut jobs = Vec::new();
    let mut push = |program: u8, opt: Opt, machine: Machine| {
        jobs.push(Job {
            id: 0,
            program,
            opt,
            machine,
            variant: 0,
            kind: Kind::Sim,
        });
    };
    for name in names {
        for opt in [Opt::Scalar, Opt::Streaming] {
            push(program_index(name), opt, Machine::Wm(Hw::Default));
        }
    }
    for name in ["livermore5", "livermore5-init"] {
        for model in 0..4 {
            for opt in [Opt::Table1, Opt::Table1Rec] {
                push(program_index(name), opt, Machine::Scalar(model));
            }
        }
    }
    jobs
}

/// `compile`'s distinct jobs: every program at every wire level.
pub fn compile_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for program in 0..programs().len() {
        for opt in Opt::WIRE {
            jobs.push(Job {
                id: 0,
                program: u8::try_from(program).expect("fewer than 256 programs"),
                opt,
                machine: Machine::Wm(Hw::Default),
                variant: 0,
                kind: Kind::Compile,
            });
        }
    }
    jobs
}

/// Each round is a fresh seeded permutation of the same job set.
fn shuffled_rounds(set: &[Job], rounds: usize, rng: &mut Rng) -> Vec<Vec<Job>> {
    let mut id = 0;
    (0..rounds)
        .map(|_| {
            let mut round = set.to_vec();
            rng.shuffle(&mut round);
            for job in &mut round {
                job.id = id;
                id += 1;
            }
            round
        })
        .collect()
}

/// The cold job's `(opt, machine)` for program `p`: combination
/// `7p + 1 (mod 24)` of [`Opt::WIRE`] × [`Hw::ALL`], so the 18 programs
/// cover every level and every machine. The mix is the same in every
/// round and for every seed, so throughput does not depend on the draw.
/// Round 0 holds od and smooth at `modulo` on `fifo2` instead, today's
/// known deadlocks.
fn cold_combo(program: u8, round: usize) -> (Opt, Hw) {
    let name = programs()[usize::from(program)].name;
    let k = if round == 0 && FIFO2_MODULO_DEADLOCKS.contains(&name) {
        23
    } else {
        (usize::from(program) * 7 + 1) % 24
    };
    (Opt::WIRE[k % 4], Hw::ALL[k / 4])
}

/// `service` rounds. Every round holds, for every program, a cold job,
/// then a reuse of that cold job's `(source, opt)` pair on the machine
/// three places further along [`Hw::ALL`], then a repeat of the previous
/// round's cold job or reuse (round 0 repeats its own). So every round has
/// the same mix, a third of each kind. The seed draws the order within
/// each round and what each repeat copies.
fn service_rounds(rounds: usize, rng: &mut Rng) -> Vec<Vec<Job>> {
    let n = programs().len();
    let mut out: Vec<Vec<Job>> = Vec::with_capacity(rounds);
    let mut id = 0;
    for r in 0..rounds {
        let mut slots: Vec<u8> = (0..n)
            .flat_map(|p| [u8::try_from(p).expect("fewer than 256 programs"); 3])
            .collect();
        rng.shuffle(&mut slots);
        let mut round: Vec<Job> = Vec::with_capacity(slots.len());
        let mut seen = vec![0usize; n];
        for program in slots {
            let kind = [Kind::Cold, Kind::Reuse, Kind::Repeat][seen[usize::from(program)]];
            seen[usize::from(program)] += 1;
            let find = |jobs: &[Job], k: Kind| {
                *jobs
                    .iter()
                    .find(|j| j.program == program && j.kind == k)
                    .expect("referenced job exists")
            };
            let job = match kind {
                Kind::Cold => {
                    let (opt, hw) = cold_combo(program, r);
                    Job {
                        id,
                        program,
                        opt,
                        machine: Machine::Wm(hw),
                        variant: id + 1,
                        kind,
                    }
                }
                Kind::Reuse => {
                    let cold = find(&round, Kind::Cold);
                    let Machine::Wm(hw) = cold.machine else {
                        unreachable!("service jobs run on the WM")
                    };
                    let index = Hw::ALL.iter().position(|&h| h == hw).expect("listed");
                    Job {
                        id,
                        machine: Machine::Wm(Hw::ALL[(index + 3) % Hw::ALL.len()]),
                        kind,
                        ..cold
                    }
                }
                _ => {
                    let source = if r == 0 { &round } else { &out[r - 1] };
                    let pick = [Kind::Cold, Kind::Reuse][rng.below(2)];
                    Job {
                        id,
                        kind,
                        ..find(source, pick)
                    }
                }
            };
            round.push(job);
            id += 1;
        }
        out.push(round);
    }
    out
}
