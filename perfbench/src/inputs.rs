//! Seeded input generation. Every input the benchmark sends is a pure
//! function of the workload seed (and the op index), so the same seed
//! gives byte-identical inputs and a different seed gives different ones.

use tlm_apps::designs::CACHE_SWEEP;
use tlm_apps::{Mp3Design, Mp3Params};
use tlm_core::Pum;
use tlm_json::{ObjectBuilder, Value};

/// splitmix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n` > 0).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Sweep points per served request: the paper's five cache
/// configurations.
pub const SWEEP_POINTS: u64 = CACHE_SWEEP.len() as u64;

// ---------------------------------------------------------------- mp3_timed

/// One MP3 design point of Tables 2–3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mp3Point {
    /// Hardware/software partition.
    pub design: Mp3Design,
    /// Cache configuration label, e.g. `"8k/4k"`.
    pub label: &'static str,
    /// I-cache bytes.
    pub icache: u32,
    /// D-cache bytes.
    pub dcache: u32,
}

/// The 20 points the `mp3_timed` ops cycle through: SW…SW+4 × the five
/// cache configurations, design-major.
pub fn mp3_points() -> Vec<Mp3Point> {
    Mp3Design::ALL
        .iter()
        .flat_map(|&design| {
            CACHE_SWEEP.iter().map(move |&(label, icache, dcache)| Mp3Point {
                design,
                label,
                icache,
                dcache,
            })
        })
        .collect()
}

/// The evaluation bitstream of a workload seed. Seed 0 is the paper
/// tables' own evaluation input ([`Mp3Params::evaluation`]); other seeds
/// step through distinct positive 31-bit bitstream seeds.
pub fn mp3_eval_params(seed: u64) -> Mp3Params {
    let base = Mp3Params::evaluation();
    let stepped = (base.seed as u64).wrapping_add(seed.wrapping_mul(0x9e37_79b1)) & 0x7fff_ffff;
    Mp3Params { seed: stepped as i32, frames: base.frames }
}

// --------------------------------------------------------------- serve_cold

/// Straight-line statements per loop body of a cold source.
pub const COLD_STATEMENTS_PER_LOOP: u64 = 64;
/// Loops per cold source.
pub const COLD_LOOPS: u64 = 4;

/// One cold `/estimate` request and the parts the checks need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdRequest {
    /// The renamed FU mode of the request's PUM variant.
    pub mode_name: String,
    /// The request's MiniC source.
    pub source: String,
    /// The complete JSON request body.
    pub body: String,
}

/// The paper's five cache configurations as `/estimate` sweep points.
fn sweep_points() -> Value {
    Value::Array(
        CACHE_SWEEP
            .iter()
            .map(|&(label, icache, dcache)| {
                ObjectBuilder::new()
                    .field("label", label)
                    .field("icache", icache)
                    .field("dcache", dcache)
                    .build()
            })
            .collect(),
    )
}

/// An `/estimate` (or `/session`) body: one PE named `cpu` with `pum`,
/// one process `main` running `source`, swept over the paper's five
/// cache configurations.
pub fn platform_body(name: &str, pum: &Pum, source: &str) -> String {
    ObjectBuilder::new()
        .field(
            "platform",
            ObjectBuilder::new()
                .field("name", name)
                .field(
                    "pes",
                    Value::Array(vec![ObjectBuilder::new()
                        .field("name", "cpu")
                        .field("pum", pum.to_value())
                        .build()]),
                )
                .field(
                    "processes",
                    Value::Array(vec![ObjectBuilder::new()
                        .field("name", "main")
                        .field("pe", "cpu")
                        .field("source", source)
                        .build()]),
                )
                .build(),
        )
        .field("sweep", sweep_points())
        .build()
        .to_compact()
}

/// The core every served request's PUM starts from.
pub fn base_pum() -> Pum {
    tlm_core::library::microblaze_like(8 << 10, 4 << 10)
}

/// The `i`-th cold request of a run: a MicroBlaze-like PUM variant whose
/// FU mode is renamed (`…-s{seed}-v{i}`) and re-delayed, and a source of
/// [`COLD_LOOPS`] loops of [`COLD_STATEMENTS_PER_LOOP`] seeded
/// statements carrying `i` as a constant, swept over five cache
/// configurations. The mode name and source embed `i`, so no two requests
/// of a run share a schedule domain or a source, and every stage misses.
pub fn cold_request(seed: u64, i: u64) -> ColdRequest {
    let mut rng = Rng::new(seed ^ 0xc01d_5eed ^ (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut pum = base_pum();
    pum.name = format!("cold-cpu-{i}");
    let units = pum.datapath.units.len() as u64;
    let unit = &mut pum.datapath.units[rng.below(units) as usize];
    let modes = unit.modes.len() as u64;
    let mode = &mut unit.modes[rng.below(modes) as usize];
    mode.name = format!("{}-s{seed:x}-v{i}", mode.name);
    mode.delay = 1 + rng.below(24) as u32;
    let mode_name = mode.name.clone();

    const VARS: [&str; 4] = ["a", "b", "c", "d"];
    const OPS: [&str; 5] = ["+", "-", "*", "^", "<<"];
    let mut source = format!(
        "void main() {{ int a = {}; int b = {}; int c = {}; int d = {i}; ",
        rng.below(1 << 16),
        rng.below(1 << 16),
        rng.below(1 << 16)
    );
    for l in 0..COLD_LOOPS {
        let trips = 2 + rng.below(6);
        source.push_str(&format!("for (int k{l} = 0; k{l} < {trips}; k{l}++) {{ "));
        for _ in 0..COLD_STATEMENTS_PER_LOOP {
            let dst = VARS[rng.below(4) as usize];
            let lhs = VARS[rng.below(4) as usize];
            let op = OPS[rng.below(OPS.len() as u64) as usize];
            let rhs = VARS[rng.below(4) as usize];
            // Shift amounts stay small so the program would also run.
            let rhs = if op == "<<" { format!("({rhs} & 7)") } else { rhs.to_string() };
            source.push_str(&format!("{dst} = {lhs} {op} {rhs} + {}; ", rng.below(100)));
        }
        source.push_str("} ");
    }
    source.push_str("out(a + b + c + d); }");

    let body = platform_body(&format!("cold-{i}"), &pum, &source);
    ColdRequest { mode_name, source, body }
}

// ------------------------------------------------------------ serve_session

/// Functions of the edited process besides `main`.
pub const SESSION_FUNCTIONS: usize = 8;
/// Chained statements of an edited function body. Each picks one of
/// three op classes, so a run has 3^12 distinct body structures.
pub const EDIT_STATEMENTS: u32 = 12;
/// Statements of an initial function body: a different length from every
/// edit body, so no edit can restore an initial structure.
const INITIAL_STATEMENTS: u32 = 6;

/// One op per class the structural key tells apart: ALU, multiply, shift.
const EDIT_OPS: [&str; 3] = ["+", "*", "<<"];

/// A function body of `digits.len()` chained statements, one per digit.
fn chain_body(digits: &[usize]) -> String {
    let mut body = String::from("int r = a; ");
    for &d in digits {
        body.push_str(&format!("r = r {} b; ", EDIT_OPS[d]));
    }
    body.push_str("return r;");
    body
}

/// The session's editable state: one body per function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionProgram {
    /// Body text of `f0`…`f{N-1}`.
    pub bodies: Vec<String>,
}

impl SessionProgram {
    /// The initial program of a seed.
    pub fn initial(seed: u64) -> SessionProgram {
        let mut rng = Rng::new(seed ^ 0x5e55_1011);
        let bodies = (0..SESSION_FUNCTIONS)
            .map(|_| {
                let digits: Vec<usize> =
                    (0..INITIAL_STATEMENTS).map(|_| rng.below(3) as usize).collect();
                chain_body(&digits)
            })
            .collect();
        SessionProgram { bodies }
    }

    /// The full MiniC source of the process.
    pub fn source(&self) -> String {
        let mut source = String::new();
        for (f, body) in self.bodies.iter().enumerate() {
            source.push_str(&format!("int f{f}(int a, int b) {{ {body} }}\n"));
        }
        source.push_str("void main() { int acc = 0; for (int k = 0; k < 4; k++) { acc = acc");
        for f in 0..self.bodies.len() {
            source.push_str(&format!(" + f{f}(k, {})", f + 1));
        }
        source.push_str("; } out(acc); }\n");
        source
    }
}

/// The session-create request body for a program.
pub fn session_create_body(program: &SessionProgram) -> String {
    platform_body("session", &base_pum(), &program.source())
}

/// The `i`-th edit of a run: which function it rewrites (round-robin) and
/// its new body. Body `i` spells `offset + i` in base 3 over
/// [`EDIT_STATEMENTS`] op-class digits, so bodies never repeat within
/// 3^12 edits; the seed picks the offset and the digit → op mapping.
///
/// # Panics
///
/// Panics if `i` reaches 3^12 (far beyond what a run issues).
pub fn session_edit(seed: u64, i: u64) -> (usize, String) {
    let space = 3u64.pow(EDIT_STATEMENTS);
    assert!(i < space, "edit index {i} exhausts the {space} distinct bodies");
    let mut rng = Rng::new(seed ^ 0xed17_ed17);
    let offset = rng.below(space);
    let perm =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]][rng.below(6) as usize];
    let mut n = (offset + i) % space;
    let digits: Vec<usize> = (0..EDIT_STATEMENTS)
        .map(|_| {
            let d = perm[(n % 3) as usize];
            n /= 3;
            d
        })
        .collect();
    ((i % SESSION_FUNCTIONS as u64) as usize, chain_body(&digits))
}

/// The `/session/{id}/edit` body replacing the process source.
pub fn session_edit_body(source: &str) -> String {
    ObjectBuilder::new().field("process", "main").field("source", source).build().to_compact()
}
