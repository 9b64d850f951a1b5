//! Batched, data-parallel execution of Algorithm 1 over many blocks.
//!
//! The per-block kernel ([`crate::schedule::schedule_block_prepared`])
//! already runs on flat data; the next step is amortizing the cycle loop
//! across *many* blocks at once. Two independent levers are combined:
//!
//! 1. **Identical-shape dedup.** Algorithm 1 is a pure function of
//!    `(schedule domain, canonical block key)`, and real applications
//!    repeat small blocks heavily (loop headers, glue blocks, empty join
//!    blocks). Before anything is simulated, blocks with bit-identical
//!    canonical DFG encodings ([`tlm_cdfg::dfg::schedule_key`]) are folded
//!    into one representative solve whose result is fanned back out to
//!    every duplicate.
//! 2. **Lane-sliced batches.** The surviving unique blocks are grouped by
//!    op count, and up to [`MAX_LANES`] same-count blocks are simulated in
//!    lockstep by `schedule_lanes`: op-state bitsets are packed one `u64`
//!    word per op with one *bit per lane*, and the per-stage slot counters
//!    are laid out lane-contiguous (`slot * lanes + lane`) so the phase-1
//!    counter decrements run as a branch-free strip across the whole batch
//!    instead of once per block — and the per-solve fixed costs (arena
//!    sizing, pipeline-geometry fills), which dominate on the small blocks
//!    real modules are made of, are paid once per unit instead of once per
//!    block. Blocks in a batch are independent simulations, so lockstep
//!    interleaving is **bit-identical** to per-block execution by
//!    construction; the per-lane phases mirror the scalar kernel's
//!    iteration order exactly (asserted against the reference kernel by
//!    `tests/kernel_differential.rs`).
//!
//! Lanes carry their own op classes, dependence CSRs and issue orders, so
//! *any* same-count blocks may share a batch; correctness never depends on
//! which lanes end up together. Finer *shape classing* — the op-class
//! histogram plus a DFG edge-structure hash — is applied only where it can
//! matter: a group larger than [`MAX_LANES`] is ordered by shape class
//! before it is chunked, so similar blocks (which finish at similar
//! cycles) share a unit and little lockstep time is spent dragging
//! finished lanes. Empty and single-op blocks (which the scalar kernel
//! answers in closed form) and groups or chunk tails under [`MIN_LANES`]
//! (too few lanes to amortize the strip sweep) fall back to the per-block
//! kernel — which still profits from the dedup fold.
//!
//! [`batch_stats`] exposes process-wide dedup and occupancy counters in
//! the same style as [`crate::schedule::scratch_stats`]; `tlm-serve`
//! re-exports them on `/metrics` and `estperf` records them per run.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tlm_cdfg::dfg::Dfg;
use tlm_cdfg::ir::BlockData;
use tlm_cdfg::{BlockId, FuncId};

use crate::error::EstimateError;
use crate::parallel::par_map;
use crate::pum::SchedulingPolicy;
use crate::schedule::{
    class_index, grow, schedule_block_prepared, IssueTable, ScheduleResult, ScheduleScratch,
    CYCLE_LIMIT, N_CLASSES,
};

/// Lanes per lane-sliced solve: one `u64` state word packs one bit per
/// lane, so a batch is at most the word width.
pub const MAX_LANES: usize = 64;

/// Minimum lanes for the lane-sliced kernel to engage. Below this the
/// per-block kernel wins: its phase 1 walks only *occupied* slots, while
/// the lockstep strip sweeps every slot row across every lane, so the
/// strip needs enough lanes to amortize — measured on the mp3/image mix,
/// units under ~8 lanes cost more than the scalar solves they replace.
/// Representatives in smaller groups fall back to the per-block kernel
/// (which still benefits from dedup).
pub const MIN_LANES: usize = 8;

/// Minimum total op latency (cycles, `IssueTable::class_latency`) for a
/// block to be lane-eligible. The lane kernel's win is turning
/// long-latency *drain* cycles into branch-free phase-1 strips shared
/// across lanes; its cost is the lane-strided state layout, which makes
/// the per-lane phases 2–3 touch one cache line per word where the
/// per-block kernel touches contiguous state. Issue-dominated blocks
/// (every op a few cycles end to end) spend most cycles in phases 2–3, so
/// lanes lose there — measured on 7-op blocks, an all-short-op mix is
/// ~20% slower lane-sliced at 64 lanes while the same shape with one
/// 32-cycle divide breaks even at 16 lanes and wins beyond. A block
/// qualifies when *any* of its ops has total latency at or past this
/// threshold (one long op is enough to drain-dominate a small block);
/// 16 sits between microblaze-like's multiply (7 cycles end to end) and
/// divide (36).
pub const LANE_MIN_DRAIN: u64 = 16;

/// One block submitted to a batch solve. All references are borrowed from
/// the caller's prepared inputs (see
/// [`PreparedModule`](crate::annotate::PreparedModule)); the item itself
/// is a cheap `Copy` bundle.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    /// The block's canonical schedule key ([`tlm_cdfg::dfg::schedule_key`]);
    /// identical keys are folded into one solve.
    pub key: &'a [u8],
    /// [`key_hash`] of `key`, precomputed at preparation time.
    pub key_hash: u64,
    /// The block itself.
    pub block: &'a BlockData,
    /// The block's dependence graph.
    pub dfg: &'a Dfg,
    /// Dependence heights (read only under the List/ALAP policies; pass
    /// `&[]` otherwise, as for the per-block kernel).
    pub heights: &'a [usize],
    /// Function id, for error reporting.
    pub func: FuncId,
    /// Block id, for error reporting.
    pub block_id: BlockId,
}

/// Occupancy histogram bucket labels, least to most occupied. Bucket `1`
/// counts scalar-fallback solves (singleton units).
pub const OCCUPANCY_BUCKETS: [&str; 5] = ["1", "2-7", "8-31", "32-63", "64"];

#[inline]
fn occupancy_bucket(lanes: usize) -> usize {
    match lanes {
        0..=1 => 0,
        2..=7 => 1,
        8..=31 => 2,
        32..=63 => 3,
        _ => 4,
    }
}

static BATCH_BLOCKS: AtomicU64 = AtomicU64::new(0);
static BATCH_DEDUP_HITS: AtomicU64 = AtomicU64::new(0);
static BATCH_UNIQUE_SOLVES: AtomicU64 = AtomicU64::new(0);
static BATCH_LANE_RUNS: AtomicU64 = AtomicU64::new(0);
static BATCH_OCCUPANCY: [AtomicU64; 5] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

/// Batched-kernel effectiveness counters (process-wide totals).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Blocks submitted to batch planning.
    pub blocks: u64,
    /// Blocks folded into another block's solve (identical canonical key).
    pub dedup_hits: u64,
    /// Representative solves actually planned (blocks − dedup hits).
    pub unique_solves: u64,
    /// Lane-sliced kernel invocations (units of ≥ [`MIN_LANES`] lanes).
    pub lane_runs: u64,
    /// Solve units per occupancy bucket ([`OCCUPANCY_BUCKETS`]).
    pub occupancy: [u64; 5],
}

/// Snapshot of the batch dedup/occupancy counters, summed over all threads
/// since process start (same contract as
/// [`scratch_stats`](crate::schedule::scratch_stats)).
pub fn batch_stats() -> BatchStats {
    let mut occupancy = [0u64; 5];
    for (slot, counter) in occupancy.iter_mut().zip(&BATCH_OCCUPANCY) {
        *slot = counter.load(Ordering::Relaxed);
    }
    BatchStats {
        blocks: BATCH_BLOCKS.load(Ordering::Relaxed),
        dedup_hits: BATCH_DEDUP_HITS.load(Ordering::Relaxed),
        unique_solves: BATCH_UNIQUE_SOLVES.load(Ordering::Relaxed),
        lane_runs: BATCH_LANE_RUNS.load(Ordering::Relaxed),
        occupancy,
    }
}

/// Hash of a canonical schedule key for [`BatchItem::key_hash`]: FNV-1a
/// folded over 8-byte words. Keys are short (~5 bytes per op) and the
/// dedup table compares full keys on every hit anyway, so a word-granular
/// fold is enough. Callers compute this once per block at preparation
/// time (alongside the key itself) so batch planning — which runs per
/// sweep point — only probes.
pub fn key_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ word).wrapping_mul(0x0100_0000_01b3);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Shape class of a block: op count, op-class histogram and an FNV hash of
/// the DFG edge structure. Used to order oversized same-count groups so
/// statistically similar schedules share a unit (a coherence heuristic —
/// see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct ShapeClass {
    n: usize,
    hist: [u16; N_CLASSES],
    edge_hash: u64,
}

#[inline]
fn fnv_step(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn shape_class(item: &BatchItem<'_>) -> ShapeClass {
    let mut hist = [0u16; N_CLASSES];
    for op in &item.block.ops {
        let slot = &mut hist[class_index(op.class())];
        *slot = slot.saturating_add(1);
    }
    let mut edge_hash = 0xcbf2_9ce4_8422_2325u64;
    for preds in &item.dfg.preds {
        edge_hash = fnv_step(edge_hash, preds.len() as u64);
        for &p in preds {
            edge_hash = fnv_step(edge_hash, p as u64);
        }
    }
    ShapeClass { n: item.block.ops.len(), hist, edge_hash }
}

/// The solve plan for a batch of items: which item each duplicate resolves
/// to, and the solve units (lane batches and scalar singletons) covering
/// every representative exactly once.
#[derive(Debug)]
pub struct BatchPlan {
    /// `rep_of[i]` is the dense *rank* — an index into
    /// [`BatchPlan::reps`] — of the item whose solve serves item `i`.
    /// Ranks keep the solve-side result buffer sized by unique solves, not
    /// by batch size (most items are duplicates on real batches).
    rep_of: Vec<u32>,
    /// Representative item indices in first-appearance order; `reps[rank]`
    /// is the item solved on behalf of every item with that `rep_of` rank.
    reps: Vec<u32>,
    /// Representatives solved by the per-block kernel: empty and single-op
    /// blocks (closed-form in the scalar kernel), issue-dominated blocks
    /// (no op reaching [`LANE_MIN_DRAIN`]), groups and chunk tails under
    /// [`MIN_LANES`].
    scalars: Vec<u32>,
    /// Lane units in first-appearance order: [`MIN_LANES`] ..=
    /// [`MAX_LANES`] items of one op count each, run by `schedule_lanes`.
    units: Vec<Vec<u32>>,
}

impl BatchPlan {
    /// Plans `items`: folds identical keys, groups lane-eligible
    /// representatives (≥ 2 ops, drain-dominated per [`LANE_MIN_DRAIN`])
    /// by op count and chunks each group into units of at most
    /// [`MAX_LANES`] (ordering a group by shape class first when it spans
    /// several units). Bumps the process-wide [`batch_stats`] counters.
    pub fn of(table: &IssueTable, items: &[BatchItem<'_>]) -> BatchPlan {
        let mut rep_of = vec![0u32; items.len()];
        // Open-addressed dedup table (linear probing, ≤50% load): slots
        // hold item indices, hashes come precomputed on the items
        // ([`BatchItem::key_hash`]) and every hit compares the full keys,
        // so collisions only cost probes. This replaces a `HashMap` whose
        // per-entry machinery dominated planning time on real batches of
        // tiny keys.
        let cap = (items.len().max(8) * 2).next_power_of_two();
        let mask = cap - 1;
        let mut dedup: Vec<u32> = vec![u32::MAX; cap];
        let mut reps: Vec<u32> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let mut slot = item.key_hash as usize & mask;
            rep_of[i] = loop {
                let rank = dedup[slot];
                if rank == u32::MAX {
                    dedup[slot] = reps.len() as u32;
                    reps.push(i as u32);
                    break dedup[slot];
                }
                if items[reps[rank as usize] as usize].key == item.key {
                    break rank;
                }
                slot = (slot + 1) & mask;
            };
        }
        // Group representatives by op count, keeping first-appearance
        // order so planning is deterministic. Real batches have a handful
        // of distinct op counts, so a linear scan beats a map.
        let mut scalars: Vec<u32> = Vec::new();
        let mut group_of_count: Vec<(usize, usize)> = Vec::new();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for &r in &reps {
            let item = &items[r as usize];
            let n = item.block.ops.len();
            let drained = item
                .block
                .ops
                .iter()
                .any(|op| table.class_latency(class_index(op.class())) >= LANE_MIN_DRAIN);
            if n < 2 || !drained {
                scalars.push(r);
                continue;
            }
            let slot = match group_of_count.iter().find(|&&(count, _)| count == n) {
                Some(&(_, slot)) => slot,
                None => {
                    groups.push(Vec::new());
                    group_of_count.push((n, groups.len() - 1));
                    groups.len() - 1
                }
            };
            groups[slot].push(r);
        }
        let mut units: Vec<Vec<u32>> = Vec::new();
        for mut group in groups {
            if group.len() < MIN_LANES {
                scalars.extend_from_slice(&group);
                continue;
            }
            if group.len() > MAX_LANES {
                // Only a group spanning several units cares which lanes
                // share one: order by shape class so similar blocks (and
                // similar finish cycles) sit together. The index tiebreak
                // keeps the order deterministic.
                group.sort_by_key(|&r| (shape_class(&items[r as usize]), r));
            }
            for chunk in group.chunks(MAX_LANES) {
                if chunk.len() < MIN_LANES {
                    scalars.extend_from_slice(chunk);
                } else {
                    units.push(chunk.to_vec());
                }
            }
        }
        let mut occupancy = [0u64; 5];
        occupancy[0] = scalars.len() as u64;
        for unit in &units {
            occupancy[occupancy_bucket(unit.len())] += 1;
        }
        BATCH_BLOCKS.fetch_add(items.len() as u64, Ordering::Relaxed);
        BATCH_DEDUP_HITS.fetch_add((items.len() - reps.len()) as u64, Ordering::Relaxed);
        BATCH_UNIQUE_SOLVES.fetch_add(reps.len() as u64, Ordering::Relaxed);
        BATCH_LANE_RUNS.fetch_add(units.len() as u64, Ordering::Relaxed);
        for (counter, count) in BATCH_OCCUPANCY.iter().zip(occupancy) {
            if count > 0 {
                counter.fetch_add(count, Ordering::Relaxed);
            }
        }
        #[cfg(test)]
        tests::count_thread_plan(BatchStats {
            blocks: items.len() as u64,
            dedup_hits: (items.len() - reps.len()) as u64,
            unique_solves: reps.len() as u64,
            lane_runs: units.len() as u64,
            occupancy,
        });
        BatchPlan { rep_of, reps, scalars, units }
    }

    /// The lane units (see [`BatchPlan::units`] layout notes).
    pub fn units(&self) -> &[Vec<u32>] {
        &self.units
    }

    /// Representatives assigned to the per-block kernel.
    pub fn scalars(&self) -> &[u32] {
        &self.scalars
    }

    /// The representative *rank* (index into [`BatchPlan::reps`]) serving
    /// each item.
    pub fn rep_of(&self) -> &[u32] {
        &self.rep_of
    }

    /// Representative item indices, ranked in first-appearance order.
    pub fn reps(&self) -> &[u32] {
        &self.reps
    }
}

/// Reusable lane-sliced simulation state for the lane kernel, plus an
/// inner per-block [`ScheduleScratch`] for the scalar fallback. One arena
/// per worker thread ([`with_batch_scratch`]); buffers grow on first use
/// and are then reused across batches.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Op-state words, one `u64` **per op** (bit = lane), three regions:
    /// committed / done / issued.
    state: Vec<u64>,
    /// Uncommitted-predecessor counts, `[op * lanes + lane]`.
    commit_pending: Vec<u32>,
    /// Dense class index, `[op * lanes + lane]`.
    op_class: Vec<u8>,
    /// Issue order, lane-major `[lane * n + i]` (walked sequentially per
    /// lane in phase 3).
    order: Vec<u32>,
    /// CSR successor offsets, lane-major `[lane * (n + 1) + i]`, relative
    /// to the lane's `succ` base.
    succ_off: Vec<u32>,
    /// CSR successor targets, per-lane regions concatenated.
    succ: Vec<u32>,
    /// CSR fill cursor, one lane at a time.
    cursor: Vec<u32>,
    /// Issue priorities, one lane at a time (List/ALAP only).
    priority: Vec<i64>,
    /// Slot regions, `[(stage_base + k) * lanes + lane]`. Unoccupied slots
    /// keep `slot_rem == 0` — the invariant that lets phase 1 sweep every
    /// slot branch-free.
    slot_op: Vec<u32>,
    slot_rem: Vec<u32>,
    /// Occupied slots per stage, `[stage * lanes + lane]`.
    stage_len: Vec<u32>,
    /// Cross-lane upper bound on `stage_len` per stage, raised at the two
    /// sites that grow a stage and never lowered. Phase 1 sweeps only
    /// `[0, stage_len_ub)` rows — everything past the bound holds
    /// `rem == 0` in every lane, so skipping it is bit-identical, and a
    /// stale-high bound only re-sweeps zero rows (never worse than the
    /// stage-capacity sweep it replaces).
    stage_len_ub: Vec<u32>,
    /// Free FU instances, `[fu * lanes + lane]`.
    fu_free: Vec<u32>,
    /// Per-pipe high-water marks, `[pipe * lanes + lane]`.
    pipe_hi: Vec<u32>,
    /// Cross-lane upper bound on `pipe_hi` per pipe, same contract as
    /// `stage_len_ub`.
    pipe_hi_ub: Vec<u32>,
    /// First slot index of each stage.
    stage_base: Vec<usize>,
    /// Issue/finish cycles, lane-major `[lane * n + i]`; `u64::MAX` means
    /// "never" (transparent ops).
    issue_cycle: Vec<u64>,
    finish_cycle: Vec<u64>,
    /// Per-lane resolved-op counts.
    done_count: Vec<u32>,
    /// Per-lane phase-3 order cursors.
    issue_head: Vec<u32>,
    /// Per-lane latest finish cycle.
    last_finish: Vec<u64>,
    /// Per-lane `succ` region starts (`lanes + 1` entries).
    edge_base: Vec<usize>,
    /// Worklist for the transparent-resolution cascade.
    stack: Vec<u32>,
    /// Scalar fallback arena for singleton units.
    inner: ScheduleScratch,
}

impl BatchScratch {
    /// An empty arena; buffers grow on first use and are then reused.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    /// Sizes every buffer for `lanes` blocks of `n` ops with `edge_total`
    /// dependence edges under `table`'s geometry; fills `stage_base` and
    /// returns the total slot capacity.
    fn prepare(&mut self, table: &IssueTable, n: usize, lanes: usize, edge_total: usize) -> usize {
        let mut grew = false;
        grow(&mut self.state, 3 * n, &mut grew);
        grow(&mut self.commit_pending, n * lanes, &mut grew);
        grow(&mut self.op_class, n * lanes, &mut grew);
        grow(&mut self.order, n * lanes, &mut grew);
        grow(&mut self.succ_off, (n + 1) * lanes, &mut grew);
        grow(&mut self.succ, edge_total, &mut grew);
        grow(&mut self.cursor, n, &mut grew);
        if matches!(table.policy, SchedulingPolicy::List | SchedulingPolicy::Alap) {
            grow(&mut self.priority, n, &mut grew);
        }
        let stages = table.stage_width.len();
        grow(&mut self.stage_base, stages, &mut grew);
        let mut slots = 0usize;
        for (j, &width) in table.stage_width.iter().enumerate() {
            self.stage_base[j] = slots;
            slots += width.min(n);
        }
        grow(&mut self.slot_op, slots * lanes, &mut grew);
        grow(&mut self.slot_rem, slots * lanes, &mut grew);
        grow(&mut self.stage_len, stages * lanes, &mut grew);
        grow(&mut self.stage_len_ub, stages, &mut grew);
        grow(&mut self.fu_free, table.fu_quantity.len() * lanes, &mut grew);
        grow(&mut self.pipe_hi, (table.pipe_first.len() - 1) * lanes, &mut grew);
        grow(&mut self.pipe_hi_ub, table.pipe_first.len() - 1, &mut grew);
        grow(&mut self.issue_cycle, n * lanes, &mut grew);
        grow(&mut self.finish_cycle, n * lanes, &mut grew);
        grow(&mut self.done_count, lanes, &mut grew);
        grow(&mut self.issue_head, lanes, &mut grew);
        grow(&mut self.last_finish, lanes, &mut grew);
        grow(&mut self.edge_base, lanes + 1, &mut grew);
        self.stack.clear();
        let _ = grew;
        slots
    }
}

thread_local! {
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::new());
}

/// Runs `f` with the calling thread's batch scratch arena.
///
/// # Panics
///
/// Panics if `f` re-enters `with_batch_scratch` on the same thread.
pub fn with_batch_scratch<R>(f: impl FnOnce(&mut BatchScratch) -> R) -> R {
    BATCH_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// The lane-sliced [`publish`](crate::schedule) cascade: marks `op`
/// committed in `lane`'s bit position, decrements its successors' pending
/// counts and resolves transparent dependents whose last predecessor this
/// was. Bit-for-bit the scalar cascade, restricted to one lane.
#[allow(clippy::too_many_arguments)]
#[inline]
fn publish_lane(
    op: usize,
    lane: usize,
    lanes: usize,
    transparent: &[bool; N_CLASSES],
    op_class: &[u8],
    committed: &mut [u64],
    done: &mut [u64],
    issued: &mut [u64],
    commit_pending: &mut [u32],
    succ_off: &[u32],
    succ: &[u32],
    stack: &mut Vec<u32>,
    done_count: &mut u32,
) {
    let lbit = 1u64 << lane;
    if committed[op] & lbit != 0 {
        return; // successors were already notified
    }
    committed[op] |= lbit;
    stack.push(op as u32);
    while let Some(p) = stack.pop() {
        let (lo, hi) = (succ_off[p as usize] as usize, succ_off[p as usize + 1] as usize);
        for &s in &succ[lo..hi] {
            let s = s as usize;
            let pending = &mut commit_pending[s * lanes + lane];
            *pending -= 1;
            if *pending == 0
                && transparent[op_class[s * lanes + lane] as usize]
                && done[s] & lbit == 0
            {
                done[s] |= lbit;
                issued[s] |= lbit;
                *done_count += 1;
                if committed[s] & lbit == 0 {
                    committed[s] |= lbit;
                    stack.push(s as u32);
                }
            }
        }
    }
}

/// Simulates a unit of 2 ..= [`MAX_LANES`] same-op-count blocks in
/// lockstep (the planner only forms units of ≥ [`MIN_LANES`], but any
/// width from 2 up is correct). Results are per lane, in `unit` order,
/// and bit-identical to running the per-block kernel on each lane alone.
fn schedule_lanes(
    table: &IssueTable,
    s: &mut BatchScratch,
    items: &[BatchItem<'_>],
    unit: &[u32],
) -> Vec<Result<ScheduleResult, EstimateError>> {
    let lanes = unit.len();
    let n = items[unit[0] as usize].block.ops.len();
    debug_assert!((2..=MAX_LANES).contains(&lanes));
    debug_assert!(n >= 2);
    let n_stages = table.n_stages;
    let stages = table.stage_width.len();
    let n_pipes = table.pipe_first.len() - 1;
    let fu_n = table.fu_quantity.len();

    let mut edge_total = 0usize;
    for (lane, &u) in unit.iter().enumerate() {
        s.edge_base.resize(lanes + 1, 0);
        s.edge_base[lane] = edge_total;
        edge_total += items[u as usize].dfg.preds.iter().map(Vec::len).sum::<usize>();
    }
    let slots = s.prepare(table, n, lanes, edge_total);
    s.edge_base[lanes] = edge_total;

    // Carve the arenas into named views (distinct struct fields, so the
    // borrows split).
    let state = &mut s.state[..3 * n];
    state.fill(0);
    let (committed, rest) = state.split_at_mut(n);
    let (done, issued) = rest.split_at_mut(n);
    let commit_pending = &mut s.commit_pending[..n * lanes];
    let op_class = &mut s.op_class[..n * lanes];
    let order = &mut s.order[..n * lanes];
    let succ_off = &mut s.succ_off[..(n + 1) * lanes];
    let succ = &mut s.succ[..edge_total];
    let cursor = &mut s.cursor[..n];
    let priority = &mut s.priority[..];
    let slot_op = &mut s.slot_op[..slots * lanes];
    let slot_rem = &mut s.slot_rem[..slots * lanes];
    slot_rem.fill(0);
    let stage_len = &mut s.stage_len[..stages * lanes];
    stage_len.fill(0);
    let stage_len_ub = &mut s.stage_len_ub[..stages];
    stage_len_ub.fill(0);
    let fu_free = &mut s.fu_free[..fu_n * lanes];
    for (f, &quantity) in table.fu_quantity.iter().enumerate() {
        fu_free[f * lanes..(f + 1) * lanes].fill(quantity);
    }
    let pipe_hi = &mut s.pipe_hi[..n_pipes * lanes];
    pipe_hi.fill(0);
    let pipe_hi_ub = &mut s.pipe_hi_ub[..n_pipes];
    pipe_hi_ub.fill(0);
    let stage_base = &s.stage_base[..stages];
    let issue_cycle = &mut s.issue_cycle[..n * lanes];
    issue_cycle.fill(u64::MAX);
    let finish_cycle = &mut s.finish_cycle[..n * lanes];
    finish_cycle.fill(u64::MAX);
    let done_count = &mut s.done_count[..lanes];
    done_count.fill(0);
    let issue_head = &mut s.issue_head[..lanes];
    issue_head.fill(0);
    let last_finish = &mut s.last_finish[..lanes];
    last_finish.fill(0);
    let edge_base = &s.edge_base[..lanes + 1];
    let stack = &mut s.stack;

    let mut results: Vec<Option<Result<ScheduleResult, EstimateError>>> = vec![None; lanes];
    let mut active: u64 = 0;

    // Per-lane setup, mirroring the scalar kernel's preamble: class map
    // (erroring at the first unmapped op), dependence CSR, issue order.
    for (lane, &u) in unit.iter().enumerate() {
        let item = &items[u as usize];
        debug_assert_eq!(item.block.ops.len(), n);
        let mut unmapped = None;
        for (i, op) in item.block.ops.iter().enumerate() {
            let class = op.class();
            let ci = class_index(class);
            if !table.mapped[ci] {
                unmapped = Some(class);
                break;
            }
            op_class[i * lanes + lane] = ci as u8;
        }
        if let Some(class) = unmapped {
            results[lane] = Some(Err(EstimateError::UnmappedClass { class }));
            continue;
        }
        let so = &mut succ_off[lane * (n + 1)..(lane + 1) * (n + 1)];
        so.fill(0);
        for (i, preds) in item.dfg.preds.iter().enumerate() {
            commit_pending[i * lanes + lane] = preds.len() as u32;
            for &p in preds {
                so[p + 1] += 1;
            }
        }
        for j in 1..=n {
            so[j] += so[j - 1];
        }
        cursor.copy_from_slice(&so[..n]);
        let ebase = edge_base[lane];
        for (i, preds) in item.dfg.preds.iter().enumerate() {
            for &p in preds {
                succ[ebase + cursor[p] as usize] = i as u32;
                cursor[p] += 1;
            }
        }
        let lane_order = &mut order[lane * n..(lane + 1) * n];
        for (i, slot) in lane_order.iter_mut().enumerate() {
            *slot = i as u32;
        }
        match table.policy {
            SchedulingPolicy::InOrder | SchedulingPolicy::Asap => {}
            SchedulingPolicy::List => {
                debug_assert_eq!(item.heights.len(), n, "List policy needs per-op heights");
                for (pri, &h) in priority[..n].iter_mut().zip(item.heights) {
                    *pri = -(h as i64);
                }
                lane_order.sort_unstable_by_key(|&i| (priority[i as usize], i));
            }
            SchedulingPolicy::Alap => {
                debug_assert_eq!(item.heights.len(), n, "ALAP policy needs per-op heights");
                for (pri, &h) in priority[..n].iter_mut().zip(item.heights) {
                    *pri = h as i64;
                }
                lane_order.sort_unstable_by_key(|&i| (priority[i as usize], i));
            }
        }
        active |= 1u64 << lane;
    }

    // Source-transparent resolution before the first cycle, per lane.
    for lane in 0..lanes {
        if active & (1u64 << lane) == 0 {
            continue;
        }
        let lbit = 1u64 << lane;
        for i in 0..n {
            if table.transparent[op_class[i * lanes + lane] as usize]
                && commit_pending[i * lanes + lane] == 0
                && done[i] & lbit == 0
            {
                done[i] |= lbit;
                issued[i] |= lbit;
                done_count[lane] += 1;
                publish_lane(
                    i,
                    lane,
                    lanes,
                    &table.transparent,
                    op_class,
                    committed,
                    done,
                    issued,
                    commit_pending,
                    &succ_off[lane * (n + 1)..(lane + 1) * (n + 1)],
                    &succ[edge_base[lane]..edge_base[lane + 1]],
                    stack,
                    &mut done_count[lane],
                );
            }
        }
    }

    let in_order = table.policy == SchedulingPolicy::InOrder;
    let mut any_scheduled: u64 = 0;
    let mut cycle: u64 = 0;
    let mut live: u64 = 0;
    for (lane, &dc) in done_count[..lanes].iter().enumerate() {
        if active & (1u64 << lane) != 0 && (dc as usize) < n {
            live |= 1u64 << lane;
        }
    }
    // Lanes whose phases 2–3 could differ from a no-op this cycle. A
    // lane's advclock/issue state only changes through a slot counter
    // reaching zero (phase 1, tracked per cycle in `completed`) or through
    // its own phase-2/3 action last cycle (tracked here) — any other cycle
    // would re-stall every slot and re-reject every issue identically, so
    // skipping it is bit-identical and turns long-latency drain cycles
    // into a pure phase-1 strip.
    let mut attention: u64 = live;

    while live != 0 {
        if cycle > CYCLE_LIMIT {
            for (lane, &u) in unit.iter().enumerate() {
                if live & (1u64 << lane) != 0 {
                    let item = &items[u as usize];
                    results[lane] = Some(Err(EstimateError::Deadlock {
                        func: item.func,
                        block: item.block_id,
                        cycle,
                    }));
                }
            }
            active &= !live;
            break;
        }
        let mut progress: u64 = 0;
        let mut completed: u64 = 0;

        // Phase 1, lane-sliced: sweep every slot row across all lanes with
        // a branch-free decrement (empty and stalled slots both hold 0, so
        // `rem > 0` is exactly "occupied and still counting"), collecting a
        // completion mask per row; completions at the commit stage publish.
        for (p, &pipe_hi) in pipe_hi_ub[..n_pipes].iter().enumerate() {
            for s_local in 0..pipe_hi as usize {
                let j = table.pipe_first[p] + s_local;
                // Occupied slots are swap-remove compacted into
                // `[0, stage_len)` per lane (phase 2), so rows past the
                // cross-lane bound hold `rem == 0` in every lane and the
                // sweep can stop there — small blocks in wide stages would
                // otherwise pay for capacity they never fill.
                for k in 0..stage_len_ub[j] as usize {
                    let row = (stage_base[j] + k) * lanes;
                    let mut complete: u64 = 0;
                    for (lane, rem) in slot_rem[row..row + lanes].iter_mut().enumerate() {
                        let dec = u32::from(*rem > 0);
                        progress |= u64::from(dec) << lane;
                        complete |= u64::from(*rem == 1) << lane;
                        *rem -= dec;
                    }
                    completed |= complete;
                    while complete != 0 {
                        let lane = complete.trailing_zeros() as usize;
                        complete &= complete - 1;
                        let op = slot_op[row + lane] as usize;
                        if s_local == table.commit_stage[op_class[op * lanes + lane] as usize] {
                            publish_lane(
                                op,
                                lane,
                                lanes,
                                &table.transparent,
                                op_class,
                                committed,
                                done,
                                issued,
                                commit_pending,
                                &succ_off[lane * (n + 1)..(lane + 1) * (n + 1)],
                                &succ[edge_base[lane]..edge_base[lane + 1]],
                                stack,
                                &mut done_count[lane],
                            );
                        }
                    }
                }
            }
        }

        // Phases 2 and 3, per attended live lane: an exact transcription
        // of the scalar kernel's advclock and AssignOps — lanes are
        // independent simulations, so running them back to back inside one
        // cycle is the same interleaving the per-block kernel produces.
        let act = live & (attention | completed);
        attention = 0;
        for lane in 0..lanes {
            let lbit = 1u64 << lane;
            if act & lbit == 0 {
                continue;
            }
            // Temporarily clear the lane's phase-1 progress bit so the
            // action sites below reveal whether *this* lane's phases 2–3
            // changed anything (which earns it attention next cycle).
            let phase1_progress = progress & lbit;
            progress &= !lbit;

            // Phase 2: advclock, last stage backwards, swap-remove order.
            for p in 0..n_pipes {
                let first = table.pipe_first[p];
                let np = table.pipe_first[p + 1] - first;
                let mut hi = pipe_hi[p * lanes + lane] as usize;
                for s_local in (0..hi).rev() {
                    let j = first + s_local;
                    let base = stage_base[j];
                    let mut idx = 0usize;
                    while idx < stage_len[j * lanes + lane] as usize {
                        if slot_rem[(base + idx) * lanes + lane] > 0 {
                            idx += 1;
                            continue;
                        }
                        let op = slot_op[(base + idx) * lanes + lane] as usize;
                        let ci = op_class[op * lanes + lane] as usize;
                        if s_local + 1 == np {
                            // Leaves the pipeline.
                            stage_len[j * lanes + lane] -= 1;
                            let top = stage_len[j * lanes + lane] as usize;
                            slot_op[(base + idx) * lanes + lane] =
                                slot_op[(base + top) * lanes + lane];
                            slot_rem[(base + idx) * lanes + lane] =
                                slot_rem[(base + top) * lanes + lane];
                            // Keep the vacated top slot at 0 for phase 1's
                            // branch-free sweep.
                            slot_rem[(base + top) * lanes + lane] = 0;
                            let fu = table.fu_plus1[ci * n_stages + s_local];
                            if fu != 0 {
                                fu_free[(fu as usize - 1) * lanes + lane] += 1;
                            }
                            done[op] |= lbit;
                            done_count[lane] += 1;
                            finish_cycle[lane * n + op] = cycle;
                            last_finish[lane] = last_finish[lane].max(cycle);
                            progress |= lbit;
                            continue; // same idx now holds the swapped slot
                        }
                        let ns = s_local + 1;
                        let room =
                            (stage_len[(j + 1) * lanes + lane] as usize) < table.stage_width[j + 1];
                        let operands_ok =
                            ns != table.demand_stage[ci] || commit_pending[op * lanes + lane] == 0;
                        let fu_next = table.fu_plus1[ci * n_stages + ns];
                        let fu_ok =
                            fu_next == 0 || fu_free[(fu_next as usize - 1) * lanes + lane] > 0;
                        if room && operands_ok && fu_ok {
                            stage_len[j * lanes + lane] -= 1;
                            let top = stage_len[j * lanes + lane] as usize;
                            slot_op[(base + idx) * lanes + lane] =
                                slot_op[(base + top) * lanes + lane];
                            slot_rem[(base + idx) * lanes + lane] =
                                slot_rem[(base + top) * lanes + lane];
                            slot_rem[(base + top) * lanes + lane] = 0;
                            let fu = table.fu_plus1[ci * n_stages + s_local];
                            if fu != 0 {
                                fu_free[(fu as usize - 1) * lanes + lane] += 1;
                            }
                            if fu_next != 0 {
                                fu_free[(fu_next as usize - 1) * lanes + lane] -= 1;
                            }
                            let nbase = stage_base[j + 1];
                            let nlen = stage_len[(j + 1) * lanes + lane] as usize;
                            slot_op[(nbase + nlen) * lanes + lane] = op as u32;
                            slot_rem[(nbase + nlen) * lanes + lane] =
                                table.durations[ci * n_stages + ns];
                            stage_len[(j + 1) * lanes + lane] += 1;
                            stage_len_ub[j + 1] = stage_len_ub[j + 1].max(nlen as u32 + 1);
                            hi = hi.max(s_local + 2);
                            pipe_hi_ub[p] = pipe_hi_ub[p].max(s_local as u32 + 2);
                            progress |= lbit;
                        } else {
                            idx += 1; // stalled
                        }
                    }
                }
                while hi > 0 && stage_len[(first + hi - 1) * lanes + lane] == 0 {
                    hi -= 1;
                }
                pipe_hi[p * lanes + lane] = hi as u32;
            }

            // Phase 3: AssignOps per the policy.
            let lane_order = &order[lane * n..(lane + 1) * n];
            let mut head = issue_head[lane] as usize;
            while head < n && issued[lane_order[head] as usize] & lbit != 0 {
                head += 1;
            }
            issue_head[lane] = head as u32;
            let mut stage0_open = 0usize;
            for p in 0..n_pipes {
                let j0 = table.pipe_first[p];
                stage0_open +=
                    table.stage_width[j0].saturating_sub(stage_len[j0 * lanes + lane] as usize);
            }
            'issue: for &ord in &lane_order[head..n] {
                if stage0_open == 0 {
                    break;
                }
                let op = ord as usize;
                if issued[op] & lbit != 0 {
                    continue;
                }
                let ci = op_class[op * lanes + lane] as usize;
                let ready = 0 != table.demand_stage[ci] || commit_pending[op * lanes + lane] == 0;
                if !ready {
                    if in_order {
                        break 'issue; // program order: nothing younger may pass
                    }
                    continue;
                }
                let fu0 = table.fu_plus1[ci * n_stages];
                let mut placed = false;
                for p in 0..n_pipes {
                    let j0 = table.pipe_first[p];
                    let room = (stage_len[j0 * lanes + lane] as usize) < table.stage_width[j0];
                    let fu_ok = fu0 == 0 || fu_free[(fu0 as usize - 1) * lanes + lane] > 0;
                    if room && fu_ok {
                        if fu0 != 0 {
                            fu_free[(fu0 as usize - 1) * lanes + lane] -= 1;
                        }
                        let base0 = stage_base[j0];
                        let len0 = stage_len[j0 * lanes + lane] as usize;
                        slot_op[(base0 + len0) * lanes + lane] = op as u32;
                        slot_rem[(base0 + len0) * lanes + lane] = table.durations[ci * n_stages];
                        stage_len[j0 * lanes + lane] += 1;
                        stage_len_ub[j0] = stage_len_ub[j0].max(len0 as u32 + 1);
                        let ph = &mut pipe_hi[p * lanes + lane];
                        *ph = (*ph).max(1);
                        pipe_hi_ub[p] = pipe_hi_ub[p].max(1);
                        stage0_open -= 1;
                        issued[op] |= lbit;
                        issue_cycle[lane * n + op] = cycle;
                        any_scheduled |= lbit;
                        progress |= lbit;
                        placed = true;
                        break;
                    }
                }
                if !placed && in_order {
                    break 'issue;
                }
            }

            if progress & lbit != 0 {
                attention |= lbit;
            }
            progress |= phase1_progress;
        }

        // Deadlocked lanes error out at this cycle, exactly as the scalar
        // kernel's progress check would; finished lanes leave the loop.
        let stalled = live & !progress;
        if stalled != 0 {
            for (lane, &u) in unit.iter().enumerate() {
                if stalled & (1u64 << lane) != 0 {
                    let item = &items[u as usize];
                    results[lane] = Some(Err(EstimateError::Deadlock {
                        func: item.func,
                        block: item.block_id,
                        cycle,
                    }));
                }
            }
            active &= !stalled;
            live &= !stalled;
        }
        for (lane, &dc) in done_count[..lanes].iter().enumerate() {
            if live & (1u64 << lane) != 0 && dc as usize == n {
                live &= !(1u64 << lane);
            }
        }
        cycle += 1;
    }

    for lane in 0..lanes {
        if results[lane].is_some() {
            continue; // already failed
        }
        let lbit = 1u64 << lane;
        debug_assert!(active & lbit != 0, "a successful lane stayed active");
        let raw_cycles = if any_scheduled & lbit != 0 { last_finish[lane] } else { 0 };
        let none_if_max = |c: u64| if c == u64::MAX { None } else { Some(c) };
        results[lane] = Some(Ok(ScheduleResult {
            cycles: raw_cycles.saturating_sub(table.fill_correction),
            raw_cycles,
            issue_cycle: issue_cycle[lane * n..(lane + 1) * n]
                .iter()
                .map(|&c| none_if_max(c))
                .collect(),
            finish_cycle: finish_cycle[lane * n..(lane + 1) * n]
                .iter()
                .map(|&c| none_if_max(c))
                .collect(),
        }));
    }
    results.into_iter().map(|r| r.expect("every lane resolved")).collect()
}

/// Runs the per-block kernel on one item (the closed-form / odd-shape
/// fallback).
fn solve_scalar(
    table: &IssueTable,
    scratch: &mut BatchScratch,
    item: &BatchItem<'_>,
) -> Result<Arc<ScheduleResult>, EstimateError> {
    schedule_block_prepared(
        table,
        &mut scratch.inner,
        item.block,
        item.dfg,
        item.heights,
        item.func,
        item.block_id,
    )
    .map(Arc::new)
}

/// Plans and solves a batch, optionally fanning the lane units out over
/// [`par_map`]. Results are per item, in input order; duplicates receive
/// clones of their representative's result (including cached errors, whose
/// location fields name the representative — the same sharing the schedule
/// cache already performs for identical keys).
pub fn solve_batch(
    table: &IssueTable,
    items: &[BatchItem<'_>],
    parallel: bool,
) -> Vec<Result<Arc<ScheduleResult>, EstimateError>> {
    let plan = BatchPlan::of(table, items);
    // Indexed by representative *rank*, so the buffer scales with unique
    // solves, not batch size.
    let mut rep_result: Vec<Option<Result<Arc<ScheduleResult>, EstimateError>>> =
        vec![None; plan.reps().len()];
    let rank_of = |rep: u32| plan.rep_of()[rep as usize] as usize;
    if parallel && plan.units().len() > 1 {
        let solved = par_map(plan.units(), |unit| {
            with_batch_scratch(|scratch| schedule_lanes(table, scratch, items, unit))
        });
        for (unit, unit_results) in plan.units().iter().zip(solved) {
            for (&rep, result) in unit.iter().zip(unit_results) {
                rep_result[rank_of(rep)] = Some(result.map(Arc::new));
            }
        }
        with_batch_scratch(|scratch| {
            for &rep in plan.scalars() {
                rep_result[rank_of(rep)] = Some(solve_scalar(table, scratch, &items[rep as usize]));
            }
        });
    } else {
        with_batch_scratch(|scratch| {
            for &rep in plan.scalars() {
                rep_result[rank_of(rep)] = Some(solve_scalar(table, scratch, &items[rep as usize]));
            }
            for unit in plan.units() {
                for (&rep, result) in unit.iter().zip(schedule_lanes(table, scratch, items, unit)) {
                    rep_result[rank_of(rep)] = Some(result.map(Arc::new));
                }
            }
        });
    }
    // Fan out: a representative takes (moves) its own result, duplicates
    // clone their representative's. Representatives are first occurrences,
    // so `reps[rank] <= i` and the forward pass always finds the rep's
    // entry already placed in `out`.
    let mut out: Vec<Result<Arc<ScheduleResult>, EstimateError>> = Vec::with_capacity(items.len());
    for (i, &rank) in plan.rep_of().iter().enumerate() {
        let rep = plan.reps()[rank as usize] as usize;
        let result = if rep == i {
            rep_result[rank as usize].take().expect("every representative is solved")
        } else {
            out[rep].clone()
        };
        out.push(result);
    }
    out
}

/// Schedules a batch of blocks on one thread: plan (dedup + shape
/// classing), lane-sliced solves, fan-out. The single-threaded benchmark
/// and test entry point; engine paths use [`solve_batch`] directly.
///
/// Each item's result is exactly what
/// [`schedule_block`](crate::schedule::schedule_block) would return for it
/// alone.
pub fn schedule_batch(
    table: &IssueTable,
    items: &[BatchItem<'_>],
) -> Vec<Result<Arc<ScheduleResult>, EstimateError>> {
    solve_batch(table, items, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::schedule::schedule_block;
    use std::cell::Cell;
    use tlm_cdfg::dfg::{block_dfg, schedule_key};
    use tlm_cdfg::ir::Module;

    fn module_of(src: &str) -> Module {
        tlm_cdfg::lower::lower(&tlm_minic::parse(src).expect("parses")).expect("lowers")
    }

    /// Batches every block of `module` (with duplicates appended) and
    /// checks each result against the per-block kernel.
    fn batch_matches_scalar(src: &str, repeat: usize) {
        let module = module_of(src);
        let pum = library::microblaze_like(8 << 10, 4 << 10);
        let table = IssueTable::build(&pum);
        let mut blocks = Vec::new();
        for (fid, func) in module.functions_iter() {
            for (bid, block) in func.blocks_iter() {
                let dfg = block_dfg(block);
                let key = schedule_key(block, &dfg);
                let heights = dfg.heights();
                blocks.push((fid, bid, block, dfg, key, heights));
            }
        }
        let items: Vec<BatchItem<'_>> = blocks
            .iter()
            .flat_map(|(fid, bid, block, dfg, key, heights)| {
                let item = BatchItem {
                    key,
                    key_hash: key_hash(key),
                    block,
                    dfg,
                    heights,
                    func: *fid,
                    block_id: *bid,
                };
                (0..repeat).map(move |_| item)
            })
            .collect();
        let batched = schedule_batch(&table, &items);
        assert_eq!(batched.len(), items.len());
        for (item, result) in items.iter().zip(&batched) {
            let direct = schedule_block(&pum, item.block, item.dfg, item.func, item.block_id);
            assert_eq!(
                direct.as_ref().ok(),
                result.as_ref().ok().map(|arc| &**arc),
                "batched result diverges at {}/{}",
                item.func,
                item.block_id
            );
        }
    }

    const SRC: &str = "
        int t[16];
        int f(int a, int b, int c, int d) { return (a + b) * (c + d) - a / b; }
        int g(int a) { int s = 0; for (int i = 0; i < a; i++) { s += t[i] * i; } return s; }
    ";

    #[test]
    fn batched_results_match_per_block_kernel() {
        batch_matches_scalar(SRC, 1);
    }

    thread_local! {
        /// This test thread's share of the process-wide batch counters,
        /// which sibling tests move while they run in parallel.
        static THREAD_BATCH: Cell<BatchStats> = Cell::new(BatchStats::default());
    }

    pub(super) fn count_thread_plan(plan: BatchStats) {
        THREAD_BATCH.with(|t| {
            let mut local = t.get();
            local.blocks += plan.blocks;
            local.dedup_hits += plan.dedup_hits;
            local.unique_solves += plan.unique_solves;
            local.lane_runs += plan.lane_runs;
            for (slot, count) in local.occupancy.iter_mut().zip(plan.occupancy) {
                *slot += count;
            }
            t.set(local);
        });
    }

    fn thread_batch_stats() -> BatchStats {
        THREAD_BATCH.with(Cell::get)
    }

    #[test]
    fn duplicates_are_folded_and_fanned_out() {
        let before = thread_batch_stats();
        batch_matches_scalar(SRC, 3);
        let after = thread_batch_stats();
        assert!(after.dedup_hits > before.dedup_hits, "triplicated blocks dedup");
        assert!(after.blocks - before.blocks >= 3 * (after.unique_solves - before.unique_solves));
    }

    #[test]
    fn occupancy_histogram_counts_every_unit() {
        let before = thread_batch_stats();
        batch_matches_scalar(SRC, 1);
        let after = thread_batch_stats();
        let units = after.occupancy.iter().sum::<u64>() - before.occupancy.iter().sum::<u64>();
        assert!(units > 0, "at least one unit planned");
        let solves = after.unique_solves - before.unique_solves;
        assert!(units <= solves, "units never outnumber representative solves");
    }

    #[test]
    fn empty_batch_is_empty() {
        let pum = library::microblaze_like(0, 0);
        let table = IssueTable::build(&pum);
        assert!(schedule_batch(&table, &[]).is_empty());
    }
}
