//! SIMT lock-step interpreter: executes one work-group of a kernel.
//!
//! All work-items ("lanes") of the group advance through the statement tree
//! together; per-lane control flow is realised with divergence masks
//! ([`super::mask::Mask`]). This gives OpenCL work-group semantics exactly:
//! `barrier()` is well-defined iff all lanes reach it with the same control
//! history (enforced — divergence is a trapped error, where real hardware
//! would deadlock or corrupt), and local memory is coherent within the
//! group because the group runs on one host thread.
//!
//! While executing, the interpreter charges architectural events to
//! [`GroupStats`]: instruction cycles per active warp and global-memory
//! transactions per warp after coalescing — the inputs of the timing model.

use std::collections::{BTreeMap, HashMap};

use crate::clc::ast::AddrSpace;
use crate::error::{Error, Result};
use crate::exec::ir::{Builtin, Ex, FuncIr, Module, St, StKind};
use crate::exec::launch::{BoundArg, Geometry};
use crate::exec::mask::Mask;
use crate::exec::ops;
use crate::prof::cache::{CacheConfig, GroupCacheSim, L2Record};
use crate::prof::counters::{GroupCounters, InstrClass};
use crate::timing::{CostModel, GroupStats};
use crate::types::ScalarType;

// ---- pointer encoding --------------------------------------------------------
// [63:60] tag, [59:48] base (arg index), [47:0] byte offset

pub(crate) const OFF_MASK: u64 = (1 << 48) - 1;
pub(crate) const BASE_SHIFT: u32 = 48;
pub(crate) const TAG_SHIFT: u32 = 60;
pub(crate) const TAG_GLOBAL: u64 = 1;
pub(crate) const TAG_CONST: u64 = 2;
pub(crate) const TAG_LOCAL: u64 = 3;
pub(crate) const TAG_PRIV: u64 = 4;

/// Build the pointer value for kernel argument `arg_idx` in `space`.
pub fn arg_pointer(arg_idx: usize, space: AddrSpace) -> u64 {
    let tag = match space {
        AddrSpace::Global => TAG_GLOBAL,
        AddrSpace::Constant => TAG_CONST,
        _ => unreachable!("kernel buffer args are global or constant"),
    };
    (tag << TAG_SHIFT) | ((arg_idx as u64) << BASE_SHIFT)
}

pub(crate) fn local_pointer(byte_offset: usize) -> u64 {
    (TAG_LOCAL << TAG_SHIFT) | byte_offset as u64
}

pub(crate) fn priv_pointer(byte_offset: usize) -> u64 {
    (TAG_PRIV << TAG_SHIFT) | byte_offset as u64
}

#[inline]
pub(crate) fn ptr_add(ptr: u64, delta_elems: i64, elem_size: usize) -> u64 {
    let off = ptr & OFF_MASK;
    let new =
        (off as i64).wrapping_add(delta_elems.wrapping_mul(elem_size as i64)) as u64 & OFF_MASK;
    (ptr & !OFF_MASK) | new
}

/// Execution environment shared by every work-group of a launch.
pub struct LaunchEnv<'a> {
    pub module: &'a Module,
    pub kernel: &'a FuncIr,
    pub args: &'a [BoundArg],
    pub geom: Geometry,
    pub cost: CostModel,
    pub simd: usize,
    /// Run the shadow-memory dynamic race sanitizer (tracks the last writer
    /// work-item and barrier epoch of every touched global/local cell).
    pub sanitize: bool,
    /// Collect per-group profiling counters ([`GroupCounters`]). Off by
    /// default: every counter hook is behind this flag, so a non-profiled
    /// launch pays nothing beyond the [`GroupStats`] it always kept.
    pub collect: bool,
    /// Cache-hierarchy capability of the launch device
    /// (`DeviceProfile::cache`). When present, both backends feed the
    /// charged transaction stream through a per-group L1 tag array and
    /// emit an L1-miss stream for the launch layer's shared L2 —
    /// independent of `collect`, because the cache-aware timing path needs
    /// the [`GroupStats`] hit/miss totals even without profiling.
    pub cache: Option<CacheConfig>,
}

/// One function activation record.
struct Frame {
    slots: Vec<Vec<u64>>,
    ret_mask: Mask,
    ret_val: Vec<u64>,
    brk_stack: Vec<Mask>,
    cont_stack: Vec<Mask>,
}

impl Frame {
    fn new(func: &FuncIr, nlanes: usize) -> Frame {
        Frame {
            slots: func.slots.iter().map(|_| vec![0u64; nlanes]).collect(),
            ret_mask: Mask::none(nlanes),
            ret_val: vec![0u64; nlanes],
            brk_stack: Vec::new(),
            cont_stack: Vec::new(),
        }
    }

    /// Lanes of `active` that are still running (no return/break/continue).
    fn live(&self, active: &Mask) -> Mask {
        let mut m = active.clone();
        m.and_not(&self.ret_mask);
        if let Some(b) = self.brk_stack.last() {
            m.and_not(b);
        }
        if let Some(c) = self.cont_stack.last() {
            m.and_not(c);
        }
        m
    }
}

/// Interpreter state for one work-group.
pub struct GroupRun<'a> {
    env: &'a LaunchEnv<'a>,
    nlanes: usize,
    /// Per-lane local (within group) ids per dimension.
    lid: [Vec<u64>; 3],
    /// Per-lane global ids per dimension.
    gid: [Vec<u64>; 3],
    group_id: [u64; 3],
    local_mem: Vec<u8>,
    priv_mem: Vec<u8>,
    priv_stride: usize,
    pub stats: GroupStats,
    /// Profiling counters, present iff `env.collect`.
    pub counters: Option<GroupCounters>,
    /// Per-source-line counters, present iff `env.collect`. Every delta
    /// applied to `counters` is also applied to the entry of the line
    /// currently executing (see [`Self::bump`]), so summing the map
    /// reproduces `counters` exactly.
    pub line_counters: Option<BTreeMap<usize, GroupCounters>>,
    /// 1-based source line of the statement being executed (0 = unknown).
    cur_line: usize,
    scratch: Vec<Vec<u64>>,
    call_depth: usize,
    /// Direct-mapped cache of recently touched memory segments, used for
    /// CPU-profile devices (SIMD width 1): a scalar core's caches make
    /// consecutive accesses to one line cost one memory transaction, where
    /// a GPU's coalescer needs the accesses to be simultaneous within a
    /// warp. `None` on wide-SIMT devices.
    seg_cache: Option<Vec<u64>>,
    /// Per-group L1 cache simulation, present iff the launch device has a
    /// cache capability. Charged transactions are buffered per warp and
    /// replayed through the tag array at every barrier and at the end of
    /// the run (see [`crate::prof::cache`] for why that order is the
    /// canonical, backend-independent one).
    cache: Option<GroupCacheSim>,
    /// Barrier epoch of this group (counts executed barriers), used by the
    /// shadow-memory race sanitizer.
    epoch: u32,
    /// Shadow memory for the dynamic race sanitizer: encoded pointer of
    /// every global/local cell written → (epoch, writer lane). `None` when
    /// the sanitizer is off. Intra-group only: cross-group races on global
    /// memory are the static checker's job.
    shadow: Option<HashMap<u64, (u32, u32)>>,
}

/// Lines in the CPU segment cache (x 64-byte segments = a 32 KiB L1).
const SEG_CACHE_LINES: usize = 512;

pub(crate) const MAX_CALL_DEPTH: usize = 64;

impl<'a> GroupRun<'a> {
    /// Prepare the interpreter for work-group `group` (per-dimension index).
    pub fn new(env: &'a LaunchEnv<'a>, group: [usize; 3]) -> GroupRun<'a> {
        let l = env.geom.local;
        let nlanes = l[0] * l[1] * l[2];
        let mut lid = [vec![0u64; nlanes], vec![0u64; nlanes], vec![0u64; nlanes]];
        let mut gid = [vec![0u64; nlanes], vec![0u64; nlanes], vec![0u64; nlanes]];
        for lane in 0..nlanes {
            // OpenCL linearisation: dimension 0 fastest
            let lx = lane % l[0];
            let ly = (lane / l[0]) % l[1];
            let lz = lane / (l[0] * l[1]);
            let lids = [lx, ly, lz];
            for d in 0..3 {
                lid[d][lane] = lids[d] as u64;
                gid[d][lane] = (group[d] * l[d] + lids[d]) as u64;
            }
        }
        GroupRun {
            env,
            nlanes,
            lid,
            gid,
            group_id: [group[0] as u64, group[1] as u64, group[2] as u64],
            local_mem: vec![0u8; env.kernel.local_bytes()],
            priv_mem: vec![0u8; env.kernel.priv_bytes_per_lane() * nlanes],
            priv_stride: env.kernel.priv_bytes_per_lane(),
            stats: GroupStats::default(),
            counters: env.collect.then(GroupCounters::default),
            line_counters: env.collect.then(BTreeMap::new),
            cur_line: 0,
            scratch: Vec::new(),
            call_depth: 0,
            seg_cache: if env.simd == 1 {
                Some(vec![u64::MAX; SEG_CACHE_LINES])
            } else {
                None
            },
            cache: env
                .cache
                .as_ref()
                .map(|cc| GroupCacheSim::new(cc, env.cost.segment_bytes as u64)),
            epoch: 0,
            shadow: env.sanitize.then(HashMap::new),
        }
    }

    /// Shadow-memory write hook: a cell written by two different work-items
    /// in the same barrier epoch is a write-write race.
    fn shadow_write(&mut self, ptr: u64, lane: usize, space: &'static str) -> Result<()> {
        let epoch = self.epoch;
        let Some(shadow) = &mut self.shadow else {
            return Ok(());
        };
        if let Some(&(e, l)) = shadow.get(&ptr) {
            if e == epoch && l != lane as u32 {
                return Err(Error::DataRace {
                    space,
                    offset: ptr & OFF_MASK,
                    detail: format!(
                        "work-items {l} and {lane} of one group both wrote this cell \
                         with no barrier in between"
                    ),
                });
            }
        }
        shadow.insert(ptr, (epoch, lane as u32));
        Ok(())
    }

    /// Shadow-memory read hook: reading a cell another work-item wrote in
    /// the same barrier epoch is a read-write race.
    fn shadow_read(&self, ptr: u64, lane: usize, space: &'static str) -> Result<()> {
        let Some(shadow) = &self.shadow else {
            return Ok(());
        };
        if let Some(&(e, l)) = shadow.get(&ptr) {
            if e == self.epoch && l != lane as u32 {
                return Err(Error::DataRace {
                    space,
                    offset: ptr & OFF_MASK,
                    detail: format!(
                        "work-item {lane} read a cell work-item {l} wrote \
                         with no barrier in between"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Run the kernel body for every lane of this group.
    pub fn run(&mut self) -> Result<()> {
        let kernel = self.env.kernel;
        let mut frame = Frame::new(kernel, self.nlanes);
        // bind parameters
        for (i, arg) in self.env.args.iter().enumerate() {
            let v = match arg {
                BoundArg::Buffer { space, .. } => arg_pointer(i, *space),
                BoundArg::Scalar { bits, .. } => *bits,
            };
            frame.slots[i].fill(v);
        }
        let full = Mask::full(self.nlanes);
        let result = self.exec_block(&kernel.body, &mut frame, &full);
        self.flush_cache();
        result
    }

    /// Drain the L1-miss stream accumulated by the cache model (empty when
    /// the device has no cache capability). Harvested once per group by
    /// the launch layer and replayed through the shared L2.
    pub fn take_l2_stream(&mut self) -> Vec<L2Record> {
        self.cache
            .as_mut()
            .map(|sim| std::mem::take(&mut sim.l2_stream))
            .unwrap_or_default()
    }

    /// Replay the buffered warp accesses through the group's L1 in
    /// canonical order, attributing every hit/miss to its source line —
    /// the cache model's analog of [`Self::bump`]: group totals and the
    /// per-line map move together, so sums stay equal by construction.
    fn flush_cache(&mut self) {
        let Some(mut sim) = self.cache.take() else {
            return;
        };
        sim.flush(|dsl, hit| {
            if hit {
                self.stats.l1_hits += 1;
            } else {
                self.stats.l1_misses += 1;
            }
            if let Some(c) = &mut self.counters {
                let lc = self
                    .line_counters
                    .as_mut()
                    .expect("line_counters allocated together with counters")
                    .entry(dsl as usize)
                    .or_default();
                if hit {
                    c.l1_hits += 1;
                    lc.l1_hits += 1;
                } else {
                    c.l1_misses += 1;
                    lc.l1_misses += 1;
                }
            }
        });
        self.cache = Some(sim);
    }

    // ---- helpers --------------------------------------------------------

    fn take_scratch(&mut self) -> Vec<u64> {
        match self.scratch.pop() {
            Some(mut v) => {
                debug_assert_eq!(v.len(), self.nlanes);
                v.iter_mut().for_each(|x| *x = 0);
                v
            }
            None => vec![0u64; self.nlanes],
        }
    }

    fn give_scratch(&mut self, v: Vec<u64>) {
        if self.scratch.len() < 64 {
            self.scratch.push(v);
        }
    }

    /// Apply a counter delta to the group totals *and* to the counters of
    /// the source line currently executing. Routing every profiling update
    /// through here makes "per-line sums equal the launch totals" an
    /// invariant by construction rather than a convention.
    #[inline]
    fn bump(&mut self, f: impl Fn(&mut GroupCounters)) {
        if let Some(c) = &mut self.counters {
            f(c);
            let lines = self
                .line_counters
                .as_mut()
                .expect("line_counters allocated together with counters");
            f(lines.entry(self.cur_line).or_default());
        }
    }

    #[inline]
    fn charge(&mut self, cost: u32, mask: &Mask, class: InstrClass) {
        let warps = mask.active_warps(self.env.simd) as u64;
        self.stats.cycles += cost as u64 * warps;
        self.stats.instructions += warps;
        let simd = self.env.simd;
        if self.counters.is_some() {
            let covered = mask.covered_lanes(simd) as u64;
            let active = mask.count() as u64;
            self.bump(|c| {
                c.instr.add(class, warps);
                c.lane_cycles_issued += cost as u64 * covered;
                c.divergence_lost_cycles += cost as u64 * (covered - active);
            });
        }
    }

    /// Charge global-memory transactions for the addresses of active lanes.
    /// On SIMT devices, accesses coalesce per warp within the segment size;
    /// on scalar (CPU-profile) devices, a direct-mapped segment cache
    /// models line reuse across consecutive accesses.
    fn charge_global(&mut self, addrs: &[u64], size: usize, mask: &Mask) {
        let seg = self.env.cost.segment_bytes as u64;
        let cur_line = self.cur_line as u32;
        let mut tx = 0u64;
        let mut min_tx = 0u64;
        if let Some(cache) = &mut self.seg_cache {
            let mut sim = self.cache.as_mut();
            for lane in mask.iter() {
                let a = addrs[lane];
                let first = a / seg;
                let last = (a + size as u64 - 1) / seg;
                min_tx += last - first + 1;
                for s in first..=last {
                    let slot = (s as usize) % SEG_CACHE_LINES;
                    if cache[slot] != s {
                        cache[slot] = s;
                        tx += 1;
                        // scalar cores have no warps: each transaction the
                        // segment cache lets through is its own access on
                        // stream 0 (ref-only — wg requires simd >= 2)
                        if let Some(sim) = sim.as_deref_mut() {
                            sim.record(0, s, cur_line, true);
                        }
                    }
                }
            }
        } else {
            let simd = self.env.simd;
            let mut warp_segs: Vec<u64> = Vec::with_capacity(simd);
            let nwarps = self.nlanes.div_ceil(simd);
            for w in 0..nwarps {
                warp_segs.clear();
                let lo = w * simd;
                let hi = ((w + 1) * simd).min(self.nlanes);
                let mut active_in_warp = 0u64;
                for (lane, &a) in addrs.iter().enumerate().take(hi).skip(lo) {
                    if mask.get(lane) {
                        active_in_warp += 1;
                        // an access may straddle two segments
                        warp_segs.push(a / seg);
                        let last = (a + size as u64 - 1) / seg;
                        if last != a / seg {
                            warp_segs.push(last);
                        }
                    }
                }
                if warp_segs.is_empty() {
                    continue;
                }
                // the perfectly coalesced warp would pack the same bytes
                // into back-to-back segments
                min_tx += (active_in_warp * size as u64).div_ceil(seg).max(1);
                warp_segs.sort_unstable();
                warp_segs.dedup();
                tx += warp_segs.len() as u64;
                if let Some(sim) = &mut self.cache {
                    for (i, &s) in warp_segs.iter().enumerate() {
                        sim.record(w, s, cur_line, i == 0);
                    }
                }
            }
        }
        self.stats.mem_transactions += tx;
        let bytes = mask.count() as u64 * size as u64;
        self.bump(|c| {
            c.mem_transactions += tx;
            c.mem_transactions_min += min_tx;
            c.global_bytes += bytes;
        });
        self.charge(self.env.cost.mem_issue, mask, InstrClass::Mem);
    }

    /// Local-memory counter hook: counts lane accesses and, on SIMT
    /// devices, bank conflicts — lanes of one warp addressing *distinct*
    /// 4-byte words that map to the same of 32 banks serialise into extra
    /// passes (same-word access is a broadcast, not a conflict).
    fn charge_local_counters(&mut self, addrs: &[u64], mask: &Mask) {
        if self.counters.is_none() {
            return;
        }
        let accesses = mask.count() as u64;
        let simd = self.env.simd;
        let mut conflicts = 0u64;
        if simd > 1 {
            const BANKS: u64 = 32;
            let nwarps = self.nlanes.div_ceil(simd);
            let mut words: Vec<(u64, u64)> = Vec::with_capacity(simd);
            for w in 0..nwarps {
                words.clear();
                let lo = w * simd;
                let hi = ((w + 1) * simd).min(self.nlanes);
                for (lane, &a) in addrs.iter().enumerate().take(hi).skip(lo) {
                    if mask.get(lane) {
                        let word = (a & OFF_MASK) / 4;
                        words.push((word % BANKS, word));
                    }
                }
                words.sort_unstable();
                words.dedup();
                let mut i = 0;
                while i < words.len() {
                    let bank = words[i].0;
                    let mut in_bank = 0u64;
                    while i < words.len() && words[i].0 == bank {
                        in_bank += 1;
                        i += 1;
                    }
                    conflicts += in_bank - 1;
                }
            }
        }
        self.bump(|c| {
            c.local_accesses += accesses;
            c.bank_conflicts += conflicts;
        });
    }

    /// Attribute lane-granular arithmetic to the op/flop counters.
    #[inline]
    fn count_ops(&mut self, mask: &Mask, is_float: bool, per_lane: u64) {
        if self.counters.is_some() {
            let n = mask.count() as u64 * per_lane;
            self.bump(|c| {
                c.arith_ops += n;
                if is_float {
                    c.flops += n;
                }
            });
        }
    }

    fn buffer_for(&self, ptr: u64) -> Result<&crate::buffer::Buffer> {
        buffer_for(self.env.args, ptr)
    }

    fn load_lane(&self, ptr: u64, elem: ScalarType) -> Result<u64> {
        load_lane_mem(self.env.args, &self.local_mem, &self.priv_mem, ptr, elem)
    }

    fn store_lane(&mut self, ptr: u64, elem: ScalarType, bits: u64) -> Result<()> {
        store_lane_mem(
            self.env.args,
            &mut self.local_mem,
            &mut self.priv_mem,
            ptr,
            elem,
            bits,
        )
    }

    /// Rewrite a private-space pointer to the lane's own copy.
    #[inline]
    fn lane_priv(&self, ptr: u64, lane: usize) -> u64 {
        lane_priv(ptr, lane, self.priv_stride)
    }

    // ---- statement execution ---------------------------------------------

    fn exec_block(&mut self, stmts: &[St], frame: &mut Frame, active: &Mask) -> Result<()> {
        for st in stmts {
            let live = frame.live(active);
            if !live.any() {
                break;
            }
            self.exec_stmt(st, frame, &live)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, st: &St, frame: &mut Frame, live: &Mask) -> Result<()> {
        if st.span.line != 0 {
            self.cur_line = st.span.line;
        }
        match &st.kind {
            StKind::SetSlot { slot, value } => {
                let v = self.eval(value, live, frame)?;
                for lane in live.iter() {
                    frame.slots[*slot][lane] = v[lane];
                }
                self.give_scratch(v);
            }
            StKind::Store {
                addr,
                elem,
                space,
                value,
            } => {
                let a = self.eval(addr, live, frame)?;
                let v = self.eval(value, live, frame)?;
                match space {
                    AddrSpace::Global | AddrSpace::Constant => {
                        self.charge_global(&a, elem.size(), live);
                        for lane in live.iter() {
                            self.store_lane(a[lane], *elem, v[lane])?;
                            self.shadow_write(a[lane], lane, "global")?;
                        }
                    }
                    AddrSpace::Local => {
                        self.charge(self.env.cost.local_access, live, InstrClass::Local);
                        self.stats.local_accesses += live.count() as u64;
                        self.charge_local_counters(&a, live);
                        for lane in live.iter() {
                            self.store_lane(a[lane], *elem, v[lane])?;
                            self.shadow_write(a[lane], lane, "local")?;
                        }
                    }
                    AddrSpace::Private => {
                        self.charge(self.env.cost.int_alu, live, InstrClass::Other);
                        for lane in live.iter() {
                            self.store_lane(self.lane_priv(a[lane], lane), *elem, v[lane])?;
                        }
                    }
                }
                self.give_scratch(a);
                self.give_scratch(v);
            }
            StKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let c = self.eval(cond, live, frame)?;
                self.charge(1, live, InstrClass::Control); // branch
                let mut t_mask = live.clone();
                t_mask.and_truthy(&c);
                let mut f_mask = live.clone();
                f_mask.and_falsy(&c);
                self.give_scratch(c);
                if t_mask.any() {
                    self.exec_block(then_blk, frame, &t_mask)?;
                }
                if f_mask.any() {
                    self.exec_block(else_blk, frame, &f_mask)?;
                }
            }
            StKind::Loop {
                cond,
                body,
                step,
                check_first,
            } => {
                let mut loop_active = live.clone();
                if *check_first {
                    let c = self.eval(cond, &loop_active, frame)?;
                    self.charge(1, &loop_active, InstrClass::Control);
                    loop_active.and_truthy(&c);
                    self.give_scratch(c);
                }
                while loop_active.any() {
                    frame.brk_stack.push(Mask::none(self.nlanes));
                    frame.cont_stack.push(Mask::none(self.nlanes));
                    self.exec_block(body, frame, &loop_active)?;
                    let brk = frame.brk_stack.pop().expect("pushed above");
                    frame.cont_stack.pop();
                    loop_active.and_not(&brk);
                    loop_active.and_not(&frame.ret_mask);
                    if !loop_active.any() {
                        break;
                    }
                    // `continue` lanes rejoin for the step and next test
                    self.exec_block(step, frame, &loop_active)?;
                    loop_active.and_not(&frame.ret_mask);
                    if !loop_active.any() {
                        break;
                    }
                    // the loop test is charged to the loop-header line, not
                    // to whatever line the body ended on
                    if st.span.line != 0 {
                        self.cur_line = st.span.line;
                    }
                    let c = self.eval(cond, &loop_active, frame)?;
                    self.charge(1, &loop_active, InstrClass::Control);
                    loop_active.and_truthy(&c);
                    self.give_scratch(c);
                }
            }
            StKind::Return(val) => {
                if let Some(v) = val {
                    let bits = self.eval(v, live, frame)?;
                    for lane in live.iter() {
                        frame.ret_val[lane] = bits[lane];
                    }
                    self.give_scratch(bits);
                }
                frame.ret_mask.or(live);
            }
            StKind::Break => {
                let b = frame
                    .brk_stack
                    .last_mut()
                    .expect("sema guarantees break is inside a loop");
                b.or(live);
            }
            StKind::Continue => {
                let c = frame
                    .cont_stack
                    .last_mut()
                    .expect("sema guarantees continue is inside a loop");
                c.or(live);
            }
            StKind::Barrier { .. } => {
                // every lane of the group must reach the barrier together;
                // lanes that returned or diverged make it undefined
                // behaviour in OpenCL — trapped here
                if self.call_depth == 0 {
                    if live.count() != self.nlanes {
                        return Err(Error::BarrierDivergence(format!(
                            "barrier reached by {}/{} work-items of the group",
                            live.count(),
                            self.nlanes
                        )));
                    }
                } else if live.count() != self.nlanes {
                    return Err(Error::BarrierDivergence(
                        "barrier inside a helper function reached under divergent control flow"
                            .into(),
                    ));
                }
                self.stats.barriers += 1;
                // a barrier synchronises the whole group once — a fixed
                // cost, not a per-lane one
                self.stats.cycles += self.env.cost.barrier as u64;
                self.stats.instructions += 1;
                let barrier_cycles = self.env.cost.barrier as u64;
                self.bump(|c| {
                    c.barriers += 1;
                    c.barrier_stall_cycles += barrier_cycles;
                    c.instr.add(InstrClass::Control, 1);
                });
                // the sanitizer's happens-before resets at the barrier
                self.epoch += 1;
                // the barrier is also a canonical cache replay point: both
                // backends reach it at the same kernel position, so the L1
                // sees identical access sequences either way
                self.flush_cache();
                // lock-step execution means memory is already consistent
            }
            StKind::ExprSt(e) => {
                let v = self.eval(e, live, frame)?;
                self.give_scratch(v);
            }
        }
        Ok(())
    }

    // ---- expression evaluation ---------------------------------------------

    fn eval(&mut self, e: &Ex, mask: &Mask, frame: &Frame) -> Result<Vec<u64>> {
        match e {
            Ex::Const { bits, .. } => {
                let mut out = self.take_scratch();
                out.fill(*bits);
                Ok(out)
            }
            Ex::Slot { slot, .. } => {
                let mut out = self.take_scratch();
                out.copy_from_slice(&frame.slots[*slot]);
                Ok(out)
            }
            Ex::LocalBase { alloc, .. } => {
                let off = self.env.kernel.local_allocs[*alloc].byte_offset;
                let mut out = self.take_scratch();
                out.fill(local_pointer(off));
                Ok(out)
            }
            Ex::PrivBase { alloc, .. } => {
                let off = self.env.kernel.priv_allocs[*alloc].byte_offset;
                let mut out = self.take_scratch();
                out.fill(priv_pointer(off));
                Ok(out)
            }
            Ex::PtrAdd {
                ptr,
                offset,
                elem_size,
            } => {
                let mut p = self.eval(ptr, mask, frame)?;
                let o = self.eval(offset, mask, frame)?;
                self.charge(self.env.cost.int_alu, mask, InstrClass::Int);
                for lane in mask.iter() {
                    p[lane] = ptr_add(p[lane], o[lane] as i64, *elem_size);
                }
                self.give_scratch(o);
                Ok(p)
            }
            Ex::Load { addr, elem, space } => {
                let a = self.eval(addr, mask, frame)?;
                let mut out = self.take_scratch();
                match space {
                    AddrSpace::Global | AddrSpace::Constant => {
                        self.charge_global(&a, elem.size(), mask);
                    }
                    AddrSpace::Local => {
                        self.charge(self.env.cost.local_access, mask, InstrClass::Local);
                        self.stats.local_accesses += mask.count() as u64;
                        self.charge_local_counters(&a, mask);
                    }
                    AddrSpace::Private => {
                        self.charge(self.env.cost.int_alu, mask, InstrClass::Other);
                    }
                }
                for lane in mask.iter() {
                    let ptr = if *space == AddrSpace::Private {
                        self.lane_priv(a[lane], lane)
                    } else {
                        a[lane]
                    };
                    out[lane] = self.load_lane(ptr, *elem)?;
                    match space {
                        AddrSpace::Global => self.shadow_read(ptr, lane, "global")?,
                        AddrSpace::Local => self.shadow_read(ptr, lane, "local")?,
                        AddrSpace::Constant | AddrSpace::Private => {}
                    }
                }
                self.give_scratch(a);
                Ok(out)
            }
            Ex::Bin { op, ty, l, r } => {
                let a = self.eval(l, mask, frame)?;
                let mut b = self.eval(r, mask, frame)?;
                let class = if ty.is_float() {
                    InstrClass::Float
                } else {
                    InstrClass::Int
                };
                self.charge(bin_cost(&self.env.cost, *op, *ty), mask, class);
                self.count_ops(mask, ty.is_float(), 1);
                for lane in mask.iter() {
                    b[lane] = ops::bin_op(*op, *ty, a[lane], b[lane])?;
                }
                self.give_scratch(a);
                Ok(b)
            }
            Ex::Cmp { op, ty, l, r } => {
                let a = self.eval(l, mask, frame)?;
                let mut b = self.eval(r, mask, frame)?;
                self.charge(self.env.cost.int_alu, mask, InstrClass::Int);
                for lane in mask.iter() {
                    b[lane] = ops::cmp_op(*op, *ty, a[lane], b[lane]);
                }
                self.give_scratch(a);
                Ok(b)
            }
            Ex::LogAnd { l, r } => {
                let mut a = self.eval(l, mask, frame)?;
                let mut rhs_mask = mask.clone();
                rhs_mask.and_truthy(&a);
                if rhs_mask.any() {
                    let b = self.eval(r, &rhs_mask, frame)?;
                    for lane in rhs_mask.iter() {
                        a[lane] = b[lane];
                    }
                    self.give_scratch(b);
                }
                Ok(a)
            }
            Ex::LogOr { l, r } => {
                let mut a = self.eval(l, mask, frame)?;
                let mut rhs_mask = mask.clone();
                rhs_mask.and_falsy(&a);
                if rhs_mask.any() {
                    let b = self.eval(r, &rhs_mask, frame)?;
                    for lane in rhs_mask.iter() {
                        a[lane] = b[lane];
                    }
                    self.give_scratch(b);
                }
                Ok(a)
            }
            Ex::Un { op, ty, e } => {
                let mut a = self.eval(e, mask, frame)?;
                let class = if ty.is_float() {
                    InstrClass::Float
                } else {
                    InstrClass::Int
                };
                self.charge(self.env.cost.int_alu, mask, class);
                self.count_ops(mask, ty.is_float(), 1);
                for lane in mask.iter() {
                    a[lane] = ops::un_op(*op, *ty, a[lane]);
                }
                Ok(a)
            }
            Ex::Cast { from, to, e } => {
                let mut a = self.eval(e, mask, frame)?;
                self.charge(self.env.cost.cast, mask, InstrClass::Other);
                for lane in mask.iter() {
                    a[lane] = ops::cast_bits(a[lane], *from, *to);
                }
                Ok(a)
            }
            Ex::Select { cond, t, f, .. } => {
                let c = self.eval(cond, mask, frame)?;
                let mut t_mask = mask.clone();
                t_mask.and_truthy(&c);
                let mut f_mask = mask.clone();
                f_mask.and_falsy(&c);
                self.give_scratch(c);
                let mut out = self.take_scratch();
                if t_mask.any() {
                    let tv = self.eval(t, &t_mask, frame)?;
                    for lane in t_mask.iter() {
                        out[lane] = tv[lane];
                    }
                    self.give_scratch(tv);
                }
                if f_mask.any() {
                    let fv = self.eval(f, &f_mask, frame)?;
                    for lane in f_mask.iter() {
                        out[lane] = fv[lane];
                    }
                    self.give_scratch(fv);
                }
                self.charge(self.env.cost.int_alu, mask, InstrClass::Int);
                Ok(out)
            }
            Ex::CallBuiltin { b, ty, args } => self.eval_builtin(*b, *ty, args, mask, frame),
            Ex::CallFunc { func, args, .. } => self.eval_call(*func, args, mask, frame),
        }
    }

    fn eval_builtin(
        &mut self,
        b: Builtin,
        ty: ScalarType,
        args: &[Ex],
        mask: &Mask,
        frame: &Frame,
    ) -> Result<Vec<u64>> {
        use Builtin::*;
        if b.is_geometry() {
            self.charge(self.env.cost.int_alu, mask, InstrClass::Int);
            let mut out = self.take_scratch();
            if b == GetWorkDim {
                out.fill(self.env.geom.work_dim as u64);
                return Ok(out);
            }
            let dims = self.eval(&args[0], mask, frame)?;
            for lane in mask.iter() {
                let d = (dims[lane] as u32).min(2) as usize;
                out[lane] = match b {
                    GetGlobalId => self.gid[d][lane],
                    GetLocalId => self.lid[d][lane],
                    GetGroupId => self.group_id[d],
                    GetGlobalSize => self.env.geom.global[d] as u64,
                    GetLocalSize => self.env.geom.local[d] as u64,
                    GetNumGroups => self.env.geom.num_groups()[d] as u64,
                    _ => unreachable!(),
                };
            }
            self.give_scratch(dims);
            return Ok(out);
        }
        if b.is_atomic() {
            return self.eval_atomic(b, ty, args, mask, frame);
        }
        // math builtins
        let cost = math_cost(&self.env.cost, b, ty);
        let class = math_class(b);
        match args.len() {
            1 => {
                let mut a = self.eval(&args[0], mask, frame)?;
                self.charge(cost, mask, class);
                self.count_ops(mask, ty.is_float(), 1);
                if b == AbsI {
                    for lane in mask.iter() {
                        a[lane] = if ty.is_signed() {
                            let v = (a[lane] as i64).wrapping_abs();
                            ops::cast_bits(v as u64, ScalarType::I64, ty)
                        } else {
                            a[lane]
                        };
                    }
                } else {
                    let f = math1_fn(b);
                    for lane in mask.iter() {
                        a[lane] = ops::math1(f, ty, a[lane]);
                    }
                }
                Ok(a)
            }
            2 => {
                let a = self.eval(&args[0], mask, frame)?;
                let mut c = self.eval(&args[1], mask, frame)?;
                self.charge(cost, mask, class);
                self.count_ops(mask, ty.is_float(), 1);
                if matches!(b, MaxI | MinI) {
                    for lane in mask.iter() {
                        c[lane] = int_minmax(b, ty, a[lane], c[lane]);
                    }
                } else {
                    let f = math2_fn(b);
                    for lane in mask.iter() {
                        c[lane] = ops::math2(&f, ty, a[lane], c[lane]);
                    }
                }
                self.give_scratch(a);
                Ok(c)
            }
            3 => {
                let a = self.eval(&args[0], mask, frame)?;
                let bv = self.eval(&args[1], mask, frame)?;
                let mut c = self.eval(&args[2], mask, frame)?;
                self.charge(cost, mask, class);
                // fused multiply-add: two flops per lane
                self.count_ops(mask, ty.is_float(), 2);
                for lane in mask.iter() {
                    c[lane] = ops::math3(|x, y, z| x * y + z, ty, a[lane], bv[lane], c[lane]);
                }
                self.give_scratch(a);
                self.give_scratch(bv);
                Ok(c)
            }
            _ => unreachable!("sema checks builtin arities"),
        }
    }

    fn eval_atomic(
        &mut self,
        b: Builtin,
        ty: ScalarType,
        args: &[Ex],
        mask: &Mask,
        frame: &Frame,
    ) -> Result<Vec<u64>> {
        use Builtin::*;
        let ptrs = self.eval(&args[0], mask, frame)?;
        let operands = if args.len() > 1 {
            Some(self.eval(&args[1], mask, frame)?)
        } else {
            None
        };
        self.charge(self.env.cost.atomic, mask, InstrClass::Atomic);
        self.stats.mem_transactions += mask.count() as u64; // atomics serialise
        let n = mask.count() as u64;
        // serialised by definition: issued == minimal, so atomics are
        // neutral for the coalescing-efficiency metric
        self.bump(|c| {
            c.mem_transactions += n;
            c.mem_transactions_min += n;
            c.arith_ops += n;
        });
        let mut out = self.take_scratch();
        for lane in mask.iter() {
            let ptr = ptrs[lane];
            let operand = operands.as_ref().map(|o| o[lane] as u32).unwrap_or(1);
            let off = ptr & OFF_MASK;
            let old = match ptr >> TAG_SHIFT {
                TAG_GLOBAL => {
                    let buf = self.buffer_for(ptr)?;
                    if !buf.device_access_ok(off, 4) {
                        return Err(Error::MemoryFault {
                            space: "global",
                            offset: off,
                            len: 4,
                            detail: "atomic out of bounds".into(),
                        });
                    }
                    match b {
                        AtomicAdd | AtomicInc => buf.device_atomic_add_u32(off, operand),
                        AtomicSub | AtomicDec => {
                            buf.device_atomic_add_u32(off, operand.wrapping_neg())
                        }
                        AtomicXchg => {
                            let mut prev = buf.device_load(off, 4) as u32;
                            loop {
                                let got = buf.device_atomic_cmpxchg_u32(off, prev, operand);
                                if got == prev {
                                    break;
                                }
                                prev = got;
                            }
                            prev
                        }
                        AtomicMin | AtomicMax => {
                            let mut prev = buf.device_load(off, 4) as u32;
                            loop {
                                let new = atomic_minmax(b, ty, prev, operand);
                                let got = buf.device_atomic_cmpxchg_u32(off, prev, new);
                                if got == prev {
                                    break;
                                }
                                prev = got;
                            }
                            prev
                        }
                        _ => unreachable!(),
                    }
                }
                TAG_LOCAL => {
                    // the group is single-threaded: plain read-modify-write
                    let off = off as usize;
                    if !off.is_multiple_of(4) || off + 4 > self.local_mem.len() {
                        return Err(Error::MemoryFault {
                            space: "local",
                            offset: off as u64,
                            len: 4,
                            detail: "atomic out of bounds".into(),
                        });
                    }
                    let old = load_le(&self.local_mem[off..off + 4]) as u32;
                    let new = match b {
                        AtomicAdd | AtomicInc => old.wrapping_add(operand),
                        AtomicSub | AtomicDec => old.wrapping_sub(operand),
                        AtomicXchg => operand,
                        AtomicMin | AtomicMax => atomic_minmax(b, ty, old, operand),
                        _ => unreachable!(),
                    };
                    store_le(&mut self.local_mem[off..off + 4], new as u64);
                    old
                }
                _ => {
                    return Err(Error::MemoryFault {
                        space: "unknown",
                        offset: off,
                        len: 4,
                        detail: "atomic on non-global/local pointer".into(),
                    })
                }
            };
            out[lane] = ops::cast_bits(old as u64, ScalarType::U32, ty);
        }
        self.give_scratch(ptrs);
        if let Some(o) = operands {
            self.give_scratch(o);
        }
        Ok(out)
    }

    fn eval_call(
        &mut self,
        func: usize,
        args: &[Ex],
        mask: &Mask,
        frame: &Frame,
    ) -> Result<Vec<u64>> {
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(Error::InvalidOperation(
                "device call stack overflow (recursion is not supported in OpenCL C)".into(),
            ));
        }
        let callee = &self.env.module.funcs[func];
        let mut callee_frame = Frame::new(callee, self.nlanes);
        for (i, a) in args.iter().enumerate() {
            let v = self.eval(a, mask, frame)?;
            callee_frame.slots[i].copy_from_slice(&v);
            self.give_scratch(v);
        }
        self.charge(2, mask, InstrClass::Control); // call overhead
        self.call_depth += 1;
        // callee statements attribute to their own source lines; charges
        // after the call fall back to the call site's line
        let saved_line = self.cur_line;
        let result = self.exec_block(&callee.body, &mut callee_frame, mask);
        self.cur_line = saved_line;
        self.call_depth -= 1;
        result?;
        let mut out = self.take_scratch();
        out.copy_from_slice(&callee_frame.ret_val);
        Ok(out)
    }
}

/// Resolve the buffer a global/constant pointer refers to (shared by the
/// SIMT interpreter and the [`super::wg`] bytecode VM so both produce the
/// same faults).
pub(crate) fn buffer_for(args: &[BoundArg], ptr: u64) -> Result<&crate::buffer::Buffer> {
    let base = ((ptr >> BASE_SHIFT) & 0xFFF) as usize;
    match args.get(base) {
        Some(BoundArg::Buffer { buffer, .. }) => Ok(buffer),
        _ => Err(Error::MemoryFault {
            space: "global",
            offset: ptr & OFF_MASK,
            len: 0,
            detail: format!("pointer references argument {base}, which is not a buffer"),
        }),
    }
}

/// Load one lane's element through an encoded pointer. Private-space
/// pointers must already be rewritten to the lane's copy (see
/// [`lane_priv`]).
pub(crate) fn load_lane_mem(
    args: &[BoundArg],
    local_mem: &[u8],
    priv_mem: &[u8],
    ptr: u64,
    elem: ScalarType,
) -> Result<u64> {
    let size = elem.size();
    let off = ptr & OFF_MASK;
    let raw = match ptr >> TAG_SHIFT {
        TAG_GLOBAL | TAG_CONST => {
            let buf = buffer_for(args, ptr)?;
            if !buf.device_access_ok(off, size) {
                return Err(Error::MemoryFault {
                    space: "global",
                    offset: off,
                    len: size as u64,
                    detail: format!("buffer is {} bytes", buf.len_bytes()),
                });
            }
            buf.device_load(off, size)
        }
        TAG_LOCAL => {
            let off = off as usize;
            if !off.is_multiple_of(size) || off + size > local_mem.len() {
                return Err(Error::MemoryFault {
                    space: "local",
                    offset: off as u64,
                    len: size as u64,
                    detail: format!("local memory is {} bytes", local_mem.len()),
                });
            }
            load_le(&local_mem[off..off + size])
        }
        TAG_PRIV => {
            // the caller rewrote the offset to include the lane base
            let off = off as usize;
            if off + size > priv_mem.len() {
                return Err(Error::MemoryFault {
                    space: "private",
                    offset: off as u64,
                    len: size as u64,
                    detail: "private array overrun".into(),
                });
            }
            load_le(&priv_mem[off..off + size])
        }
        _ => {
            return Err(Error::MemoryFault {
                space: "unknown",
                offset: off,
                len: size as u64,
                detail: "dereference of a non-pointer value".into(),
            })
        }
    };
    // canonicalise: sign-extend signed loads
    Ok(if elem.is_signed() {
        ops::cast_bits(raw, unsigned_twin(elem), elem)
    } else if elem == ScalarType::F32 {
        raw & 0xFFFF_FFFF
    } else {
        raw
    })
}

/// Store one lane's element through an encoded pointer (see
/// [`load_lane_mem`]).
pub(crate) fn store_lane_mem(
    args: &[BoundArg],
    local_mem: &mut [u8],
    priv_mem: &mut [u8],
    ptr: u64,
    elem: ScalarType,
    bits: u64,
) -> Result<()> {
    let size = elem.size();
    let off = ptr & OFF_MASK;
    match ptr >> TAG_SHIFT {
        TAG_GLOBAL => {
            let buf = buffer_for(args, ptr)?;
            if !buf.device_access_ok(off, size) {
                return Err(Error::MemoryFault {
                    space: "global",
                    offset: off,
                    len: size as u64,
                    detail: format!("buffer is {} bytes", buf.len_bytes()),
                });
            }
            buf.device_store(off, size, bits);
            Ok(())
        }
        TAG_CONST => Err(Error::MemoryFault {
            space: "constant",
            offset: off,
            len: size as u64,
            detail: "store through a __constant pointer".into(),
        }),
        TAG_LOCAL => {
            let off = off as usize;
            if !off.is_multiple_of(size) || off + size > local_mem.len() {
                return Err(Error::MemoryFault {
                    space: "local",
                    offset: off as u64,
                    len: size as u64,
                    detail: format!("local memory is {} bytes", local_mem.len()),
                });
            }
            store_le(&mut local_mem[off..off + size], bits);
            Ok(())
        }
        TAG_PRIV => {
            let off = off as usize;
            if off + size > priv_mem.len() {
                return Err(Error::MemoryFault {
                    space: "private",
                    offset: off as u64,
                    len: size as u64,
                    detail: "private array overrun".into(),
                });
            }
            store_le(&mut priv_mem[off..off + size], bits);
            Ok(())
        }
        _ => Err(Error::MemoryFault {
            space: "unknown",
            offset: off,
            len: size as u64,
            detail: "store through a non-pointer value".into(),
        }),
    }
}

/// Rewrite a private-space pointer to a specific lane's copy.
#[inline]
pub(crate) fn lane_priv(ptr: u64, lane: usize, priv_stride: usize) -> u64 {
    (TAG_PRIV << TAG_SHIFT) | ((ptr & OFF_MASK) + (lane * priv_stride) as u64)
}

/// Little-endian load of `bytes.len()` (1, 2, 4 or 8) bytes. The word
/// sizes every benchmark uses are single moves; a length only known at run
/// time would be a `memcpy` call per lane.
#[inline]
pub(crate) fn load_le(bytes: &[u8]) -> u64 {
    if let Ok(b) = <[u8; 4]>::try_from(bytes) {
        return u32::from_le_bytes(b) as u64;
    }
    if let Ok(b) = <[u8; 8]>::try_from(bytes) {
        return u64::from_le_bytes(b);
    }
    let mut raw = [0u8; 8];
    raw[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(raw)
}

/// Little-endian store of the low `bytes.len()` bytes of `bits`.
#[inline]
pub(crate) fn store_le(bytes: &mut [u8], bits: u64) {
    if let Ok(b) = <&mut [u8; 4]>::try_from(&mut *bytes) {
        *b = (bits as u32).to_le_bytes();
    } else if let Ok(b) = <&mut [u8; 8]>::try_from(&mut *bytes) {
        *b = bits.to_le_bytes();
    } else {
        let raw = bits.to_le_bytes();
        bytes.copy_from_slice(&raw[..bytes.len()]);
    }
}

pub(crate) fn unsigned_twin(t: ScalarType) -> ScalarType {
    match t {
        ScalarType::I8 => ScalarType::U8,
        ScalarType::I16 => ScalarType::U16,
        ScalarType::I32 => ScalarType::U32,
        ScalarType::I64 => ScalarType::U64,
        other => other,
    }
}

pub(crate) fn bin_cost(cm: &CostModel, op: crate::exec::ir::BOp, ty: ScalarType) -> u32 {
    use crate::exec::ir::BOp::*;
    if ty.is_float() {
        let base = match op {
            Add | Sub | Mul => cm.f32_alu,
            Div => cm.f32_div,
            _ => cm.f32_alu,
        };
        cm.float_cost(base, ty)
    } else {
        match op {
            Mul => cm.int_mul,
            Div | Rem => cm.int_div,
            _ => cm.int_alu,
        }
    }
}

pub(crate) fn math_cost(cm: &CostModel, b: Builtin, ty: ScalarType) -> u32 {
    use Builtin::*;
    let base = match b {
        Sqrt | Rsqrt => cm.f32_sqrt,
        Exp | Log | Log2 | Pow | Sin | Cos | Tan => cm.f32_transcendental,
        Fmod => cm.f32_div,
        MaxI | MinI | AbsI => return cm.int_alu,
        _ => cm.f32_alu,
    };
    cm.float_cost(base, ty)
}

/// Profiler instruction class of a math builtin: integer helpers hit the
/// integer ALU, everything the SFU evaluates counts as Special, the rest is
/// plain float work.
pub(crate) fn math_class(b: Builtin) -> InstrClass {
    use Builtin::*;
    match b {
        MaxI | MinI | AbsI => InstrClass::Int,
        Sqrt | Rsqrt | Exp | Log | Log2 | Pow | Sin | Cos | Tan | Fmod => InstrClass::Special,
        _ => InstrClass::Float,
    }
}

pub(crate) fn math1_fn(b: Builtin) -> fn(f64) -> f64 {
    use Builtin::*;
    match b {
        Sqrt => f64::sqrt,
        Rsqrt => |x| 1.0 / x.sqrt(),
        Fabs => f64::abs,
        Exp => f64::exp,
        Log => f64::ln,
        Log2 => f64::log2,
        Sin => f64::sin,
        Cos => f64::cos,
        Tan => f64::tan,
        Floor => f64::floor,
        Ceil => f64::ceil,
        Trunc => f64::trunc,
        Round => f64::round,
        AbsI => f64::abs, // unreachable in practice: AbsI handled as int below
        _ => unreachable!("not a unary math builtin: {b:?}"),
    }
}

pub(crate) fn math2_fn(b: Builtin) -> impl Fn(f64, f64) -> f64 {
    use Builtin::*;
    move |x: f64, y: f64| match b {
        Pow => x.powf(y),
        Fmod => x % y,
        Fmax => x.max(y),
        Fmin => x.min(y),
        _ => unreachable!("not a binary math builtin: {b:?}"),
    }
}

pub(crate) fn int_minmax(b: Builtin, ty: ScalarType, a: u64, c: u64) -> u64 {
    let take_a = if ty.is_signed() {
        let (x, y) = (a as i64, c as i64);
        if b == Builtin::MaxI {
            x >= y
        } else {
            x <= y
        }
    } else if b == Builtin::MaxI {
        a >= c
    } else {
        a <= c
    };
    if take_a {
        a
    } else {
        c
    }
}

fn atomic_minmax(b: Builtin, ty: ScalarType, old: u32, operand: u32) -> u32 {
    let take_old = if ty.is_signed() {
        let (x, y) = (old as i32, operand as i32);
        if b == Builtin::AtomicMax {
            x >= y
        } else {
            x <= y
        }
    } else if b == Builtin::AtomicMax {
        old >= operand
    } else {
        old <= operand
    };
    if take_old {
        old
    } else {
        operand
    }
}
