//! The `kernel_fileio` workload: one veros process doing file I/O and
//! mapping work through the syscall contract.
//!
//! The process runs as a task on `ulib::Runtime` with `enable_uring(64)`
//! over `Kernel::boot` (verified page table). Out of every 10
//! operations, 2 are a create-or-overwrite `UFile::open` + `write` +
//! `close` of one value, 7 are a chained `UFile::open_read_close`, and 1
//! maps 8 pages, touches each, and unmaps them. Each operation is timed
//! individually on the host clock; every read is compared with what the
//! process last wrote to that file, and at the end the kernel's
//! filesystem is audited file by file.
//!
//! The path exercised is `ulib` → `uring` → `kernel` syscall/marshal →
//! `pagetable`/TLB → `fs` → `hw::disk`; `cluster` and `net` do nothing.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use veros_fs::journal::JournaledFs;
use veros_fs::Path;
use veros_hw::SimDisk;
use veros_kernel::syscall::{SysError, Syscall};
use veros_kernel::{Kernel, KernelConfig};
use veros_spec::rng::SpecRng;
use veros_ulib::{Ctx, Runtime, Step, UFile};

use crate::alloc;
use crate::measure::{Rep, Tele};
use crate::trace::{Kind, Tracer};

/// Scratch region the process stages paths and data in.
const SCRATCH: u64 = 0x200_0000;
/// Where the map/touch/unmap operation maps its pages.
const MAP_VA: u64 = 0x4000_0000;
const PAGE: u64 = 4096;

/// The workload's geometry.
#[derive(Clone, Copy, Debug)]
pub struct KernelSpec {
    /// Files preloaded (and the population every operation picks from).
    pub files: u32,
    /// Bytes per file.
    pub value_bytes: usize,
    /// Operations per repetition.
    pub ops: usize,
    /// Kernel disk size; the journal never wraps, so this bounds how
    /// many writes a repetition can make before `NoSpace`.
    pub disk_sectors: u64,
    /// Pages the map/touch/unmap operation maps.
    pub map_pages: u64,
    /// Operations per task step (the task yields to the scheduler in
    /// between).
    pub batch: usize,
}

/// The full-size geometry.
pub fn spec() -> KernelSpec {
    KernelSpec {
        files: 256,
        value_bytes: 1024,
        ops: 100_000,
        disk_sectors: 1 << 20,
        map_pages: 8,
        batch: 100,
    }
}

/// What the process and the harness share.
struct State {
    spec: KernelSpec,
    rng: SpecRng,
    paths: Vec<String>,
    /// Version last written to each file (its fill byte follows).
    versions: Vec<u32>,
    /// Files whose last write was refused part-way (the kernel may have
    /// applied it in memory without committing it): their content is
    /// unknown until the next successful write, so reads of them are
    /// not compared.
    unknown: Vec<bool>,
    buf: Vec<u8>,
    preloaded: bool,
    next: usize,
    failed: u64,
    user_bytes: u64,
    op_ns: Vec<(Kind, u32)>,
    tracer: Option<Tracer>,
    /// First correctness violation seen, if any.
    wrong: Option<String>,
}

fn fill(file: u32, version: u32) -> u8 {
    ((file * 31 + version * 7 + 1) % 251) as u8
}

impl State {
    fn put(&mut self, ctx: &mut Ctx<'_>, file: u32) -> Result<(), SysError> {
        let version = self.versions[file as usize] + 1;
        self.buf.fill(fill(file, version));
        let f = UFile::open(ctx, SCRATCH, &self.paths[file as usize], true)?;
        self.unknown[file as usize] = true;
        let wrote = f.write(ctx, SCRATCH, &self.buf);
        f.close(ctx)?;
        if wrote? != self.buf.len() as u64 {
            return Err(SysError::Invalid);
        }
        self.versions[file as usize] = version;
        self.unknown[file as usize] = false;
        Ok(())
    }

    fn get(&mut self, ctx: &mut Ctx<'_>, file: u32) -> Result<(), SysError> {
        let want = self.spec.value_bytes;
        let data = UFile::open_read_close(ctx, SCRATCH, &self.paths[file as usize], want as u64)?;
        let byte = fill(file, self.versions[file as usize]);
        if !self.unknown[file as usize] && (data.len() != want || data.iter().any(|b| *b != byte)) {
            self.wrong.get_or_insert_with(|| {
                format!(
                    "read of {} returned {} bytes that are not what was last written",
                    self.paths[file as usize],
                    data.len()
                )
            });
        }
        Ok(())
    }

    fn map_touch_unmap(&mut self, ctx: &mut Ctx<'_>, stamp: u32) -> Result<(), SysError> {
        let pages = self.spec.map_pages;
        ctx.sys(Syscall::Map {
            va: MAP_VA,
            pages,
            writable: true,
        })?;
        let mut touched = Ok(());
        for p in 0..pages {
            touched = touched.and(ctx.write_u32(MAP_VA + p * PAGE, stamp));
        }
        let back = ctx.read_u32(MAP_VA + (pages - 1) * PAGE);
        ctx.sys(Syscall::Unmap { va: MAP_VA, pages })?;
        touched?;
        if back? != stamp {
            self.wrong
                .get_or_insert_with(|| "a mapped page did not hold what was written to it".into());
        }
        Ok(())
    }

    /// One task step: the whole preload first, then `batch` measured
    /// operations per step.
    fn step(&mut self, ctx: &mut Ctx<'_>) -> Step {
        if !self.preloaded {
            for file in 0..self.spec.files {
                if self.put(ctx, file).is_err() {
                    self.wrong.get_or_insert_with(|| "preload failed".into());
                }
            }
            self.preloaded = true;
            return Step::Yield;
        }
        let end = (self.next + self.spec.batch).min(self.spec.ops);
        for i in self.next..end {
            let file = self.rng.below(u64::from(self.spec.files)) as u32;
            let kind = match i % 10 {
                0 | 5 => Kind::Put,
                9 => Kind::MapUnmap,
                _ => Kind::GetChain,
            };
            let span = self
                .tracer
                .as_mut()
                .map(|t| t.open(kind, file, i as u64, None));
            let t0 = Instant::now();
            let outcome = match kind {
                Kind::Put => self.put(ctx, file),
                Kind::MapUnmap => self.map_touch_unmap(ctx, i as u32),
                _ => self.get(ctx, file),
            };
            let ns = t0.elapsed().as_nanos() as u32;
            if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
                t.close(id, 1);
            }
            self.op_ns.push((kind, ns));
            match outcome {
                Ok(()) if kind == Kind::Put => self.user_bytes += self.spec.value_bytes as u64,
                Ok(()) => {}
                // `NoSpace` and every other refusal count as failed ops.
                Err(_) => self.failed += 1,
            }
        }
        self.next = end;
        if end == self.spec.ops {
            Step::Done(0)
        } else {
            Step::Yield
        }
    }
}

/// Boots the kernel, starts the process, and runs it through preload.
fn boot(spec: KernelSpec, seed: u64) -> Result<(Runtime, Rc<RefCell<State>>), String> {
    let kernel = Kernel::boot(KernelConfig {
        disk_sectors: spec.disk_sectors,
        ..KernelConfig::default()
    })
    .map_err(|e| format!("kernel boot: {e:?}"))?;
    let (pid, tid) = (kernel.init_pid, kernel.init_tid);
    let mut rt = Runtime::new(kernel);
    rt.enable_uring(64);
    let scratch_pages = (spec.value_bytes as u64).div_ceil(PAGE) + 1;
    rt.kernel
        .syscall(
            (pid, tid),
            Syscall::Map {
                va: SCRATCH,
                pages: scratch_pages,
                writable: true,
            },
        )
        .map_err(|e| format!("map scratch: {e:?}"))?;
    let state = Rc::new(RefCell::new(State {
        spec,
        rng: SpecRng::seeded(seed),
        paths: (0..spec.files).map(|f| format!("/f{f:05}")).collect(),
        versions: vec![0; spec.files as usize],
        unknown: vec![false; spec.files as usize],
        buf: vec![0; spec.value_bytes],
        preloaded: false,
        next: 0,
        failed: 0,
        user_bytes: 0,
        op_ns: Vec::with_capacity(spec.ops),
        tracer: None,
        wrong: None,
    }));
    let shared = Rc::clone(&state);
    rt.attach(pid, tid, Box::new(move |ctx| shared.borrow_mut().step(ctx)));
    for _ in 0..64 {
        if state.borrow().preloaded {
            return Ok((rt, state));
        }
        rt.run(1);
    }
    Err("the process was never scheduled through its preload".into())
}

/// The kernel disk's `(sector writes, flushes)`; consumes the
/// filesystem (it is swapped for an empty one).
fn take_disk_stats(rt: &mut Runtime) -> (u64, u64) {
    std::mem::replace(&mut rt.kernel.fs, JournaledFs::format(SimDisk::new(1)))
        .into_disk()
        .stats()
}

/// Runs one repetition of the workload at `seed`.
pub fn run_rep(spec: KernelSpec, seed: u64, traced: bool) -> Result<Rep, String> {
    run_rep_with(spec, seed, traced, |_| {})
}

/// [`run_rep`] with a hook that runs on the kernel after the measured
/// phase and before the final audit (tests corrupt a file here).
pub fn run_rep_with(
    spec: KernelSpec,
    seed: u64,
    traced: bool,
    before_audit: impl FnOnce(&mut Kernel),
) -> Result<Rep, String> {
    let t_setup = Instant::now();
    let (mut rt, state) = boot(spec, seed)?;
    let mut rep = Rep {
        setup_s: t_setup.elapsed().as_secs_f64(),
        ..Rep::default()
    };
    let disk_preload = if traced {
        state.borrow_mut().tracer = Some(Tracer::with_capacity(spec.ops));
        take_disk_stats(&mut boot(spec, seed)?.0)
    } else {
        (0, 0)
    };

    let (tele0, alloc0, t0) = (Tele::read(), alloc::total(), Instant::now());
    let finished = rt.run(2 * (spec.ops / spec.batch.max(1)) as u64 + 64);
    rep.host_ns = t0.elapsed().as_nanos() as u64;
    rep.allocs = alloc::total().since(alloc0);
    rep.tele = Tele::read().since(tele0);

    let mut st = state.borrow_mut();
    if let Some(t) = &st.tracer {
        rep.allocs = rep.allocs.since(t.own_allocs());
    }
    rep.attempted = spec.ops as u64;
    rep.failed = st.failed + (spec.ops - st.next) as u64;
    rep.user_bytes = st.user_bytes;
    rep.op_ns = std::mem::take(&mut st.op_ns);
    rep.tracer = st.tracer.take();
    if let Some(wrong) = st.wrong.take() {
        return Err(wrong);
    }
    if !finished {
        return Err(format!(
            "the process stalled after {} of {} ops",
            st.next, spec.ops
        ));
    }
    // Final audit, straight from the kernel's filesystem.
    before_audit(&mut rt.kernel);
    for (file, path) in st.paths.iter().enumerate() {
        let parsed = Path::parse(path).map_err(|e| format!("{path}: {e:?}"))?;
        let data = rt
            .kernel
            .fs
            .fs
            .read_file(&parsed)
            .map_err(|e| format!("{path}: {e}"))?;
        let byte = fill(file as u32, st.versions[file]);
        if !st.unknown[file] && (data.len() != spec.value_bytes || data.iter().any(|b| *b != byte))
        {
            return Err(format!(
                "{path} does not hold what the process last wrote to it"
            ));
        }
    }
    if traced {
        let (w, f) = take_disk_stats(&mut rt);
        rep.disk = Some((w - disk_preload.0, f - disk_preload.1));
    }
    Ok(rep)
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::measure::check_identical;
    use veros_fs::journal::FsOp;

    /// A geometry small enough for `cargo test`.
    pub fn tiny() -> KernelSpec {
        KernelSpec {
            files: 8,
            value_bytes: 256,
            ops: 200,
            disk_sectors: 1 << 12,
            map_pages: 2,
            batch: 16,
        }
    }

    #[test]
    fn tiny_geometry_completes_verifies_and_repeats_exactly() {
        let _world = crate::world_lock();
        let a = run_rep(tiny(), 11, false).expect("runs");
        assert_eq!((a.attempted, a.failed), (200, 0));
        assert_eq!(a.op_ns.len(), 200);
        assert_eq!(a.op_ns.iter().filter(|(k, _)| *k == Kind::Put).count(), 40);
        assert_eq!(
            a.op_ns.iter().filter(|(k, _)| *k == Kind::MapUnmap).count(),
            20
        );
        assert_eq!(a.user_bytes, 40 * 256);
        let b = run_rep(tiny(), 11, true).expect("traced runs");
        check_identical("traced vs untraced", &a, &b).expect("same counts");
        let t = b.tracer.as_ref().expect("spans");
        assert_eq!(t.spans().len(), 200);
        assert_eq!(t.total(Kind::GetChain).1, 140);
        if veros_telemetry::enabled() {
            assert!(
                a.tele.sqes > 0 && a.tele.chains >= 140 && a.tele.commits >= 40,
                "{:?}",
                a.tele
            );
            // 40 writes of 256 B: one data sector + one commit sector each.
            assert_eq!(b.disk, Some((a.tele.wal_bytes / 512, a.tele.commits)));
        }
    }

    #[test]
    fn running_out_of_journal_counts_as_failed_ops_not_a_crash() {
        let _world = crate::world_lock();
        // 8 preload puts + 40 measured puts need ~150 sectors; give 64.
        let spec = KernelSpec {
            disk_sectors: 64,
            ..tiny()
        };
        let rep = run_rep(spec, 11, false).expect("NoSpace is a failed op, not an error");
        assert!(rep.failed > 0 && rep.failed <= 40, "{}", rep.failed);
    }

    #[test]
    fn a_corrupted_file_trips_the_correctness_gate() {
        let _world = crate::world_lock();
        let err = run_rep_with(tiny(), 11, false, |kernel| {
            kernel
                .fs
                .apply(FsOp::WriteAt("/f00003".into(), 0, vec![0xEE; 4]))
                .expect("write");
        })
        .err()
        .expect("a file that changed behind the process's back must fail the repetition");
        assert!(err.contains("/f00003"), "{err}");
    }
}
