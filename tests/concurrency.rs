//! Cross-crate integration: the concurrency story — node replication
//! under real threads, the user-space synchronization stack over the
//! kernel futex, and the replicated address space the benchmarks use.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use veros::kernel::vspace::{PtKind, VSpaceDispatch, VSpaceReadOp, VSpaceWriteOp};
use veros::kernel::{Kernel, KernelConfig, Syscall};
use veros::nr::NodeReplicated;
use veros::ulib::{LockAttempt, LockState, Runtime, Step, UMutex, USemaphore};

#[test]
fn replicated_vspace_under_concurrent_threads() {
    let nr = Arc::new(NodeReplicated::new(2, 3, 128, || {
        VSpaceDispatch::new(1 << 12, PtKind::Verified)
    }));
    let mut handles = Vec::new();
    for t in 0..4usize {
        let nr = Arc::clone(&nr);
        handles.push(std::thread::spawn(move || {
            let mut tkn = nr.register(t % 2).expect("slot");
            let base = 0x1_0000_0000u64 + t as u64 * 0x100_0000;
            for i in 0..50u64 {
                let va = base + i * 4096;
                let pa = nr
                    .execute_mut(VSpaceWriteOp::MapNew { va }, &mut tkn)
                    .expect("map");
                // Linearizable read-back through the replica.
                let got = nr
                    .execute(VSpaceReadOp::Resolve { va }, &mut tkn)
                    .expect("resolve");
                assert_eq!(pa, got, "replicas must agree byte-for-byte");
            }
            for i in 0..50u64 {
                nr.execute_mut(VSpaceWriteOp::Unmap { va: base + i * 4096 }, &mut tkn)
                    .expect("unmap");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut t = nr.register(0).expect("spare");
    assert_eq!(nr.execute(VSpaceReadOp::MappedBytes, &mut t), Ok(0));
}

#[test]
fn mutex_and_semaphore_compose_over_the_kernel() {
    // A bounded buffer built from ulib primitives: 2 producers, 1
    // consumer, counting semaphores for full/empty, a mutex for the
    // cursor — the classic composition, on the model kernel.
    let kernel = Kernel::boot(KernelConfig { cores: 2, ..Default::default() }).unwrap();
    let (pid, tid) = (kernel.init_pid, kernel.init_tid);
    let mut rt = Runtime::new(kernel);
    rt.kernel.sched.timeslice = 1;
    rt.kernel
        .syscall(
            (pid, tid),
            Syscall::Map { va: 0x10_0000, pages: 1, writable: true },
        )
        .unwrap();
    // Layout: mutex @0, items-sem @4, cursor @8, buffer @16.. (8 slots).
    const MUTEX: u64 = 0x10_0000;
    const ITEMS: u64 = 0x10_0004;
    const CURSOR: u64 = 0x10_0008;
    const BUF: u64 = 0x10_0010;
    const PER_PRODUCER: u32 = 20;

    rt.attach(pid, tid, Box::new(|_| Step::Done(0)));

    for p in 0..2u32 {
        let mut produced = 0u32;
        let mut lock = LockState::default();
        let mut holding = false;
        rt.spawn_task(
            (pid, tid),
            None,
            Box::new(move |ctx| {
                if produced == PER_PRODUCER {
                    return Step::Done(0);
                }
                let m = UMutex::at(MUTEX);
                if !holding {
                    match m.lock_attempt(ctx, &mut lock).unwrap() {
                        LockAttempt::Acquired => holding = true,
                        _ => return Step::Yield,
                    }
                }
                let cursor = ctx.read_u32(CURSOR).unwrap();
                ctx.write_u32(BUF + (cursor % 8) as u64 * 4, p * 1000 + produced)
                    .unwrap();
                ctx.write_u32(CURSOR, cursor + 1).unwrap();
                m.unlock(ctx).unwrap();
                holding = false;
                USemaphore::at(ITEMS).post(ctx).unwrap();
                produced += 1;
                Step::Yield
            }),
        )
        .unwrap();
    }

    let consumed = Rc::new(Cell::new(0));
    let consumed2 = Rc::clone(&consumed);
    rt.spawn_task(
        (pid, tid),
        None,
        Box::new(move |ctx| {
            if consumed2.get() == 2 * PER_PRODUCER as u64 {
                return Step::Done(0);
            }
            match USemaphore::at(ITEMS).wait_attempt(ctx).unwrap() {
                veros::ulib::semaphore::SemAttempt::Acquired => {
                    consumed2.set(consumed2.get() + 1);
                    Step::Yield
                }
                _ => Step::Yield,
            }
        }),
    )
    .unwrap();

    assert!(rt.run(500_000), "producer/consumer wedged");
    assert_eq!(consumed.get(), 2 * PER_PRODUCER as u64);
}

#[test]
fn nr_history_is_linearizable_under_threads() {
    use veros::spec::{check_linearizable, Recorder, SeqSpec};

    #[derive(Clone, Default)]
    struct Reg(u64);
    impl veros::nr::Dispatch for Reg {
        type ReadOp = ();
        type WriteOp = u64;
        type Response = u64;
        fn dispatch(&self, _: ()) -> u64 {
            self.0
        }
        fn dispatch_mut(&mut self, v: &u64) -> u64 {
            self.0 = *v;
            0
        }
    }

    struct RegSpec;
    impl SeqSpec for RegSpec {
        type Op = (bool, u64); // (is_write, value)
        type Ret = u64;
        type State = u64;
        fn init(&self) -> u64 {
            0
        }
        fn apply(&self, s: &u64, op: &(bool, u64)) -> (u64, u64) {
            if op.0 {
                (op.1, 0)
            } else {
                (*s, *s)
            }
        }
    }

    let nr = Arc::new(NodeReplicated::new(2, 2, 64, Reg::default));
    let rec = Arc::new(Recorder::<(bool, u64), u64>::new());
    let mut handles = Vec::new();
    for t in 0..3usize {
        let nr = Arc::clone(&nr);
        let rec = Arc::clone(&rec);
        handles.push(std::thread::spawn(move || {
            let mut tkn = nr.register(t % 2).expect("slot");
            for i in 0..6u64 {
                if (t + i as usize).is_multiple_of(2) {
                    let v = t as u64 * 100 + i;
                    rec.invoke(t, (true, v));
                    let r = nr.execute_mut(v, &mut tkn);
                    rec.response(t, r);
                } else {
                    rec.invoke(t, (false, 0));
                    let r = nr.execute((), &mut tkn);
                    rec.response(t, r);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let history = Arc::try_unwrap(rec).ok().unwrap().finish();
    check_linearizable(&RegSpec, &history).expect("NR history must be linearizable");
}
