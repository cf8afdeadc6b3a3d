//! Threads and synchronization on the narrow kernel API: the §3 futex
//! example as a running program — four user threads contend on a
//! Drepper mutex for a shared counter in user memory, scheduled by the
//! kernel's round-robin scheduler across two model cores.
//!
//! Run: `cargo run --example posix_threads`

use std::cell::Cell;
use std::rc::Rc;

use veros::kernel::{Kernel, KernelConfig, Syscall};
use veros::ulib::{LockAttempt, LockState, Runtime, Step, UMutex};

const MUTEX: u64 = 0x10_0000;
const COUNTER: u64 = 0x10_0008;
const WORKERS: usize = 4;
const ROUNDS: u32 = 25;

fn main() {
    let kernel = Kernel::boot(KernelConfig {
        cores: 2,
        ..Default::default()
    })
    .expect("boot");
    let (pid, tid) = (kernel.init_pid, kernel.init_tid);
    let mut rt = Runtime::new(kernel);
    rt.kernel.sched.timeslice = 2; // Aggressive preemption.

    // One shared page: mutex word + counter.
    rt.kernel
        .syscall(
            (pid, tid),
            Syscall::Map {
                va: MUTEX,
                pages: 1,
                writable: true,
            },
        )
        .expect("map");

    let finals = Rc::new(Cell::new(0));
    // Init idles; workers do the work.
    rt.attach(pid, tid, Box::new(|_| Step::Done(0)));

    let remaining = Rc::new(Cell::new(WORKERS as u64));
    for w in 0..WORKERS {
        let mutex = UMutex::at(MUTEX);
        let mut lock_state = LockState::default();
        let mut rounds = 0u32;
        let mut in_cs = false;
        let finals = Rc::clone(&finals);
        let remaining = Rc::clone(&remaining);
        rt.spawn_task(
            (pid, tid),
            Some(w % 2), // Pin alternately to the two cores.
            Box::new(move |ctx| {
                if !in_cs {
                    match mutex.lock_attempt(ctx, &mut lock_state).expect("lock") {
                        LockAttempt::Acquired => in_cs = true,
                        _ => return Step::Yield, // Blocked or retrying.
                    }
                }
                // Critical section: read-modify-write with a deliberate
                // preemption point would be unsafe without the mutex.
                let v = ctx.read_u64(COUNTER).expect("load");
                ctx.write_u64(COUNTER, v + 1).expect("store");
                mutex.unlock(ctx).expect("unlock");
                in_cs = false;
                rounds += 1;
                if rounds == ROUNDS {
                    remaining.set(remaining.get() - 1);
                    if remaining.get() == 0 {
                        finals.set(ctx.read_u64(COUNTER).expect("load"));
                    }
                    Step::Done(0)
                } else {
                    Step::Yield
                }
            }),
        )
        .expect("spawn");
    }

    assert!(rt.run(2_000_000), "threads wedged");
    let total = finals.get();
    println!(
        "{WORKERS} threads x {ROUNDS} increments under the futex mutex = {total}"
    );
    assert_eq!(total, WORKERS as u64 * ROUNDS as u64);
    println!("no lost updates, no lost wakeups ✓ (Drepper mutex over the kernel futex)");
    println!(
        "kernel clock at exit: {} ticks across {} cores",
        rt.kernel.clock.now(),
        rt.kernel.sched.cores()
    );
}
