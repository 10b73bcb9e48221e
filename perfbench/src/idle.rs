//! Keeps every CPU from going idle while a phase is measured.
//!
//! On a virtual machine, a CPU with nothing to run halts and hands its
//! physical core back to the host; the next wake-up (a request arriving,
//! a worker being signalled) then waits for the host to schedule it
//! again, which takes milliseconds when the host is busy and shows up as
//! "steal" time. Open-loop phases are mostly idle between requests, so
//! that wake-up delay lands on nearly every request and changes from run
//! to run with the host's load. One spinning thread per CPU at the
//! `SCHED_IDLE` policy keeps the CPUs from halting while giving way to
//! any other runnable thread at once, so the program's own threads run
//! as before. Where `SCHED_IDLE` cannot be set, nothing spins.
//!
//! A spinning vCPU still shares its physical core with the program's
//! threads, which slows compute-bound requests somewhat; see
//! `perfbench/METHOD.md` for what the spinners cost and what they buy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Linux's `SCHED_IDLE` scheduling policy.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`. Returns whether it worked.
fn make_current_thread_idle() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, properly aligned `struct sched_param`
    // for the duration of the call, and pid 0 names the calling thread;
    // the call reads nothing else and writes nothing.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The spinning threads; dropping it stops and joins them.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    /// Starts one idle-priority spinner per CPU.
    pub fn start(cpus: usize) -> IdleSpinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !make_current_thread_idle() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        IdleSpinners { stop, threads }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
