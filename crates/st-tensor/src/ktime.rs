//! Per-kernel timing hooks, compiled in only under the `kernel-timing`
//! cargo feature.
//!
//! Each hot kernel entry point (`gemm`, `gemm_bt`, `gemm_at`, `conv2d`,
//! `Tape::backward`) opens a [`KernelTimer`] whose drop adds the elapsed
//! nanoseconds and one call to a pair of `st-obs` counters
//! (`kernel.<name>.ns` / `kernel.<name>.calls`). Handles are resolved once
//! per process and cached, so the steady-state cost is two relaxed atomic
//! adds plus a clock read per kernel call. Without the feature this module
//! does not exist and the call sites compile to nothing — the "0% when
//! off" half of the PR-4 acceptance bar.

use std::sync::OnceLock;
use std::time::Instant;

use st_obs::Counter;

/// Which kernel a timer attributes to.
#[derive(Clone, Copy)]
pub(crate) enum Kernel {
    /// Plain row-major GEMM (`gemm`).
    Gemm,
    /// Fused `A·Bᵀ` (`gemm_bt`).
    GemmBt,
    /// Fused `Aᵀ·B` (`gemm_at`).
    GemmAt,
    /// Convolution forward (`conv2d`: im2col, then the packed GEMM).
    Conv2d,
    /// Reverse sweep over the tape (`Tape::backward`).
    Backward,
}

struct Handles {
    ns: Counter,
    calls: Counter,
}

fn handles(which: Kernel) -> &'static Handles {
    static CELLS: OnceLock<[Handles; 5]> = OnceLock::new();
    let all = CELLS.get_or_init(|| {
        let mk = |name: &str| Handles {
            ns: st_obs::counter(&format!("kernel.{name}.ns")),
            calls: st_obs::counter(&format!("kernel.{name}.calls")),
        };
        [
            mk("gemm"),
            mk("gemm_bt"),
            mk("gemm_at"),
            mk("conv2d"),
            mk("backward"),
        ]
    });
    &all[which as usize]
}

/// RAII timer: created at kernel entry, attributes elapsed time on drop.
pub(crate) struct KernelTimer {
    which: Kernel,
    started: Instant,
}

pub(crate) fn timer(which: Kernel) -> KernelTimer {
    KernelTimer {
        which,
        started: Instant::now(),
    }
}

impl Drop for KernelTimer {
    fn drop(&mut self) {
        let h = handles(self.which);
        h.ns.add(self.started.elapsed().as_nanos() as u64);
        h.calls.inc();
    }
}
